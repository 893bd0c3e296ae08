//===- perfbench/bench/AdaptScale.cpp - The `adapt-scale` workload --------===//
//
// One caller, closed loop: each op is one PostPassTool::adapt call, with
// its eight verify passes, over the paper programs and seeded stress
// shapes 10-100x their static size. Profiles are built in set-up, so the
// tool's layers do all of the timed work and the simulator none.
//
//===----------------------------------------------------------------------===//

#include "bench/Bench.h"

#include "core/PostPassTool.h"
#include "support/Hash.h"
#include "support/RNG.h"

using namespace ssp;
using namespace perfbench;

namespace {

struct Item {
  std::string Name;
  ir::Program Prog;
  profile::ProfileData PD;
  // The reference output, fixed by the set-up's run.
  unsigned Slices = 0;
  uint64_t OutputBytes = 0;
  uint64_t OutputHash = 0;
};

class AdaptScale final : public Workload {
public:
  AdaptScale(uint64_t Seed, SpanRecorder *Spans) : Seed(Seed) {
    std::vector<workloads::Workload> Ws = workloads::paperSuite();
    // Four stress shapes, small to large. The seed moves each by at most
    // two functions, so it varies the inputs without changing the amount
    // of work a pass does by more than a few percent.
    RNG R(Seed);
    const unsigned Shapes[4][3] = {
        {24, 8, 2}, {32, 12, 3}, {40, 12, 4}, {48, 16, 4}};
    for (const auto &S : Shapes)
      Ws.push_back(workloads::makeStress(
          S[0] + static_cast<unsigned>(R.nextBelow(3)), S[1], S[2]));
    for (workloads::Workload &W : Ws) {
      Item It;
      It.Name = W.Name;
      {
        SpanScope S(Spans, "workloads.build");
        It.Prog = W.Build();
      }
      {
        SpanScope S(Spans, "profile.run");
        It.PD = core::profileProgram(It.Prog, W.BuildMemory);
      }
      Items.push_back(std::move(It));
    }
    // Warm-up and reference: every item adapted once.
    for (Item &It : Items) {
      core::AdaptationReport Rep;
      ir::Program Out;
      {
        SpanScope S(Spans, "core.adapt");
        Out = adapt(It, nullptr, Rep);
      }
      std::string Text = Out.str();
      It.Slices = Rep.numSlices();
      It.OutputBytes = Text.size();
      It.OutputHash = support::hashString(Text);
    }
  }

  size_t passLength() const override { return Items.size(); }

  void restart(obs::Registry *M) override { Metrics = M; }

  OpResult runOp(uint64_t Seq, SpanRecorder *Spans) override {
    size_t N = Items.size();
    OpResult R;
    R.Input = passOrder(Seed, Seq / N, N)[Seq % N];
    const Item &It = Items[R.Input];
    core::AdaptationReport Rep;
    auto Start = std::chrono::steady_clock::now();
    ir::Program Out;
    {
      SpanScope S(Spans, "core.adapt");
      Out = adapt(It, Metrics, Rep);
    }
    R.Ms = msSince(Start);
    std::string Text = Out.str();
    if (Rep.VerifyErrors)
      R.Error = It.Name + ": " + std::to_string(Rep.VerifyErrors) +
                " verify error(s) in the adapted binary";
    else if (Rep.numSlices() != It.Slices || Text.size() != It.OutputBytes ||
             support::hashString(Text) != It.OutputHash)
      R.Error = It.Name + ": adapted binary differs from its first run";
    return R;
  }

  CountMap counts() const override {
    uint64_t Slices = 0, Bytes = 0, Hash = support::HashSeed;
    for (const Item &It : Items) {
      Slices += It.Slices;
      Bytes += It.OutputBytes;
      Hash = support::hashValue(It.OutputHash, Hash);
    }
    return {{"adapt.slices", std::to_string(Slices)},
            {"core.output_bytes", std::to_string(Bytes)},
            {"core.output_hash", std::to_string(Hash)}};
  }

  void layerMetrics(MetricMap &M, size_t,
                    const SpanRecorder &) const override {
    uint64_t Bytes = 0;
    for (const Item &It : Items)
      Bytes += It.OutputBytes;
    M["core.output_bytes"].Value = static_cast<double>(Bytes);
  }

private:
  static ir::Program adapt(const Item &It, obs::Registry *Metrics,
                           core::AdaptationReport &Rep) {
    core::ToolOptions TO;
    TO.FatalOnVerifyError = false;
    TO.Metrics = Metrics;
    core::PostPassTool Tool(It.Prog, It.PD, TO);
    return Tool.adapt(&Rep);
  }

  uint64_t Seed;
  std::vector<Item> Items;
  obs::Registry *Metrics = nullptr;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeAdaptScale(uint64_t Seed,
                                                    SpanRecorder *Spans) {
  return std::make_unique<AdaptScale>(Seed, Spans);
}
