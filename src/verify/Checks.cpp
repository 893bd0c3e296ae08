//===- verify/Checks.cpp - The SSP verification passes --------------------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
//
// Implements the semantic verification passes over adapted programs:
// translation validation, the stub contract, slice dataflow (live-in
// completeness, LIB staging, chain termination, prefetch coverage) and the
// lints. The slice checks run over a dedicated attachment-flow graph: the
// analysis::CFG deliberately excludes stub/slice blocks (they are reached
// via chk.c and spawn, not fallthrough), so the passes here rebuild the
// speculative thread's view of control flow, in which a spawn is a thread
// *entry point* with a zeroed register file rather than a dataflow edge.
//
//===----------------------------------------------------------------------===//

#include "verify/Checks.h"

#include "analysis/CFG.h"
#include "analysis/ReachingDefs.h"
#include "ir/Program.h"
#include "ir/Verifier.h"

#include <algorithm>
#include <bitset>
#include <map>
#include <set>
#include <string>
#include <vector>

using namespace ssp;
using namespace ssp::ir;
using namespace ssp::verify;

namespace {

/// Registers defined for sure at a program point of a speculative thread.
using RegSet = std::bitset<Reg::NumDenseIndices>;
/// LIB slots staged for sure by the current thread.
using SlotSet = std::bitset<LIBSlots>;

/// Dense index of p0 (hardwired true, like r0 is hardwired zero).
constexpr unsigned P0Dense = NumIntRegs + NumFPRegs;

std::string blockName(const Function &F, uint32_t B) {
  const std::string &N = F.block(B).Name;
  return N.empty() ? ("bb" + std::to_string(B)) : N;
}

//===----------------------------------------------------------------------===//
// Attachment flow graph
//===----------------------------------------------------------------------===//

/// The speculative thread's control flow within one function: intra-thread
/// edges between slice blocks (branch, jump, fallthrough) plus the set of
/// spawn sites. Spawn targets are thread entry points, not edges.
struct SliceGraph {
  const Function &F;
  std::vector<uint32_t> SliceBlocks;
  /// Intra-thread successors per slice block (only valid slice targets).
  std::map<uint32_t, std::vector<uint32_t>> Succ;
  /// Every spawn site in the function (stub, slice or body blocks).
  std::vector<analysis::InstRef> Spawns;
  /// Slice blocks some spawn targets.
  std::set<uint32_t> Entries;
  /// Slice blocks reachable intra-thread from some entry.
  std::set<uint32_t> Reachable;

  explicit SliceGraph(const Function &F) : F(F) {}
};

/// Builds the graph and reports structural slice-exit violations: a slice
/// block whose control flow leaves p-slice code would let a speculative
/// thread execute (and corrupt state through) main-thread code.
SliceGraph buildSliceGraph(const Function &F, DiagnosticEngine &DE) {
  SliceGraph G(F);
  for (const BasicBlock &BB : F.blocks()) {
    for (uint32_t Idx = 0; Idx < BB.Insts.size(); ++Idx)
      if (BB.Insts[Idx].Op == Opcode::Spawn) {
        G.Spawns.push_back({F.getIndex(), BB.Index, Idx});
        G.Entries.insert(BB.Insts[Idx].Target);
      }
    if (BB.Kind != BlockKind::Slice)
      continue;
    G.SliceBlocks.push_back(BB.Index);
    auto &Out = G.Succ[BB.Index];
    auto AddSucc = [&](uint32_t T, const char *How) {
      if (T >= F.numBlocks() ||
          F.block(T).Kind != BlockKind::Slice) {
        DE.errorInBlock(
            "slice.exit", F.getIndex(), BB.Index,
            "in " + F.getName() + ": p-slice block " +
                blockName(F, BB.Index) + " " + How +
                (T < F.numBlocks() ? " non-slice block " + blockName(F, T)
                                   : std::string(" past the function end")),
            "speculative threads must stay inside p-slice code; end the "
            "chain with kill_thread");
        return;
      }
      Out.push_back(T);
    };
    const Instruction &Last = BB.Insts.back();
    if (Last.Op == Opcode::Br) {
      AddSucc(Last.Target, "branches to");
      AddSucc(BB.Index + 1, "falls through to");
    } else if (Last.Op == Opcode::Jmp) {
      AddSucc(Last.Target, "jumps to");
    }
    // KillThread/Ret/Halt/Rfi: no intra-thread successor (and the latter
    // three are already structural.slice-opcode errors).
  }

  // Intra-thread reachability from the spawn entry points.
  std::vector<uint32_t> Work;
  for (uint32_t E : G.Entries)
    if (E < F.numBlocks() && F.block(E).Kind == BlockKind::Slice &&
        G.Reachable.insert(E).second)
      Work.push_back(E);
  while (!Work.empty()) {
    uint32_t B = Work.back();
    Work.pop_back();
    for (uint32_t S : G.Succ[B])
      if (G.Reachable.insert(S).second)
        Work.push_back(S);
  }
  return G;
}

/// LIB slots read (via lib.ld) by the thread started at \p Entry.
SlotSet requiredSlots(const SliceGraph &G, uint32_t Entry) {
  SlotSet Req;
  std::set<uint32_t> Seen;
  std::vector<uint32_t> Work{Entry};
  while (!Work.empty()) {
    uint32_t B = Work.back();
    Work.pop_back();
    if (B >= G.F.numBlocks() || G.F.block(B).Kind != BlockKind::Slice ||
        !Seen.insert(B).second)
      continue;
    for (const Instruction &I : G.F.block(B).Insts)
      if (I.Op == Opcode::CopyFromLIB && I.Target < LIBSlots)
        Req.set(I.Target);
    auto It = G.Succ.find(B);
    if (It != G.Succ.end())
      for (uint32_t S : It->second)
        Work.push_back(S);
  }
  return Req;
}

/// Blocks a thread started at \p Entry executes unconditionally: follows
/// only unconditional jumps. A conditional branch (or kill) means the rest
/// of the chain is guarded and can terminate.
std::set<uint32_t> unconditionalClosure(const SliceGraph &G, uint32_t Entry) {
  std::set<uint32_t> Out;
  uint32_t B = Entry;
  while (B < G.F.numBlocks() && G.F.block(B).Kind == BlockKind::Slice &&
         Out.insert(B).second) {
    const BasicBlock &BB = G.F.block(B);
    if (BB.Insts.empty() || BB.Insts.back().Op != Opcode::Jmp)
      break;
    B = BB.Insts.back().Target;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Translation validation
//===----------------------------------------------------------------------===//

bool instEqual(const Instruction &A, const Instruction &B) {
  return A.Op == B.Op && A.Cond == B.Cond && A.Dst == B.Dst &&
         A.Src1 == B.Src1 && A.Src2 == B.Src2 && A.Imm == B.Imm &&
         A.Target == B.Target && A.Id == B.Id;
}

class TranslationValidationPass : public VerifyPass {
public:
  const char *name() const override { return "translation"; }

  void run(const VerifyContext &Ctx, DiagnosticEngine &DE) override {
    if (!Ctx.Orig)
      return;
    const Program &N = Ctx.P;
    const Program &O = *Ctx.Orig;
    unsigned ErrorsBefore = DE.errorCount();
    if (N.numFuncs() != O.numFuncs()) {
      DE.errorInProgram("tv.func-count",
                        "adapted program has " +
                            std::to_string(N.numFuncs()) +
                            " functions, the original has " +
                            std::to_string(O.numFuncs()));
      return;
    }
    if (N.getEntry() != O.getEntry())
      DE.errorInProgram("tv.entry-changed",
                        "adaptation changed the entry function from fn" +
                            std::to_string(O.getEntry()) + " to fn" +
                            std::to_string(N.getEntry()));
    unsigned InsertedTriggers = 0;
    for (uint32_t FI = 0; FI < N.numFuncs(); ++FI)
      validateFunction(N.func(FI), O.func(FI), DE, InsertedTriggers);
    // Only compare against the plan when the diff itself was clean;
    // otherwise the count is meaningless.
    if (Ctx.Manifest && DE.errorCount() == ErrorsBefore &&
        InsertedTriggers != Ctx.Manifest->PlannedTriggers)
      DE.errorInProgram(
          "tv.trigger-count",
          "rewriter planned " +
              std::to_string(Ctx.Manifest->PlannedTriggers) +
              " chk.c trigger insertions but " +
              std::to_string(InsertedTriggers) + " were found",
          "the rewrite plan and the emitted binary disagree; the "
          "adaptation must be regenerated");
  }

private:
  void validateFunction(const Function &NF, const Function &OF,
                        DiagnosticEngine &DE, unsigned &InsertedTriggers) {
    uint32_t FI = NF.getIndex();
    if (NF.getName() != OF.getName()) {
      DE.errorInFunc("tv.func-renamed", FI,
                     "function fn" + std::to_string(FI) + " renamed from " +
                         OF.getName() + " to " + NF.getName());
      return;
    }
    if (NF.numBlocks() < OF.numBlocks()) {
      DE.errorInFunc("tv.block-removed", FI,
                     "adaptation removed blocks from " + OF.getName() +
                         " (" + std::to_string(OF.numBlocks()) + " -> " +
                         std::to_string(NF.numBlocks()) + ")");
      return;
    }
    for (uint32_t BI = 0; BI < OF.numBlocks(); ++BI)
      validateBlock(NF, NF.block(BI), OF.block(BI), DE, InsertedTriggers);
    // Anything appended beyond the original layout must be SSP attachment
    // code; new body blocks would change main-thread control flow.
    for (uint32_t BI = static_cast<uint32_t>(OF.numBlocks());
         BI < NF.numBlocks(); ++BI)
      if (!NF.block(BI).isAttachment())
        DE.errorInBlock("tv.new-body-block", FI, BI,
                        "in " + NF.getName() +
                            ": adaptation appended body block " +
                            blockName(NF, BI),
                        "appended blocks must be chk.c stubs or p-slices");
  }

  void validateBlock(const Function &NF, const BasicBlock &NB,
                     const BasicBlock &OB, DiagnosticEngine &DE,
                     unsigned &InsertedTriggers) {
    uint32_t FI = NF.getIndex();
    if (NB.Kind != OB.Kind) {
      DE.errorInBlock("tv.block-kind", FI, NB.Index,
                      "in " + NF.getName() + ": block " +
                          blockName(NF, NB.Index) +
                          " changed kind during adaptation");
      return;
    }
    if (OB.isAttachment()) {
      // Pre-existing attachments (already-adapted inputs) are opaque to
      // the rewriter and must survive verbatim.
      bool Same = NB.Insts.size() == OB.Insts.size();
      for (size_t Idx = 0; Same && Idx < OB.Insts.size(); ++Idx)
        Same = instEqual(NB.Insts[Idx], OB.Insts[Idx]);
      if (!Same)
        DE.errorInBlock("tv.attachment-modified", FI, NB.Index,
                        "in " + NF.getName() +
                            ": pre-existing attachment block " +
                            blockName(NF, NB.Index) + " was modified");
      return;
    }
    // Body block: the adapted block must be the original instruction
    // sequence with zero or more chk.c triggers spliced in.
    size_t OI = 0, NI = 0;
    while (OI < OB.Insts.size() && NI < NB.Insts.size()) {
      if (instEqual(NB.Insts[NI], OB.Insts[OI])) {
        ++OI;
        ++NI;
        continue;
      }
      if (NB.Insts[NI].Op == Opcode::ChkC) {
        ++InsertedTriggers;
        ++NI;
        continue;
      }
      DE.error("tv.inst-changed",
               {FI, NB.Index, static_cast<uint32_t>(NI)},
               "in " + NF.getName() + " bb" + std::to_string(NB.Index) +
                   ": adapted code diverges from the original: expected '" +
                   OB.Insts[OI].str() + "', found '" + NB.Insts[NI].str() +
                   "'",
               "the rewriter may only insert chk.c triggers into body "
               "blocks; every original instruction must be preserved");
      return;
    }
    if (OI < OB.Insts.size()) {
      DE.error("tv.inst-changed",
               {FI, NB.Index, static_cast<uint32_t>(NI ? NI - 1 : 0)},
               "in " + NF.getName() + " bb" + std::to_string(NB.Index) +
                   ": original instruction '" + OB.Insts[OI].str() +
                   "' is missing from the adapted block");
      return;
    }
    for (; NI < NB.Insts.size(); ++NI) {
      if (NB.Insts[NI].Op == Opcode::ChkC) {
        ++InsertedTriggers;
        continue;
      }
      DE.error("tv.inst-changed",
               {FI, NB.Index, static_cast<uint32_t>(NI)},
               "in " + NF.getName() + " bb" + std::to_string(NB.Index) +
                   ": adaptation appended non-trigger instruction '" +
                   NB.Insts[NI].str() + "'");
      return;
    }
  }
};

//===----------------------------------------------------------------------===//
// Stub contract
//===----------------------------------------------------------------------===//

class StubContractPass : public VerifyPass {
public:
  const char *name() const override { return "stub-contract"; }

  void run(const VerifyContext &Ctx, DiagnosticEngine &DE) override {
    for (uint32_t FI = 0; FI < Ctx.P.numFuncs(); ++FI) {
      const Function &F = Ctx.P.func(FI);
      for (const BasicBlock &BB : F.blocks())
        if (BB.Kind == BlockKind::Stub)
          checkStub(F, BB, DE);
    }
  }

private:
  void checkStub(const Function &F, const BasicBlock &BB,
                 DiagnosticEngine &DE) {
    bool HasSpawn = false;
    for (uint32_t Idx = 0; Idx < BB.Insts.size(); ++Idx) {
      const Instruction &I = BB.Insts[Idx];
      analysis::InstRef Ref{F.getIndex(), BB.Index, Idx};
      switch (I.Op) {
      case Opcode::Br:
      case Opcode::Jmp:
      case Opcode::Call:
      case Opcode::CallInd:
      case Opcode::Ret:
      case Opcode::Halt:
      case Opcode::ChkC:
      case Opcode::KillThread:
        DE.error("stub.opcode", Ref,
                 "in " + F.getName() + " bb" + std::to_string(BB.Index) +
                     ": control transfer '" + I.str() +
                     "' inside a chk.c recovery stub",
                 "a stub only marshals live-ins to the LIB, spawns, and "
                 "returns with rfi");
        continue;
      case Opcode::Spawn:
        HasSpawn = true;
        continue;
      case Opcode::CopyToLIB:
      case Opcode::CopyToLIBI:
        continue;
      default:
        break;
      }
      // Any architectural register write would survive the rfi and corrupt
      // the interrupted thread: the chk.c recovery path must be
      // transparent. (There is no save/restore in this IR; lib.st is the
      // register-free staging primitive.)
      Reg D = I.def();
      if (D.isValid())
        DE.error("stub.clobber", Ref,
                 "in " + F.getName() + " bb" + std::to_string(BB.Index) +
                     ": stub clobbers " + D.str() + " ('" + I.str() +
                     "'); the interrupted thread resumes with a corrupted "
                     "register",
                 "move the computation into the p-slice and pass its "
                 "inputs through the LIB instead");
    }
    if (!HasSpawn)
      DE.warningInBlock("stub.no-spawn", F.getIndex(), BB.Index,
                        "in " + F.getName() + ": stub block " +
                            blockName(F, BB.Index) +
                            " never spawns a speculative thread");
  }
};

//===----------------------------------------------------------------------===//
// Slice dataflow
//===----------------------------------------------------------------------===//

class SliceDataflowPass : public VerifyPass {
public:
  const char *name() const override { return "slice-dataflow"; }

  void run(const VerifyContext &Ctx, DiagnosticEngine &DE) override {
    for (uint32_t FI = 0; FI < Ctx.P.numFuncs(); ++FI) {
      const Function &F = Ctx.P.func(FI);
      SliceGraph G = buildSliceGraph(F, DE);
      if (G.SliceBlocks.empty() && G.Spawns.empty())
        continue;
      checkUnreachable(G, DE);
      checkLoops(G, DE);
      checkDataflow(G, DE);
      checkChainTermination(G, DE);
      checkPrefetchCoverage(G, Ctx, DE);
    }
    if (Ctx.Manifest)
      checkManifestBudgets(Ctx, DE);
  }

private:
  void checkUnreachable(const SliceGraph &G, DiagnosticEngine &DE) {
    for (uint32_t B : G.SliceBlocks)
      if (!G.Reachable.count(B))
        DE.warningInBlock("slice.unreachable", G.F.getIndex(), B,
                          "in " + G.F.getName() + ": p-slice block " +
                              blockName(G.F, B) +
                              " is not reachable from any spawn");
  }

  /// A cycle in the intra-thread flow means one speculative thread loops.
  /// SSP slices are straight-line chains: far-ahead runahead comes from
  /// chained spawns (each bounded by the trip budget), never from a thread
  /// that iterates privately and can run away from its context.
  void checkLoops(const SliceGraph &G, DiagnosticEngine &DE) {
    std::map<uint32_t, int> Color; // 0 white, 1 grey, 2 black
    for (uint32_t B : G.SliceBlocks)
      if (Color[B] == 0)
        dfsLoop(G, B, Color, DE);
  }

  void dfsLoop(const SliceGraph &G, uint32_t B,
               std::map<uint32_t, int> &Color, DiagnosticEngine &DE) {
    Color[B] = 1;
    auto It = G.Succ.find(B);
    if (It != G.Succ.end())
      for (uint32_t S : It->second) {
        if (Color[S] == 1) {
          DE.errorInBlock("slice.loop", G.F.getIndex(), B,
                          "in " + G.F.getName() +
                              ": p-slice control flow loops through " +
                              blockName(G.F, S),
                          "unroll the loop into a chained spawn so each "
                          "thread stays bounded");
          continue;
        }
        if (Color[S] == 0)
          dfsLoop(G, S, Color, DE);
      }
    Color[B] = 2;
  }

  struct FlowState {
    bool Known = false;
    RegSet Defined;
    SlotSet Staged;
  };

  static FlowState entryState() {
    FlowState S;
    S.Known = true;
    S.Defined.set(0);       // r0 hardwired to zero.
    S.Defined.set(P0Dense); // p0 hardwired to true.
    return S;
  }

  static void meet(FlowState &Into, const FlowState &From) {
    if (!From.Known)
      return;
    if (!Into.Known) {
      Into = From;
      return;
    }
    Into.Defined &= From.Defined;
    Into.Staged &= From.Staged;
  }

  /// Applies one instruction's effect on the must-defined/must-staged
  /// state (no diagnostics).
  static void transfer(const Instruction &I, FlowState &S) {
    if ((I.Op == Opcode::CopyToLIB || I.Op == Opcode::CopyToLIBI) &&
        I.Target < LIBSlots)
      S.Staged.set(I.Target);
    Reg D = I.def();
    if (D.isValid())
      S.Defined.set(D.denseIndex());
  }

  /// Forward must-analysis over the slice graph, then one reporting walk.
  /// A speculative thread starts at a spawn target with a *zeroed* register
  /// file (the simulator's resetForSpawn), so the only defined values at
  /// entry are the hardwired r0/p0; everything else must be computed
  /// in-slice or loaded from the LIB. The staged-slot component powers the
  /// spawn-site staging check: at every spawn, the LIB slots the spawned
  /// thread will read must have been staged by this thread on every path.
  void checkDataflow(const SliceGraph &G, DiagnosticEngine &DE) {
    std::map<uint32_t, FlowState> In;
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (uint32_t B : G.SliceBlocks) {
        if (!G.Reachable.count(B))
          continue;
        FlowState NewIn;
        if (G.Entries.count(B))
          NewIn = entryState();
        else
          for (uint32_t P : predsOf(G, B))
            meet(NewIn, outOf(G, P, In));
        if (!NewIn.Known)
          continue;
        FlowState &Cur = In[B];
        if (!Cur.Known || Cur.Defined != NewIn.Defined ||
            Cur.Staged != NewIn.Staged) {
          Cur = NewIn;
          Changed = true;
        }
      }
    }
    // Reporting walk.
    for (uint32_t B : G.SliceBlocks) {
      auto It = In.find(B);
      if (It == In.end() || !It->second.Known)
        continue;
      FlowState S = It->second;
      const BasicBlock &BB = G.F.block(B);
      for (uint32_t Idx = 0; Idx < BB.Insts.size(); ++Idx) {
        const Instruction &I = BB.Insts[Idx];
        analysis::InstRef Ref{G.F.getIndex(), B, Idx};
        I.forEachUse([&](Reg R) {
          if (!R.isValid() || S.Defined.test(R.denseIndex()))
            return;
          DE.error("slice.livein", Ref,
                   "in " + G.F.getName() + " bb" + std::to_string(B) +
                       ": " + R.str() + " read in p-slice ('" + I.str() +
                       "') but neither computed in the slice nor loaded "
                       "from the live-in buffer",
                   "stage the value in the stub with lib.st and load it "
                   "with lib.ld at the top of the slice");
          // Suppress cascading reports of the same register.
          S.Defined.set(R.denseIndex());
        });
        if (I.Op == Opcode::Spawn)
          checkSpawnStaging(G, Ref, I, S.Staged, DE);
        transfer(I, S);
      }
    }
    // Stub spawns: the main thread stages within the stub block itself
    // (block-local scan; chk.c can fire anywhere, so earlier main-thread
    // LIBStage contents are not dependable).
    for (const analysis::InstRef &Ref : G.Spawns) {
      const BasicBlock &BB = G.F.block(Ref.Block);
      if (BB.Kind == BlockKind::Slice)
        continue; // Handled with full dataflow above.
      SlotSet Staged;
      for (uint32_t Idx = 0; Idx < Ref.Inst; ++Idx) {
        const Instruction &I = BB.Insts[Idx];
        if ((I.Op == Opcode::CopyToLIB || I.Op == Opcode::CopyToLIBI) &&
            I.Target < LIBSlots)
          Staged.set(I.Target);
      }
      checkSpawnStaging(G, Ref, BB.Insts[Ref.Inst], Staged, DE);
    }
  }

  void checkSpawnStaging(const SliceGraph &G, const analysis::InstRef &Ref,
                         const Instruction &Spawn, const SlotSet &Staged,
                         DiagnosticEngine &DE) {
    SlotSet Req = requiredSlots(G, Spawn.Target);
    SlotSet Missing = Req & ~Staged;
    if (Missing.none())
      return;
    std::string Slots;
    for (unsigned S = 0; S < LIBSlots; ++S)
      if (Missing.test(S))
        Slots += (Slots.empty() ? "" : ", ") + std::to_string(S);
    DE.error("slice.livein-staging", Ref,
             "in " + G.F.getName() + " bb" + std::to_string(Ref.Block) +
                 ": spawn of " + blockName(G.F, Spawn.Target) +
                 " but LIB slot" + (Missing.count() > 1 ? "s " : " ") +
                 Slots + (Missing.count() > 1 ? " are" : " is") +
                 " not staged on every path to the spawn",
             "add lib.st/lib.sti for the missing slot before the spawn; "
             "the spawned thread reads them via lib.ld");
  }

  /// A chained spawn whose target unconditionally re-executes the spawn
  /// re-arms forever: nothing bounds the chain. The guard must be a
  /// conditional branch (computed spawn condition or trip-budget compare)
  /// between the chain entry and the spawn.
  void checkChainTermination(const SliceGraph &G, DiagnosticEngine &DE) {
    for (const analysis::InstRef &Ref : G.Spawns) {
      if (G.F.block(Ref.Block).Kind != BlockKind::Slice)
        continue;
      uint32_t Target = G.F.block(Ref.Block).Insts[Ref.Inst].Target;
      // Cycle at all?
      std::set<uint32_t> FromTarget;
      std::vector<uint32_t> Work{Target};
      while (!Work.empty()) {
        uint32_t B = Work.back();
        Work.pop_back();
        if (!FromTarget.insert(B).second)
          continue;
        auto It = G.Succ.find(B);
        if (It != G.Succ.end())
          for (uint32_t S : It->second)
            Work.push_back(S);
      }
      if (!FromTarget.count(Ref.Block))
        continue; // Not a chain (e.g. prologue spawning the header once).
      if (unconditionalClosure(G, Target).count(Ref.Block))
        DE.error("slice.chain-budget", Ref,
                 "in " + G.F.getName() + " bb" + std::to_string(Ref.Block) +
                     ": chained spawn of " + blockName(G.F, Target) +
                     " re-arms unconditionally; the chain never "
                     "terminates",
                 "guard the spawn with a trip budget (lib.sti, addi -1, "
                 "cmpi, br) or a computed spawn condition");
    }
  }

  void checkPrefetchCoverage(const SliceGraph &G, const VerifyContext &Ctx,
                             DiagnosticEngine &DE) {
    if (Ctx.Manifest) {
      for (const SliceManifest &M : Ctx.Manifest->Slices) {
        if (M.Func != G.F.getIndex())
          continue;
        // Emitted prefetches anywhere in the thread started at the header.
        std::set<std::pair<unsigned, int64_t>> Emitted;
        std::set<uint32_t> Seen;
        std::vector<uint32_t> Work{M.HeaderBlock};
        while (!Work.empty()) {
          uint32_t B = Work.back();
          Work.pop_back();
          if (B >= G.F.numBlocks() ||
              G.F.block(B).Kind != BlockKind::Slice ||
              !Seen.insert(B).second)
            continue;
          for (const Instruction &I : G.F.block(B).Insts)
            if (I.Op == Opcode::Prefetch)
              Emitted.insert({I.Src1.denseIndex(), I.Imm});
          auto It = G.Succ.find(B);
          if (It != G.Succ.end())
            for (uint32_t S : It->second)
              Work.push_back(S);
        }
        for (const auto &[Base, Off] : M.PrefetchTargets)
          if (!Emitted.count({Base.denseIndex(), Off}))
            DE.errorInBlock(
                "slice.prefetch-coverage", M.Func, M.HeaderBlock,
                "in " + G.F.getName() + ": planned prefetch [" +
                    Base.str() + (Off >= 0 ? "+" : "") +
                    std::to_string(Off) +
                    "] for the delinquent load is missing from the "
                    "emitted p-slice",
                "the rewrite plan and the emitted slice disagree; the "
                "adaptation must be regenerated");
      }
      return;
    }
    // No manifest: a spawn entry whose whole thread neither prefetches nor
    // loads cannot warm the cache — it burns a thread context for nothing.
    for (uint32_t E : G.Entries) {
      if (E >= G.F.numBlocks() || G.F.block(E).Kind != BlockKind::Slice)
        continue;
      bool Touches = false;
      std::set<uint32_t> Seen;
      std::vector<uint32_t> Work{E};
      while (!Work.empty() && !Touches) {
        uint32_t B = Work.back();
        Work.pop_back();
        if (!Seen.insert(B).second)
          continue;
        for (const Instruction &I : G.F.block(B).Insts)
          if (I.Op == Opcode::Prefetch || I.Op == Opcode::Load ||
              I.Op == Opcode::LoadF)
            Touches = true;
        auto It = G.Succ.find(B);
        if (It != G.Succ.end())
          for (uint32_t S : It->second)
            Work.push_back(S);
      }
      if (!Touches)
        DE.warningInBlock("slice.prefetch-coverage", G.F.getIndex(), E,
                          "in " + G.F.getName() + ": p-slice at " +
                              blockName(G.F, E) +
                              " performs no prefetch or load; it cannot "
                              "warm the cache");
    }
  }

  void checkManifestBudgets(const VerifyContext &Ctx, DiagnosticEngine &DE) {
    for (const SliceManifest &M : Ctx.Manifest->Slices) {
      if (!M.UsesBudget || M.Func >= Ctx.P.numFuncs())
        continue;
      const Function &F = Ctx.P.func(M.Func);
      bool Found = false;
      for (const BasicBlock &BB : F.blocks()) {
        if (!BB.isAttachment())
          continue;
        for (const Instruction &I : BB.Insts)
          if (I.Op == Opcode::CopyToLIBI &&
              I.Imm == static_cast<int64_t>(M.TripBudget))
            Found = true;
      }
      if (!Found)
        DE.errorInBlock("slice.chain-budget", M.Func, M.StubBlock,
                        "in " + F.getName() +
                            ": rewrite plan bounds the chain with a trip "
                            "budget of " +
                            std::to_string(M.TripBudget) +
                            " but no lib.sti stages it");
    }
  }

  // Helpers for the must-analysis.
  std::vector<uint32_t> predsOf(const SliceGraph &G, uint32_t B) const {
    std::vector<uint32_t> Out;
    for (const auto &[P, Ss] : G.Succ)
      if (std::find(Ss.begin(), Ss.end(), B) != Ss.end())
        Out.push_back(P);
    return Out;
  }

  FlowState outOf(const SliceGraph &G, uint32_t B,
                  std::map<uint32_t, FlowState> &In) const {
    auto It = In.find(B);
    if (It == In.end() || !It->second.Known)
      return FlowState();
    FlowState S = It->second;
    for (const Instruction &I : G.F.block(B).Insts)
      transfer(I, S);
    return S;
  }
};

//===----------------------------------------------------------------------===//
// Lints
//===----------------------------------------------------------------------===//

class LintPass : public VerifyPass {
public:
  const char *name() const override { return "lint"; }

  void run(const VerifyContext &Ctx, DiagnosticEngine &DE) override {
    for (uint32_t FI = 0; FI < Ctx.P.numFuncs(); ++FI) {
      const Function &F = Ctx.P.func(FI);
      lintSliceLiveness(F, DE);
      lintStagingOrder(F, DE);
      lintBundles(F, DE);
      lintStubPressure(F, DE);
      lintTriggers(Ctx.P, F, DE);
    }
  }

private:
  /// Backward may-liveness over the attachment flow graph: a slice
  /// instruction whose result no path ever reads is dead weight in the
  /// speculative thread — it delays the prefetches it rides with.
  void lintSliceLiveness(const Function &F, DiagnosticEngine &DE) {
    DiagnosticEngine Scratch; // slice.exit re-reported by the dataflow pass.
    SliceGraph G = buildSliceGraph(F, Scratch);
    if (G.SliceBlocks.empty())
      return;
    std::map<uint32_t, RegSet> LiveIn;
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (auto RIt = G.SliceBlocks.rbegin(); RIt != G.SliceBlocks.rend();
           ++RIt) {
        uint32_t B = *RIt;
        RegSet Live;
        auto SIt = G.Succ.find(B);
        if (SIt != G.Succ.end())
          for (uint32_t S : SIt->second)
            Live |= LiveIn[S];
        const BasicBlock &BB = F.block(B);
        for (auto IIt = BB.Insts.rbegin(); IIt != BB.Insts.rend(); ++IIt) {
          Reg D = IIt->def();
          if (D.isValid())
            Live.reset(D.denseIndex());
          IIt->forEachUse([&](Reg R) {
            if (R.isValid())
              Live.set(R.denseIndex());
          });
        }
        if (LiveIn[B] != Live) {
          LiveIn[B] = Live;
          Changed = true;
        }
      }
    }
    for (uint32_t B : G.SliceBlocks) {
      RegSet Live;
      auto SIt = G.Succ.find(B);
      if (SIt != G.Succ.end())
        for (uint32_t S : SIt->second)
          Live |= LiveIn[S];
      const BasicBlock &BB = F.block(B);
      // Walk backwards so "dead" means dead w.r.t. everything after.
      std::vector<uint32_t> Dead;
      for (uint32_t Idx = static_cast<uint32_t>(BB.Insts.size()); Idx-- > 0;) {
        const Instruction &I = BB.Insts[Idx];
        Reg D = I.def();
        if (D.isValid()) {
          // Loads still prefetch their line even when the value is unread,
          // which is the whole point of a p-slice, so they are never dead.
          if (!Live.test(D.denseIndex()) && I.Op != Opcode::Load &&
              I.Op != Opcode::LoadF)
            Dead.push_back(Idx);
          Live.reset(D.denseIndex());
        }
        I.forEachUse([&](Reg R) {
          if (R.isValid())
            Live.set(R.denseIndex());
        });
      }
      for (auto It = Dead.rbegin(); It != Dead.rend(); ++It)
        DE.warning("lint.dead-slice", {F.getIndex(), B, *It},
                   "in " + F.getName() + " bb" + std::to_string(B) +
                       ": p-slice result of '" + BB.Insts[*It].str() +
                       "' is never used by the slice",
                   "the slicer can drop this instruction to shorten the "
                   "speculative thread");
    }
  }

  /// lib.st after the last spawn of a block stages a value no spawn in
  /// this block will deliver: the thread already captured its frame.
  void lintStagingOrder(const Function &F, DiagnosticEngine &DE) {
    for (const BasicBlock &BB : F.blocks()) {
      if (!BB.isAttachment())
        continue;
      uint32_t LastSpawn = ~0u;
      for (uint32_t Idx = 0; Idx < BB.Insts.size(); ++Idx)
        if (BB.Insts[Idx].Op == Opcode::Spawn)
          LastSpawn = Idx;
      if (LastSpawn == ~0u)
        continue;
      for (uint32_t Idx = LastSpawn + 1; Idx < BB.Insts.size(); ++Idx) {
        const Instruction &I = BB.Insts[Idx];
        if (I.Op == Opcode::CopyToLIB || I.Op == Opcode::CopyToLIBI)
          DE.warning("lint.spawn-staging", {F.getIndex(), BB.Index, Idx},
                     "in " + F.getName() + " bb" +
                         std::to_string(BB.Index) + ": live-in staged "
                         "after the spawn; the spawned thread captured "
                         "its frame at the spawn and sees the old value",
                     "move the lib.st above the spawn");
      }
    }
  }

  /// Issue bundles are ir::BundleSlots wide and reset at block entry; the
  /// Table 1 machine has ir::unitsOf(Mem) memory ports and unitsOf(FP) FP
  /// units, so a bundle with more of either can never issue in one cycle.
  void lintBundles(const Function &F, DiagnosticEngine &DE) {
    constexpr unsigned MemPorts = unitsOf(FuncUnit::Mem);
    constexpr unsigned FPUnits = unitsOf(FuncUnit::FP);
    for (const BasicBlock &BB : F.blocks()) {
      for (uint32_t Start = 0; Start < BB.Insts.size();
           Start += BundleSlots) {
        unsigned MemOps = 0, FPOps = 0;
        uint32_t End = std::min<uint32_t>(
            Start + BundleSlots, static_cast<uint32_t>(BB.Insts.size()));
        for (uint32_t Idx = Start; Idx < End; ++Idx) {
          FuncUnit U = funcUnitOf(BB.Insts[Idx].Op);
          MemOps += U == FuncUnit::Mem;
          FPOps += U == FuncUnit::FP;
        }
        if (MemOps > MemPorts)
          DE.warning("lint.bundle", {F.getIndex(), BB.Index, Start},
                     "in " + F.getName() + " bb" +
                         std::to_string(BB.Index) + ": bundle needs " +
                         std::to_string(MemOps) +
                         " memory ports but the machine has " +
                         std::to_string(MemPorts),
                     "interleave the memory operations with ALU work so "
                     "the bundle can issue in one cycle");
        if (FPOps > FPUnits)
          DE.warning("lint.bundle", {F.getIndex(), BB.Index, Start},
                     "in " + F.getName() + " bb" +
                         std::to_string(BB.Index) + ": bundle needs " +
                         std::to_string(FPOps) +
                         " FP units but the machine has " +
                         std::to_string(FPUnits));
      }
    }
  }

  void lintStubPressure(const Function &F, DiagnosticEngine &DE) {
    for (const BasicBlock &BB : F.blocks()) {
      if (BB.Kind != BlockKind::Stub)
        continue;
      std::set<uint32_t> Slots;
      for (const Instruction &I : BB.Insts)
        if (I.Op == Opcode::CopyToLIB || I.Op == Opcode::CopyToLIBI)
          Slots.insert(I.Target);
      if (Slots.size() > LIBSlots - 2)
        DE.warningInBlock(
            "lint.stub-pressure", F.getIndex(), BB.Index,
            "in " + F.getName() + ": stub stages " +
                std::to_string(Slots.size()) + " of " +
                std::to_string(LIBSlots) +
                " LIB slots; chained re-staging has almost no headroom",
            "trim the slice live-in set or split the slice");
    }
  }

  /// Trigger placement lints need main-thread dataflow: the body CFG and
  /// reaching definitions (attachments excluded, as in all post-pass
  /// analyses).
  void lintTriggers(const Program &P, const Function &F,
                    DiagnosticEngine &DE) {
    bool HasTrigger = false;
    for (const BasicBlock &BB : F.blocks())
      for (const Instruction &I : BB.Insts)
        HasTrigger |= I.Op == Opcode::ChkC;
    if (!HasTrigger)
      return;
    analysis::CFG G = analysis::CFG::build(F);
    analysis::ReachingDefs RD =
        analysis::ReachingDefs::build(P, F.getIndex(), G);
    for (const BasicBlock &BB : F.blocks()) {
      if (BB.isAttachment())
        continue;
      bool Unreachable = G.rpoIndex(BB.Index) == ~0u;
      for (uint32_t Idx = 0; Idx < BB.Insts.size(); ++Idx) {
        const Instruction &I = BB.Insts[Idx];
        if (I.Op != Opcode::ChkC)
          continue;
        analysis::InstRef Ref{F.getIndex(), BB.Index, Idx};
        if (Unreachable) {
          DE.warning("lint.dead-trigger", Ref,
                     "in " + F.getName() + " bb" +
                         std::to_string(BB.Index) +
                         ": trigger is in unreachable code and can never "
                         "fire");
          continue;
        }
        // Values the stub stages must be initialized wherever the trigger
        // can fire. In non-entry functions a live-in value legitimately
        // comes from the caller, so only the entry function is checked.
        if (F.getIndex() != P.getEntry() || I.Target >= F.numBlocks())
          continue;
        const BasicBlock &Stub = F.block(I.Target);
        if (Stub.Kind != BlockKind::Stub)
          continue;
        for (const Instruction &S : Stub.Insts) {
          if (S.Op != Opcode::CopyToLIB || !S.Src1.isValid() ||
              S.Src1.Num == 0)
            continue;
          if (RD.mayBeLiveIn(BB.Index, Idx, S.Src1))
            DE.warning("lint.uninit-livein", Ref,
                       "in " + F.getName() + " bb" +
                           std::to_string(BB.Index) + ": trigger's stub "
                           "stages " +
                           S.Src1.str() +
                           " which may be uninitialized when the trigger "
                           "fires",
                       "move the trigger below the definition of " +
                           S.Src1.str());
        }
      }
    }
  }
};

//===----------------------------------------------------------------------===//
// Speculation audit (speculation.*)
//===----------------------------------------------------------------------===//

/// Audits the manifest's speculatively dropped may-dependence edges. The
/// adaptation was *built* trusting analysis::SpecDeps; this pass replays
/// the decision independently per recorded drop: the edge must
/// re-classify as cold (never a must-dep), must have nonzero trip
/// coverage, and the recorded evidence must match the classifier's. Each
/// accepted drop becomes a `speculation.dropped-edge` note so the full
/// audit trail reaches text and JSON output.
class SpeculationPass : public VerifyPass {
public:
  const char *name() const override { return "speculation"; }
  void run(const VerifyContext &Ctx, DiagnosticEngine &DE) override {
    if (!Ctx.Manifest)
      return; // Standalone ssp-verify without a plan: nothing to audit.
    size_t NumDrops = 0;
    for (const SliceManifest &SM : Ctx.Manifest->Slices)
      NumDrops += SM.SpecDrops.size();
    if (NumDrops == 0)
      return;

    if (!Ctx.Spec || !Ctx.Spec->enabled()) {
      DE.errorInProgram(
          "speculation.unsupported-drop",
          std::to_string(NumDrops) +
              " dropped dependence edges recorded but the speculation "
              "classifier is " +
              (Ctx.Spec ? "disabled (no profile evidence or --spec-deps "
                          "off)"
                        : "unavailable"),
          "rebuild the adaptation without pruning, or supply the profile "
          "evidence it was pruned with");
      return;
    }
    if (!Ctx.Orig) {
      DE.errorInProgram("speculation.unsupported-drop",
                        "dropped dependence edges recorded but no original "
                        "program to re-derive them against");
      return;
    }

    // The drops name producer/consumer by static id in the *original*
    // program (attachment code is never speculated on).
    std::map<StaticId, analysis::InstRef> Index;
    for (uint32_t FI = 0; FI < Ctx.Orig->numFuncs(); ++FI) {
      const Function &F = Ctx.Orig->func(FI);
      for (uint32_t BI = 0; BI < F.numBlocks(); ++BI) {
        const BasicBlock &BB = F.block(BI);
        for (uint32_t II = 0; II < BB.Insts.size(); ++II)
          Index[makeStaticId(FI, BB.Insts[II].Id)] = {FI, BI, II};
      }
    }

    for (const SliceManifest &SM : Ctx.Manifest->Slices)
      for (const analysis::SpecDrop &D : SM.SpecDrops)
        auditDrop(Ctx, DE, SM, D, Index);
  }

private:
  static std::string describeEdge(const analysis::SpecDrop &D) {
    return std::string(analysis::depKindName(D.Kind)) + " edge fn" +
           std::to_string(staticIdFunc(D.From)) + ":@" +
           std::to_string(staticIdInst(D.From)) + " -> fn" +
           std::to_string(staticIdFunc(D.To)) + ":@" +
           std::to_string(staticIdInst(D.To));
  }

  void auditDrop(const VerifyContext &Ctx, DiagnosticEngine &DE,
                 const SliceManifest &SM, const analysis::SpecDrop &D,
                 const std::map<StaticId, analysis::InstRef> &Index) {
    auto FromIt = Index.find(D.From);
    auto ToIt = Index.find(D.To);
    if (FromIt == Index.end() || ToIt == Index.end()) {
      DE.errorInFunc("speculation.unsupported-drop", SM.Func,
                     "dropped " + describeEdge(D) +
                         " names an instruction the original program does "
                         "not contain");
      return;
    }
    const analysis::InstRef &From = FromIt->second;
    const analysis::InstRef &To = ToIt->second;

    // Zero profile coverage means there was no evidence either way:
    // dropping such an edge is never supported.
    if (D.Trips == 0) {
      DE.error("speculation.unsupported-drop", To,
               "dropped " + describeEdge(D) +
                   " has zero profile coverage (consumer never executed "
                   "under the profile)");
      return;
    }

    // Independent re-derivation of the classification and evidence.
    analysis::DepClass C =
        D.Kind == analysis::DepKind::Memory
            ? Ctx.Spec->classifyMemEdge(From, To)
            : Ctx.Spec->classifyRegEdge(From, To);
    if (C != analysis::DepClass::Cold) {
      DE.error("speculation.unsupported-drop", To,
               "dropped " + describeEdge(D) + " re-classifies as " +
                   analysis::depClassName(C) +
                   ", not cold (observed " + std::to_string(D.Observed) +
                   "/" + std::to_string(D.Trips) + " trips, threshold " +
                   std::to_string(D.Threshold) + ")");
      return;
    }
    uint64_t Observed = 0, Trips = 0;
    Ctx.Spec->evidenceFor(D.Kind, From, To, Observed, Trips);
    if (Observed != D.Observed || Trips != D.Trips ||
        D.Threshold != Ctx.Spec->threshold()) {
      DE.error("speculation.evidence-mismatch", To,
               "dropped " + describeEdge(D) + " records evidence " +
                   std::to_string(D.Observed) + "/" +
                   std::to_string(D.Trips) + " @ " +
                   std::to_string(D.Threshold) +
                   " but the profile says " + std::to_string(Observed) +
                   "/" + std::to_string(Trips) + " @ " +
                   std::to_string(Ctx.Spec->threshold()));
      return;
    }

    DE.note("speculation.dropped-edge", To,
            "dropped " + describeEdge(D) + ": observed " +
                std::to_string(D.Observed) + " of " +
                std::to_string(D.Trips) + " trips (threshold " +
                std::to_string(D.Threshold) + ")");
  }
};

//===----------------------------------------------------------------------===//
// Feedback audit (feedback.*)
//===----------------------------------------------------------------------===//

/// Audits closed-loop re-adaptation rounds. The manifest records the
/// per-load feedback directives the tool ran with
/// (AdaptationManifest::FeedbackOverrides) plus, per slice, the join keys
/// the feedback policy uses (primary/target load sids, region depth,
/// unroll, and the inserted trigger sids). This pass cross-checks plan
/// against directives: a dropped load must not be adapted, region-depth /
/// restart / unroll directives must be honored by every covering slice,
/// and every recorded trigger sid must name a real chk.c in the adapted
/// program that targets the slice's stub block (otherwise the
/// attribution->slice join the next round decides from is garbage).
/// Honored directives become `feedback.applied-override` notes — the
/// audit trail `ssp-adapt --feedback` rounds are checked by.
class FeedbackPass : public VerifyPass {
public:
  const char *name() const override { return "feedback"; }

  void run(const VerifyContext &Ctx, DiagnosticEngine &DE) override {
    if (!Ctx.Manifest || Ctx.Manifest->FeedbackOverrides.empty())
      return; // Not a closed-loop round: nothing to audit.

    // Index every instruction of the adapted program by static id once.
    std::map<StaticId, analysis::InstRef> Index;
    for (uint32_t FI = 0; FI < Ctx.P.numFuncs(); ++FI) {
      const Function &F = Ctx.P.func(FI);
      for (uint32_t BI = 0; BI < F.numBlocks(); ++BI) {
        const BasicBlock &BB = F.block(BI);
        for (uint32_t II = 0; II < BB.Insts.size(); ++II)
          Index[makeStaticId(FI, BB.Insts[II].Id)] = {FI, BI, II};
      }
    }

    // The feedback join (per-trigger fates -> slice) is only sound when
    // every recorded trigger sid resolves to a chk.c aimed at the slice's
    // stub; validate that before auditing the directives.
    for (const SliceManifest &SM : Ctx.Manifest->Slices) {
      checkTriggerSids(Ctx, DE, SM, SM.CutTriggerSids, "cut", Index);
      checkTriggerSids(Ctx, DE, SM, SM.RestartTriggerSids, "restart",
                       Index);
    }

    for (const FeedbackOverrideRecord &R : Ctx.Manifest->FeedbackOverrides)
      auditOverride(Ctx, DE, R);
  }

private:
  static std::string describeLoad(uint64_t Sid) {
    return "load fn" + std::to_string(staticIdFunc(Sid)) + ":@" +
           std::to_string(staticIdInst(Sid));
  }

  static std::string describeOverride(const FeedbackOverrideRecord &R) {
    std::string S;
    auto Add = [&](const std::string &Part) {
      if (!S.empty())
        S += ", ";
      S += Part;
    };
    if (R.Drop)
      Add("drop");
    if (R.NoRestartTrigger)
      Add("no-restart-trigger");
    if (R.MinRegionDepth)
      Add("min-region-depth " + std::to_string(R.MinRegionDepth));
    if (R.TripBudgetLog2)
      Add("trip-budget x2^" + std::to_string(R.TripBudgetLog2));
    if (R.InnerUnroll)
      Add("inner-unroll " + std::to_string(R.InnerUnroll));
    return S.empty() ? std::string("no-op") : S;
  }

  void checkTriggerSids(const VerifyContext &Ctx, DiagnosticEngine &DE,
                        const SliceManifest &SM,
                        const std::vector<uint64_t> &Sids, const char *Role,
                        const std::map<StaticId, analysis::InstRef> &Index) {
    for (uint64_t Sid : Sids) {
      auto It = Index.find(Sid);
      if (It == Index.end()) {
        DE.errorInBlock("feedback.bad-trigger-record", SM.Func,
                        SM.StubBlock,
                        std::string("recorded ") + Role + " trigger sid fn" +
                            std::to_string(staticIdFunc(Sid)) + ":@" +
                            std::to_string(staticIdInst(Sid)) +
                            " names no instruction in the adapted program");
        continue;
      }
      const analysis::InstRef &Ref = It->second;
      const Instruction &I =
          Ctx.P.func(Ref.Func).block(Ref.Block).Insts[Ref.Inst];
      if (I.Op != Opcode::ChkC || Ref.Func != SM.Func ||
          I.Target != SM.StubBlock) {
        DE.error("feedback.bad-trigger-record", Ref,
                 std::string("recorded ") + Role + " trigger sid resolves "
                     "to '" + I.str() + "' which is not a chk.c targeting "
                     "this slice's stub bb" + std::to_string(SM.StubBlock),
                 "per-trigger attribution would be folded onto the wrong "
                 "slice; the trigger-sid recording in codegen is broken");
      }
    }
  }

  void auditOverride(const VerifyContext &Ctx, DiagnosticEngine &DE,
                     const FeedbackOverrideRecord &R) {
    // Every slice covering the directed load, and whether the load is the
    // slice's primary (codegen honors the primary candidate's override
    // when a combined slice merges loads with different directives).
    bool Covered = false;
    for (const SliceManifest &SM : Ctx.Manifest->Slices) {
      bool Primary = SM.PrimaryLoadSid == R.LoadSid;
      bool Target = std::find(SM.TargetLoadSids.begin(),
                              SM.TargetLoadSids.end(),
                              R.LoadSid) != SM.TargetLoadSids.end();
      if (!Primary && !Target)
        continue;
      Covered = true;
      auditAgainstSlice(DE, R, SM, Primary);
    }
    if (!Covered)
      DE.noteInProgram("feedback.inactive-override",
                       describeLoad(R.LoadSid) + " directive (" +
                           describeOverride(R) + ") matched no emitted "
                           "slice" +
                           (R.Drop ? ": drop honored"
                                   : " (load not selected this round)"));
  }

  void auditAgainstSlice(DiagnosticEngine &DE,
                         const FeedbackOverrideRecord &R,
                         const SliceManifest &SM, bool Primary) {
    if (R.Drop) {
      DE.errorInBlock("feedback.dropped-load-adapted", SM.Func,
                      SM.StubBlock,
                      describeLoad(R.LoadSid) + " carries a drop directive "
                          "but a slice was emitted for it",
                      "the candidate generator must skip dropped loads "
                      "before region selection");
      return;
    }
    bool Violated = false;
    if (SM.RegionDepth < R.MinRegionDepth) {
      Violated = true;
      diagnose(DE, SM, Primary,
               describeLoad(R.LoadSid) + ": hoist directive requires "
                   "region depth >= " + std::to_string(R.MinRegionDepth) +
                   " but the slice was planned at depth " +
                   std::to_string(SM.RegionDepth));
    }
    if (R.NoRestartTrigger && !SM.RestartTriggerSids.empty()) {
      Violated = true;
      diagnose(DE, SM, Primary,
               describeLoad(R.LoadSid) + ": no-restart directive but " +
                   std::to_string(SM.RestartTriggerSids.size()) +
                   " restart triggers were inserted");
    }
    if (R.InnerUnroll && SM.InnerMembers > 0 &&
        SM.InnerUnroll != R.InnerUnroll) {
      Violated = true;
      diagnose(DE, SM, Primary,
               describeLoad(R.LoadSid) + ": deepen directive requires "
                   "inner unroll " + std::to_string(R.InnerUnroll) +
                   " but the slice was planned with " +
                   std::to_string(SM.InnerUnroll));
    }
    // TripBudgetLog2 is not re-checked here: the directive scales a base
    // budget this pass cannot re-derive, and slice.chain-budget already
    // pins the emitted staging to the manifest's final TripBudget.
    if (!Violated)
      DE.noteInFunc("feedback.applied-override", SM.Func,
                    describeLoad(R.LoadSid) + " directive (" +
                        describeOverride(R) + ") honored by slice at bb" +
                        std::to_string(SM.StubBlock) + " (depth " +
                        std::to_string(SM.RegionDepth) + ", unroll " +
                        std::to_string(SM.InnerUnroll) + ")");
  }

  /// A directive the covering slice did not honor. Fatal when the load is
  /// the slice's primary (codegen takes the plan from the primary
  /// candidate, so a mismatch there is a tool bug); a warning when the
  /// load was merely absorbed into another load's slice, whose own
  /// directive legitimately won.
  void diagnose(DiagnosticEngine &DE, const SliceManifest &SM, bool Primary,
                const std::string &Msg) {
    if (Primary)
      DE.errorInBlock("feedback.unapplied-override", SM.Func, SM.StubBlock,
                      Msg);
    else
      DE.warningInBlock("feedback.override-conflict", SM.Func,
                        SM.StubBlock,
                        Msg + " (covered by " +
                            describeLoad(SM.PrimaryLoadSid) +
                            "'s slice, whose directive took precedence)");
  }
};

//===----------------------------------------------------------------------===//
// Structural wrapper
//===----------------------------------------------------------------------===//

class StructuralPass : public VerifyPass {
public:
  const char *name() const override { return "structural"; }
  bool requiresWellFormed() const override { return false; }
  void run(const VerifyContext &Ctx, DiagnosticEngine &DE) override {
    ir::verifyStructural(Ctx.P, DE);
    if (Ctx.Orig) {
      // An ill-formed *original* makes translation validation
      // meaningless; surface it as a distinct diagnostic.
      DiagnosticEngine OrigDE;
      ir::verifyStructural(*Ctx.Orig, OrigDE);
      if (OrigDE.hasErrors())
        DE.errorInProgram("structural.orig-ill-formed",
                          "the original (pre-adaptation) program is "
                          "ill-formed: " +
                              std::to_string(OrigDE.errorCount()) +
                              " structural errors");
    }
  }
};

} // namespace

std::unique_ptr<VerifyPass> ssp::verify::createStructuralPass() {
  return std::make_unique<StructuralPass>();
}
std::unique_ptr<VerifyPass> ssp::verify::createTranslationValidationPass() {
  return std::make_unique<TranslationValidationPass>();
}
std::unique_ptr<VerifyPass> ssp::verify::createStubContractPass() {
  return std::make_unique<StubContractPass>();
}
std::unique_ptr<VerifyPass> ssp::verify::createSliceDataflowPass() {
  return std::make_unique<SliceDataflowPass>();
}
std::unique_ptr<VerifyPass> ssp::verify::createLintPass() {
  return std::make_unique<LintPass>();
}
std::unique_ptr<VerifyPass> ssp::verify::createSpeculationPass() {
  return std::make_unique<SpeculationPass>();
}
std::unique_ptr<VerifyPass> ssp::verify::createFeedbackPass() {
  return std::make_unique<FeedbackPass>();
}
