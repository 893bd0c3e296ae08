//===- tests/DifferentialCorpus.h - Programs for analysis differentials ---===//
//
// The inputs the slicer-analysis differential tests run over: the paper
// suite, the stream suite, the four stress shapes of the benchmark's
// `adapt-scale` workload and every examples/*.ssp program, each in its
// original form and adapted (the adapted form adds attachment blocks:
// stubs and p-slices). Adapted programs carry the original's profile;
// their attachment blocks are past its end and so count as never
// executed.
//
//===----------------------------------------------------------------------===//

#ifndef SSP_TESTS_DIFFERENTIALCORPUS_H
#define SSP_TESTS_DIFFERENTIALCORPUS_H

#include "ProfiledFixture.h"

#include "ir/Parser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace ssp::tests {

struct CorpusProgram {
  std::string Name;
  ir::Program P;
  profile::ProfileData PD;
};

inline std::vector<CorpusProgram> differentialCorpus() {
  std::vector<CorpusProgram> Out;
  auto AddBoth = [&Out](const std::string &Name, const ir::Program &P,
                        const profile::ProfileData &PD, bool Streams) {
    core::ToolOptions Opts;
    Opts.EnableStreams = Streams;
    core::PostPassTool Tool(P, PD, Opts);
    ir::Program Adapted = Tool.adapt();
    Out.push_back({Name, P.clone(), PD});
    Out.push_back({Name + " (adapted)", std::move(Adapted), PD});
  };

  for (const workloads::Workload &W : workloads::paperSuite()) {
    const workloads::ProfiledWorkload &PW = workloads::profiledWorkload(W);
    AddBoth(W.Name, PW.P, PW.PD, /*Streams=*/false);
  }
  for (const workloads::Workload &W : workloads::streamSuite()) {
    const workloads::ProfiledWorkload &PW = workloads::profiledWorkload(W);
    AddBoth(W.Name, PW.P, PW.PD, /*Streams=*/true);
  }
  const unsigned Shapes[4][3] = {
      {24, 8, 2}, {32, 12, 3}, {40, 12, 4}, {48, 16, 4}};
  for (const auto &S : Shapes) {
    const workloads::ProfiledWorkload &PW =
        workloads::profiledWorkload(workloads::makeStress(S[0], S[1], S[2]));
    AddBoth(PW.W.Name, PW.P, PW.PD, /*Streams=*/false);
  }

  std::vector<std::filesystem::path> Examples;
  for (const auto &E :
       std::filesystem::directory_iterator(SSP_SOURCE_DIR "/examples"))
    if (E.path().extension() == ".ssp")
      Examples.push_back(E.path());
  std::sort(Examples.begin(), Examples.end());
  for (const std::filesystem::path &Path : Examples) {
    std::ifstream In(Path);
    std::stringstream Buf;
    Buf << In.rdbuf();
    ir::Program P;
    ir::DataImage Data;
    std::string Err;
    if (!ir::parseProgram(Buf.str(), P, Err, &Data)) {
      ADD_FAILURE() << Path << ": " << Err;
      continue;
    }
    profile::ProfileData PD = core::profileProgram(P, sim::imageOf(Data));
    AddBoth(Path.filename().string(), P, PD, /*Streams=*/false);
  }
  return Out;
}

} // namespace ssp::tests

#endif // SSP_TESTS_DIFFERENTIALCORPUS_H
