//===- sim/Run.cpp - Run one binary on one machine configuration ----------===//

#include "sim/Run.h"

#include "sim/Simulator.h"

using namespace ssp;

sim::RunOutcome sim::runProgram(const ir::LinkedProgram &LP,
                                const MemoryBuilder &Build,
                                const MachineConfig &Cfg,
                                obs::TraceSink *Trace) {
  mem::SimMemory Mem;
  std::optional<uint64_t> Expected = Build(Mem);
  Simulator Sim(Cfg, LP, Mem);
  Sim.setTraceSink(Trace);
  RunOutcome Out;
  Out.Stats = Sim.run();
  if (Mem.isMapped(mem::ResultAddr))
    Out.Result = Mem.read(mem::ResultAddr);
  if (Expected)
    Out.Checksum =
        Out.Result == Expected ? ChecksumStatus::Ok : ChecksumStatus::Wrong;
  return Out;
}

sim::MemoryBuilder sim::imageOf(const ir::DataImage &Data) {
  return [&Data](mem::SimMemory &Mem) -> std::optional<uint64_t> {
    for (const auto &[Addr, Value] : Data)
      Mem.write(Addr, Value);
    return std::nullopt;
  };
}
