//===- sim/Run.h - Run one binary on one machine configuration ------------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// runProgram is the one way to run a binary: build a memory image,
/// simulate, check the stored result (DESIGN.md, "Running a binary").
///
//===----------------------------------------------------------------------===//

#ifndef SSP_SIM_RUN_H
#define SSP_SIM_RUN_H

#include "ir/Parser.h"
#include "mem/SimMemory.h"
#include "sim/MachineConfig.h"
#include "sim/SimStats.h"

#include <functional>
#include <optional>

namespace ssp::obs {
class TraceSink;
} // namespace ssp::obs

namespace ssp::sim {

/// Fills a fresh memory image. Returns the checksum the program must store
/// at mem::ResultAddr, or nullopt when the image has none (a parsed `.ssp`
/// data image). A workload's `uint64_t` builder converts implicitly.
using MemoryBuilder =
    std::function<std::optional<uint64_t>(mem::SimMemory &)>;

enum class ChecksumStatus { Ok, Wrong, Unchecked };

struct RunOutcome {
  SimStats Stats;
  /// The word at mem::ResultAddr after the run; absent when unmapped.
  std::optional<uint64_t> Result;
  /// Wrong when the word differs from the expected checksum or its page is
  /// unmapped; Unchecked when the builder expects none.
  ChecksumStatus Checksum = ChecksumStatus::Unchecked;

  bool checksumOk() const { return Checksum == ChecksumStatus::Ok; }
};

/// Simulates \p LP under \p Cfg on an image from \p Build, with \p Trace
/// attached when non-null.
RunOutcome runProgram(const ir::LinkedProgram &LP, const MemoryBuilder &Build,
                      const MachineConfig &Cfg,
                      obs::TraceSink *Trace = nullptr);

/// A builder that writes \p Data, which must outlive it; no checksum.
MemoryBuilder imageOf(const ir::DataImage &Data);

} // namespace ssp::sim

#endif // SSP_SIM_RUN_H
