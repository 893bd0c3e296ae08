//===- scripts/sim_ab/SimAb.h - One revision's side of the A/B harness ----===//
//
// The interface between sim_ab's main and the two sides it links: Side.cpp
// is compiled once against each revision's headers, and the base side's
// whole build renames namespace `ssp` to `sspBase`, so both revisions live
// in one process. This header uses no project type, so both sides and
// main agree on it.
//
//===----------------------------------------------------------------------===//

#ifndef SIM_AB_SIMAB_H
#define SIM_AB_SIMAB_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace simab {

/// One timed operation on one program. The four simulations are the
/// pipeline's; Image builds one memory image and Profile runs
/// core::profileProgram (its functional pass and in-order timing run).
enum Kind : unsigned { BaseIO, SspIO, BaseOOO, SspOOO, Image, Profile,
                       NumKinds };

/// What one operation took and produced. Digest covers every counter the
/// operation reports and Checksum the value the program stored (an
/// image's expected value), so two revisions that simulate identically
/// agree on both; ChecksumOk says the value is the expected one.
struct Result {
  double Ms = 0;
  uint64_t Digest = 0;
  uint64_t Checksum = 0;
  bool ChecksumOk = false;
};

/// One revision: every program of the pipeline built, profiled, adapted
/// and linked when the side is made, so run() times one operation alone.
class Side {
public:
  virtual ~Side() = default;
  virtual size_t numPrograms() const = 0;
  virtual const std::string &name(size_t Program) const = 0;
  virtual Result run(size_t Program, Kind K) = 0;
};

} // namespace simab

namespace ssp {
/// The side of the revision this file is compiled against.
std::unique_ptr<simab::Side> makeSimAbSide();
} // namespace ssp

#endif // SIM_AB_SIMAB_H
