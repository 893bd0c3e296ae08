//===- workloads/Workload.h - Benchmark workload interface ----------------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark suite of the paper's evaluation (Section 4.1): the
/// pointer-intensive Olden programs em3d, health, mst and treeadd (in both
/// depth-first and breadth-first variants) plus the SPEC CPU2000 programs
/// mcf and vpr. Each workload is an IR program (built with IRBuilder) and
/// a deterministic data-image generator reproducing the memory behaviour
/// the paper exploits: delinquent pointer-chasing loads whose working set
/// exceeds the 3 MiB L3. Every program writes a checksum so runs can be
/// validated against the analytically computed expected value.
///
//===----------------------------------------------------------------------===//

#ifndef SSP_WORKLOADS_WORKLOAD_H
#define SSP_WORKLOADS_WORKLOAD_H

#include "ir/Program.h"
#include "mem/SimMemory.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace ssp::workloads {

/// Address every workload writes its checksum to before halting.
using mem::ResultAddr;

/// One benchmark: program builder + data-image builder.
struct Workload {
  std::string Name;
  /// Builds the original (pre-adaptation) binary.
  std::function<ir::Program()> Build;
  /// Populates the data image; returns the expected checksum the program
  /// must store at ResultAddr.
  std::function<uint64_t(mem::SimMemory &)> BuildMemory;
};

// The seven benchmarks of the paper's evaluation.
Workload makeEm3d();
Workload makeHealth();
Workload makeMst();
Workload makeTreeaddDF();
Workload makeTreeaddBF();
Workload makeMcf();
Workload makeVpr();

/// All seven, in the paper's reporting order.
std::vector<Workload> paperSuite();

/// Hand-adapted SSP binaries (Section 4.5): the manually tuned mcf and
/// health from Wang et al., including the aggressive recursion inlining
/// the automated tool cannot perform. They share the data-image builders
/// of their automatic counterparts.
Workload makeMcfHandAdapted();
Workload makeHealthHandAdapted();

/// Indirect-access stream workloads (DESIGN.md "Stream descriptors"):
/// a[b[i]]-shaped kernels whose affine index stream feeds a dependent
/// gather over a table sized past the 3 MiB L3 — the patterns
/// `ssp-adapt --streams` classifies as Indirect descriptors.
Workload makeHashJoin();  ///< Hash-join probe into a 4 MiB build table.
Workload makePagerank();  ///< Edge-centric rank gather through CSR col[].
Workload makeOaHash();    ///< Open-addressing 4-slot linear-probe sweep.

/// The three indirect stream workloads, in reporting order. Kept separate
/// from paperSuite() (whose membership several tests pin); the benches
/// append it explicitly.
std::vector<Workload> streamSuite();

/// paperSuite() followed by streamSuite(): the combined reporting set the
/// figure and ablation benches iterate.
std::vector<Workload> fullSuite();

/// A small arc-scan kernel (the paper's Figure 3 example) used by tests
/// and the quickstart example; \p NumArcs and \p NumNodes scale it.
Workload makeArcKernel(unsigned NumArcs = 800, unsigned NumNodes = 1 << 16);

/// A phase-changing kernel: the same arc array is scanned \p NumPasses
/// times over a node array small enough to become cache resident after
/// the first pass. SSP prefetching is profitable only during pass one;
/// afterwards the chains churn uselessly — the scenario motivating the
/// paper's Section 4.4.1 dynamic-throttling idea.
Workload makePhasedKernel(unsigned NumPasses = 6, unsigned NumArcs = 800,
                          unsigned NumNodes = 1 << 10);

/// A parameterized synthetic stress program for tool-throughput
/// benchmarking: \p Funcs worker functions of \p BlocksPerFunc loop-body
/// blocks, each issuing \p LoadsPerBlock pointer-chasing (delinquent) load
/// pairs, with the loop induction routed through a shared helper call.
/// Scales the *static* program 10-100x beyond the paper kernels while the
/// dynamic run stays small enough to profile quickly.
Workload makeStress(unsigned Funcs = 32, unsigned BlocksPerFunc = 8,
                    unsigned LoadsPerBlock = 2);

} // namespace ssp::workloads

#endif // SSP_WORKLOADS_WORKLOAD_H
