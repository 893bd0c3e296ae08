//===- analysis/SpecDeps.h - Speculation-aware dependence classification --===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Profile-backed classification of may-dependences, after SCAF's shape:
/// a speculative analysis may *remove* a may-dependence edge when dynamic
/// evidence says it is cold, provided a validation plan backs the removal
/// (here: the `speculation.*` verification pass re-derives every drop).
///
/// Every dependence edge the slicer or scheduler might traverse falls into
/// one of three classes:
///
///   * **must** — the edge has an intra-iteration component (a register
///     def reaches its use without crossing a back edge) or is otherwise
///     not a speculation candidate (cross-function, same-block forward
///     store->load). Never prunable.
///   * **hot**  — a may-edge (purely loop-carried register flow, or a
///     disambiguator-approved store->load pair) whose observed dynamic
///     activation ratio exceeds the confidence threshold, or that has no
///     profile coverage at all (the consumer never executed, or the
///     profile predates dependence evidence). Kept.
///   * **cold** — a covered may-edge observed in at most
///     `threshold * trips` of the consumer's executions. Prunable: the
///     slicer turns the producer into a trigger-time live-in and the
///     scheduler ignores the carried edge, each recording a SpecDrop the
///     verification pipeline checks for evidence.
///
/// Evidence is the flat DepEvidence view over profile-collected per-edge
/// activation counts (profile/Profile.h stores the vectors; this layer
/// deliberately sees only plain data so ssp_verify can consume it without
/// linking ssp_profile).
///
//===----------------------------------------------------------------------===//

#ifndef SSP_ANALYSIS_SPECDEPS_H
#define SSP_ANALYSIS_SPECDEPS_H

#include "analysis/DependenceGraph.h"
#include "analysis/InstRef.h"

#include <cstdint>
#include <utility>
#include <vector>

namespace ssp::analysis {

/// One observed dynamic dependence edge: \p From produced a value (register
/// def or store) that \p To consumed (register use or load) \p Count times.
/// Both endpoints are in one function; vectors of these are sorted by
/// (From, To) — the canonical `.sspprof` record order.
struct DepEdgeCount {
  ir::StaticId From = 0;
  ir::StaticId To = 0;
  uint64_t Count = 0;

  friend bool operator<(const DepEdgeCount &A, const DepEdgeCount &B) {
    if (A.From != B.From)
      return A.From < B.From;
    return A.To < B.To;
  }
};

/// One function's instruction execution counts: (Instruction::Id, count)
/// pairs in increasing Id order, zero counts omitted. A row costs its
/// records whatever the ids are, so a profile's text cannot size it.
using InstCountRow = std::vector<std::pair<uint32_t, uint64_t>>;

/// Flat, layering-free view of the dependence evidence one profile carries
/// (see profile::ProfileData::depEvidence). All pointers may be null when
/// the profile predates evidence collection; Collected distinguishes "no
/// dynamic dependences observed" from "never measured".
struct DepEvidence {
  const std::vector<DepEdgeCount> *MemDeps = nullptr;
  const std::vector<DepEdgeCount> *RegDeps = nullptr;
  /// Per (function, instruction Id) execution counts: the trip denominator
  /// of a consumer is the number of times it itself executed. (Block entry
  /// counts would over-count blocks containing calls — the call-return
  /// resumption re-enters the block.)
  const std::vector<InstCountRow> *InstCounts = nullptr;
  bool Collected = false;
};

/// Tuning of the speculation pass (ToolOptions::SpecDepThreshold and the
/// `--spec-deps[=T]` flag map here).
struct SpecDepOptions {
  /// Master switch; off keeps every may-edge (bit-identical to the
  /// pre-speculation pipeline).
  bool Enabled = false;
  /// Confidence threshold: a covered may-edge is cold when
  /// observed <= Threshold * trips. 0 prunes only never-observed edges.
  double Threshold = 0.0;
};

enum class DepClass : uint8_t { Must, Hot, Cold };
enum class DepKind : uint8_t { Register, Memory };

inline const char *depClassName(DepClass C) {
  switch (C) {
  case DepClass::Must:
    return "must";
  case DepClass::Hot:
    return "hot";
  case DepClass::Cold:
    return "cold";
  }
  return "?";
}

inline const char *depKindName(DepKind K) {
  return K == DepKind::Register ? "reg" : "mem";
}

/// The record of one pruned may-edge, carried from the slicer through the
/// manifest into the `speculation.*` verification pass, which re-derives
/// the classification and rejects drops without evidence.
struct SpecDrop {
  DepKind Kind = DepKind::Register;
  ir::StaticId From = 0; ///< Producer (register def or store).
  ir::StaticId To = 0;   ///< Consumer (register use or load).
  uint64_t Observed = 0; ///< Dynamic activations of this edge.
  uint64_t Trips = 0;    ///< Consumer executions (profile instcount).
  double Threshold = 0.0;

  friend bool operator<(const SpecDrop &A, const SpecDrop &B) {
    if (A.Kind != B.Kind)
      return A.Kind < B.Kind;
    if (A.From != B.From)
      return A.From < B.From;
    if (A.To != B.To)
      return A.To < B.To;
    if (A.Observed != B.Observed)
      return A.Observed < B.Observed;
    if (A.Trips != B.Trips)
      return A.Trips < B.Trips;
    return A.Threshold < B.Threshold;
  }
  friend bool operator==(const SpecDrop &A, const SpecDrop &B) {
    return !(A < B) && !(B < A);
  }
};

/// Classifies may-dependence edges of one program as must/hot/cold from
/// profile evidence. Immutable after construction and allocation-free per
/// query, so slicer/scheduler workers const-share one instance.
class SpecDeps {
public:
  SpecDeps(const ProgramDeps &Deps, SpecDepOptions Opts, DepEvidence Ev)
      : Deps(Deps), Opts(Opts), Ev(Ev) {}

  /// True when pruning may happen at all: the pass is switched on *and*
  /// the profile carries dependence evidence.
  bool enabled() const { return Opts.Enabled && Ev.Collected; }
  double threshold() const { return Opts.Threshold; }
  const SpecDepOptions &options() const { return Opts; }

  /// Classifies the register flow edge \p Def -> \p Use. Must unless the
  /// edge is purely loop-carried (no back-edge-free path inside the
  /// innermost loop containing both) and \p Use actually reads \p Def's
  /// defined register.
  DepClass classifyRegEdge(const InstRef &Def, const InstRef &Use) const;

  /// Classifies the memory flow edge \p Store -> \p Load (a
  /// FunctionDeps::memorySources pair). Same-block forward pairs are must.
  DepClass classifyMemEdge(const InstRef &Store, const InstRef &Load) const;

  /// True when the edge is Cold (and pruning is enabled); fills \p Drop
  /// with the evidence record.
  bool shouldPrune(DepKind Kind, const InstRef &From, const InstRef &To,
                   SpecDrop *Drop = nullptr) const;

  /// Observed activation count and trip denominator for an edge. Zero/zero
  /// when uncovered.
  void evidenceFor(DepKind Kind, const InstRef &From, const InstRef &To,
                   uint64_t &Observed, uint64_t &Trips) const;

  const ProgramDeps &deps() const { return Deps; }

private:
  DepClass classifyMayEdge(DepKind Kind, const InstRef &From,
                           const InstRef &To) const;
  uint64_t tripsOf(const InstRef &Consumer) const;

  const ProgramDeps &Deps;
  SpecDepOptions Opts;
  DepEvidence Ev;
};

} // namespace ssp::analysis

#endif // SSP_ANALYSIS_SPECDEPS_H
