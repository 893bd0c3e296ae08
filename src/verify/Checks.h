//===- verify/Checks.h - The SSP verification passes ----------------------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Factories for the concrete verification passes. Check-id catalogue:
///
///   structural.*          ir::verifyStructural (well-formedness)
///   tv.*                  translation validation against the original
///   stub.*                chk.c recovery-stub contract
///   slice.*               p-slice dataflow: live-ins, LIB staging, chain
///                         termination, prefetch coverage
///   lint.*                warnings: dead slice code, staging order,
///                         bundle slot pressure, trigger reachability
///   speculation.*         speculation-aware dependence drops: every
///                         manifest-recorded dropped may-edge re-derived
///                         against the profile evidence (notes), with
///                         evidence-free or must-dep drops fatal
///   feedback.*            closed-loop re-adaptation directives: drops,
///                         hoists, restart suppression, and unroll
///                         deepening cross-checked against the emitted
///                         plan; trigger-sid records validated so the
///                         attribution->slice join is sound
///   stream.*              attached StreamDescriptors re-derived from the
///                         emitted slice blocks via the same classifier
///                         codegen used; wrong-kind / wrong-stride /
///                         non-covering disagreements are fatal
///
/// The full list with rationale is documented in DESIGN.md under
/// "Verification architecture".
///
//===----------------------------------------------------------------------===//

#ifndef SSP_VERIFY_CHECKS_H
#define SSP_VERIFY_CHECKS_H

#include "verify/Pass.h"

#include <memory>

namespace ssp::verify {

/// Wraps ir::verifyStructural: the only structural check of adapt()'s
/// output. Runs even on ill-formed programs (it decides ill-formedness).
std::unique_ptr<VerifyPass> createStructuralPass();

/// Diffs the adapted program against Ctx.Orig: every original instruction
/// must be preserved in order, and the only permitted body edit is the
/// insertion of chk.c triggers. Skips silently when Ctx.Orig is null.
std::unique_ptr<VerifyPass> createTranslationValidationPass();

/// Stub blocks may only marshal live-ins into the LIB and spawn: any
/// register write would corrupt the interrupted thread across the rfi.
std::unique_ptr<VerifyPass> createStubContractPass();

/// Slice dataflow: every register a p-slice reads is computed in the slice
/// or loaded from the LIB; every LIB slot a spawn target reads is staged on
/// every path to the spawn; chains terminate; planned prefetches are
/// actually emitted.
std::unique_ptr<VerifyPass> createSliceDataflowPass();

/// Warnings-only lints: dead slice results, live-ins staged after the
/// spawn, over-subscribed issue bundles, LIB pressure, unreachable or
/// possibly-uninitialized triggers.
std::unique_ptr<VerifyPass> createLintPass();

/// Audits the manifest's speculatively dropped dependence edges: each one
/// is re-classified via Ctx.Spec and must come out cold with nonzero trip
/// coverage and matching recorded evidence. Every accepted drop is emitted
/// as a `speculation.dropped-edge` note (the speculation audit trail in
/// text and JSON); a drop that is a must-dep, has zero profile coverage,
/// exceeds the threshold, or lacks a classifier is a fatal
/// `speculation.unsupported-drop`. Skips silently when no manifest is
/// present or it records no drops.
std::unique_ptr<VerifyPass> createSpeculationPass();

/// Audits closed-loop feedback directives (ToolOptions::Overrides as
/// recorded in AdaptationManifest::FeedbackOverrides) against the emitted
/// plan: a dropped load must not have a slice, covering slices must honor
/// min-region-depth / no-restart / inner-unroll directives
/// (`feedback.unapplied-override`; a `feedback.override-conflict` warning
/// when a merged slice's primary directive legitimately won), and every
/// recorded trigger sid must resolve to a chk.c aimed at its slice's stub
/// (`feedback.bad-trigger-record`). Honored directives become
/// `feedback.applied-override` notes; directives matching no slice become
/// `feedback.inactive-override` notes. Skips silently when the manifest
/// records no overrides.
std::unique_ptr<VerifyPass> createFeedbackPass();

/// Audits every stream descriptor the adaptation attached (manifest
/// SliceManifest::Stream and the binary's stream directives): the
/// descriptor is re-derived from the emitted slice blocks through
/// analysis::classifyStream, and any disagreement — wrong kind, wrong
/// recurrence, non-covering prefetch set — is a fatal `stream.*` error.
/// With no manifest, the binary's own directives are still checked (the
/// stub's spawn target and lib.sti budget staging recover the inputs).
/// Skips silently when neither records any descriptor.
std::unique_ptr<VerifyPass> createStreamPass();

} // namespace ssp::verify

#endif // SSP_VERIFY_CHECKS_H
