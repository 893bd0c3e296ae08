//===- ir/Verifier.h - Structural well-formedness checks ------------------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Verifies structural invariants of a Program before linking/simulation,
/// including the SSP-specific ones from the paper: p-slice blocks contain no
/// stores (speculative threads never modify the main thread's architectural
/// state, Section 2), chk.c targets stub blocks, spawn targets slice blocks,
/// and stub blocks end with rfi.
///
/// The checker emits structured verify::Diagnostics (check ids prefixed
/// "structural."). The full semantic pipeline (translation validation,
/// slice dataflow, lints) lives in src/verify/ and runs this checker as its
/// first pass, the only structural check of the rewriter's output.
///
//===----------------------------------------------------------------------===//

#ifndef SSP_IR_VERIFIER_H
#define SSP_IR_VERIFIER_H

namespace ssp::verify {
class DiagnosticEngine;
} // namespace ssp::verify

namespace ssp::ir {

class Program;

/// Checks all functions of \p P, reporting structured diagnostics (severity
/// error, check ids "structural.*") into \p DE.
void verifyStructural(const Program &P, verify::DiagnosticEngine &DE);

} // namespace ssp::ir

#endif // SSP_IR_VERIFIER_H
