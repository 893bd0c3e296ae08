//===- tests/StructuralCheck.h - gtest assertions over verifyStructural ---===//
//
// The tests' view of ir::verifyStructural, the one structural checker:
// EXPECT_TRUE(wellFormed(P)) prints every diagnostic on failure, and
// reportsCheck names the check id a rejection test expects.
//
//===----------------------------------------------------------------------===//

#ifndef SSP_TESTS_STRUCTURALCHECK_H
#define SSP_TESTS_STRUCTURALCHECK_H

#include "ir/Program.h"
#include "ir/Verifier.h"
#include "verify/Diagnostic.h"

#include <gtest/gtest.h>

#include <string>

namespace ssp::tests {

inline verify::DiagnosticEngine checkStructure(const ir::Program &P) {
  verify::DiagnosticEngine DE;
  ir::verifyStructural(P, DE);
  return DE;
}

/// Passes iff \p P has no structural errors; the failure lists them all.
inline ::testing::AssertionResult wellFormed(const ir::Program &P) {
  verify::DiagnosticEngine DE = checkStructure(P);
  if (!DE.hasErrors())
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << verify::renderTextAll(DE, &P);
}

/// Passes iff the structural checker reports \p CheckId on \p P.
inline ::testing::AssertionResult reportsCheck(const ir::Program &P,
                                               const std::string &CheckId) {
  verify::DiagnosticEngine DE = checkStructure(P);
  for (const verify::Diagnostic &D : DE.diagnostics())
    if (D.CheckId == CheckId)
      return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "no " << CheckId << " among:\n"
         << verify::renderTextAll(DE, &P);
}

} // namespace ssp::tests

#endif // SSP_TESTS_STRUCTURALCHECK_H
