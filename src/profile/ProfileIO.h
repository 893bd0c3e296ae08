//===- profile/ProfileIO.h - Text serialization for ProfileData -----------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `.sspprof` text format: a printer + strict parser for ProfileData,
/// symmetric with ir::Parser the way Program::str() is. Together the two
/// formats let a complete adaptation request — program text plus profile
/// text — arrive as bytes over a pipe (the `ssp-adaptd` protocol) instead
/// of being assembled programmatically.
///
/// Grammar (one record per line; '#' starts a comment; all counts are
/// unsigned decimal):
///
///   profile     := "sspprof v1" record*
///   record      := "baseline" CYCLES
///                | "funcs" NFUNCS
///                | "blockcounts" FUNC N ":" COUNT{N}
///                | "edge" FUNC FROM TO COUNT
///                | "call" FUNC BLOCK INST COUNT
///                | "icall" FUNC BLOCK INST CALLEE COUNT
///                | "load" FUNC INSTID ACCESSES H0 H1 H2 H3 P0 P1 P2 P3
///                         MISSCYCLES
///                | "depevidence" 1
///                | "instcount" FUNC INSTID COUNT
///                | "memdep" FUNC FROMID TOID COUNT
///                | "regdep" FUNC FROMID TOID COUNT
///                | "attrib" 1
///                | "fates" TFUNC TID SFUNC SID SPAWNS MAXDEPTH
///                          TIMELY LATE EVICTED REDUNDANT WILD LATECYCLES
///
/// Every instruction-id field (INSTID, FROMID, TOID, TID, SID) must be
/// below ir::MaxInstId (2^20), the bound the program parser puts on `@N`.
/// NFUNCS and N are claims, never allocation sizes: some record must name
/// function NFUNCS-1, and a `blockcounts` record carries exactly N counts.
///
/// `load` is keyed by (function index, static instruction id) — the same
/// ids the program text pins with `@N` annotations (ir/Parser.h) — and
/// file order is meaningful: it is the cache profile's insertion order,
/// which downstream consumers iterate deterministically.
///
/// `instcount`/`memdep`/`regdep` carry the dynamic dependence evidence
/// that backs speculation-aware slicing (analysis/SpecDeps.h): per-static-
/// instruction execution counts (the classifier's trip denominator; zero
/// counts are omitted) and per (producer id, consumer id) activation
/// counts for store->load flows resp. candidate loop-carried register
/// flows, both endpoints in FUNC. All three require a preceding
/// `depevidence 1` marker (absent in legacy profiles, which therefore
/// disable may-dep pruning) and must arrive strictly sorted — `instcount`
/// by (FUNC, INSTID), the dep kinds by (FROMID, TOID) within each kind.
///
/// `attrib`/`fates` carry prefetch-lifecycle attribution from simulating
/// an *adapted* binary (`ssp-sim --emit-attrib`): per chk.c trigger, the
/// origin slice's static id (or 0 0 when unknown), spawn count, deepest
/// chain, the five fate counters (sim/SimStats.h order), and the
/// timeliness slack shortfall in cycles. This is the evidence the
/// closed-loop feedback policy (core/Feedback.h) consumes. `fates`
/// requires a preceding `attrib 1` marker (absent in legacy profiles) and
/// must arrive strictly sorted by trigger (TFUNC, TID).
///
/// writeProfileText emits records in a canonical order (header, baseline,
/// funcs, blockcounts by function, edges, calls, icalls, loads,
/// depevidence, instcounts, memdeps, regdeps, attrib, fates sorted by
/// trigger), so write(parse(write(PD))) is byte-identical to write(PD).
///
//===----------------------------------------------------------------------===//

#ifndef SSP_PROFILE_PROFILEIO_H
#define SSP_PROFILE_PROFILEIO_H

#include <string>

namespace ssp::ir {
class Program;
} // namespace ssp::ir

namespace ssp::profile {

struct ProfileData;

/// Renders \p PD in the `.sspprof` text format (canonical record order).
std::string writeProfileText(const ProfileData &PD);

/// Parses `.sspprof` text into \p PD (which must be default-constructed).
/// Strict: unknown records, missing fields, trailing junk, out-of-range
/// numbers, and out-of-order sorted records all fail. On failure returns
/// false and sets \p Error to "line N: message".
bool parseProfileText(const std::string &Text, ProfileData &PD,
                      std::string &Error);

/// Cross-checks \p PD against \p P for what the parser cannot know: one
/// block-count row per function, call sites and icall callees inside
/// \p P, and `load` records naming loads (a sid no instruction of \p P
/// carries is allowed and ignored). Every frontend that loads a `.sspprof`
/// runs it before adapting. On failure returns false and sets \p Error.
bool checkProfileMatches(const ProfileData &PD, const ir::Program &P,
                         std::string &Error);

} // namespace ssp::profile

#endif // SSP_PROFILE_PROFILEIO_H
