//===- profile/ProfileIO.cpp - Text serialization for ProfileData ---------===//

#include "profile/ProfileIO.h"

#include "ir/Program.h"
#include "profile/Profile.h"

#include <algorithm>
#include <cctype>
#include <sstream>

using namespace ssp;
using namespace ssp::profile;

//===----------------------------------------------------------------------===//
// Printer
//===----------------------------------------------------------------------===//

std::string profile::writeProfileText(const ProfileData &PD) {
  std::string S = "sspprof v1\n";
  S += "baseline " + std::to_string(PD.BaselineCycles) + "\n";
  S += "funcs " + std::to_string(PD.BlockCounts.size()) + "\n";
  for (size_t F = 0; F < PD.BlockCounts.size(); ++F) {
    const std::vector<uint64_t> &Row = PD.BlockCounts[F];
    S += "blockcounts " + std::to_string(F) + " " +
         std::to_string(Row.size()) + ":";
    for (uint64_t C : Row)
      S += " " + std::to_string(C);
    S += "\n";
  }
  for (size_t F = 0; F < PD.EdgeCounts.size(); ++F)
    for (const auto &[Edge, Count] : PD.EdgeCounts[F])
      S += "edge " + std::to_string(F) + " " + std::to_string(Edge.first) +
           " " + std::to_string(Edge.second) + " " + std::to_string(Count) +
           "\n";
  for (const analysis::DirectCallCount &C : PD.CallSiteCounts)
    S += "call " + std::to_string(C.Site.Func) + " " +
         std::to_string(C.Site.Block) + " " + std::to_string(C.Site.Inst) +
         " " + std::to_string(C.Count) + "\n";
  for (const analysis::IndirectCallTarget &T : PD.IndirectTargets)
    S += "icall " + std::to_string(T.Site.Func) + " " +
         std::to_string(T.Site.Block) + " " + std::to_string(T.Site.Inst) +
         " " + std::to_string(T.Callee) + " " + std::to_string(T.Count) +
         "\n";
  // File order of `load` records is the cache profile's insertion order —
  // meaningful, and preserved by the parser.
  for (const auto &[Sid, St] : PD.Loads) {
    S += "load " + std::to_string(ir::staticIdFunc(Sid)) + " " +
         std::to_string(ir::staticIdInst(Sid)) + " " +
         std::to_string(St.Accesses);
    for (uint64_t H : St.Hits)
      S += " " + std::to_string(H);
    for (uint64_t P : St.Partials)
      S += " " + std::to_string(P);
    S += " " + std::to_string(St.MissCycles) + "\n";
  }
  // Dependence evidence (PR 8): the marker record distinguishes "measured,
  // possibly empty" from legacy profiles with no evidence at all.
  if (PD.HasDepEvidence) {
    S += "depevidence 1\n";
    for (size_t F = 0; F < PD.InstCounts.size(); ++F)
      for (const auto &[Id, C] : PD.InstCounts[F])
        S += "instcount " + std::to_string(F) + " " + std::to_string(Id) +
             " " + std::to_string(C) + "\n";
    for (const analysis::DepEdgeCount &D : PD.MemDepCounts)
      S += "memdep " + std::to_string(ir::staticIdFunc(D.From)) + " " +
           std::to_string(ir::staticIdInst(D.From)) + " " +
           std::to_string(ir::staticIdInst(D.To)) + " " +
           std::to_string(D.Count) + "\n";
    for (const analysis::DepEdgeCount &D : PD.RegDepCounts)
      S += "regdep " + std::to_string(ir::staticIdFunc(D.From)) + " " +
           std::to_string(ir::staticIdInst(D.From)) + " " +
           std::to_string(ir::staticIdInst(D.To)) + " " +
           std::to_string(D.Count) + "\n";
  }
  // Attribution evidence (PR 9): per-trigger prefetch-lifecycle rollups
  // from simulating an adapted binary. The marker distinguishes
  // "simulated, possibly zero triggers" from legacy profiles. The writer
  // sorts a copy by trigger sid, so any in-memory order renders as the
  // one canonical form the parser enforces.
  if (PD.HasAttrib) {
    S += "attrib 1\n";
    std::vector<sim::PrefetchAttribution> Sorted = PD.Attrib;
    std::sort(Sorted.begin(), Sorted.end(),
              [](const sim::PrefetchAttribution &A,
                 const sim::PrefetchAttribution &B) {
                return A.Trigger < B.Trigger;
              });
    for (const sim::PrefetchAttribution &A : Sorted) {
      S += "fates " + std::to_string(ir::staticIdFunc(A.Trigger)) + " " +
           std::to_string(ir::staticIdInst(A.Trigger)) + " " +
           std::to_string(ir::staticIdFunc(A.Slice)) + " " +
           std::to_string(ir::staticIdInst(A.Slice)) + " " +
           std::to_string(A.Spawns) + " " + std::to_string(A.MaxChainDepth);
      for (uint64_t F : A.Fates)
        S += " " + std::to_string(F);
      S += " " + std::to_string(A.LateCycles) + "\n";
    }
  }
  return S;
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

namespace {

/// A cursor over one `.sspprof` line: lower-case keywords and strict
/// unsigned decimal numbers (no sign, no hex, overflow rejected).
class Cursor {
public:
  explicit Cursor(const std::string &Line) : Text(Line) {}

  void skipSpace() {
    while (Pos < Text.size() &&
           std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }

  bool atEnd() {
    skipSpace();
    return Pos >= Text.size() || Text[Pos] == '#';
  }

  std::string word() {
    skipSpace();
    size_t Start = Pos;
    while (Pos < Text.size() &&
           std::isalpha(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
    return Text.substr(Start, Pos - Start);
  }

  bool eat(char C) {
    skipSpace();
    if (Pos >= Text.size() || Text[Pos] != C)
      return false;
    ++Pos;
    return true;
  }

  bool number(uint64_t &Out) {
    skipSpace();
    if (Pos >= Text.size() ||
        !std::isdigit(static_cast<unsigned char>(Text[Pos])))
      return false;
    Out = 0;
    while (Pos < Text.size() &&
           std::isdigit(static_cast<unsigned char>(Text[Pos]))) {
      uint64_t Digit = static_cast<uint64_t>(Text[Pos] - '0');
      if (Out > (~0ULL - Digit) / 10)
        return false; // overflow
      Out = Out * 10 + Digit;
      ++Pos;
    }
    return true;
  }

private:
  const std::string &Text;
  size_t Pos = 0;
};

class ProfParser {
public:
  ProfParser(const std::string &Text, ProfileData &PD) : PD(PD) {
    std::istringstream In(Text);
    std::string Line;
    while (std::getline(In, Line))
      Lines.push_back(Line);
  }

  bool run(std::string &Error) {
    bool SawHeader = false;
    for (LineNo = 0; LineNo < Lines.size(); ++LineNo) {
      Cursor C(Lines[LineNo]);
      if (C.atEnd())
        continue;
      if (!SawHeader) {
        if (C.word() != "sspprof" || C.word() != "v" || !expect(C, Version) ||
            Version != 1 || !end(C))
          return error(Error, "expected 'sspprof v1' header");
        SawHeader = true;
        continue;
      }
      std::string Kw = C.word();
      bool Ok;
      if (Kw == "baseline")
        Ok = parseBaseline(C);
      else if (Kw == "funcs")
        Ok = parseFuncs(C);
      else if (Kw == "blockcounts")
        Ok = parseBlockCounts(C);
      else if (Kw == "edge")
        Ok = parseEdge(C);
      else if (Kw == "call")
        Ok = parseCall(C);
      else if (Kw == "icall")
        Ok = parseICall(C);
      else if (Kw == "load")
        Ok = parseLoad(C);
      else if (Kw == "depevidence")
        Ok = parseDepEvidence(C);
      else if (Kw == "instcount")
        Ok = parseInstCount(C);
      else if (Kw == "memdep")
        Ok = parseDep(C, "memdep", PD.MemDepCounts);
      else if (Kw == "regdep")
        Ok = parseDep(C, "regdep", PD.RegDepCounts);
      else if (Kw == "attrib")
        Ok = parseAttrib(C);
      else if (Kw == "fates")
        Ok = parseFates(C);
      else
        return error(Error, "unknown record '" + Kw + "'");
      if (!Ok)
        return error(Error, Msg.empty() ? "malformed '" + Kw + "' record"
                                        : Msg);
    }
    if (!SawHeader)
      return error(Error, "empty profile: missing 'sspprof v1' header");
    if (PD.BlockCounts.size() != FuncsClaim) {
      LineNo = FuncsLine;
      return error(Error, "'funcs' claims " + std::to_string(FuncsClaim) +
                              " functions, but no record names fn" +
                              std::to_string(FuncsClaim - 1));
    }
    if (SawInstCount)
      PD.InstCounts.resize(FuncsClaim);
    return true;
  }

private:
  bool parseBaseline(Cursor &C) {
    if (SawBaseline)
      return failed("duplicate 'baseline' record");
    if (!C.number(PD.BaselineCycles) || !end(C))
      return false;
    SawBaseline = true;
    return true;
  }

  /// `funcs N` is a claim: the per-function tables grow as records name
  /// functions, and fn N-1 must be named by the end. A claim beyond twice
  /// the line count (no record names more than two functions) is rejected
  /// here, before any table can grow toward it.
  bool parseFuncs(Cursor &C) {
    if (SawFuncs)
      return failed("duplicate 'funcs' record");
    uint64_t N;
    if (!expect(C, N) || !end(C) || !fits32(N))
      return false;
    if (N > 2 * Lines.size())
      return failed("'funcs' claims " + std::to_string(N) +
                    " functions, more than " + std::to_string(Lines.size()) +
                    " lines can name");
    FuncsClaim = N;
    FuncsLine = LineNo;
    SawFuncs = true;
    return true;
  }

  /// N is a claim too: the counts are read one at a time.
  bool parseBlockCounts(Cursor &C) {
    uint64_t F, N;
    if (!func(C, F) || !expect(C, N) || !C.eat(':'))
      return false;
    std::vector<uint64_t> &Row = PD.BlockCounts[F];
    if (!Row.empty())
      return failed("duplicate 'blockcounts' for fn" + std::to_string(F));
    for (uint64_t V = 0; Row.size() < N && C.number(V);)
      Row.push_back(V);
    if (Row.size() != N)
      return failed("expected " + std::to_string(N) + " counts");
    return end(C);
  }

  bool parseEdge(Cursor &C) {
    uint64_t F, From, To, Count;
    if (!func(C, F) || !expect(C, From) || !expect(C, To) ||
        !expect(C, Count) || !end(C) || !fits32(From) || !fits32(To))
      return false;
    if (!PD.EdgeCounts[F]
             .emplace(std::make_pair(uint32_t(From), uint32_t(To)), Count)
             .second)
      return failed("duplicate 'edge' record");
    return true;
  }

  bool parseCall(Cursor &C) {
    analysis::DirectCallCount R;
    uint64_t F, B, I, Count;
    if (!func(C, F) || !expect(C, B) || !expect(C, I) || !expect(C, Count) ||
        !end(C) || !fits32(B) || !fits32(I))
      return false;
    R.Site = {uint32_t(F), uint32_t(B), uint32_t(I)};
    R.Count = Count;
    // CallGraph::build requires the vector sorted by Site; demanding the
    // canonical order here keeps the precondition a parse-time error
    // instead of a downstream assertion.
    if (!PD.CallSiteCounts.empty() && !(PD.CallSiteCounts.back().Site < R.Site))
      return failed("'call' records out of order");
    PD.CallSiteCounts.push_back(R);
    return true;
  }

  bool parseICall(Cursor &C) {
    analysis::IndirectCallTarget R;
    uint64_t F, B, I, Callee, Count;
    if (!func(C, F) || !expect(C, B) || !expect(C, I) || !expect(C, Callee) ||
        !expect(C, Count) || !end(C) || !fits32(B) || !fits32(I) ||
        !fits32(Callee))
      return false;
    R.Site = {uint32_t(F), uint32_t(B), uint32_t(I)};
    R.Callee = uint32_t(Callee);
    R.Count = Count;
    if (!PD.IndirectTargets.empty()) {
      const analysis::IndirectCallTarget &Prev = PD.IndirectTargets.back();
      if (!(Prev.Site < R.Site ||
            (Prev.Site == R.Site && Prev.Callee < R.Callee)))
        return failed("'icall' records out of order");
    }
    PD.IndirectTargets.push_back(R);
    return true;
  }

  bool parseLoad(Cursor &C) {
    uint64_t F, Id;
    cache::PcCacheStats St;
    if (!func(C, F) || !instId(C, Id) || !C.number(St.Accesses))
      return false;
    for (uint64_t &H : St.Hits)
      if (!C.number(H))
        return false;
    for (uint64_t &P : St.Partials)
      if (!C.number(P))
        return false;
    if (!C.number(St.MissCycles) || !end(C))
      return false;
    ir::StaticId Sid = ir::makeStaticId(uint32_t(F), uint32_t(Id));
    if (PD.Loads.count(Sid))
      return failed("duplicate 'load' record");
    PD.Loads[Sid] = St;
    return true;
  }

  bool parseDepEvidence(Cursor &C) {
    if (PD.HasDepEvidence)
      return failed("duplicate 'depevidence' record");
    uint64_t V;
    if (!expect(C, V) || !end(C))
      return false;
    if (V != 1)
      return failed("unsupported 'depevidence' version");
    PD.HasDepEvidence = true;
    return true;
  }

  /// Per-instruction execution counts: the classifier's trip denominator.
  /// Zero counts are never written, so they are rejected on read too; the
  /// strict (FUNC, INSTID) order makes parse(write(PD)) canonical.
  bool parseInstCount(Cursor &C) {
    if (!PD.HasDepEvidence)
      return failed("'instcount' before 'depevidence'");
    uint64_t F, Id, Count;
    if (!func(C, F) || !instId(C, Id) || !expect(C, Count) || !end(C))
      return false;
    if (Count == 0)
      return failed("zero 'instcount' record");
    PD.InstCounts.resize(PD.BlockCounts.size());
    if (std::make_pair(F, Id) <= LastInstCount && SawInstCount)
      return failed("'instcount' records out of order");
    SawInstCount = true;
    LastInstCount = {F, Id};
    // Records arrive in increasing (F, Id) order, so appending keeps each
    // sparse row sorted.
    PD.InstCounts[F].push_back({uint32_t(Id), Count});
    return true;
  }

  /// Shared body of 'memdep' and 'regdep': both endpoints live in one
  /// function and records arrive strictly sorted by (From, To) — the
  /// canonical order the writer emits.
  bool parseDep(Cursor &C, const char *Kw,
                std::vector<analysis::DepEdgeCount> &Out) {
    if (!PD.HasDepEvidence)
      return failed("'" + std::string(Kw) + "' before 'depevidence'");
    uint64_t F, FromId, ToId, Count;
    if (!func(C, F) || !instId(C, FromId) || !instId(C, ToId) ||
        !expect(C, Count) || !end(C))
      return false;
    analysis::DepEdgeCount R;
    R.From = ir::makeStaticId(uint32_t(F), uint32_t(FromId));
    R.To = ir::makeStaticId(uint32_t(F), uint32_t(ToId));
    R.Count = Count;
    if (!Out.empty() && !(Out.back() < R))
      return failed("'" + std::string(Kw) + "' records out of order");
    Out.push_back(R);
    return true;
  }

  bool parseAttrib(Cursor &C) {
    if (PD.HasAttrib)
      return failed("duplicate 'attrib' record");
    uint64_t V;
    if (!expect(C, V) || !end(C))
      return false;
    if (V != 1)
      return failed("unsupported 'attrib' version");
    PD.HasAttrib = true;
    return true;
  }

  /// One per-trigger fate rollup. Strictly sorted by trigger (FUNC, ID) —
  /// the canonical order the writer emits — which also rejects duplicate
  /// triggers. The slice sid may be (0, 0): the simulator's "origin slice
  /// unknown" sentinel.
  bool parseFates(Cursor &C) {
    if (!PD.HasAttrib)
      return failed("'fates' before 'attrib'");
    uint64_t TF, TId, SF, SId, Depth;
    sim::PrefetchAttribution A;
    if (!func(C, TF) || !instId(C, TId) || !expect(C, SF) || !fits32(SF) ||
        !instId(C, SId) || !C.number(A.Spawns) || !expect(C, Depth) ||
        !fits32(Depth))
      return false;
    if (SF >= FuncsClaim && !(SF == 0 && SId == 0))
      return failed("function index " + std::to_string(SF) +
                    " out of range");
    name(SF);
    for (unsigned F = 0; F < sim::NumPrefetchFates; ++F)
      if (!C.number(A.Fates[F]))
        return false;
    if (!C.number(A.LateCycles) || !end(C))
      return false;
    A.Trigger = ir::makeStaticId(uint32_t(TF), uint32_t(TId));
    A.Slice = ir::makeStaticId(uint32_t(SF), uint32_t(SId));
    A.MaxChainDepth = uint32_t(Depth);
    if (!PD.Attrib.empty() && !(PD.Attrib.back().Trigger < A.Trigger))
      return failed("'fates' records out of order");
    PD.Attrib.push_back(A);
    return true;
  }

  /// Parses a function index and bounds it against the 'funcs' record
  /// (which must therefore come first).
  bool func(Cursor &C, uint64_t &F) {
    if (!SawFuncs)
      return failed("record before 'funcs'");
    if (!expect(C, F))
      return false;
    if (F >= FuncsClaim)
      return failed("function index " + std::to_string(F) + " out of range");
    name(F);
    return true;
  }

  /// Grows the per-function tables to hold \p F, named by a record.
  void name(uint64_t F) {
    if (F >= PD.BlockCounts.size()) {
      PD.BlockCounts.resize(F + 1);
      PD.EdgeCounts.resize(F + 1);
    }
  }

  bool expect(Cursor &C, uint64_t &Out) { return C.number(Out); }

  /// Parses an instruction id: the same bound the program parser puts on
  /// `@N`, which keeps every id-indexed table small.
  bool instId(Cursor &C, uint64_t &Id) {
    if (!expect(C, Id) || !fits32(Id))
      return false;
    if (Id >= ir::MaxInstId)
      return failed("instruction id " + std::to_string(Id) +
                    " out of range (ids must be below " +
                    std::to_string(ir::MaxInstId) + ")");
    return true;
  }

  bool end(Cursor &C) {
    return C.atEnd() ? true : failed("trailing junk after record");
  }

  bool fits32(uint64_t V) {
    return V <= ~0u ? true : failed("value out of 32-bit range");
  }

  bool failed(std::string M) {
    if (Msg.empty())
      Msg = std::move(M);
    return false;
  }

  bool error(std::string &Error, const std::string &M) {
    Error = "line " + std::to_string(LineNo + 1) + ": " + M;
    return false;
  }

  ProfileData &PD;
  std::vector<std::string> Lines;
  size_t LineNo = 0;
  uint64_t Version = 0;
  std::string Msg;
  std::pair<uint64_t, uint64_t> LastInstCount = {0, 0};
  uint64_t FuncsClaim = 0;
  size_t FuncsLine = 0;
  bool SawHeader = false, SawBaseline = false, SawFuncs = false;
  bool SawInstCount = false;
};

} // namespace

bool profile::parseProfileText(const std::string &Text, ProfileData &PD,
                               std::string &Error) {
  return ProfParser(Text, PD).run(Error);
}

bool profile::checkProfileMatches(const ProfileData &PD,
                                  const ir::Program &P, std::string &Error) {
  if (PD.BlockCounts.size() != P.numFuncs()) {
    Error = "function count " + std::to_string(PD.BlockCounts.size()) +
            " does not match program (" + std::to_string(P.numFuncs()) +
            " functions)";
    return false;
  }
  auto SiteOk = [&](const analysis::InstRef &Site) {
    return Site.Func < P.numFuncs() &&
           Site.Block < P.func(Site.Func).numBlocks() &&
           Site.Inst < P.func(Site.Func).block(Site.Block).Insts.size();
  };
  for (const analysis::DirectCallCount &C : PD.CallSiteCounts)
    if (!SiteOk(C.Site)) {
      Error = "call site " + C.Site.str() + " out of range";
      return false;
    }
  for (const analysis::IndirectCallTarget &T : PD.IndirectTargets)
    if (!SiteOk(T.Site) || T.Callee >= P.numFuncs()) {
      Error = "icall record " + T.Site.str() + " -> fn" +
              std::to_string(T.Callee) + " out of range";
      return false;
    }
  // Slicing starts from each selected load, so a `load` record that names
  // an instruction must name a load. Sids no instruction carries stay
  // allowed: load selection ignores them, as after a rewrite.
  StaticIdIndex Index(P);
  for (const auto &[Sid, St] : PD.Loads) {
    const analysis::InstRef *Ref = Index.find(Sid);
    if (Ref && !ir::isLoad(Ref->get(P).Op)) {
      Error = "load record fn" + std::to_string(ir::staticIdFunc(Sid)) +
              " @" + std::to_string(ir::staticIdInst(Sid)) + " names '" +
              Ref->get(P).str() + "' at " + Ref->str() + ", not a load";
      return false;
    }
  }
  return true;
}
