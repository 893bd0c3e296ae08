//===- perfbench/bench/Spans.cpp - In-memory span recorder ----------------===//

#include "bench/Bench.h"

#include <cstdio>

using namespace perfbench;

int SpanRecorder::open(std::string Name) {
  Span S;
  S.Name = std::move(Name);
  S.Parent = Open.empty() ? -1 : Open.back();
  S.Op = CurOp;
  S.StartUs = std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - Origin)
                  .count();
  Spans.push_back(std::move(S));
  int Id = static_cast<int>(Spans.size() - 1);
  Open.push_back(Id);
  return Id;
}

void SpanRecorder::close(int Id) {
  Spans[static_cast<size_t>(Id)].EndUs =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - Origin)
          .count();
  // Scopes close in LIFO order, so Id is the innermost open span.
  if (!Open.empty() && Open.back() == Id)
    Open.pop_back();
}

double SpanRecorder::totalMs(const std::string &Name) const {
  double Us = 0;
  for (const Span &S : Spans)
    if (S.Name == Name && S.Op != SetupOp)
      Us += S.EndUs - S.StartUs;
  return Us / 1000.0;
}

std::map<std::string, double> SpanRecorder::selfMsByLayer(bool Setup) const {
  std::vector<double> ChildUs(Spans.size(), 0.0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildUs[static_cast<size_t>(S.Parent)] += S.EndUs - S.StartUs;
  std::map<std::string, double> Self;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    if ((S.Op == SetupOp) != Setup)
      continue;
    std::string Layer = S.Name.substr(0, S.Name.find('.'));
    Self[Layer] += (S.EndUs - S.StartUs - ChildUs[I]) / 1000.0;
  }
  return Self;
}

bool SpanRecorder::writeTrace(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"traceEvents\": [\n");
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d, \"op\": %llu}}%s\n",
                 S.Name.c_str(), S.StartUs, S.EndUs - S.StartUs, I, S.Parent,
                 static_cast<unsigned long long>(S.Op),
                 I + 1 < Spans.size() ? "," : "");
  }
  std::fprintf(F, "]}\n");
  return std::fclose(F) == 0;
}
