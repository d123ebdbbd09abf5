#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace servebench {

std::vector<double> SpanLog::self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans)
    if (s.parent != 0 && s.parent <= spans.size())
      kids[s.parent - 1].emplace_back(s.start_s, s.end_s);
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0, lo = 0, hi = -1;
    for (auto [a, b] : iv) {
      a = std::max(a, p.start_s);
      b = std::min(b, p.end_s);
      if (b <= a) continue;
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    self[i] = std::max(0.0, p.dur() - covered);
  }
  return self;
}

bool SpanLog::write_json(const std::vector<Span>& spans,
                         const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<double> self = self_times(spans);
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "  {\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"req\":%llu,"
                 "\"start_s\":%.9f,\"end_s\":%.9f,\"self_s\":%.9f}%s\n",
                 s.name.c_str(), static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.req), s.start_s, s.end_s,
                 self[i], i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

}  // namespace servebench
