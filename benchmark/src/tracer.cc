#include "tracer.h"

#include <cstdio>
#include <map>
#include <set>
#include <utility>

namespace rdbench {

std::vector<double> Tracer::durations(std::string_view call) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.call == call) out.push_back(s.dur_s);
  return out;
}

std::vector<double> Tracer::track_totals(std::string_view call) const {
  std::map<int, double> totals;
  for (const Span& s : spans_)
    if (s.call == call && s.track >= 0) totals[s.track] += s.dur_s;
  std::vector<double> out;
  for (const auto& [track, total] : totals) out.push_back(total);
  return out;
}

bool Tracer::write_chrome_json(const std::string& path,
                               std::size_t per_call_cap) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  bool first = true;
  const auto sep = [&] {
    if (!first) std::fputs(",\n", f);
    first = false;
  };
  std::set<int> tracks;
  for (const Span& s : spans_) tracks.insert(s.track);
  for (const int t : tracks) {
    sep();
    // tid 0 holds the probes, tid k+1 repetition k.
    if (t < 0)
      std::fprintf(f,
                   "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\","
                   "\"args\":{\"name\":\"probes\"}}");
    else
      std::fprintf(f,
                   "{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\","
                   "\"args\":{\"name\":\"repetition %d\"}}",
                   t + 1, t);
  }
  std::map<std::pair<std::string_view, std::string_view>, std::size_t> seen;
  std::size_t dropped = 0;
  for (const Span& s : spans_) {
    if (++seen[{s.layer, s.call}] > per_call_cap) {
      ++dropped;
      continue;
    }
    sep();
    std::fprintf(f,
                 "{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"cat\":\"%s\","
                 "\"name\":\"%s\",\"ts\":%.3f,\"dur\":%.3f}",
                 s.track + 1, s.layer, s.call, s.start_s * 1e6, s.dur_s * 1e6);
  }
  std::fprintf(f, "\n],\"otherData\":{\"spans\":%zu,\"dropped_over_cap\":%zu}}\n",
               spans_.size(), dropped);
  return std::fclose(f) == 0;
}

}  // namespace rdbench
