#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <thread>

namespace flowbench {

using flowmotif::MotifInstance;
using flowmotif::QueryMode;
using flowmotif::QueryResult;

uint64_t DeriveSeed(uint64_t seed, const std::string& purpose) {
  SplitMix64 mix(Fnv1a(purpose.data(), purpose.size()) ^ seed);
  mix.Next();
  return mix.Next();
}

uint64_t Fnv1a(const void* data, size_t size, uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string Hex64(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return buf;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least p% of the sample at
  // or below it.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

LatencySummary Summarize(const std::vector<double>& values, size_t planned) {
  LatencySummary s;
  s.count = values.size();
  s.p50 = Median(values);
  // Fewer than 20 planned samples: no percentile has ten beyond it, so
  // the maximum is reported.
  s.tail_percentile = 100.0;
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (static_cast<double>(planned) * (100.0 - p) / 100.0 >= 10.0) {
      s.tail_percentile = p;
      break;
    }
  }
  s.tail = Percentile(values, s.tail_percentile);
  return s;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

class Hasher {
 public:
  template <typename T>
  void Pod(const T& value) {
    hash_ = Fnv1a(&value, sizeof(value), hash_);
  }
  void Instance(const MotifInstance& instance) {
    Pod(instance.binding.size());
    for (auto v : instance.binding) Pod(v);
    Pod(instance.edge_sets.size());
    for (const auto& set : instance.edge_sets) {
      Pod(set.size());
      for (const auto& x : set) {
        Pod(x.t);
        Pod(x.f);
      }
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace

uint64_t ResultFingerprint(const QueryResult& r) {
  Hasher h;
  h.Pod(static_cast<int>(r.mode));
  h.Pod(static_cast<int>(r.termination.code));
  h.Pod(r.stats.num_instances);
  h.Pod(r.stats.num_structural_matches);
  h.Pod(r.instances.size());
  for (const auto& instance : r.instances) h.Instance(instance);
  h.Pod(r.topk.size());
  for (const auto& entry : r.topk) {
    h.Pod(entry.flow);
    h.Instance(entry.instance);
  }
  h.Pod(r.top1.found);
  if (r.top1.found) {
    h.Pod(r.top1.max_flow);
    h.Instance(r.top1.best);
    for (auto v : r.top1.binding) h.Pod(v);
    h.Pod(r.top1.window.start);
    h.Pod(r.top1.window.end);
  }
  return h.value();
}

const char* ModeName(QueryMode mode) {
  switch (mode) {
    case QueryMode::kEnumerate:
      return "enumerate";
    case QueryMode::kCount:
      return "count";
    case QueryMode::kTopK:
      return "topk";
    case QueryMode::kTop1:
      return "top1";
    case QueryMode::kSignificance:
      return "significance";
  }
  return "unknown";
}

// ---------------------------------------------------------------------

int64_t Tracer::Begin(const char* name, int64_t parent, int64_t request) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  span.thread = std::hash<std::thread::id>()(std::this_thread::get_id());
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      SteadyClock::now() - origin_)
                      .count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  const int64_t end = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          SteadyClock::now() - origin_)
                          .count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = end;
}

int64_t Tracer::Add(const char* name, int64_t parent, int64_t request,
                    SteadyClock::time_point start, SteadyClock::time_point end) {
  const int64_t id = Begin(name, parent, request);
  auto ns = [this](SteadyClock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  };
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].start_ns = ns(start);
  spans_[static_cast<size_t>(id)].end_ns = ns(end);
  return id;
}

std::vector<std::pair<std::string, double>> Tracer::SelfSecondsByName() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<size_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<size_t>(spans_[i].parent)].push_back(i);
    }
  }
  std::map<std::string, double> self;
  std::vector<std::string> order;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<int64_t, int64_t>> covered;
    for (size_t c : children[i]) {
      const Span& child = spans_[c];
      if (child.end_ns < 0) continue;
      covered.emplace_back(std::max(child.start_ns, s.start_ns),
                           std::min(child.end_ns, s.end_ns));
    }
    std::sort(covered.begin(), covered.end());
    int64_t union_ns = 0;
    int64_t cur_lo = 0, cur_hi = -1;
    for (const auto& iv : covered) {
      if (iv.second <= iv.first) continue;
      if (iv.first > cur_hi) {
        if (cur_hi > cur_lo) union_ns += cur_hi - cur_lo;
        cur_lo = iv.first;
        cur_hi = iv.second;
      } else {
        cur_hi = std::max(cur_hi, iv.second);
      }
    }
    if (cur_hi > cur_lo) union_ns += cur_hi - cur_lo;
    if (self.find(s.name) == self.end()) order.push_back(s.name);
    self[s.name] += static_cast<double>(s.end_ns - s.start_ns - union_ns) * 1e-9;
  }
  std::vector<std::pair<std::string, double>> out;
  for (const std::string& name : order) out.emplace_back(name, self[name]);
  return out;
}

double Tracer::RootSeconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.parent < 0 && s.end_ns >= 0 && name == s.name) {
      total += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  return total;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  std::map<uint64_t, int> tids;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    const int tid = tids.emplace(s.thread, static_cast<int>(tids.size())).first->second;
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%" PRId64 ",\"request\":%" PRId64 "}}\n",
                 i == 0 ? "" : ",", s.name, tid,
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                 s.parent, s.request);
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

// ---------------------------------------------------------------------

Checker::Tally* Checker::Find(const std::string& name) {
  for (Tally& t : tallies_) {
    if (t.name == name) return &t;
  }
  tallies_.push_back(Tally{name, 0, 0, ""});
  return &tallies_.back();
}

void Checker::Expect(const std::string& check, bool ok, int64_t request,
                     const std::string& detail) {
  Tally* t = Find(check);
  if (ok) {
    ++t->passed;
    return;
  }
  // The first three failures of each check are kept for the report.
  if (t->failed++ < 3) {
    t->first_failure += (t->first_failure.empty() ? "" : "; ") +
                        std::string("request ") + std::to_string(request) +
                        (detail.empty() ? "" : ": " + detail);
  }
  failed_requests_.push_back(request);
}

int64_t Checker::FailedRequests() const {
  std::vector<int64_t> ids = failed_requests_;
  std::sort(ids.begin(), ids.end());
  return static_cast<int64_t>(std::unique(ids.begin(), ids.end()) - ids.begin());
}

bool Checker::all_passed() const {
  for (const Tally& t : tallies_) {
    if (t.failed > 0) return false;
  }
  return failed_requests_.empty();
}

std::vector<std::string> Checker::SummaryLines() const {
  std::vector<std::string> lines;
  for (const Tally& t : tallies_) {
    std::string line = "check " + t.name + ": " + std::to_string(t.passed) +
                       " passed, " + std::to_string(t.failed) + " failed";
    if (t.failed > 0) line += " (" + t.first_failure + ")";
    lines.push_back(line);
  }
  return lines;
}

void Report::Add(const std::string& name, double value, const std::string& unit) {
  for (const Metric& m : metrics_) {
    if (m.name == name) {
      std::fprintf(stderr, "metric %s reported twice\n", name.c_str());
      std::abort();
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

void Report::Note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, value);
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::Print(bool correct, int64_t attempted, int64_t failed,
                   const Checker& checker) const {
  for (const auto& note : notes_) {
    std::printf("note %s: %s\n", note.first.c_str(), note.second.c_str());
  }
  for (const std::string& line : checker.SummaryLines()) {
    std::printf("%s\n", line.c_str());
  }
  for (const Metric& m : metrics_) {
    std::printf("metric %-28s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\":" + std::string(correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(attempted) +
                     ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    json += (i == 0 ? "" : ",") + JsonString(m.name) +
            ":{\"value\":" + JsonNumber(m.value) +
            ",\"unit\":" + JsonString(m.unit) + "}";
  }
  json += "},\"notes\":{";
  for (size_t i = 0; i < notes_.size(); ++i) {
    json += (i == 0 ? "" : ",") + JsonString(notes_[i].first) + ":" +
            JsonString(notes_[i].second);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void AddLatency(Report* report, const std::string& prefix,
                const std::vector<double>& millis, size_t planned) {
  const LatencySummary s = Summarize(millis, planned);
  report->Add(prefix + "p50_ms", s.p50, "ms");
  report->Add(prefix + "tail_ms", s.tail, "ms");
  char buf[96];
  std::snprintf(buf, sizeof(buf), "p%g of %zu samples", s.tail_percentile,
                s.count);
  report->Note(prefix + "tail_ms", buf);
}

}  // namespace flowbench
