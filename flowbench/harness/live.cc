// Workload `live`: a QueryService and two standing StreamingMotifMonitor
// queries over a bitcoin-like stream. The first 80% of the trace (by
// time) seeds epoch 0; one thread replays the rest at a fixed edge rate
// and seals the service and both monitors on a fixed cadence, while the
// main thread submits an open-loop, seeded Zipf query schedule at a
// fixed rate. Latency is measured from each query's due time.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/motif_catalog.h"
#include "engine/query_engine.h"
#include "graph/graph_io.h"
#include "serve/query_service.h"
#include "stream/streaming_monitor.h"
#include "workloads.h"

namespace flowbench {

using flowmotif::EpochId;
using flowmotif::InteractionGraph;
using flowmotif::Motif;
using flowmotif::MotifCatalog;
using flowmotif::QueryEngine;
using flowmotif::QueryMode;
using flowmotif::QueryOptions;
using flowmotif::QueryResult;
using flowmotif::QueryService;
using flowmotif::ServedResult;
using flowmotif::StreamingMotifMonitor;
using flowmotif::TerminationCode;
using flowmotif::TimeSeriesGraph;

namespace {

// Offered load. The query rate is about a third of the service's
// capacity on this input on a quiet 4-CPU machine (55-60 queries/s), so
// the backlog stays flat even while a shared host runs 2-3x slower;
// BENCHMARK.json's workload line records the same numbers.
constexpr int kWorkers = 2;
constexpr double kQueriesPerSecond = 20.0;
// The 20% stream tail (30k edges at scale 1) lasts 20 s at this rate.
constexpr double kEdgesPerSecond = 1500.0;
constexpr double kSealSeconds = 0.25;
constexpr double kLatencyLimitMs = 250.0;
constexpr double kZipfExponent = 1.0;
// Served results against every kRetainEvery-th epoch are re-run solo on
// that retained snapshot and compared.
constexpr EpochId kRetainEvery = 8;
const char* const kMonitorMotifs[] = {"M(3,3)", "M(4,4)A"};

using Tuple = CatalogQuery;

SteadyClock::time_point At(SteadyClock::time_point start, double seconds) {
  return start + std::chrono::duration_cast<SteadyClock::duration>(
                     std::chrono::duration<double>(seconds));
}

double Millis(SteadyClock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// The live system under test: the service plus the standing queries.
struct System {
  std::unique_ptr<QueryService> service;
  std::vector<std::unique_ptr<StreamingMotifMonitor>> monitors;
};

struct SetupTimes {
  double load_s = 0.0;
  double build_s = 0.0;
  double setup_s = 0.0;
};

System BuildSystem(const std::string& seed_path, const flowmotif::DatasetPreset& preset,
                   SetupTimes* times) {
  const auto t0 = SteadyClock::now();
  auto seed = flowmotif::LoadInteractionGraph(seed_path);
  if (!seed.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", seed_path.c_str(),
                 seed.status().ToString().c_str());
    std::exit(1);
  }
  times->load_s = SecondsSince(t0);
  const auto t1 = SteadyClock::now();
  TimeSeriesGraph graph = TimeSeriesGraph::Build(*seed);
  times->build_s = SecondsSince(t1);
  System system;
  flowmotif::ServiceConfig config;
  config.num_workers = kWorkers;
  system.service = std::make_unique<QueryService>(std::move(graph), config);
  flowmotif::StreamOptions stream;
  stream.delta = preset.default_delta;
  stream.phi = 0.0;  // TopK() is batch-equivalent at phi = 0
  stream.k = 10;
  for (const char* name : kMonitorMotifs) {
    system.monitors.push_back(std::make_unique<StreamingMotifMonitor>(
        MotifCatalog::ByName(name).value(), stream, *seed));
  }
  times->setup_s = SecondsSince(t0);
  return system;
}

/// One query of the open-loop schedule and what came back.
struct Served {
  Tuple tuple;
  SteadyClock::time_point due;
  double lag_ms = 0.0;      // submit - due
  double latency_ms = 0.0;  // completion - due
  bool ok = false;          // completed: not refused, expired or errored
  bool rejected = false;
  bool expired = false;
  bool coalesced = false;
  bool cached = false;
  double queue_ms = 0.0;
  double run_ms = 0.0;
  EpochId epoch = 0;
  bool verify = false;
  uint64_t fingerprint = 0;
};

/// One seal cycle of the ingest thread.
struct SealRecord {
  double append_s = 0.0;         // QueryService::Append of the batch
  double stream_append_s = 0.0;  // StreamingMotifMonitor::Append, every monitor
  size_t edges = 0;
  double graph_seal_ms = 0.0;
  std::vector<double> stream_seal_ms;
  double freshness_ms = 0.0;  // due time of the batch -> all seals done
  bool topology_changed = false;
  size_t dirty_pairs = 0;
  size_t revisited = 0;
  size_t matches = 0;
  int full_rescans = 0;
  int failures = 0;  // rejected appends or incomplete monitor seals
};

/// Everything one pass over the schedule measured.
struct PassResult {
  SetupTimes setup;
  std::vector<Served> served;
  std::vector<SealRecord> seals;
  flowmotif::ServiceStats stats;
  std::map<EpochId, std::shared_ptr<const TimeSeriesGraph>> retained;
  std::vector<std::shared_ptr<const TimeSeriesGraph>> monitor_snapshots;
  std::vector<int64_t> monitor_totals;
  std::vector<std::vector<flowmotif::TopKEntry>> monitor_topk;
  uint64_t schedule_digest = 0xcbf29ce484222325ULL;
};

struct Pending {
  size_t index;
  std::future<ServedResult> future;
  SteadyClock::time_point submitted;
};

class LivePass {
 public:
  LivePass(const RunOptions& options, const flowmotif::DatasetPreset& preset,
           const std::vector<InteractionGraph::Edge>& tail, Tracer* tracer)
      : options_(options), preset_(preset), tail_(tail), tracer_(tracer) {}

  PassResult Run(int setup_repeats) {
    PassResult out;
    std::vector<double> load, build, setup;
    System system;
    for (int rep = 0; rep < setup_repeats; ++rep) {
      system = System();  // release the previous repetition first
      SetupTimes t;
      system = BuildSystem(options_.inputs + "/seed.txt", preset_, &t);
      load.push_back(t.load_s);
      build.push_back(t.build_s);
      setup.push_back(t.setup_s);
    }
    out.setup = {Median(load), Median(build), Median(setup)};
    out.retained[0] = system.service->Snapshot();

    const auto start = SteadyClock::now();
    std::thread ingest([&] { Ingest(system, start, &out); });
    Submit(system, start, &out);
    ingest.join();
    out.stats = system.service->Stats();
    for (const auto& monitor : system.monitors) {
      out.monitor_snapshots.push_back(monitor->Snapshot());
      out.monitor_totals.push_back(monitor->TotalInstances());
      out.monitor_topk.push_back(monitor->TopK());
    }
    return out;
  }

 private:
  void Ingest(System& system, SteadyClock::time_point start, PassResult* out) {
    size_t next = 0;
    for (int tick = 1; tick * kSealSeconds <= options_.seconds; ++tick) {
      const double at = tick * kSealSeconds;
      const auto due = At(start, at);
      std::this_thread::sleep_until(due);
      const size_t until = std::min(
          tail_.size(), static_cast<size_t>(std::llround(at * kEdgesPerSecond)));
      if (until == next) break;  // the stream is exhausted
      SealRecord rec;
      rec.edges = until - next;
      {
        ScopedSpan span(tracer_, "graph.append", -1, -1 - tick);
        const auto t0 = SteadyClock::now();
        for (size_t i = next; i < until; ++i) {
          if (!system.service->Append(tail_[i]).ok()) ++rec.failures;
        }
        rec.append_s = SecondsSince(t0);
      }
      {
        ScopedSpan span(tracer_, "stream.append", -1, -1 - tick);
        const auto t0 = SteadyClock::now();
        for (auto& monitor : system.monitors) {
          for (size_t i = next; i < until; ++i) {
            if (!monitor->Append(tail_[i]).ok()) ++rec.failures;
          }
        }
        rec.stream_append_s = SecondsSince(t0);
      }
      next = until;
      {
        ScopedSpan span(tracer_, "graph.seal", -1, -1 - tick);
        const auto t0 = SteadyClock::now();
        const auto info = system.service->SealEpoch();
        rec.graph_seal_ms = SecondsSince(t0) * 1e3;
        rec.topology_changed = info.topology_changed;
        rec.dirty_pairs = info.dirty_pairs.size();
        // Read by the main thread only after this thread is joined.
        if (info.num_appended > 0 && info.epoch % kRetainEvery == 0) {
          out->retained[info.epoch] = info.graph;
        }
      }
      for (auto& monitor : system.monitors) {
        ScopedSpan span(tracer_, "stream.seal", -1, -1 - tick);
        const auto t0 = SteadyClock::now();
        const auto stats = monitor->SealEpoch();
        rec.stream_seal_ms.push_back(SecondsSince(t0) * 1e3);
        rec.revisited += stats.num_matches_revisited;
        rec.matches += stats.num_matches_total;
        rec.full_rescans += stats.full_rescan ? 1 : 0;
        if (!stats.termination.complete()) ++rec.failures;
      }
      rec.freshness_ms = SecondsSince(due) * 1e3;
      out->seals.push_back(std::move(rec));
    }
  }

  void Submit(System& system, SteadyClock::time_point start, PassResult* out) {
    const std::vector<Motif>& motifs = MotifCatalog::All();
    std::vector<Tuple> tuples = AllCatalogQueries(preset_);
    // Zipf over the tuples. The popularity ranks are part of the workload
    // definition (a fixed shuffle, the same for every seed); the seed
    // drives the draws. Draws come from a golden-ratio (Weyl) sequence at
    // a seeded offset: every seed's schedule then matches the Zipf
    // frequencies closely, so runs differ in order, not in mix.
    SplitMix64 ranks(0x5eed);
    for (size_t i = tuples.size(); i > 1; --i) std::swap(tuples[i - 1], tuples[ranks.Below(i)]);
    SplitMix64 rng(DeriveSeed(options_.seed, "schedule:live"));
    const double offset = rng.Unit();
    const double golden = 0.6180339887498949;
    std::vector<double> cdf;
    double total = 0;
    for (size_t r = 1; r <= tuples.size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r), kZipfExponent);
      cdf.push_back(total);
    }

    std::vector<Pending> pending;
    const auto count = static_cast<size_t>(options_.seconds * kQueriesPerSecond);
    out->served.resize(count);
    for (size_t i = 0; i < count; ++i) {
      const double weyl = offset + golden * static_cast<double>(i);
      const double u = (weyl - std::floor(weyl)) * total;
      const auto rank = static_cast<size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      Served& s = out->served[i];
      s.tuple = tuples[std::min(rank, tuples.size() - 1)];
      out->schedule_digest = Fnv1a(&s.tuple, sizeof(s.tuple), out->schedule_digest);
      s.due = At(start, static_cast<double>(i) / kQueriesPerSecond);
      Collect(&pending, out, /*wait=*/false);
      std::this_thread::sleep_until(s.due);
      flowmotif::ServeRequest request{motifs[s.tuple.motif],
                                      OptionsFor(s.tuple, preset_)};
      const auto submitted = SteadyClock::now();
      s.lag_ms = Millis(submitted - s.due);
      pending.push_back({i, system.service->Submit(std::move(request)), submitted});
    }
    Collect(&pending, out, /*wait=*/true);
  }

  /// Summarizes finished queries and drops their results (enumerations
  /// can be large). With `wait`, blocks until every pending one is done.
  void Collect(std::vector<Pending>* pending, PassResult* out, bool wait) {
    auto done = [wait](Pending& p) {
      return wait || p.future.wait_for(std::chrono::seconds(0)) ==
                         std::future_status::ready;
    };
    std::vector<Pending> still;
    for (Pending& p : *pending) {
      if (!done(p)) {
        still.push_back(std::move(p));
        continue;
      }
      const ServedResult r = p.future.get();
      Served& s = out->served[p.index];
      const TerminationCode code = r.result->termination.code;
      s.rejected = r.rejected || code == TerminationCode::kRejected;
      s.expired = code == TerminationCode::kDeadlineExceeded;
      s.ok = !s.rejected && r.result->termination.complete();
      s.coalesced = r.coalesced;
      s.cached = r.from_result_cache;
      s.epoch = r.epoch;
      s.queue_ms = r.queue_seconds * 1e3;
      s.run_ms = (r.total_seconds - r.queue_seconds) * 1e3;
      s.latency_ms = s.lag_ms + r.total_seconds * 1e3;
      if (s.ok && r.epoch % kRetainEvery == 0) {
        s.verify = true;
        s.fingerprint = ResultFingerprint(*r.result);
      }
      if (tracer_ != nullptr) {
        const auto request = static_cast<int64_t>(p.index);
        const auto queued = At(p.submitted, r.queue_seconds);
        const auto finished = At(p.submitted, r.total_seconds);
        const int64_t root = tracer_->Add("query", -1, request, s.due, finished);
        tracer_->Add("loadgen.lag", root, request, s.due, p.submitted);
        tracer_->Add("serve.queue", root, request, p.submitted, queued);
        tracer_->Add("serve.run", root, request, queued, finished);
      }
    }
    pending->swap(still);
  }

  const RunOptions& options_;
  const flowmotif::DatasetPreset& preset_;
  const std::vector<InteractionGraph::Edge>& tail_;
  Tracer* tracer_;
};

bool SameTopK(const std::vector<flowmotif::TopKEntry>& a,
              const std::vector<flowmotif::TopKEntry>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].flow != b[i].flow || !(a[i].instance == b[i].instance)) return false;
  }
  return true;
}

/// Output checks of one pass; `tag` prefixes the check names.
void CheckPass(const PassResult& pass, const flowmotif::DatasetPreset& preset,
               const std::string& tag, Checker* checker) {
  const std::vector<Motif>& motifs = MotifCatalog::All();
  for (size_t i = 0; i < pass.served.size(); ++i) {
    const Served& s = pass.served[i];
    const auto request = static_cast<int64_t>(i);
    checker->Expect(tag + ".served_ok", s.ok, request,
                    s.rejected ? "rejected" : s.expired ? "expired" : "incomplete");
    if (!s.verify) continue;
    auto snapshot = pass.retained.find(s.epoch);
    if (snapshot == pass.retained.end()) continue;  // epoch not retained
    const QueryResult r = QueryEngine(*snapshot->second)
                              .Run(motifs[s.tuple.motif], OptionsFor(s.tuple, preset));
    checker->Expect(tag + ".served_eq_solo", ResultFingerprint(r) == s.fingerprint,
                    request,
                    motifs[s.tuple.motif].name() + " " + ModeName(s.tuple.mode) +
                        " delta=" + std::to_string(s.tuple.delta) + " epoch " +
                        std::to_string(s.epoch));
  }
  for (size_t m = 0; m < pass.monitor_snapshots.size(); ++m) {
    const Motif motif = MotifCatalog::ByName(kMonitorMotifs[m]).value();
    const QueryEngine engine(*pass.monitor_snapshots[m]);
    QueryOptions o;
    o.delta = preset.default_delta;
    o.phi = 0.0;
    o.k = 10;
    o.mode = QueryMode::kCount;
    const int64_t count = engine.Run(motif, o).stats.num_instances;
    const auto request = -1000 - static_cast<int64_t>(m);
    checker->Expect(tag + ".monitor_total_eq_batch", count == pass.monitor_totals[m],
                    request,
                    motif.name() + ": monitor " + std::to_string(pass.monitor_totals[m]) +
                        " batch " + std::to_string(count));
    o.mode = QueryMode::kTopK;
    checker->Expect(tag + ".monitor_topk_eq_batch",
                    SameTopK(engine.Run(motif, o).topk, pass.monitor_topk[m]), request,
                    motif.name());
  }
  for (size_t i = 0; i < pass.seals.size(); ++i) {
    checker->Expect(tag + ".seal_clean", pass.seals[i].failures == 0,
                    -1 - static_cast<int64_t>(i));
  }
}

std::vector<double> Field(const std::vector<Served>& served,
                          double Served::*field, bool (*keep)(const Served&)) {
  std::vector<double> out;
  for (const Served& s : served) {
    if (keep(s)) out.push_back(s.*field);
  }
  return out;
}

}  // namespace

int RunLive(const RunOptions& options) {
  Report report;
  Checker checker;
  AddContextNotes(options, &report);
  const flowmotif::DatasetPreset& preset =
      flowmotif::GetPreset(flowmotif::DatasetKind::kBitcoin);
  auto tail_graph = flowmotif::LoadInteractionGraph(options.inputs + "/tail.txt");
  if (!tail_graph.ok()) {
    std::fprintf(stderr, "cannot load tail: %s\n", tail_graph.status().ToString().c_str());
    return 1;
  }
  const std::vector<InteractionGraph::Edge>& tail = tail_graph->edges();

  // The untraced pass gives the end-to-end numbers.
  PassResult pass = LivePass(options, preset, tail, nullptr).Run(kSetupRepeats);
  if (options.plant_wrong) {
    for (Served& s : pass.served) {
      if (s.verify) {
        s.fingerprint ^= 1;
        break;
      }
    }
  }
  CheckPass(pass, preset, "live", &checker);

  const std::vector<Served>& served = pass.served;
  auto all = [](const Served&) { return true; };
  auto ok = [](const Served& s) { return s.ok; };
  auto executed = [](const Served& s) { return s.ok && !s.coalesced && !s.cached; };
  // Failed or refused requests count in fail_frac and never as goodput;
  // the latency distribution covers answered ones.
  const std::vector<double> latency = Field(served, &Served::latency_ms, ok);
  int64_t good = 0;
  for (const Served& s : served) good += s.ok && s.latency_ms <= kLatencyLimitMs;
  std::vector<double> freshness;
  for (const SealRecord& r : pass.seals) freshness.push_back(r.freshness_ms);

  report.Add("setup_s", pass.setup.setup_s, "s");
  // Goodput over the measured span: first due time to last completion.
  double span_s = 0;
  for (const Served& s : served) {
    span_s = std::max(span_s, Millis(s.due - served.front().due) * 1e-3 + s.latency_ms * 1e-3);
  }
  const double goodput = span_s > 0 ? static_cast<double>(good) / span_s : 0.0;
  report.Add("queries_per_s", goodput, "1/s");
  AddLatency(&report, "latency_", latency, served.size());
  report.Add("goodput_qps", goodput, "1/s");
  AddLatency(&report, "freshness_", freshness, pass.seals.size());
  {
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "%.1f queries/s open loop (%zu offered), %.0f edges/s sealed "
                  "every %.0f ms (%zu seals), %d workers, latency limit %.0f ms",
                  kQueriesPerSecond, served.size(), kEdgesPerSecond,
                  kSealSeconds * 1e3, pass.seals.size(), kWorkers, kLatencyLimitMs);
    report.Note("offered_load", buf);
  }

  if (options.trace) {
    // A second, traced pass with fresh state: spans around every append
    // batch and seal, plus each served query's lag / queue / run phases.
    Tracer tracer;
    PassResult traced = LivePass(options, preset, tail, &tracer).Run(1);
    CheckPass(traced, preset, "live.traced", &checker);
    const std::vector<Served>& ts = traced.served;
    auto per = [](double total, double count) { return count > 0 ? total / count : 0.0; };
    report.Add("graph.load_s", traced.setup.load_s, "s");
    report.Add("graph.build_s", traced.setup.build_s, "s");
    double append_s = 0, stream_append_s = 0, edges = 0, topology = 0,
           dirty = 0, revisited = 0, matches = 0, rescans = 0;
    std::vector<double> graph_seal, stream_seal;
    for (const SealRecord& r : traced.seals) {
      append_s += r.append_s;
      stream_append_s += r.stream_append_s;
      edges += static_cast<double>(r.edges);
      topology += r.topology_changed ? 1 : 0;
      dirty += static_cast<double>(r.dirty_pairs);
      revisited += static_cast<double>(r.revisited);
      matches += static_cast<double>(r.matches);
      rescans += r.full_rescans;
      graph_seal.push_back(r.graph_seal_ms);
      stream_seal.insert(stream_seal.end(), r.stream_seal_ms.begin(), r.stream_seal_ms.end());
    }
    const double seals = static_cast<double>(traced.seals.size());
    report.Add("graph.append_us", per(append_s * 1e6, edges), "us");
    const auto monitors = static_cast<double>(std::size(kMonitorMotifs));
    report.Add("stream.append_us", per(stream_append_s * 1e6, edges * monitors), "us");
    AddLatency(&report, "graph.seal_", graph_seal, graph_seal.size());
    report.Add("graph.seal_topology_frac", per(topology, seals), "fraction");
    report.Add("graph.seal_dirty_pairs", per(dirty, seals), "count");
    AddLatency(&report, "stream.seal_", stream_seal, stream_seal.size());
    report.Add("stream.revisit_frac", per(revisited, matches), "fraction");
    report.Add("stream.full_rescans", rescans, "count");

    // Planned on the offered schedule: how many queries execute rather
    // than hit a cache is the program's doing, not the run's settings.
    AddLatency(&report, "serve.queue_", Field(ts, &Served::queue_ms, executed), ts.size());
    AddLatency(&report, "serve.run_", Field(ts, &Served::run_ms, executed), ts.size());
    double coalesced = 0, cached = 0, rejected = 0, expired = 0;
    for (const Served& s : ts) {
      coalesced += s.coalesced;
      cached += s.cached;
      rejected += s.rejected;
      expired += s.expired;
    }
    const double n = static_cast<double>(ts.size());
    report.Add("serve.coalesced_frac", per(coalesced, n), "fraction");
    report.Add("serve.result_cache_frac", per(cached, n), "fraction");
    report.Add("serve.rejected_frac", per(rejected, n), "fraction");
    report.Add("serve.expired_frac", per(expired, n), "fraction");
    report.Add("serve.peak_queue_depth",
               static_cast<double>(traced.stats.peak_queue_depth), "count");
    report.Add("window.tier_hit_rate",
               per(static_cast<double>(traced.stats.tier_hits),
                   static_cast<double>(traced.stats.tier_lookups)),
               "fraction");
    report.Add("window.tier_rotations", static_cast<double>(traced.stats.tier_rotations),
               "count");
    AddLatency(&report, "loadgen.lag_", Field(ts, &Served::lag_ms, all), ts.size());

    // Tracing overhead: mean latency of the traced pass against the
    // untraced one (same schedule, fresh state).
    auto mean = [](const std::vector<Served>& v) {
      double sum = 0;
      for (const Served& s : v) sum += s.latency_ms;
      return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
    };
    const double base = mean(served);
    report.Add("trace.overhead_frac", per(mean(ts) - base, base), "fraction");
    if (!options.trace_path.empty() && !tracer.WriteChromeTrace(options.trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", options.trace_path.c_str());
      return 1;
    }
  }

  // The backlog must not grow: compare queue depth seen by the first and
  // last thirds of the schedule through their queue waits.
  {
    const size_t third = served.size() / 3;
    std::vector<double> first, last;
    for (size_t i = 0; i < third; ++i) first.push_back(served[i].queue_ms);
    for (size_t i = served.size() - third; i < served.size(); ++i) {
      last.push_back(served[i].queue_ms);
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "median queue wait first third %.3f ms, last third %.3f ms; "
                  "peak queue depth %lld",
                  Median(first), Median(last),
                  static_cast<long long>(pass.stats.peak_queue_depth));
    report.Note("backlog", buf);
    const LatencySummary lag = Summarize(Field(served, &Served::lag_ms, all), served.size());
    std::snprintf(buf, sizeof(buf), "p50 %.3f ms, p%g %.3f ms", lag.p50,
                  lag.tail_percentile, lag.tail);
    report.Note("loadgen.lag", buf);
  }

  report.Add("peak_rss_mb", PeakRssMb(), "MiB");
  report.Note("schedule_digest", Hex64(pass.schedule_digest));
  const auto attempted = static_cast<int64_t>(served.size());
  const int64_t failed = checker.FailedRequests();
  report.Add("fail_frac", attempted > 0 ? static_cast<double>(failed) / attempted : 1.0,
             "fraction");
  report.Print(checker.all_passed() && attempted > 0, attempted, failed, checker);
  return 0;
}

}  // namespace flowbench
