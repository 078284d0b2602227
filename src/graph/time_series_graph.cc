#include "graph/time_series_graph.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <sstream>
#include <utility>

#include "util/keyed_permutation.h"
#include "util/logging.h"

namespace flowmotif {

// A default-constructed graph owns a small empty index so the accessors
// never have to null-check index_.
TimeSeriesGraph::TimeSeriesGraph()
    : index_(std::make_shared<const Index>()) {}

TimeSeriesGraph TimeSeriesGraph::Build(const InteractionGraph& multigraph) {
  TimeSeriesGraph graph;
  const int64_t n = multigraph.num_vertices();

  // Sort raw edges by (src, dst, t, f) and slice into per-pair series.
  std::vector<InteractionGraph::Edge> edges = multigraph.edges();
  std::sort(edges.begin(), edges.end(),
            [](const InteractionGraph::Edge& a,
               const InteractionGraph::Edge& b) {
              if (a.src != b.src) return a.src < b.src;
              if (a.dst != b.dst) return a.dst < b.dst;
              if (a.t != b.t) return a.t < b.t;
              return a.f < b.f;
            });

  graph.pairs_.clear();
  size_t i = 0;
  while (i < edges.size()) {
    size_t j = i;
    std::vector<Interaction> series;
    while (j < edges.size() && edges[j].src == edges[i].src &&
           edges[j].dst == edges[i].dst) {
      series.push_back(Interaction{edges[j].t, edges[j].f});
      ++j;
    }
    graph.pairs_.push_back(
        PairEdge{edges[i].src, edges[i].dst, EdgeSeries(std::move(series))});
    i = j;
  }

  graph.index_ =
      std::make_shared<const Index>(BuildIndex(graph.pairs_, n));
#ifndef NDEBUG
  const Status verified = graph.Verify();
  FLOWMOTIF_CHECK(verified.ok()) << verified;
#endif
  return graph;
}

TimeSeriesGraph::Index TimeSeriesGraph::BuildIndex(
    const std::vector<PairEdge>& pairs, int64_t n) {
  Index index;

  // CSR offsets and destinations over the sorted pair list.
  index.out_begin.assign(static_cast<size_t>(n) + 1, 0);
  index.out_dst.reserve(pairs.size());
  for (const PairEdge& pe : pairs) {
    ++index.out_begin[static_cast<size_t>(pe.src) + 1];
    index.out_dst.push_back(pe.dst);
  }
  for (size_t v = 1; v < index.out_begin.size(); ++v) {
    index.out_begin[v] += index.out_begin[v - 1];
  }

  // Reverse adjacency: sources grouped by destination (counting sort;
  // the (dst, src) order follows from the stable pass over pairs sorted
  // by (src, dst)).
  index.in_begin.assign(static_cast<size_t>(n) + 1, 0);
  for (const PairEdge& pe : pairs) {
    ++index.in_begin[static_cast<size_t>(pe.dst) + 1];
  }
  for (size_t v = 1; v < index.in_begin.size(); ++v) {
    index.in_begin[v] += index.in_begin[v - 1];
  }
  index.in_src.assign(pairs.size(), 0);
  std::vector<size_t> cursor(index.in_begin.begin(),
                             index.in_begin.end() - 1);
  for (const PairEdge& pe : pairs) {
    index.in_src[cursor[static_cast<size_t>(pe.dst)]++] = pe.src;
  }
  return index;
}

TimeSeriesGraph TimeSeriesGraph::ExtendWith(
    const TimeSeriesGraph& base,
    std::vector<InteractionGraph::Edge> new_edges, int64_t num_vertices,
    EpochId epoch) {
  FLOWMOTIF_CHECK_GE(num_vertices, base.num_vertices());
  std::sort(new_edges.begin(), new_edges.end(),
            [](const InteractionGraph::Edge& a,
               const InteractionGraph::Edge& b) {
              if (a.src != b.src) return a.src < b.src;
              if (a.dst != b.dst) return a.dst < b.dst;
              if (a.t != b.t) return a.t < b.t;
              return a.f < b.f;
            });

  // Merge base.pairs_ with the (src, dst)-grouped new edges, keeping the
  // sorted pair order Build produces. Untouched pairs are copied as-is —
  // their series share the base's timestamp storage and keep its
  // identity — while dirty and brand-new pairs get fresh storage stamped
  // with the sealing epoch.
  TimeSeriesGraph out;
  out.flows_permuted_ = base.flows_permuted_;
  out.pairs_.reserve(base.pairs_.size());
  bool topology_changed = num_vertices != base.num_vertices();
  size_t bi = 0;
  size_t ni = 0;
  while (bi < base.pairs_.size() || ni < new_edges.size()) {
    bool take_new = bi >= base.pairs_.size();
    if (!take_new && ni < new_edges.size()) {
      const PairEdge& bp = base.pairs_[bi];
      const InteractionGraph::Edge& ne = new_edges[ni];
      take_new =
          ne.src < bp.src || (ne.src == bp.src && ne.dst < bp.dst);
    }
    if (take_new) {
      // A pair with no series in the base graph.
      const VertexId src = new_edges[ni].src;
      const VertexId dst = new_edges[ni].dst;
      std::vector<Interaction> series;
      while (ni < new_edges.size() && new_edges[ni].src == src &&
             new_edges[ni].dst == dst) {
        series.push_back(Interaction{new_edges[ni].t, new_edges[ni].f});
        ++ni;
      }
      out.pairs_.push_back(
          PairEdge{src, dst, EdgeSeries(std::move(series), epoch)});
      topology_changed = true;
      continue;
    }
    const PairEdge& bp = base.pairs_[bi];
    std::vector<Interaction> tail;
    while (ni < new_edges.size() && new_edges[ni].src == bp.src &&
           new_edges[ni].dst == bp.dst) {
      tail.push_back(Interaction{new_edges[ni].t, new_edges[ni].f});
      ++ni;
    }
    if (tail.empty()) {
      out.pairs_.push_back(bp);  // shared storage, same identity
    } else {
      out.pairs_.push_back(PairEdge{
          bp.src, bp.dst, bp.series.WithAppended(std::move(tail), epoch)});
    }
    ++bi;
  }

  if (topology_changed) {
    out.index_ = std::make_shared<const Index>(
        BuildIndex(out.pairs_, num_vertices));
    out.topology_epoch_ = epoch;
  } else {
    out.index_ = base.index_;  // shared topology, same identity
    out.topology_epoch_ = base.topology_epoch_;
  }
#ifndef NDEBUG
  const Status verified = out.Verify();
  FLOWMOTIF_CHECK(verified.ok()) << verified;
#endif
  return out;
}

const EdgeSeries* TimeSeriesGraph::FindSeries(VertexId u, VertexId v) const {
  int64_t idx = FindPairIndex(u, v);
  return idx < 0 ? nullptr : &pairs_[static_cast<size_t>(idx)].series;
}

int64_t TimeSeriesGraph::FindPairIndex(VertexId u, VertexId v) const {
  if (u < 0 || u >= num_vertices()) return -1;
  // Binary search for dst == v within u's contiguous run of out_dst.
  const VertexId* const dst = index_->out_dst.data();
  const VertexId* const end = dst + OutEnd(u);
  const VertexId* const it = std::lower_bound(dst + OutBegin(u), end, v);
  return it != end && *it == v ? it - dst : -1;
}

TimeSeriesGraph::Stats TimeSeriesGraph::ComputeStats() const {
  Stats stats;
  stats.num_vertices = num_vertices();
  stats.num_connected_pairs = num_pairs();
  double total_flow = 0.0;
  Timestamp min_t = std::numeric_limits<Timestamp>::max();
  Timestamp max_t = std::numeric_limits<Timestamp>::min();
  for (const PairEdge& pe : pairs_) {
    stats.num_interactions += static_cast<int64_t>(pe.series.size());
    total_flow += pe.series.TotalFlow();
    if (!pe.series.empty()) {
      min_t = std::min(min_t, pe.series.time(0));
      max_t = std::max(max_t, pe.series.time(pe.series.size() - 1));
    }
  }
  if (stats.num_interactions > 0) {
    stats.avg_flow_per_edge =
        total_flow / static_cast<double>(stats.num_interactions);
    stats.min_time = min_t;
    stats.max_time = max_t;
  }
  return stats;
}

std::vector<Flow> TimeSeriesGraph::PairOrderFlows() const {
  size_t total = 0;
  for (const PairEdge& pe : pairs_) total += pe.series.size();
  std::vector<Flow> flows;
  flows.reserve(total);
  for (const PairEdge& pe : pairs_) {
    flows.insert(flows.end(), pe.series.flows().begin(),
                 pe.series.flows().end());
  }
  return flows;
}

TimeSeriesGraph TimeSeriesGraph::WithPermutedFlows(uint64_t seed,
                                                   uint64_t draw) const {
  std::vector<Flow> permuted;
  ApplyKeyedPermutation(PairOrderFlows(), seed, draw, &permuted);
  return WithFlows(permuted);
}

TimeSeriesGraph TimeSeriesGraph::WithFlows(
    const std::vector<Flow>& pair_order_flows) const {
  // Structure and timestamps are untouched, exactly as in Sec. 6.3 — and
  // since they are immutable shared storage, the view references them
  // instead of copying: only the flow arrays (and their prefix sums)
  // are allocated.
  TimeSeriesGraph out;
  out.index_ = index_;  // shared topology, same identity
  out.topology_epoch_ = topology_epoch_;
  out.flows_permuted_ = true;
  out.pairs_.reserve(pairs_.size());
  size_t cursor = 0;
  for (const PairEdge& pe : pairs_) {
    const size_t n = pe.series.size();
    FLOWMOTIF_CHECK_LE(cursor + n, pair_order_flows.size());
    const auto first = pair_order_flows.begin() +
                       static_cast<std::ptrdiff_t>(cursor);
    out.pairs_.push_back(PairEdge{
        pe.src, pe.dst,
        pe.series.WithFlows(std::vector<Flow>(
            first, first + static_cast<std::ptrdiff_t>(n)))});
    cursor += n;
  }
  FLOWMOTIF_CHECK_EQ(cursor, pair_order_flows.size());
  return out;
}

TimeSeriesGraph TimeSeriesGraph::DeepCopy() const {
  TimeSeriesGraph out;
  out.index_ = std::make_shared<const Index>(*index_);
  out.topology_epoch_ = topology_epoch_;
  out.flows_permuted_ = flows_permuted_;
  out.pairs_.reserve(pairs_.size());
  for (const PairEdge& pe : pairs_) {
    out.pairs_.push_back(PairEdge{pe.src, pe.dst, pe.series.DeepCopy()});
  }
  return out;
}

Status TimeSeriesGraph::Verify() const {
  const auto fail = [](const std::string& what) {
    return Status::Internal("TimeSeriesGraph::Verify: " + what);
  };
  const Index& index = *index_;
  const size_t num_pairs = pairs_.size();
  if (index.out_begin.empty()) {
    return num_pairs == 0 && index.in_begin.empty()
               ? Status::OK()
               : fail("pairs or reverse offsets without out offsets");
  }
  const int64_t n = num_vertices();
  const auto check_offsets = [&](const std::vector<size_t>& begin,
                                 const char* name) -> Status {
    if (begin.size() != static_cast<size_t>(n) + 1 || begin.front() != 0 ||
        begin.back() != num_pairs ||
        !std::is_sorted(begin.begin(), begin.end())) {
      return fail(std::string(name) + " is not a CSR offset table");
    }
    return Status::OK();
  };
  Status status = check_offsets(index.out_begin, "out_begin");
  if (status.ok()) status = check_offsets(index.in_begin, "in_begin");
  if (!status.ok()) return status;
  if (index.out_dst.size() != num_pairs || index.in_src.size() != num_pairs) {
    return fail("out_dst/in_src size differs from the pair count");
  }

  std::vector<size_t> in_degree(static_cast<size_t>(n), 0);
  for (size_t p = 0; p < num_pairs; ++p) {
    const PairEdge& pe = pairs_[p];
    const std::string at = "pair " + std::to_string(p);
    if (pe.src < 0 || pe.src >= n || pe.dst < 0 || pe.dst >= n) {
      return fail(at + " has an endpoint out of range");
    }
    if (p > 0 && !(std::make_pair(pairs_[p - 1].src, pairs_[p - 1].dst) <
                   std::make_pair(pe.src, pe.dst))) {
      return fail(at + " is not strictly after its predecessor in (src, dst)");
    }
    if (p < OutBegin(pe.src) || p >= OutEnd(pe.src)) {
      return fail(at + " lies outside its source's CSR range");
    }
    if (index.out_dst[p] != pe.dst) return fail(at + ": out_dst != dst");
    ++in_degree[static_cast<size_t>(pe.dst)];

    const EdgeSeries& series = pe.series;
    if (series.empty()) return fail(at + " has an empty series");
    const std::vector<double>& prefix = series.prefix_sums();
    if (prefix.size() != series.size() + 1 || prefix[0] != 0.0) {
      return fail(at + " has a malformed prefix-sum array");
    }
    for (size_t i = 0; i < series.size(); ++i) {
      if (!(series.flow(i) > 0.0)) return fail(at + " has a non-positive flow");
      if (i > 0 && (series.time(i) < series.time(i - 1) ||
                    (!flows_permuted_ && series.at(i) < series.at(i - 1)))) {
        return fail(at + " series is not sorted by (t, f)");
      }
      if (prefix[i + 1] != prefix[i] + series.flow(i)) {
        return fail(at + " prefix sums differ from the running total");
      }
    }
  }

  // in_src: each destination's run holds strictly ascending sources of
  // existing pairs, and as many as the destination has in-pairs — so it
  // is exactly the set of pair sources in (dst, src) order.
  for (VertexId v = 0; v < n; ++v) {
    if (InEnd(v) - InBegin(v) != in_degree[static_cast<size_t>(v)]) {
      return fail("in_begin run of vertex " + std::to_string(v) +
                  " has the wrong length");
    }
    for (size_t k = InBegin(v); k < InEnd(v); ++k) {
      const VertexId u = index.in_src[k];
      if ((k > InBegin(v) && !(index.in_src[k - 1] < u)) ||
          FindPairIndex(u, v) < 0) {
        return fail("in_src slot " + std::to_string(k) +
                    " is not the next source of vertex " + std::to_string(v));
      }
    }
  }
  return Status::OK();
}

std::string TimeSeriesGraph::DebugString() const {
  Stats s = ComputeStats();
  std::ostringstream os;
  os << "TimeSeriesGraph{vertices=" << s.num_vertices
     << " pairs=" << s.num_connected_pairs
     << " interactions=" << s.num_interactions
     << " avg_flow=" << s.avg_flow_per_edge << "}";
  return os.str();
}

}  // namespace flowmotif
