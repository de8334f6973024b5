// perfbench_tool — the benchmark's in-process helper. run.py drives it; the
// build numbers users see come from the real `sncube build` child instead.
//
//   digest      --in facts.csv --out ref.txt
//       Reference digest of every view, from SequentialPipesortCube on the
//       same input (the sequential top-down method, independent of the
//       parallel build under test).
//   verify      --cube DIR --ref ref.txt
//       Digests every stored view and compares it with the reference.
//       Exit 1 on any mismatch or missing/extra view.
//   trace-build --in facts.csv --out DIR --procs P --spans spans.json
//       CmdBuild (tools/sncube_cli.cc, --procs P, default flags) call for
//       call, with a span around each public layer call, plus the program's
//       own Cluster/ParallelCubeStats counters.
//   goldens     --in facts.csv --seed S --alphas A,..
//               --refreshes K --delta-rows R --out goldens.txt
//       Digest of the answer to every query of the serving mix at every
//       epoch 0..K, by brute force over the facts plus the first e deltas.
//       --seed seeds the deltas.
//   serve       --cube DIR --seed S --alphas A,.. --refreshes K
//               --delta-rows R --queries N --goldens F
//               --snapshot-dir X --trace 0|1 --out result.json
//       Closed-loop serving through Router/ShardSet with RefreshCoordinator
//       installing delta k after query k*Q (Q = N/(K+1)) is issued. Every
//       ok answer is checked against the golden of its pinned epoch.
//
// View digests are order-independent (a wrapping sum of per-row hashes):
// the sequential reference and the parallel build legitimately sort a view
// by different attribute orders. Answer digests are order-sensitive, since
// a query answer's row order is part of its contract.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/parallel_cube.h"
#include "data/generator.h"
#include "lattice/estimate.h"
#include "lattice/lattice.h"
#include "net/cluster.h"
#include "obs/metrics_registry.h"
#include "query/engine.h"
#include "refresh/refresh.h"
#include "relation/csv.h"
#include "seqcube/seq_cube.h"
#include "seqcube/view_store.h"
#include "serve/metrics_bridge.h"
#include "serve/router.h"
#include "serve/shard_set.h"
#include "serve/workload.h"

using namespace sncube;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0, Clock::time_point t) {
  return std::chrono::duration<double>(t - t0).count();
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench_tool: %s\n", msg.c_str());
  std::exit(2);
}

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 0; i + 1 < argc; i += 2) {
      const std::string k = argv[i];
      if (k.rfind("--", 0) != 0) Die("unexpected argument " + k);
      values_[k.substr(2)] = argv[i + 1];
    }
    if (argc % 2 != 0) Die("flags come in --name value pairs");
  }
  std::string Str(const std::string& k) const {
    const auto it = values_.find(k);
    if (it == values_.end()) Die("--" + k + " is required");
    return it->second;
  }
  long long Int(const std::string& k) const { return std::atoll(Str(k).c_str()); }

 private:
  std::map<std::string, std::string> values_;
};

// ---- Digests ---------------------------------------------------------------

std::uint64_t Mix64(std::uint64_t x) {  // splitmix64 finalizer
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

class Hasher {
 public:
  void Add(std::uint64_t w) { h_ = Mix64(h_ ^ w) + 0x9E3779B97F4A7C15ULL; }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

std::uint64_t RowHash(const Relation& rel, std::size_t r) {
  Hasher h;
  for (Key k : rel.RowKeys(r)) h.Add(k);
  h.Add(static_cast<std::uint64_t>(rel.measure(r)));
  return h.value();
}

// Order-independent: equal for any row permutation of the same view.
std::uint64_t ViewDigest(const Relation& rel) {
  std::uint64_t sum = 0;
  for (std::size_t r = 0; r < rel.size(); ++r) sum += RowHash(rel, r);
  return sum;
}

// Order-sensitive digest of a query answer.
std::uint64_t AnswerDigest(const Relation& rel) {
  Hasher h;
  h.Add(static_cast<std::uint64_t>(rel.width()));
  h.Add(rel.size());
  for (std::size_t r = 0; r < rel.size(); ++r) h.Add(RowHash(rel, r));
  return h.value();
}

// ---- Shared inputs ---------------------------------------------------------

// The input handling of CmdBuild: read the CSV, infer each cardinality as
// max code + 1.
Schema InferSchema(const Relation& raw) {
  std::vector<std::uint32_t> cards(static_cast<std::size_t>(raw.width()), 1);
  for (std::size_t r = 0; r < raw.size(); ++r) {
    for (int c = 0; c < raw.width(); ++c) {
      cards[static_cast<std::size_t>(c)] =
          std::max(cards[static_cast<std::size_t>(c)], raw.key(r, c) + 1);
    }
  }
  return Schema(cards);
}

Relation ReadFacts(const std::string& path) {
  std::ifstream is(path);
  if (!is.good()) Die("cannot read " + path);
  Relation raw = ReadCsv(is);
  if (raw.empty()) Die(path + " has no rows");
  return raw;
}

std::vector<double> ParseAlphas(const std::string& s) {
  std::vector<double> out;
  std::stringstream ss(s);
  std::string part;
  while (std::getline(ss, part, ',')) out.push_back(std::stod(part));
  return out;
}

// The dashboard: a fixed pool of 256 queries with Zipf-1 popularity (the
// QueryMix defaults). The pool is part of the workload, not of the seed —
// which queries are hot sets most of the serving cost, so a per-seed pool
// would swamp run-to-run differences. --seed drives the facts, the deltas
// and the order in which clients draw from the pool.
const WorkloadSpec kMixSpec;

// Delta k (1-based) of a session: fresh facts from the workload's
// distribution over the served schema's cardinalities.
Relation MakeDelta(const Schema& schema, const std::vector<double>& alphas,
                   std::uint64_t seed, int k, std::int64_t rows) {
  DatasetSpec spec;
  spec.rows = rows;
  spec.cardinalities = schema.cardinalities();
  spec.alphas = alphas;
  spec.seed = seed * 1000003ULL + static_cast<std::uint64_t>(k);
  return GenerateDataset(spec);
}

std::uint64_t PoolFingerprint(const std::vector<Query>& pool) {
  Hasher h;
  for (const Query& q : pool) {
    h.Add(q.group_by.mask());
    h.Add(static_cast<std::uint64_t>(q.top_k));
    for (const DimFilter& f : q.filters) {
      h.Add(static_cast<std::uint64_t>(f.dim));
      h.Add(f.value);
    }
  }
  return h.value();
}

// ---- digest / verify -------------------------------------------------------

int CmdDigest(const Args& args) {
  const Relation raw = ReadFacts(args.Str("in"));
  const Schema schema = InferSchema(raw);
  const CubeResult cube = SequentialPipesortCube(raw, schema);
  std::ofstream os(args.Str("out"));
  for (const auto& [id, vr] : cube.views) {
    if (!vr.selected) continue;
    os << id.mask() << ' ' << vr.rel.size() << ' ' << ViewDigest(vr.rel)
       << '\n';
  }
  return os.good() ? 0 : 2;
}

int CmdVerify(const Args& args) {
  std::map<std::uint32_t, std::pair<std::uint64_t, std::uint64_t>> ref;
  {
    std::ifstream is(args.Str("ref"));
    std::uint32_t mask = 0;
    std::uint64_t rows = 0, digest = 0;
    while (is >> mask >> rows >> digest) ref[mask] = {rows, digest};
  }
  if (ref.empty()) Die("empty reference");
  const ViewStore store(args.Str("cube"));
  const std::vector<ViewId> stored = store.List();
  int bad = 0;
  if (stored.size() != ref.size()) {
    std::fprintf(stderr, "verify: %zu views stored, %zu expected\n",
                 stored.size(), ref.size());
    ++bad;
  }
  std::uint64_t rows_total = 0;
  for (ViewId id : stored) {
    const auto it = ref.find(id.mask());
    if (it == ref.end()) {
      std::fprintf(stderr, "verify: unexpected view %u\n", id.mask());
      ++bad;
      continue;
    }
    const ViewResult vr = store.Load(id);
    rows_total += vr.rel.size();
    if (vr.rel.size() != it->second.first ||
        ViewDigest(vr.rel) != it->second.second) {
      std::fprintf(stderr, "verify: view %u differs from the reference\n",
                   id.mask());
      ++bad;
    }
  }
  std::printf("{\"views\":%zu,\"rows\":%llu,\"mismatches\":%d}\n",
              stored.size(), static_cast<unsigned long long>(rows_total), bad);
  return bad == 0 ? 0 : 1;
}

// ---- trace-build -----------------------------------------------------------

// Spans kept in memory and written once at the end. Thread-safe: rank
// threads open their own spans under the cluster span.
class Spans {
 public:
  Spans() : t0_(Clock::now()) {}
  int Begin(const std::string& name, int parent) {
    const double t = SecondsSince(t0_, Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, parent, t, t});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) {
    const double t = SecondsSince(t0_, Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_s = t;
  }
  std::string Json() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::string out = "[";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,"
                    "\"start_s\":%.9f,\"end_s\":%.9f}",
                    i ? "," : "", i, s.name.c_str(), s.parent, s.start_s,
                    s.end_s);
      out += buf;
    }
    return out + "]";
  }

 private:
  struct Span {
    std::string name;
    int parent;
    double start_s;
    double end_s;
  };
  const Clock::time_point t0_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class Scope {
 public:
  Scope(Spans& spans, const std::string& name, int parent)
      : spans_(spans), id_(spans.Begin(name, parent)) {}
  ~Scope() { spans_.End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Spans& spans_;
  const int id_;
};

std::string Family(const std::string& phase) {
  return phase.substr(0, phase.find('/'));
}

int CmdTraceBuild(const Args& args) {
  const std::string in = args.Str("in");
  const std::string out = args.Str("out");
  const int p = static_cast<int>(args.Int("procs"));
  if (p < 2) Die("trace-build mirrors the cluster path: --procs >= 2");

  Spans spans;
  const int root = spans.Begin("build", -1);
  Relation raw;
  {
    Scope s(spans, "relation.read_csv", root);
    std::ifstream is(in);
    if (!is.good()) Die("cannot read " + in);
    raw = ReadCsv(is);
  }
  if (raw.empty()) Die("input has no rows");
  Schema schema;
  {
    Scope s(spans, "relation.infer_cards", root);
    schema = InferSchema(raw);
  }
  const int d = schema.dims();
  std::vector<ViewId> selected;
  {
    Scope s(spans, "lattice.select_views", root);
    const AnalyticEstimator est(schema, static_cast<double>(raw.size()));
    selected = AllViews(d);
  }

  ParallelCubeOptions opts;
  Cluster cluster(p);
  cluster.set_threads_per_rank(1);
  std::vector<CubeResult> shards(static_cast<std::size_t>(p));
  std::vector<ParallelCubeStats> rank_stats(static_cast<std::size_t>(p));
  std::mutex mu;
  {
    Scope run(spans, "net.cluster_run", root);
    cluster.Run([&](Comm& comm) {
      Scope rank(spans, "core.rank_build", run.id());
      Relation slice(raw.width());
      for (std::size_t r = comm.rank(); r < raw.size();
           r += static_cast<std::size_t>(comm.size())) {
        slice.AppendRow(raw, r);
      }
      CubeResult cube = BuildParallelCube(
          comm, slice, schema, selected, opts,
          &rank_stats[static_cast<std::size_t>(comm.rank())]);
      std::lock_guard<std::mutex> lock(mu);
      shards[static_cast<std::size_t>(comm.rank())] = std::move(cube);
    });
  }
  CubeResult merged;
  {
    Scope s(spans, "relation.concat", root);
    for (ViewId v : selected) {
      ViewResult vr;
      vr.id = v;
      vr.order = shards[0].views.at(v).order;
      vr.rel = Relation(v.dim_count());
      for (auto& shard : shards) vr.rel.Concat(std::move(shard.views.at(v).rel));
      merged.views[v] = std::move(vr);
    }
  }
  {
    Scope s(spans, "seqcube.save_cube", root);
    ViewStore store(out);
    store.SaveCube(merged, schema);
  }
  const std::uint64_t rows_total = merged.TotalRows();
  const std::size_t input_rows = raw.size();
  {
    // What the CLI pays in destructors on its way out.
    Scope s(spans, "teardown", root);
    merged = CubeResult();
    shards.clear();
    raw = Relation();
  }
  spans.End(root);

  // Layer counters: sim seconds per phase family (max over ranks — the
  // slowest rank sets the BSP time), traffic and blocks summed over ranks.
  std::map<std::string, double> m;
  for (const char* fam : {"partition", "schedule", "compute", "merge"}) {
    for (const char* kind : {"cpu", "disk", "net"}) {
      m[std::string("sim.") + fam + "." + kind + "_s"] = 0;
    }
    m[std::string("net.bytes_mb.") + fam] = 0;
  }
  double messages = 0, blocks = 0, supersteps = 0;
  for (const RankStats& rs : cluster.stats()) {
    std::map<std::string, PhaseStats> fam;
    for (const auto& [phase, ps] : rs.phases) fam[Family(phase)] += ps;
    for (const auto& [f, ps] : fam) {
      auto upd = [&](const std::string& k, double v) {
        if (m.count(k)) m[k] = std::max(m[k], v);
      };
      upd("sim." + f + ".cpu_s", ps.cpu_s);
      upd("sim." + f + ".disk_s", ps.disk_s);
      upd("sim." + f + ".net_s", ps.net_s);
      const std::string bytes = "net.bytes_mb." + f;
      if (m.count(bytes)) m[bytes] += ps.bytes_sent / 1048576.0;
      messages += static_cast<double>(ps.messages);
      blocks += static_cast<double>(ps.blocks);
    }
    supersteps = std::max(supersteps, static_cast<double>(rs.supersteps));
  }
  ExecStats exec;
  for (const auto& rs : rank_stats) exec += rs.exec;
  m["net.messages"] = messages;
  m["net.supersteps"] = supersteps;
  m["io.blocks"] = blocks;
  m["seqcube.records_scanned"] = static_cast<double>(exec.records_scanned);
  m["seqcube.rows_emitted"] = static_cast<double>(exec.rows_emitted);
  m["seqcube.sorts"] = static_cast<double>(exec.sorts);
  m["seqcube.sort_cost_units"] = exec.sort_cost_units;
  // Merge decisions are collective, so every rank records the same cases.
  m["core.merge.case1_views"] = rank_stats[0].merge.case1_views;
  m["core.merge.case2_views"] = rank_stats[0].merge.case2_views;
  m["core.merge.case3_views"] = rank_stats[0].merge.case3_views;
  m["core.sample_sort_shifts"] = rank_stats[0].sample_sort_shifts;
  m["cube.rows_per_input_row"] =
      static_cast<double>(rows_total) / static_cast<double>(input_rows);

  std::ofstream os(args.Str("spans"));
  os << "{\"sim_s\":" << std::to_string(cluster.SimTimeSeconds())
     << ",\"rows\":" << rows_total << ",\"metrics\":{";
  bool first = true;
  char buf[160];
  for (const auto& [k, v] : m) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%.17g", first ? "" : ",",
                  k.c_str(), v);
    os << buf;
    first = false;
  }
  os << "},\"spans\":" << spans.Json() << "}\n";
  return os.good() ? 0 : 2;
}

// ---- goldens ---------------------------------------------------------------

// GROUP BY q.group_by over the rows of `facts` passing q.filters, summed,
// as (packed key, sum) pairs in canonical key order. Packing puts the lowest
// dimension index in the most significant bits, so packed order is the
// canonical lexicographic order.
struct Packing {
  std::vector<int> dims;
  std::vector<int> shift;
  std::vector<std::uint64_t> mask;
  std::uint64_t span = 1;  // product of cardinalities (dense table size)
};

int BitsFor(std::uint32_t card) {
  int b = 0;
  while ((1ULL << b) < card) ++b;
  return b;
}

Packing PackingFor(const Schema& schema, ViewId group_by) {
  Packing pk;
  pk.dims = group_by.DimList();
  int total = 0;
  for (int dim : pk.dims) total += BitsFor(schema.cardinality(dim));
  if (total > 63) Die("group-by key wider than 63 bits");
  int shift = total;
  for (int dim : pk.dims) {
    const int b = BitsFor(schema.cardinality(dim));
    shift -= b;
    pk.shift.push_back(shift);
    pk.mask.push_back((1ULL << b) - 1);
    pk.span = std::min<std::uint64_t>(pk.span << b, 1ULL << 40);
  }
  return pk;
}

using Groups = std::vector<std::pair<std::uint64_t, Measure>>;

Groups GroupBy(const Relation& facts, const Query& q, const Packing& pk) {
  auto pass = [&](std::size_t r) {
    for (const DimFilter& f : q.filters) {
      if (facts.key(r, f.dim) != f.value) return false;
    }
    return true;
  };
  auto pack = [&](std::size_t r) {
    std::uint64_t k = 0;
    for (std::size_t i = 0; i < pk.dims.size(); ++i) {
      k |= static_cast<std::uint64_t>(facts.key(r, pk.dims[i])) << pk.shift[i];
    }
    return k;
  };
  Groups out;
  if (pk.span <= (1ULL << 22)) {
    std::vector<Measure> sum(pk.span, 0);
    std::vector<std::uint8_t> seen(pk.span, 0);
    for (std::size_t r = 0; r < facts.size(); ++r) {
      if (!pass(r)) continue;
      const std::uint64_t k = pack(r);
      sum[k] += facts.measure(r);
      seen[k] = 1;
    }
    for (std::uint64_t k = 0; k < pk.span; ++k) {
      if (seen[k]) out.emplace_back(k, sum[k]);
    }
    return out;
  }
  Groups rows;
  for (std::size_t r = 0; r < facts.size(); ++r) {
    if (pass(r)) rows.emplace_back(pack(r), facts.measure(r));
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [k, v] : rows) {
    if (!out.empty() && out.back().first == k) {
      out.back().second += v;
    } else {
      out.emplace_back(k, v);
    }
  }
  return out;
}

Groups MergeGroups(const Groups& a, const Groups& b) {
  Groups out;
  out.reserve(a.size() + b.size());
  std::size_t i = 0, j = 0;
  while (i < a.size() || j < b.size()) {
    if (j == b.size() || (i < a.size() && a[i].first < b[j].first)) {
      out.push_back(a[i++]);
    } else if (i == a.size() || b[j].first < a[i].first) {
      out.push_back(b[j++]);
    } else {
      out.emplace_back(a[i].first, a[i].second + b[j].second);
      ++i;
      ++j;
    }
  }
  return out;
}

// The answer a query must return, built independently of the engine:
// canonical columns, rows in key order, then ORDER BY measure DESC LIMIT k
// with ties in key order.
std::uint64_t GoldenDigest(const Groups& groups, const Query& q,
                           const Packing& pk) {
  std::vector<std::size_t> rows(groups.size());
  std::iota(rows.begin(), rows.end(), 0u);
  if (q.top_k > 0 && static_cast<std::size_t>(q.top_k) < groups.size()) {
    std::stable_sort(rows.begin(), rows.end(), [&](std::size_t a, std::size_t b) {
      return groups[a].second > groups[b].second;
    });
    rows.resize(static_cast<std::size_t>(q.top_k));
  }
  Relation rel(static_cast<int>(pk.dims.size()));
  std::vector<Key> keys(pk.dims.size());
  for (std::size_t r : rows) {
    for (std::size_t i = 0; i < pk.dims.size(); ++i) {
      keys[i] = static_cast<Key>((groups[r].first >> pk.shift[i]) & pk.mask[i]);
    }
    rel.Append(keys, groups[r].second);
  }
  return AnswerDigest(rel);
}

CubeResult Skeleton(const std::vector<ViewId>& views) {
  CubeResult cube;
  for (ViewId v : views) {
    ViewResult vr;
    vr.id = v;
    vr.rel = Relation(v.dim_count());
    cube.views[v] = std::move(vr);
  }
  return cube;
}

int CmdGoldens(const Args& args) {
  const Relation raw = ReadFacts(args.Str("in"));
  const Schema schema = InferSchema(raw);
  const auto seed = static_cast<std::uint64_t>(args.Int("seed"));
  const int refreshes = static_cast<int>(args.Int("refreshes"));
  const std::vector<double> alphas = ParseAlphas(args.Str("alphas"));
  const QueryMix mix(Skeleton(AllViews(schema.dims())), schema, kMixSpec);
  std::vector<Relation> deltas;
  for (int k = 1; k <= refreshes; ++k) {
    deltas.push_back(
        MakeDelta(schema, alphas, seed, k, args.Int("delta-rows")));
  }
  // digests[i][e]; pool queries are independent, so threads take every
  // T-th one.
  const std::vector<Query>& pool = mix.pool();
  std::vector<std::vector<std::uint64_t>> digests(pool.size());
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = t; i < pool.size(); i += threads) {
        const Query& q = pool[i];
        const Packing pk = PackingFor(schema, q.group_by);
        Groups g = GroupBy(raw, q, pk);
        for (int e = 0; e <= refreshes; ++e) {
          if (e > 0) g = MergeGroups(g, GroupBy(deltas[e - 1], q, pk));
          digests[i].push_back(GoldenDigest(g, q, pk));
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  std::ofstream os(args.Str("out"));
  os << pool.size() << ' ' << refreshes + 1 << ' ' << PoolFingerprint(pool)
     << '\n';
  for (const auto& row : digests) {
    for (int e = 0; e <= refreshes; ++e) {
      os << row[static_cast<std::size_t>(e)] << (e == refreshes ? '\n' : ' ');
    }
  }
  return os.good() ? 0 : 2;
}

// ---- serve -----------------------------------------------------------------

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())) - 1);
  return v[std::min(idx, v.size() - 1)];
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

std::uint64_t DirBytes(const fs::path& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

class JsonOut {
 public:
  void Num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    body_ += (body_.empty() ? "\"" : ",\"") + k + "\":" + buf;
  }
  void Nums(const std::string& k, const std::vector<double>& vs) {
    std::string list;
    char buf[64];
    for (double v : vs) {
      std::snprintf(buf, sizeof(buf), "%s%.9g", list.empty() ? "" : ",", v);
      list += buf;
    }
    body_ += (body_.empty() ? "\"" : ",\"") + k + "\":[" + list + "]";
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

struct Record {
  std::uint32_t pool_index = 0;
  RouterOutcome outcome = RouterOutcome::kFailed;
  bool wrong = false;
  double start_s = 0;
  double end_s = 0;
};

// Phase-entry times of one Refresh() call, relative to the session start.
struct RefreshMarks {
  double start = 0, phase0 = 0, phase2 = 0, phase5 = 0, end = 0;
  double snapshot_mb = 0;
};

int CmdServe(const Args& args) {
  const bool traced = args.Int("trace") != 0;
  const auto seed = static_cast<std::uint64_t>(args.Int("seed"));
  const int refreshes = static_cast<int>(args.Int("refreshes"));
  const std::int64_t queries = args.Int("queries");
  if (refreshes < 1 || queries < refreshes + 1) Die("bad --queries/--refreshes");
  const std::int64_t every = queries / (refreshes + 1);
  const std::vector<double> alphas = ParseAlphas(args.Str("alphas"));

  const ViewStore store(args.Str("cube"));
  const Schema schema = store.LoadSchema();
  const CubeResult cube = store.LoadCube();
  const QueryMix mix(cube, schema, kMixSpec);
  const std::vector<Query>& pool = mix.pool();

  // goldens[i][e]: digest of pool query i's answer at epoch e.
  std::vector<std::vector<std::uint64_t>> goldens(pool.size());
  {
    std::ifstream is(args.Str("goldens"));
    std::size_t n = 0;
    int epochs = 0;
    std::uint64_t fp = 0;
    is >> n >> epochs >> fp;
    if (n != pool.size() || epochs != refreshes + 1 ||
        fp != PoolFingerprint(pool)) {
      Die("goldens were made for another query mix");
    }
    for (auto& row : goldens) {
      row.resize(static_cast<std::size_t>(epochs));
      for (auto& g : row) is >> g;
    }
    if (!is) Die("truncated goldens");
  }
  std::vector<Relation> deltas;
  for (int k = 1; k <= refreshes; ++k) {
    deltas.push_back(
        MakeDelta(schema, alphas, seed, k, args.Int("delta-rows")));
  }

  ShardSetOptions sopts;
  sopts.shards = 2;
  sopts.server.workers = 1;
  ShardSet shard_set(cube, sopts);
  // No per-try deadline: with no faults injected, the only slow tries come
  // from host contention, and the default 50 ms deadline turned those into
  // retries and, rarely, timed-out requests. Slowness shows as latency.
  RouterOptions router_opts;
  router_opts.per_try_us = 0;
  Router router(shard_set, router_opts);
  obs::MetricsRegistry refresh_metrics;
  obs::MetricsRegistry server_metrics;
  std::vector<RefreshMarks> marks(static_cast<std::size_t>(refreshes));
  int current = 0;  // refresh in progress (written by the refresh thread)
  const Clock::time_point t0 = Clock::now();
  const fs::path snapshot_dir = args.Str("snapshot-dir");

  RefreshOptions ropts;
  ropts.dir = snapshot_dir.string();
  ropts.metrics = &refresh_metrics;
  if (traced) {
    ropts.on_phase = [&](int phase) {
      RefreshMarks& mk = marks[static_cast<std::size_t>(current)];
      const double t = SecondsSince(t0, Clock::now());
      if (phase == 0) mk.phase0 = t;
      if (phase == 2) {
        mk.phase2 = t;
        mk.snapshot_mb =
            DirBytes(snapshot_dir / ("epoch_" + std::to_string(current + 1))) /
            1048576.0;
      }
      if (phase == 4) {
        // The outgoing epoch's servers, before FinalizeEpoch retires them
        // one refresh later.
        for (int s = 0; s < shard_set.shards(); ++s) {
          AbsorbServerStats(server_metrics, shard_set.primary_server(s));
          AbsorbServerStats(server_metrics, shard_set.replica_server(s));
        }
      }
      if (phase == 5) mk.phase5 = SecondsSince(t0, Clock::now());
    };
  }
  RefreshCoordinator coordinator(
      shard_set,
      std::shared_ptr<const CubeResult>(&cube, [](const CubeResult*) {}),
      schema, ropts);

  std::mutex mu;
  std::condition_variable cv;
  std::int64_t milestones = 0;  // guarded by mu: completed multiples of Q
  int refresh_failures = 0;
  std::thread refresher([&] {
    for (int k = 1; k <= refreshes; ++k) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return milestones >= k; });
      }
      current = k - 1;
      RefreshMarks& mk = marks[static_cast<std::size_t>(k - 1)];
      mk.start = SecondsSince(t0, Clock::now());
      try {
        coordinator.Refresh(deltas[static_cast<std::size_t>(k - 1)]);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "refresh %d failed: %s\n", k, e.what());
        ++refresh_failures;
      }
      mk.end = SecondsSince(t0, Clock::now());
    }
  });

  constexpr int kClients = 2;
  std::atomic<std::int64_t> next{0};
  std::vector<std::vector<Record>> records(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(seed * 7919ULL + static_cast<std::uint64_t>(c) + 1);
      auto& mine = records[static_cast<std::size_t>(c)];
      mine.reserve(static_cast<std::size_t>(queries));
      for (;;) {
        const std::int64_t i = next.fetch_add(1);
        if (i >= queries) break;
        const Query& q = mix.Sample(rng);
        if ((i + 1) % every == 0) {
          std::lock_guard<std::mutex> lock(mu);
          milestones = std::max(milestones, (i + 1) / every);
          cv.notify_one();
        }
        Record rec;
        rec.pool_index = static_cast<std::uint32_t>(&q - pool.data());
        rec.start_s = SecondsSince(t0, Clock::now());
        const RouterResult res = router.Execute(q);
        rec.end_s = SecondsSince(t0, Clock::now());
        rec.outcome = res.outcome;
        if (res.outcome == RouterOutcome::kOk) {
          rec.wrong = res.epoch > static_cast<std::uint64_t>(refreshes) ||
                      AnswerDigest(res.answer->rel) !=
                          goldens[rec.pool_index][res.epoch];
        }
        mine.push_back(rec);
      }
    });
  }
  for (auto& t : clients) t.join();
  refresher.join();

  if (traced) {
    for (int s = 0; s < shard_set.shards(); ++s) {
      AbsorbServerStats(server_metrics, shard_set.primary_server(s));
      AbsorbServerStats(server_metrics, shard_set.replica_server(s));
    }
  }
  const RouterStatsSnapshot rstats = router.Stats();
  shard_set.Shutdown();

  std::vector<Record> all;
  for (auto& r : records) all.insert(all.end(), r.begin(), r.end());
  constexpr double kFailedMs = 1e9;  // a failed request misses any limit
  std::vector<double> lat_ms, during_refresh_ms;
  std::int64_t ok = 0, not_ok = 0, wrong = 0;
  double first = 1e300, last = 0;
  for (const Record& r : all) {
    const bool good = r.outcome == RouterOutcome::kOk && !r.wrong;
    const double ms = good ? (r.end_s - r.start_s) * 1e3 : kFailedMs;
    lat_ms.push_back(ms);
    if (r.outcome != RouterOutcome::kOk) ++not_ok;
    if (r.wrong) ++wrong;
    if (r.outcome == RouterOutcome::kOk) ++ok;
    first = std::min(first, r.start_s);
    last = std::max(last, r.end_s);
    for (const RefreshMarks& mk : marks) {
      if (r.start_s < mk.end && r.end_s > mk.start) {
        during_refresh_ms.push_back(ms);
        break;
      }
    }
  }
  std::vector<double> refresh_s;
  for (const RefreshMarks& mk : marks) refresh_s.push_back(mk.end - mk.start);

  JsonOut j;
  j.Num("attempted", static_cast<double>(all.size() + refreshes));
  j.Num("not_ok", static_cast<double>(not_ok));
  j.Num("wrong", static_cast<double>(wrong));
  j.Num("refresh_failures", refresh_failures);
  j.Num("served_views", static_cast<double>(cube.views.size()));
  j.Num("served_rows", static_cast<double>(cube.TotalRows()));
  j.Num("query_p50_ms", Quantile(lat_ms, 0.50));
  j.Num("queries", static_cast<double>(all.size()));
  j.Num("ok", static_cast<double>(ok));
  j.Num("wall_s", last - first);
  j.Nums("latencies_ms", lat_ms);
  j.Nums("refreshes_s", refresh_s);
  j.Num("epochs", static_cast<double>(shard_set.serving_epoch()));
  if (traced) {
    const auto counter = [&](obs::MetricsRegistry& reg, const char* name) {
      return static_cast<double>(reg.GetCounter(name).value());
    };
    const double hits = counter(server_metrics, "serve.cache.hits");
    const double misses = counter(server_metrics, "serve.cache.misses");
    const obs::HistogramSnapshot worker =
        server_metrics.GetHistogram("serve.latency_us").Read();
    j.Num("serve.cache_hit_rate", hits / std::max(1.0, hits + misses));
    j.Num("serve.worker_latency_us.p50", worker.p50);
    j.Num("serve.worker_latency_us.p99", worker.p99);
    j.Num("serve.rejected", counter(server_metrics, "serve.rejected"));
    j.Num("router.retries", static_cast<double>(rstats.retries));
    j.Num("router.hedges", static_cast<double>(rstats.hedges));
    j.Num("router.shed", static_cast<double>(rstats.shed));
    j.Num("router.scatter_share",
          static_cast<double>(rstats.scatter_queries) /
              std::max<double>(1.0, static_cast<double>(
                                        rstats.scatter_queries +
                                        rstats.point_queries)));
    j.Num("router.latency_during_refresh_ms.p99",
          Quantile(during_refresh_ms, 0.99));
    std::vector<double> delta_s, snap_s, swap_s, cleanup_s, snap_mb;
    for (const RefreshMarks& mk : marks) {
      delta_s.push_back(mk.phase0 - mk.start);
      snap_s.push_back(mk.phase2 - mk.phase0);
      swap_s.push_back(mk.phase5 - mk.phase2);
      cleanup_s.push_back(mk.end - mk.phase5);
      snap_mb.push_back(mk.snapshot_mb);
    }
    j.Num("refresh.delta_cube_s", Median(delta_s));
    j.Num("refresh.snapshot_s", Median(snap_s));
    j.Num("refresh.swap_s", Median(swap_s));
    j.Num("refresh.cleanup_s", Median(cleanup_s));
    j.Num("refresh.snapshot_mb", Median(snap_mb));
    j.Num("refresh.views_rebuilt",
          counter(refresh_metrics, "refresh.views_rebuilt") / refreshes);
    j.Num("refresh.merged_rows",
          counter(refresh_metrics, "refresh.merged_rows") / refreshes);

    // Single-thread replay of the run's query sequence through the engine
    // over epoch 0. Each distinct query runs once; its time and row counts
    // are weighted by how often the run issued it.
    std::vector<std::uint64_t> issued(pool.size(), 0);
    for (const Record& r : all) ++issued[r.pool_index];
    const CubeQueryEngine engine(cube);
    std::vector<std::pair<double, std::uint64_t>> exec_us;
    double scanned = 0, returned = 0;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (issued[i] == 0) continue;
      const Clock::time_point a = Clock::now();
      const QueryAnswer ans = engine.Execute(pool[i]);
      exec_us.emplace_back(SecondsSince(a, Clock::now()) * 1e6, issued[i]);
      scanned += static_cast<double>(ans.rows_scanned * issued[i]);
      returned += static_cast<double>(ans.rel.size() * issued[i]);
    }
    std::sort(exec_us.begin(), exec_us.end());
    const auto weighted = [&](double q) {
      const double target = q * static_cast<double>(all.size());
      double seen = 0;
      for (const auto& [us, n] : exec_us) {
        seen += static_cast<double>(n);
        if (seen >= target) return us;
      }
      return exec_us.empty() ? 0.0 : exec_us.back().first;
    };
    j.Num("query.exec_us.p50", weighted(0.50));
    j.Num("query.exec_us.p99", weighted(0.99));
    j.Num("query.rows_scanned_per_row_returned",
          scanned / std::max(1.0, returned));
  }
  std::ofstream os(args.Str("out"));
  os << j.str() << '\n';
  return os.good() ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Die("usage: perfbench_tool <digest|verify|trace-build|goldens|serve> ...");
  const std::string cmd = argv[1];
  const Args args(argc - 2, argv + 2);
  try {
    if (cmd == "digest") return CmdDigest(args);
    if (cmd == "verify") return CmdVerify(args);
    if (cmd == "trace-build") return CmdTraceBuild(args);
    if (cmd == "goldens") return CmdGoldens(args);
    if (cmd == "serve") return CmdServe(args);
  } catch (const std::exception& e) {
    Die(cmd + ": " + e.what());
  }
  Die("unknown command " + cmd);
}
