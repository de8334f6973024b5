// sncube — command-line front end for the library.
//
//   sncube generate --rows N --cards 256,128,64 [--alphas 1.0,0,0]
//                   [--seed S] --out facts.csv
//   sncube build    --in facts.csv --out cubedir [--procs P]
//                   [--views N | --fraction F] [--gamma G] [--local-trees]
//   sncube info     --cube cubedir
//   sncube query    --cube cubedir --group-by D0,D2 [--where D1=3]
//                   [--top K] [--json]
//   sncube serve    --cube cubedir --bench [--workers W] [--clients C]
//                   [--queries N] [--queue-depth Q] [--cache-mb MB]
//                   [--alpha A] [--seed S]
//
// `build` runs the paper's parallel shared-nothing algorithm on a simulated
// cluster of P virtual processors (default 1 = plain sequential Pipesort)
// and persists every selected view's SUMs into the cube directory, which
// `query` then serves with lattice routing. `serve --bench` replays a
// synthetic Zipf-skewed query mix through the concurrent CubeServer
// (src/serve/) and prints its StatsSnapshot as JSON.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "chaos/explorer.h"
#include "chaos/refresh_chaos.h"
#include "chaos/serve_chaos.h"
#include "common/timer.h"
#include "core/parallel_cube.h"
#include "data/generator.h"
#include "lattice/lattice.h"
#include "net/cluster.h"
#include "obs/export.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "query/engine.h"
#include "query/greedy_select.h"
#include "refresh/delta.h"
#include "refresh/refresh.h"
#include "refresh/snapshot.h"
#include "relation/csv.h"
#include "relation/sort.h"
#include "seqcube/seq_cube.h"
#include "seqcube/view_store.h"
#include "serve/metrics_bridge.h"
#include "serve/router.h"
#include "serve/server.h"
#include "serve/shard_set.h"
#include "serve/wall_clock.h"
#include "serve/workload.h"

using namespace sncube;

namespace {

// The single source of truth for CLI documentation. `sncube help` prints
// this to stdout (exit 0); a parse error prints it to stderr (exit 2).
// tools/lint/check_cli_docs.py extracts every --flag token from this text
// and requires each one to be documented in README.md, so a new flag that
// is not added here (or not written up) fails `ctest -L lint`.
constexpr const char* kHelpText =
    "usage: sncube <command> [flags]\n"
    "  (a flag the command does not list below is an error, and so is a\n"
    "  numeric value that is not one whole number in the flag's range)\n"
    "\n"
    "commands:\n"
    "  generate   synthesize a fact table as CSV\n"
    "  build      build the data cube (sequential or simulated parallel)\n"
    "  info       list the views stored in a cube directory\n"
    "  query      answer one group-by query from a cube directory\n"
    "  refresh    ingest a delta relation and refresh a cube directory\n"
    "  serve      replay a synthetic query mix through the CubeServer\n"
    "  chaos      randomized fault-injection search with plan shrinking\n"
    "  help       print this text\n"
    "\n"
    "sncube generate --rows N --cards C0,C1,... --out facts.csv\n"
    "  --rows N           number of fact rows\n"
    "  --cards C0,C1,...  per-dimension cardinalities (defines dimensionality)\n"
    "  --alphas A0,...    per-dimension Zipf skew (default uniform = 0)\n"
    "  --seed S           RNG seed (default 42)\n"
    "  --out FILE         output CSV path\n"
    "\n"
    "sncube build --in facts.csv --out cubedir\n"
    "  --in FILE            input fact table: CSV of dimension codes whose\n"
    "                       header names the dimensions, measure last\n"
    "  --out DIR            cube directory to create\n"
    "  --procs P            simulated processors (default 1 = sequential)\n"
    "  --threads-per-rank W intra-rank worker threads per simulated processor\n"
    "                       (default 1 = serial; cube bytes identical for any W)\n"
    "  --views N            build only the N greedy-selected views\n"
    "  --fraction F         build the greedy-selected fraction F of views\n"
    "  --gamma G            merge threshold gamma (Merge-Partitions case 3)\n"
    "  --local-trees        per-rank lattice trees + FM-sketch estimator\n"
    "  --checkpoint-dir DIR save per-partition checkpoints; rerun with the\n"
    "                       same DIR to resume after a failure (needs --procs >= 2)\n"
    "  --fault-plan SPEC    inject faults, e.g.\n"
    "                       \"kill:1@5;slow:2x3.0;diskerr:0:0.01;seed:7\"\n"
    "                       (needs --procs >= 2)\n"
    "  --trace-out FILE     write a Chrome trace_event JSON timeline of the\n"
    "                       run (simulated clock) and print the run summary\n"
    "                       JSON to stdout\n"
    "  --summary-out FILE   also write the run summary JSON to FILE\n"
    "\n"
    "sncube info --cube cubedir\n"
    "  --cube DIR         cube directory to inspect\n"
    "\n"
    "sncube query --cube cubedir --group-by D0,D2\n"
    "  --cube DIR         cube directory to query\n"
    "  --group-by A,B,... dimension names to group by\n"
    "  --where D=V,...    equality filters (dimension=code)\n"
    "  --top K            keep only the K largest groups\n"
    "  --json             machine-readable output\n"
    "  --trace-out FILE   write a Chrome trace of the query (wall clock)\n"
    "\n"
    "sncube refresh --cube cubedir --delta delta.csv\n"
    "  ingests an insert-only delta: cubes the delta over the affected views\n"
    "  (Section 3 partial schedule), merges it into the stored cube, and\n"
    "  rewrites the cube directory (DESIGN.md §14).\n"
    "  --cube DIR         cube directory to refresh in place\n"
    "  --delta FILE       delta fact rows: CSV whose header names the cube's\n"
    "                     dimensions in any order, measure last\n"
    "  --snapshot-dir DIR also commit the refreshed cube into a crash-safe\n"
    "                     snapshot store as the next epoch (sealed manifest;\n"
    "                     a crash leaves the previous epoch committed)\n"
    "\n"
    "sncube serve --cube cubedir --bench\n"
    "  --cube DIR         cube directory to serve\n"
    "  --bench            replay a synthetic query mix (required)\n"
    "  --workers W        worker threads (default 4)\n"
    "  --clients C        closed-loop client threads (default 8)\n"
    "  --queries N        total queries to issue (default 20000)\n"
    "  --queue-depth Q    admission queue depth (default 256)\n"
    "  --cache-mb MB      result cache capacity (default 64)\n"
    "  --alpha A          Zipf skew of the query mix (default 1.0)\n"
    "  --seed S           workload RNG seed (default 42)\n"
    "  --trace-out FILE   write a Chrome trace of worker request handling\n"
    "                     (wall clock; non-deterministic by nature)\n"
    "  --summary-out FILE write unified metrics registry JSON to FILE\n"
    "  --shards N         serve the cube sliced over N shard nodes behind\n"
    "                     the resilient router (default 1 = single server;\n"
    "                     N >= 2 enables the flags below)\n"
    "  --fault-plan SPEC  serve-tier fault clauses keyed on request sequence,\n"
    "                     e.g. \"shardkill:1:100-900;shardslow:0:0:3.0\"\n"
    "  --per-try-ms MS    router per-try deadline (default 50, 0 disables)\n"
    "  --retries R        extra tries per request after the first (default 2)\n"
    "  --hedge-ms MS      hedge successful tries at least this slow against\n"
    "                     the other replica (default 0 = off)\n"
    "  --breaker-failures F      failures within the rolling window that trip\n"
    "                            a shard's circuit breaker (default 5)\n"
    "  --breaker-cooldown-ms MS  open-state cooldown before half-open probes\n"
    "                            (default 250)\n"
    "  --refresh-every Q  with --shards >= 2: run an online refresh (epoch\n"
    "                     swap under live traffic) after every Q routed\n"
    "                     queries (default 0 = no refreshes)\n"
    "  --refresh-rows R   synthetic delta rows per refresh (default 1000)\n"
    "  --snapshot-dir DIR refresh snapshot store (default: temp directory)\n"
    "\n"
    "sncube chaos --plans N --seed S\n"
    "  runs N random fault plans per size through a deterministic trial and\n"
    "  shrinks each failing plan to a minimal reproducing spec. By default\n"
    "  each trial builds a cube under the plan (restarting from its\n"
    "  checkpoints on abort) and checks it byte-identical to a fault-free\n"
    "  build. Exit 0 = all trials upheld the invariant; exit 4 = violation\n"
    "  found (see the JSON report).\n"
    "  --plans N          random fault plans per size (default 16)\n"
    "  --seed S           master seed for plan generation (default 1)\n"
    "  --procs P0,P1,...  build cluster sizes to exercise (default 2,4)\n"
    "  --rows R           synthetic fact rows per trial (default 600;\n"
    "                     500 with --refresh)\n"
    "  --fail-out FILE    append each minimal failing plan as \"<size> <spec>\"\n"
    "  --verbose          per-trial progress on stderr\n"
    "  --serve            search the SERVING tier instead: random shardkill/\n"
    "                     shardslow plans against a Router over a ShardSet on\n"
    "                     a manual clock, invariant \"no wrong answers, ever\"\n"
    "                     (every response is bit-correct, a typed error, or an\n"
    "                     explicit shed)\n"
    "  --refresh          search the ONLINE REFRESH path instead: coordinator\n"
    "                     kills at two-phase-swap phases (refreshkill:K),\n"
    "                     snapshot disk corruption and shard churn while the\n"
    "                     query stream interleaves with every swap step.\n"
    "                     Invariant: old or new, never a blend — every response\n"
    "                     matches the pre- or post-refresh golden, and crash\n"
    "                     recovery restores one of the two cubes\n"
    "  --shards N0,N1,... with --serve or --refresh: shard counts to exercise\n"
    "                     (default 2,4)\n"
    "  --requests N       with --serve or --refresh: router requests per trial\n"
    "                     (default 200 / 120)\n";

[[noreturn]] void Usage(const char* msg = nullptr) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fputs(kHelpText, stderr);
  std::exit(2);
}

// The flags one command takes: `values` are --name value pairs, `switches`
// are boolean --name flags.
struct FlagSpec {
  std::vector<std::string> values;
  std::vector<std::string> switches;
};

template <typename T>
constexpr T kMax = std::numeric_limits<T>::max();

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> parts;
  std::stringstream ss(s);
  std::string part;
  while (std::getline(ss, part, ',')) parts.push_back(part);
  return parts;
}

// Reads all of `text` as one number of type T in [lo, hi]. A sign on an
// unsigned type, trailing characters, overflow, NaN or a value out of range
// is a usage error naming --flag.
template <typename T>
T ParseNumber(const std::string& flag, std::string_view text, T lo, T hi) {
  T value{};
  bool whole = false;
  if constexpr (std::is_floating_point_v<T>) {
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    whole = ec == std::errc() && ptr == end;
  } else {
    whole = ParseWhole(text, value);
  }
  if (!whole || !(value >= lo && value <= hi)) {
    std::ostringstream msg;
    msg << "--" << flag << " expects "
        << (std::is_floating_point_v<T> ? "a number" : "a whole number");
    if (hi == kMax<T>) {
      msg << " >= " << lo;
    } else {
      msg << " in [" << lo << ", " << hi << "]";
    }
    msg << ", got '" << text << "'";
    Usage(msg.str().c_str());
  }
  return value;
}

// Minimal flag parser over one command's FlagSpec. Any other --name is a
// usage error, so a typo or a retired flag fails instead of being ignored.
class Args {
 public:
  Args(int argc, char** argv, const FlagSpec& spec) {
    const auto takes = [](const std::vector<std::string>& names,
                          const std::string& name) {
      return std::find(names.begin(), names.end(), name) != names.end();
    };
    for (int i = 0; i < argc; ++i) {
      std::string a = argv[i];
      if (a.rfind("--", 0) != 0) Usage(("unexpected argument: " + a).c_str());
      a = a.substr(2);
      if (takes(spec.switches, a)) {
        values_[a] = "1";
      } else if (takes(spec.values, a)) {
        if (i + 1 >= argc) Usage(("missing value for --" + a).c_str());
        values_[a] = argv[++i];
      } else {
        Usage(("unknown flag for this command: --" + a).c_str());
      }
    }
  }

  std::optional<std::string> Get(const std::string& name) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }
  std::string Require(const std::string& name) const {
    const auto v = Get(name);
    if (!v) Usage(("--" + name + " is required").c_str());
    return *v;
  }
  bool Has(const std::string& name) const { return values_.contains(name); }

  // Typed numeric reads (see ParseNumber): `fallback` stands for an absent
  // optional flag and is not range-checked.
  template <typename T>
  T Number(const std::string& name, T fallback, T lo, T hi) const {
    const auto v = Get(name);
    return v ? ParseNumber(name, *v, lo, hi) : fallback;
  }
  template <typename T>
  T RequireNumber(const std::string& name, T lo, T hi) const {
    return ParseNumber(name, Require(name), lo, hi);
  }
  // A required comma-separated list of at least one number in [lo, hi].
  template <typename T>
  std::vector<T> NumberList(const std::string& name, T lo, T hi) const {
    const std::string list = Require(name);
    std::vector<T> out;
    for (const auto& part : SplitCommas(list)) {
      out.push_back(ParseNumber(name, part, lo, hi));
    }
    if (out.empty() || list.back() == ',') {
      Usage(("--" + name + " expects comma-separated numbers, got '" + list +
             "'").c_str());
    }
    return out;
  }

  // For a command whose mode switch narrows the flags it reads: any given
  // flag outside `spec` is a usage error naming `mode`.
  void AllowOnly(const FlagSpec& spec, const std::string& mode) const {
    for (const auto& [name, value] : values_) {
      if (std::ranges::find(spec.values, name) == spec.values.end() &&
          std::ranges::find(spec.switches, name) == spec.switches.end()) {
        Usage(("--" + name + " is not a flag of " + mode).c_str());
      }
    }
  }

 private:
  std::map<std::string, std::string> values_;
};

int DimIndexByName(const Schema& schema, const std::string& name) {
  for (int i = 0; i < schema.dims(); ++i) {
    if (schema.name(i) == name) return i;
  }
  Usage(("unknown dimension: " + name).c_str());
}

int CmdGenerate(const Args& args) {
  DatasetSpec spec;
  spec.rows = args.RequireNumber<std::int64_t>("rows", 1, kMax<std::int64_t>);
  spec.cardinalities =
      args.NumberList<std::uint32_t>("cards", 1, kMax<std::uint32_t>);
  if (args.Has("alphas")) {
    spec.alphas = args.NumberList("alphas", 0.0, kMax<double>);
    if (spec.alphas.size() != spec.cardinalities.size()) {
      Usage("--alphas needs one value per --cards entry");
    }
  }
  spec.seed = args.Number<std::uint64_t>("seed", 42, 0, kMax<std::uint64_t>);

  const Relation rel = GenerateDataset(spec);
  const Schema schema = spec.MakeSchema();
  std::vector<std::string> names;
  for (int i = 0; i < schema.dims(); ++i) names.push_back(schema.name(i));

  const std::string out = args.Require("out");
  std::ofstream os(out);
  if (!os.good()) Usage(("cannot write " + out).c_str());
  WriteCsv(os, rel, names);
  std::printf("wrote %zu rows x %d dims to %s\n", rel.size(), rel.width(),
              out.c_str());
  return 0;
}

int CmdBuild(const Args& args) {
  const std::string in = args.Require("in");
  std::ifstream is(in);
  if (!is.good()) Usage(("cannot read " + in).c_str());
  WallTimer ingest_timer;
  std::vector<std::string> names;
  Relation raw = ReadCsv(is, names);
  const double ingest_s = ingest_timer.Seconds();
  if (raw.empty()) Usage("input has no rows");
  for (std::size_t c = 0; c < names.size(); ++c) {
    if (names[c].empty() ||
        std::find(names.begin(), names.begin() + c, names[c]) !=
            names.begin() + c) {
      throw SncubeInputError("CSV header: column " + std::to_string(c + 1) +
                             " needs a name no other column has");
    }
  }

  // Infer cardinalities from the data (max code + 1 per column).
  std::vector<std::uint32_t> cards(static_cast<std::size_t>(raw.width()), 1);
  for (std::size_t r = 0; r < raw.size(); ++r) {
    for (int c = 0; c < raw.width(); ++c) {
      cards[static_cast<std::size_t>(c)] =
          std::max(cards[static_cast<std::size_t>(c)], raw.key(r, c) + 1);
    }
  }
  // Schema puts the dimensions, named from the header, into the paper's
  // decreasing-cardinality order; the columns follow it. Generated inputs
  // are already in that order and skip the copy.
  const Schema schema(cards, names);
  if (!std::ranges::is_sorted(schema.permutation())) {
    raw = PermuteColumns(raw, schema.permutation());
  }
  const int d = schema.dims();

  // View selection.
  const AnalyticEstimator est(schema, static_cast<double>(raw.size()));
  std::vector<ViewId> selected;
  if (args.Has("views")) {
    selected = GreedySelectViews(d, args.RequireNumber("views", 1, 1 << d), est);
  } else if (args.Has("fraction")) {
    selected = GreedySelectFraction(
        d, args.RequireNumber("fraction", std::nextafter(0.0, 1.0), 1.0), est);
  } else {
    selected = AllViews(d);
  }

  const int p = args.Number("procs", 1, 1, kMax<int>);
  const int threads_per_rank = args.Number("threads-per-rank", 1, 1, kMax<int>);
  ParallelCubeOptions opts;
  opts.gamma_merge = args.Number("gamma", opts.gamma_merge, 0.0, kMax<double>);
  if (args.Has("local-trees")) {
    opts.tree_mode = TreeMode::kLocal;
    opts.estimator = EstimatorKind::kFm;
  }
  const auto checkpoint_dir = args.Get("checkpoint-dir");
  const auto fault_spec = args.Get("fault-plan");
  if ((checkpoint_dir || fault_spec) && p == 1) {
    Usage("--checkpoint-dir/--fault-plan require --procs >= 2");
  }
  if (checkpoint_dir) opts.checkpoint.dir = *checkpoint_dir;
  FaultPlan fault_plan;
  if (fault_spec) {
    try {
      fault_plan = FaultPlan::Parse(*fault_spec);
    } catch (const SncubeError& e) {
      Usage(e.what());
    }
  }

  const auto trace_out = args.Get("trace-out");
  const auto summary_out = args.Get("summary-out");
  // Tracing needs the simulated clock, which only exists on the Cluster
  // path — so a traced single-processor build runs as a 1-rank cluster
  // (BuildParallelCube at p == 1 produces the same views as SequentialCube).
  // The exec pool likewise lives on rank threads, so --threads-per-rank > 1
  // also takes the cluster path.
  const bool traced = trace_out.has_value() || summary_out.has_value();

  const std::string out = args.Require("out");
  WallTimer timer;
  std::uint64_t rows_total = 0;
  double compute_s = 0;
  double write_s = 0;
  if (p == 1 && !traced && threads_per_rank == 1) {
    WallTimer compute_timer;
    const CubeResult cube = SequentialCube(raw, schema, selected);
    compute_s = compute_timer.Seconds();
    WallTimer write_timer;
    ViewStore store(out);
    // Drop auxiliaries when persisting.
    store.SaveCube(cube, schema);
    write_s = write_timer.Seconds();
    rows_total = cube.TotalRows();
  } else {
    // Simulated shared-nothing build: each rank returns its shard of every
    // view in memory (ranks hold consecutive key ranges), and the shards
    // are streamed into the view files of `out` in rank order.
    Cluster cluster(p);
    cluster.set_threads_per_rank(threads_per_rank);
    if (!fault_plan.empty()) cluster.set_fault_plan(fault_plan);
    obs::TraceSink trace_sink;
    if (traced) cluster.set_trace_sink(&trace_sink);
    std::vector<CubeResult> shards(p);
    std::mutex mu;
    WallTimer compute_timer;
    try {
      cluster.Run([&](Comm& comm) {
        // Deal rows round-robin to ranks (the paper's "distributed
        // arbitrarily" input).
        Relation slice(raw.width());
        for (std::size_t r = comm.rank(); r < raw.size();
             r += static_cast<std::size_t>(comm.size())) {
          slice.AppendRow(raw, r);
        }
        CubeResult cube =
            BuildParallelCube(comm, slice, schema, selected, opts);
        std::lock_guard<std::mutex> lock(mu);
        shards[comm.rank()] = std::move(cube);
      });
    } catch (const ClusterAbortedError& e) {
      std::fprintf(stderr, "build aborted: %s\n", e.what());
      if (checkpoint_dir) {
        std::fprintf(stderr,
                     "partitions completed before the failure are saved; "
                     "rerun with the same --checkpoint-dir (and without the "
                     "fault) to resume\n");
      }
      return 3;
    }
    compute_s = compute_timer.Seconds();
    std::printf("simulated %d-processor build: %.2f s simulated parallel "
                "time, %.1f MB communicated\n",
                p, cluster.SimTimeSeconds(),
                cluster.BytesSent() / 1048576.0);
    if (traced) {
      const std::vector<obs::RankTrace> ranks = trace_sink.Snapshot();
      obs::MetricsRegistry registry;
      obs::AbsorbRunStats(registry, cluster.stats(), cluster.SimTimeSeconds());
      const std::string summary = obs::RunSummaryJson(
          cluster.stats(), cluster.SimTimeSeconds(), &ranks, &registry);
      if (trace_out) {
        obs::WriteTextFile(*trace_out, obs::ChromeTraceJson(ranks));
        std::fprintf(stderr, "trace: %s (span coverage %.1f%%)\n",
                     trace_out->c_str(), 100.0 * obs::SpanCoverage(ranks));
      }
      if (summary_out) obs::WriteTextFile(*summary_out, summary);
      std::printf("%s\n", summary.c_str());
    }
    WallTimer write_timer;
    ViewStore store(out);
    store.SaveCube(shards, schema);
    write_s = write_timer.Seconds();
    for (const CubeResult& shard : shards) rows_total += shard.TotalRows();
  }
  std::printf("built %zu views (%llu rows) into %s in %.2f s\n",
              selected.size(), static_cast<unsigned long long>(rows_total),
              out.c_str(), timer.Seconds());
  std::printf("host: ingest %.2f s, compute %.2f s, write %.2f s\n", ingest_s,
              compute_s, write_s);
  return 0;
}

int CmdInfo(const Args& args) {
  const ViewStore store(args.Require("cube"));
  const Schema schema = store.LoadSchema();
  std::printf("schema:");
  for (int i = 0; i < schema.dims(); ++i) {
    std::printf(" %s(%u)", schema.name(i).c_str(), schema.cardinality(i));
  }
  std::printf("\nviews:\n");
  std::uint64_t rows = 0;
  for (ViewId id : store.List()) {
    const ViewResult vr = store.Load(id);
    std::printf("  %-12s %10zu rows\n", id.Name(schema).c_str(),
                vr.rel.size());
    rows += vr.rel.size();
  }
  std::printf("total: %llu rows\n", static_cast<unsigned long long>(rows));
  return 0;
}

int CmdQuery(const Args& args) {
  const ViewStore store(args.Require("cube"));
  const Schema schema = store.LoadSchema();
  const CubeResult cube = store.LoadCube();
  const CubeQueryEngine engine(cube);

  Query q;
  std::vector<int> dims;
  for (const auto& name : SplitCommas(args.Require("group-by"))) {
    dims.push_back(DimIndexByName(schema, name));
  }
  q.group_by = ViewId::FromDims(dims);
  if (const auto where = args.Get("where")) {
    for (const auto& clause : SplitCommas(*where)) {
      const auto eq = clause.rfind('=');  // names may hold '=', codes not
      if (eq == std::string::npos) Usage("--where expects name=value");
      q.filters.push_back(
          {DimIndexByName(schema, clause.substr(0, eq)),
           ParseNumber<Key>("where", clause.substr(eq + 1), 0, kMax<Key>)});
    }
  }
  q.top_k = args.Number("top", 0, 1, kMax<int>);

  const auto trace_out = args.Get("trace-out");
  WallClockSource trace_clock;
  obs::TraceRecorder trace_recorder(0, &trace_clock);

  WallTimer timer;
  QueryAnswer answer;
  {
    // Single-query trace: rank 0 = the one CLI thread, wall-clock stamps.
    obs::ThreadRecorderScope trace_scope(trace_out ? &trace_recorder
                                                   : nullptr);
    answer = engine.Execute(q);
  }
  const double wall_s = timer.Seconds();
  if (trace_out) {
    std::vector<obs::RankTrace> ranks;
    ranks.push_back(trace_recorder.Finish());
    obs::WriteTextFile(*trace_out, obs::ChromeTraceJson(ranks));
    std::fprintf(stderr, "trace: %s\n", trace_out->c_str());
  }

  if (args.Has("json")) {
    // Machine-readable record for load drivers and dashboards.
    std::printf("{\"answered_from\":\"%s\",\"rows_scanned\":%llu,"
                "\"wall_s\":%.6f,\"columns\":[",
                answer.answered_from.Name(schema).c_str(),
                static_cast<unsigned long long>(answer.rows_scanned), wall_s);
    const auto dims = q.group_by.DimList();
    for (std::size_t i = 0; i < dims.size(); ++i) {
      std::printf("%s\"%s\"", i ? "," : "", schema.name(dims[i]).c_str());
    }
    std::printf("],\"rows\":[");
    for (std::size_t r = 0; r < answer.rel.size(); ++r) {
      std::printf("%s[", r ? "," : "");
      for (Key k : answer.rel.RowKeys(r)) std::printf("%u,", k);
      std::printf("%lld]", static_cast<long long>(answer.rel.measure(r)));
    }
    std::printf("]}\n");
    return 0;
  }

  std::printf("-- answered from view %s (%llu rows scanned, %.3f ms)\n",
              answer.answered_from.Name(schema).c_str(),
              static_cast<unsigned long long>(answer.rows_scanned),
              wall_s * 1e3);
  for (int i : q.group_by.DimList()) std::printf("%s,", schema.name(i).c_str());
  std::printf("measure\n");
  for (std::size_t r = 0; r < answer.rel.size(); ++r) {
    for (Key k : answer.rel.RowKeys(r)) std::printf("%u,", k);
    std::printf("%lld\n", static_cast<long long>(answer.rel.measure(r)));
  }
  return 0;
}

// refresh: one offline delta-ingestion pass over a cube directory — cube
// the delta over the affected views, merge, rewrite the store. The online
// counterpart (epoch swap under live traffic) is serve --refresh-every.
int CmdRefresh(const Args& args) {
  const std::string cube_dir = args.Require("cube");
  const ViewStore store(cube_dir);
  const Schema schema = store.LoadSchema();
  const CubeResult base = store.LoadCube();

  const std::string delta_path = args.Require("delta");
  std::ifstream is(delta_path);
  if (!is.good()) Usage(("cannot read " + delta_path).c_str());
  std::vector<std::string> names;
  Relation delta = ReadCsv(is, names);
  // Delta columns map to the cube's dimensions by header name, in any
  // order; perm[i] is the delta column of dimension i.
  std::vector<int> perm;
  std::string expected;
  for (int i = 0; i < schema.dims(); ++i) {
    const auto it = std::find(names.begin(), names.end(), schema.name(i));
    if (it != names.end()) perm.push_back(static_cast<int>(it - names.begin()));
    expected += (i ? "," : "") + schema.name(i);
  }
  if (names.size() != perm.size() ||
      perm.size() != static_cast<std::size_t>(schema.dims())) {
    throw SncubeInputError("delta header names its key columns differently "
                           "from the cube: expected some order of " +
                           expected);
  }
  if (!std::ranges::is_sorted(perm)) delta = PermuteColumns(delta, perm);
  // A key outside its dimension's cardinality would be stored in views the
  // manifest says it cannot be in.
  for (std::size_t r = 0; r < delta.size(); ++r) {
    for (int i = 0; i < schema.dims(); ++i) {
      if (delta.key(r, i) >= schema.cardinality(i)) {
        throw SncubeInputError(
            "delta row " + std::to_string(r + 1) + ": " + schema.name(i) +
            " = " + std::to_string(delta.key(r, i)) +
            " is outside the cube's cardinality " +
            std::to_string(schema.cardinality(i)));
      }
    }
  }

  WallTimer timer;
  const CubeResult merged =
      MergeDeltaCube(base, ComputeDeltaCube(delta, schema, base));

  // Optionally commit the refreshed cube into a crash-safe snapshot store
  // as the epoch after the newest committed one (1 for a fresh store), read
  // off the manifest alone. Like the RefreshCoordinator, keep only the new
  // epoch and its predecessor.
  std::uint64_t epoch = 0;
  if (const auto snap_dir = args.Get("snapshot-dir")) {
    DiskModel disk;
    SnapshotStore snap(*snap_dir, disk);
    epoch = snap.ReadManifest().LastCommitted() + 1;
    snap.WriteEpoch(epoch, merged);
    snap.AppendCommit(epoch);
    snap.RemoveEpochDirsBelow(epoch - 1);
  }
  ViewStore out(cube_dir);
  out.SaveCube(merged, schema);
  std::printf("{\"delta_rows\":%zu,\"views_refreshed\":%zu,"
              "\"merged_rows\":%llu,\"snapshot_epoch\":%llu,"
              "\"wall_s\":%.4f}\n",
              delta.size(), delta.empty() ? 0 : base.views.size(),
              static_cast<unsigned long long>(merged.TotalRows()),
              static_cast<unsigned long long>(epoch), timer.Seconds());
  return 0;
}

// serve --shards N (N >= 2): slice the cube over N in-process shard nodes
// and replay the mix through the resilient Router instead of one CubeServer.
// Runs on the wall clock; any --fault-plan serve clauses key on the router's
// request sequence numbers, so a plan stays meaningful at any request rate.
int CmdServeSharded(const Args& args, const CubeResult& cube,
                    const Schema& schema, const ServerOptions& server_opts,
                    const QueryMix& mix, const WorkloadSpec& wspec,
                    std::int64_t total_queries, int clients, int shards) {
  ShardSetOptions sopts;
  sopts.shards = shards;
  sopts.server = server_opts;
  FaultPlan plan;
  if (const auto spec = args.Get("fault-plan")) plan = FaultPlan::Parse(*spec);

  RouterOptions ropts;
  // Millisecond flags become microseconds, so they stop where that would
  // overflow.
  const auto micros = [&](const char* flag, std::uint64_t fallback_ms) {
    return 1000 * args.Number<std::uint64_t>(flag, fallback_ms, 0,
                                             kMax<std::uint64_t> / 1000);
  };
  ropts.per_try_us = micros("per-try-ms", 50);
  ropts.max_tries = 1 + args.Number("retries", 2, 0, kMax<int> - 1);
  ropts.hedge_delay_us = micros("hedge-ms", 0);
  ropts.breaker.failure_threshold =
      args.Number("breaker-failures", 5, 1, kMax<int>);
  ropts.breaker.cooldown_us = micros("breaker-cooldown-ms", 250);

  const auto refresh_every = args.Number<std::int64_t>(
      "refresh-every", 0, 0, kMax<std::int64_t>);
  const auto refresh_rows = args.Number<std::int64_t>(
      "refresh-rows", 1000, 1, kMax<std::int64_t>);

  ShardSet shard_set(cube, sopts, plan);
  Router router(shard_set, ropts);

  // Online refresh under traffic: a background coordinator ingests a
  // synthetic delta (deterministic: seed 7777+k for the k-th refresh) and
  // two-phase-swaps the refreshed epoch in after every `refresh_every`
  // routed queries. Clients keep hammering the router throughout — each
  // request answers from exactly one pinned epoch.
  std::atomic<std::int64_t> processed{0};
  std::atomic<bool> serve_done{false};
  std::unique_ptr<RefreshCoordinator> refresher;
  std::thread refresh_thread;
  if (refresh_every > 0) {
    RefreshOptions refresh_opts;
    refresh_opts.dir = args.Get("snapshot-dir").value_or(
        (std::filesystem::temp_directory_path() /
         ("sncube_serve_refresh_" + std::to_string(::getpid()))).string());
    refresher = std::make_unique<RefreshCoordinator>(
        shard_set,
        std::shared_ptr<const CubeResult>(&cube, [](const CubeResult*) {}),
        schema, refresh_opts);
    refresh_thread = std::thread([&] {
      DatasetSpec dspec;
      dspec.rows = refresh_rows;
      for (int i = 0; i < schema.dims(); ++i) {
        dspec.cardinalities.push_back(schema.cardinality(i));
      }
      for (std::uint64_t k = 1;
           !serve_done.load(std::memory_order_acquire);) {
        if (processed.load(std::memory_order_acquire) <
            static_cast<std::int64_t>(k) * refresh_every) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          continue;
        }
        dspec.seed = 7777 + k;
        try {
          refresher->Refresh(GenerateDataset(dspec));
        } catch (const SncubeError& e) {
          std::fprintf(stderr, "refresh failed: %s\n", e.what());
          break;
        }
        ++k;
      }
    });
  }

  WallTimer timer;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(wspec.seed + 1000003ULL * static_cast<std::uint64_t>(c + 1));
      const std::int64_t n = total_queries / clients +
                             (c < total_queries % clients ? 1 : 0);
      for (std::int64_t i = 0; i < n; ++i) {
        router.Execute(mix.Sample(rng));
        processed.fetch_add(1, std::memory_order_release);
      }
    });
  }
  for (auto& t : threads) t.join();
  serve_done.store(true, std::memory_order_release);
  if (refresh_thread.joinable()) refresh_thread.join();
  const double wall_s = timer.Seconds();

  if (const auto summary_out = args.Get("summary-out")) {
    obs::MetricsRegistry registry;
    AbsorbRouterStats(registry, router);
    for (int s = 0; s < shards; ++s) {
      AbsorbServerStats(registry, shard_set.primary_server(s));
      AbsorbServerStats(registry, shard_set.replica_server(s));
    }
    obs::WriteTextFile(*summary_out, registry.ToJson());
  }
  const RouterStatsSnapshot stats = router.Stats();
  const std::uint64_t refresh_epochs = shard_set.serving_epoch();
  shard_set.Shutdown();
  std::printf("{\"shards\":%d,\"clients\":%d,\"queries\":%lld,"
              "\"wall_s\":%.4f,\"qps\":%.0f,\"refresh_epochs\":%llu,"
              "\"router\":%s}\n",
              shards, clients, static_cast<long long>(total_queries), wall_s,
              static_cast<double>(total_queries) / wall_s,
              static_cast<unsigned long long>(refresh_epochs),
              stats.ToJson().c_str());
  return 0;
}

int CmdServe(const Args& args) {
  if (!args.Has("bench")) {
    Usage("serve currently requires --bench (replay a synthetic query mix)");
  }
  const ViewStore store(args.Require("cube"));
  const Schema schema = store.LoadSchema();
  const CubeResult cube = store.LoadCube();

  ServerOptions opts;
  opts.workers = args.Number("workers", 4, 1, kMax<int>);
  opts.queue_depth =
      args.Number<std::size_t>("queue-depth", 256, 1, kMax<std::size_t>);
  opts.cache_bytes =
      args.Number<std::size_t>("cache-mb", 64, 0, kMax<std::size_t> >> 20)
      << 20;

  WorkloadSpec wspec;
  wspec.alpha = args.Number("alpha", 1.0, 0.0, kMax<double>);
  wspec.seed = args.Number<std::uint64_t>("seed", 42, 0, kMax<std::uint64_t>);
  const QueryMix mix(cube, schema, wspec);

  const auto total_queries =
      args.Number<std::int64_t>("queries", 20000, 1, kMax<std::int64_t>);
  const int clients = args.Number("clients", 8, 1, kMax<int>);
  const int shards = args.Number("shards", 1, 1, kMax<int>);
  if (shards >= 2) {
    return CmdServeSharded(args, cube, schema, opts, mix, wspec,
                           total_queries, clients, shards);
  }
  if (args.Get("fault-plan")) {
    Usage("serve --fault-plan requires --shards >= 2");
  }
  if (args.Get("refresh-every")) {
    Usage("serve --refresh-every requires --shards >= 2");
  }

  const auto trace_out = args.Get("trace-out");
  const auto summary_out = args.Get("summary-out");
  obs::TraceSink trace_sink;
  if (trace_out) opts.trace = &trace_sink;

  CubeServer server(cube, opts);
  WallTimer timer;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(wspec.seed + 1000003ULL * static_cast<std::uint64_t>(c + 1));
      const std::int64_t n = total_queries / clients +
                             (c < total_queries % clients ? 1 : 0);
      for (std::int64_t i = 0; i < n; ++i) {
        // Closed loop: each client waits for its answer before the next
        // query; rejections (overload) count and move on.
        server.Execute(mix.Sample(rng));
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall_s = timer.Seconds();
  // Absorb before Shutdown: the server (and its histogram) stays alive, and
  // all worker writes happened-before the client joins above.
  if (summary_out) {
    obs::MetricsRegistry registry;
    AbsorbServerStats(registry, server);
    obs::WriteTextFile(*summary_out, registry.ToJson());
  }
  server.Shutdown();
  if (trace_out) {
    obs::WriteTextFile(*trace_out, obs::ChromeTraceJson(trace_sink.Snapshot()));
    std::fprintf(stderr, "trace: %s\n", trace_out->c_str());
  }

  const StatsSnapshot stats = server.Stats();
  std::printf("{\"workers\":%d,\"clients\":%d,\"queries\":%lld,"
              "\"wall_s\":%.4f,\"qps\":%.0f,\"stats\":%s}\n",
              opts.workers, clients,
              static_cast<long long>(total_queries), wall_s,
              static_cast<double>(total_queries) / wall_s,
              stats.ToJson().c_str());
  return 0;
}

// Reads the flags every chaos search shares into `opts`, whose own
// defaults stand for absent flags; `sizes_flag` names the size list
// (--procs for build, --shards for the serving tiers).
template <typename Options>
Options ChaosOptionsFrom(const Args& args, Options opts,
                         const std::string& sizes_flag) {
  opts.plans = args.Number("plans", opts.plans, 1, kMax<int>);
  opts.seed = args.Number<std::uint64_t>("seed", opts.seed, 0,
                                         kMax<std::uint64_t>);
  opts.rows = args.Number<std::uint64_t>("rows", opts.rows, 1,
                                         kMax<std::uint64_t>);
  if constexpr (requires { opts.requests; }) {
    opts.requests = args.Number("requests", opts.requests, 1, kMax<int>);
  }
  if (args.Has(sizes_flag)) opts.sizes = args.NumberList(sizes_flag, 2, kMax<int>);
  opts.verbose = args.Has("verbose");
  return opts;
}

// chaos: the build search, or with --serve / --refresh the serving-tier and
// online-refresh searches. Each tier reads its own flags, and a flag of
// another tier is an error rather than a silently kept default. --fail-out
// lines are "<size> <spec>", where the size is the cluster size or the
// shard count, so the nightly corpus handles every tier uniformly.
int CmdChaos(const Args& args) {
  const auto serving_tier = [&](const std::string& tier) {
    args.AllowOnly({{"plans", "seed", "shards", "rows", "requests", "fail-out"},
                    {"verbose", tier}},
                   "chaos --" + tier);
  };
  chaos::ChaosReport report;
  if (args.Has("refresh")) {
    serving_tier("refresh");
    report = chaos::RunRefreshChaosSearch(
        ChaosOptionsFrom(args, chaos::RefreshChaosOptions{}, "shards"));
  } else if (args.Has("serve")) {
    serving_tier("serve");
    report = chaos::RunServeChaosSearch(
        ChaosOptionsFrom(args, chaos::ServeChaosOptions{}, "shards"));
  } else {
    args.AllowOnly({{"plans", "seed", "procs", "rows", "fail-out"}, {"verbose"}},
                   "the chaos build search");
    report = chaos::RunChaosSearch(
        ChaosOptionsFrom(args, chaos::ChaosOptions{}, "procs"));
  }
  std::printf("%s\n", report.ToJson().c_str());
  if (const auto fail_out = args.Get("fail-out")) {
    if (!report.ok()) {
      std::ofstream os(*fail_out, std::ios::app);
      if (!os.good()) Usage(("cannot write " + *fail_out).c_str());
      for (const auto& f : report.failures) {
        os << f.procs << ' ' << f.plan.ToSpec() << '\n';
      }
      std::fprintf(stderr, "minimal failing plans: %s\n", fail_out->c_str());
    }
  }
  return report.ok() ? 0 : 4;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Usage();
  const std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help" || cmd == "-h") {
    std::fputs(kHelpText, stdout);
    return 0;
  }
  struct Command {
    const char* name;
    int (*run)(const Args&);
    FlagSpec flags;
  };
  const Command commands[] = {
      {"generate",
       CmdGenerate,
       {{"rows", "cards", "alphas", "seed", "out"}, {}}},
      {"build",
       CmdBuild,
       {{"in", "out", "procs", "threads-per-rank", "views", "fraction",
         "gamma", "checkpoint-dir", "fault-plan", "trace-out", "summary-out"},
        {"local-trees"}}},
      {"info", CmdInfo, {{"cube"}, {}}},
      {"query",
       CmdQuery,
       {{"cube", "group-by", "where", "top", "trace-out"}, {"json"}}},
      {"refresh", CmdRefresh, {{"cube", "delta", "snapshot-dir"}, {}}},
      {"serve",
       CmdServe,
       {{"cube", "workers", "clients", "queries", "queue-depth", "cache-mb",
         "alpha", "seed", "trace-out", "summary-out", "shards", "fault-plan",
         "per-try-ms", "retries", "hedge-ms", "breaker-failures",
         "breaker-cooldown-ms", "refresh-every", "refresh-rows",
         "snapshot-dir"},
        {"bench"}}},
      {"chaos",
       CmdChaos,
       {{"plans", "seed", "procs", "rows", "fail-out", "shards", "requests"},
        {"verbose", "serve", "refresh"}}},
  };
  for (const Command& command : commands) {
    if (cmd != command.name) continue;
    const Args args(argc - 2, argv + 2, command.flags);
    try {
      return command.run(args);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  Usage(("unknown command: " + cmd).c_str());
}
