// Tests for src/obs/: recorder semantics, registry arithmetic, exporter
// determinism, and the golden build trace.
//
// The golden file (testdata/obs_build_trace_p2.json) pins the *byte-exact*
// Chrome trace of a fixed 2-rank build: same seed, same simulated clock,
// same JSON. Regenerate deliberately after changing span placement or the
// exporter format:
//
//   SNCUBE_REGEN_GOLDEN=1 ./obs_test --gtest_filter='*GoldenBuildTrace*'
//
// and review the diff like any other code change.
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallel_cube.h"
#include "data/generator.h"
#include "lattice/lattice.h"
#include "net/cluster.h"
#include "obs/export.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace sncube {
namespace {

// Hand-cranked clock: tests advance time explicitly.
class FakeClock final : public obs::SimClockSource {
 public:
  double TraceNowSeconds() const override { return now_s_; }
  std::uint64_t TraceSuperstep() const override { return superstep_; }

  void Advance(double s) { now_s_ += s; }
  void NextSuperstep() { ++superstep_; }

 private:
  double now_s_ = 0;
  std::uint64_t superstep_ = 0;
};

// ---------------------------------------------------------------------------
// TraceRecorder

TEST(TraceRecorder, RecordsNestedSpansWithParentAndDepth) {
  FakeClock clock;
  obs::TraceRecorder rec(3, &clock);
  const auto outer = rec.OpenSpan("outer");
  clock.Advance(1.0);
  const auto inner = rec.OpenSpan("inner", 7);
  clock.Advance(0.5);
  rec.CloseSpan(inner);
  rec.CloseSpan(outer);

  const obs::RankTrace t = rec.Finish();
  EXPECT_EQ(t.rank, 3);
  ASSERT_EQ(t.spans.size(), 2u);
  EXPECT_STREQ(t.spans[0].name, "outer");
  EXPECT_EQ(t.spans[0].parent, -1);
  EXPECT_EQ(t.spans[0].depth, 0);
  EXPECT_DOUBLE_EQ(t.spans[0].begin_s, 0.0);
  EXPECT_DOUBLE_EQ(t.spans[0].end_s, 1.5);
  EXPECT_STREQ(t.spans[1].name, "inner");
  EXPECT_EQ(t.spans[1].index, 7);
  EXPECT_EQ(t.spans[1].parent, 0);
  EXPECT_EQ(t.spans[1].depth, 1);
  EXPECT_DOUBLE_EQ(t.spans[1].begin_s, 1.0);
}

TEST(TraceRecorder, FinishForceClosesOpenSpansAndResets) {
  FakeClock clock;
  obs::TraceRecorder rec(0, &clock);
  rec.OpenSpan("left-open");
  clock.Advance(2.0);
  const obs::RankTrace t = rec.Finish();
  ASSERT_EQ(t.spans.size(), 1u);
  EXPECT_DOUBLE_EQ(t.spans[0].end_s, 2.0);
  EXPECT_DOUBLE_EQ(t.end_time_s, 2.0);
  // Recorder is reusable after Finish.
  EXPECT_EQ(rec.span_count(), 0u);
  EXPECT_EQ(rec.open_depth(), 0u);
}

TEST(TraceRecorder, RecordsCommPerSuperstep) {
  FakeClock clock;
  obs::TraceRecorder rec(0, &clock);
  clock.NextSuperstep();  // mimic SyncPrologue's pre-increment
  clock.Advance(0.25);
  rec.RecordComm(100, 40);
  const obs::RankTrace t = rec.Finish();
  ASSERT_EQ(t.comms.size(), 1u);
  EXPECT_EQ(t.comms[0].superstep, 0u);  // counter - 1, matching abort reports
  EXPECT_DOUBLE_EQ(t.comms[0].time_s, 0.25);
  EXPECT_EQ(t.comms[0].bytes_out, 100u);
  EXPECT_EQ(t.comms[0].bytes_in, 40u);
}

TEST(ScopedSpan, NoRecorderInstalledRecordsNothing) {
  ASSERT_EQ(obs::CurrentRecorder(), nullptr);
  {
    SNCUBE_TRACE_SPAN("ignored");
    SNCUBE_TRACE_SPAN_IDX("also-ignored", 4);
  }
  EXPECT_EQ(obs::CurrentRecorder(), nullptr);
}

TEST(ScopedSpan, ThreadRecorderScopeInstallsAndRestores) {
  FakeClock clock;
  obs::TraceRecorder rec(0, &clock);
  {
    obs::ThreadRecorderScope scope(&rec);
    ASSERT_EQ(obs::CurrentRecorder(), &rec);
    SNCUBE_TRACE_SPAN("via-macro");
    clock.Advance(1.0);
  }
  EXPECT_EQ(obs::CurrentRecorder(), nullptr);
  const obs::RankTrace t = rec.Finish();
  ASSERT_EQ(t.spans.size(), 1u);
  EXPECT_STREQ(t.spans[0].name, "via-macro");
}

TEST(PhaseSpan, SwitchProducesSiblings) {
  FakeClock clock;
  obs::TraceRecorder rec(0, &clock);
  obs::ThreadRecorderScope scope(&rec);
  {
    SNCUBE_TRACE_SPAN("parent");
    obs::PhaseSpan step;
    step.Switch("a", 0);
    clock.Advance(1.0);
    step.Switch("b", 0);
    clock.Advance(1.0);
  }
  const obs::RankTrace t = rec.Finish();
  ASSERT_EQ(t.spans.size(), 3u);
  EXPECT_EQ(t.spans[1].parent, 0);
  EXPECT_EQ(t.spans[2].parent, 0);  // sibling of "a", not child
  EXPECT_DOUBLE_EQ(t.spans[1].end_s, t.spans[2].begin_s);
}

TEST(TraceSink, SnapshotSortsByRank) {
  FakeClock clock;
  obs::TraceSink sink;
  for (int rank : {2, 0, 1}) {
    obs::TraceRecorder rec(rank, &clock);
    sink.Absorb(rec.Finish());
  }
  const auto ranks = sink.Snapshot();
  ASSERT_EQ(ranks.size(), 3u);
  EXPECT_EQ(ranks[0].rank, 0);
  EXPECT_EQ(ranks[2].rank, 2);
  sink.Clear();
  EXPECT_TRUE(sink.Empty());
}

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(MetricsRegistry, CountersGaugesHistograms) {
  obs::MetricsRegistry reg;
  reg.GetCounter("net.bytes_sent").Add(100);
  reg.GetCounter("net.bytes_sent").Increment();
  EXPECT_EQ(reg.GetCounter("net.bytes_sent").value(), 101u);

  reg.GetGauge("run.ranks").Set(4);
  reg.GetGauge("run.ranks").Add(2);
  EXPECT_DOUBLE_EQ(reg.GetGauge("run.ranks").value(), 6.0);

  obs::Histogram& h = reg.GetHistogram("serve.latency_us");
  for (int i = 1; i <= 100; ++i) h.Record(static_cast<std::uint64_t>(i));
  const obs::HistogramSnapshot snap = h.Read();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_EQ(snap.max, 100u);
  EXPECT_DOUBLE_EQ(snap.mean(), 50.5);
  EXPECT_GT(snap.p99, snap.p50);
}

TEST(MetricsRegistry, HistogramMergeCarriesCountsSumAndMax) {
  obs::Histogram a;
  obs::Histogram b;
  obs::Histogram both;
  for (std::uint64_t v : {0u, 3u, 70u, 900u}) {
    a.Record(v);
    both.Record(v);
  }
  for (std::uint64_t v : {5u, 5000u}) {
    b.Record(v);
    both.Record(v);
  }
  a.Merge(b);
  const obs::HistogramSnapshot merged = a.Read();
  const obs::HistogramSnapshot direct = both.Read();
  EXPECT_EQ(merged.count, direct.count);
  EXPECT_EQ(merged.sum, direct.sum);
  EXPECT_EQ(merged.max, 5000u);
  EXPECT_DOUBLE_EQ(merged.p50, direct.p50);
  EXPECT_DOUBLE_EQ(merged.p99, direct.p99);
}

TEST(MetricsRegistry, ToJsonIsSortedAndDeterministic) {
  obs::MetricsRegistry reg;
  reg.GetCounter("zzz").Add(1);
  reg.GetCounter("aaa").Add(2);
  reg.GetGauge("mid").Set(0.5);
  const std::string json = reg.ToJson();
  EXPECT_LT(json.find("\"aaa\""), json.find("\"zzz\""));
  EXPECT_EQ(json, reg.ToJson());
}

// ---------------------------------------------------------------------------
// Exporters over a real 2-rank build

struct BuildTrace {
  std::vector<obs::RankTrace> ranks;
  std::vector<RankStats> stats;
  double sim_time_s = 0;
};

BuildTrace TracedBuild() {
  DatasetSpec spec;
  spec.rows = 600;
  spec.cardinalities = {8, 6, 4};
  spec.seed = 5;
  const Schema schema = spec.MakeSchema();
  const auto selected = AllViews(3);

  Cluster cluster(2);
  obs::TraceSink sink;
  cluster.set_trace_sink(&sink);
  cluster.Run([&](Comm& comm) {
    const Relation raw = GenerateSlice(spec, 2, comm.rank());
    BuildParallelCube(comm, raw, schema, selected);
  });
  BuildTrace out;
  out.ranks = sink.Snapshot();
  out.stats = cluster.stats();
  out.sim_time_s = cluster.SimTimeSeconds();
  return out;
}

TEST(Export, GoldenBuildTrace) {
  const std::string json = obs::ChromeTraceJson(TracedBuild().ranks);
  const std::string path =
      std::string(SNCUBE_TESTDATA_DIR) + "/obs_build_trace_p2.json";
  if (std::getenv("SNCUBE_REGEN_GOLDEN") != nullptr) {
    obs::WriteTextFile(path, json);
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream is(path);
  ASSERT_TRUE(is.good()) << "missing golden file " << path;
  std::stringstream ss;
  ss << is.rdbuf();
  // Byte-identical: same seed -> same simulated clock -> same trace.
  EXPECT_EQ(json, ss.str());
}

TEST(Export, BuildTraceIsDeterministicAcrossRuns) {
  const std::string a = obs::ChromeTraceJson(TracedBuild().ranks);
  const std::string b = obs::ChromeTraceJson(TracedBuild().ranks);
  EXPECT_EQ(a, b);
}

TEST(Export, BuildTraceCoversAtLeast95PercentOfRunTime) {
  const BuildTrace t = TracedBuild();
  EXPECT_GE(obs::SpanCoverage(t.ranks), 0.95);
}

TEST(Export, RunSummaryHasPhaseMatrixSuperstepsAndMetrics) {
  const BuildTrace t = TracedBuild();
  obs::MetricsRegistry reg;
  obs::AbsorbRunStats(reg, t.stats, t.sim_time_s);
  EXPECT_EQ(reg.GetGauge("run.ranks").value(), 2.0);
  EXPECT_GT(reg.GetCounter("net.bytes_sent").value(), 0u);

  const std::string json =
      obs::RunSummaryJson(t.stats, t.sim_time_s, &t.ranks, &reg);
  EXPECT_NE(json.find("\"sim_time_s\""), std::string::npos);
  EXPECT_NE(json.find("\"ranks\":2"), std::string::npos);
  EXPECT_NE(json.find("\"partition/0\""), std::string::npos);
  EXPECT_NE(json.find("\"per_rank_s\""), std::string::npos);
  EXPECT_NE(json.find("\"supersteps\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  // Null sections are omitted, not emitted empty.
  const std::string bare = obs::RunSummaryJson(t.stats, t.sim_time_s,
                                               nullptr, nullptr);
  EXPECT_EQ(bare.find("\"supersteps\""), std::string::npos);
  EXPECT_EQ(bare.find("\"metrics\""), std::string::npos);
}

TEST(Export, TraceCommVolumeMatchesClusterBytes) {
  const BuildTrace t = TracedBuild();
  std::uint64_t traced = 0;
  for (const auto& rank : t.ranks) {
    for (const auto& c : rank.comms) traced += c.bytes_out;
  }
  std::uint64_t counted = 0;
  for (const auto& rs : t.stats) counted += rs.Total().bytes_sent;
  EXPECT_EQ(traced, counted);
}

TEST(Export, UntracedBuildRecordsNoSpans) {
  // Same build without a sink: the span sites must stay inert.
  DatasetSpec spec;
  spec.rows = 200;
  spec.cardinalities = {4, 4};
  spec.seed = 5;
  const Schema schema = spec.MakeSchema();
  Cluster cluster(2);
  obs::TraceSink sink;  // never attached
  cluster.Run([&](Comm& comm) {
    EXPECT_EQ(obs::CurrentRecorder(), nullptr);
    const Relation raw = GenerateSlice(spec, 2, comm.rank());
    BuildParallelCube(comm, raw, schema, AllViews(2));
  });
  EXPECT_TRUE(sink.Empty());
}

}  // namespace
}  // namespace sncube
