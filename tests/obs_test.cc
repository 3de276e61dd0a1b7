// Tests for the metrics registry (src/obs/metrics_registry.h): histogram
// bucket arithmetic at the power-of-two boundaries, counter/gauge basics,
// the Prometheus and JSON expositions (golden), and the schema of the
// engine-wide metric handles (golden — CI renders these and diffs).

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/engine_metrics.h"
#include "obs/metrics_registry.h"

namespace aggcache {
namespace {

TEST(HistogramTest, BucketBoundaries) {
  // Bucket i holds value <= 2^i: 0 and 1 land in bucket 0 (le="1"), each
  // exact power lands in its own bucket, each power + 1 in the next.
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 0u);
  EXPECT_EQ(Histogram::BucketIndex(2), 1u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 2u);
  EXPECT_EQ(Histogram::BucketIndex(5), 3u);
  EXPECT_EQ(Histogram::BucketIndex(8), 3u);
  EXPECT_EQ(Histogram::BucketIndex(9), 4u);
  for (size_t i = 0; i + 1 < Histogram::kNumBuckets; ++i) {
    uint64_t bound = Histogram::BucketUpperBound(i);
    EXPECT_EQ(bound, uint64_t{1} << i);
    EXPECT_EQ(Histogram::BucketIndex(bound), i) << "bound " << bound;
    if (i + 2 < Histogram::kNumBuckets) {
      EXPECT_EQ(Histogram::BucketIndex(bound + 1), i + 1)
          << "bound+1 " << bound + 1;
    }
  }
  // The last finite bucket is le="2^30"; anything above overflows to +Inf.
  uint64_t last_finite =
      Histogram::BucketUpperBound(Histogram::kNumBuckets - 2);
  EXPECT_EQ(last_finite, uint64_t{1} << 30);
  EXPECT_EQ(Histogram::BucketIndex(last_finite), Histogram::kNumBuckets - 2);
  EXPECT_EQ(Histogram::BucketIndex(last_finite + 1),
            Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::BucketIndex(UINT64_MAX), Histogram::kNumBuckets - 1);
}

TEST(HistogramTest, ObserveSumCountReset) {
  Histogram h;
  h.Observe(0);
  h.Observe(1);
  h.Observe(2);
  h.Observe(1000);
  h.Observe((uint64_t{1} << 30) + 1);
  EXPECT_EQ(h.TotalCount(), 5u);
  EXPECT_EQ(h.Sum(), 0u + 1 + 2 + 1000 + (uint64_t{1} << 30) + 1);
  EXPECT_EQ(h.BucketCount(0), 2u);    // 0 and 1
  EXPECT_EQ(h.BucketCount(1), 1u);    // 2
  EXPECT_EQ(h.BucketCount(10), 1u);   // 1000 <= 1024
  EXPECT_EQ(h.BucketCount(Histogram::kNumBuckets - 1), 1u);  // overflow
  h.Reset();
  EXPECT_EQ(h.TotalCount(), 0u);
  EXPECT_EQ(h.Sum(), 0u);
  EXPECT_EQ(h.BucketCount(0), 0u);
}

TEST(HistogramTest, ValueAtQuantileEmptyAndClamping) {
  Histogram h;
  EXPECT_EQ(h.ValueAtQuantile(0.5), 0.0);

  h.Observe(1);
  // Out-of-range quantiles clamp rather than extrapolate.
  EXPECT_EQ(h.ValueAtQuantile(-1.0), h.ValueAtQuantile(0.0));
  EXPECT_EQ(h.ValueAtQuantile(2.0), h.ValueAtQuantile(1.0));
}

TEST(HistogramTest, ValueAtQuantileInterpolatesWithinBucket) {
  // Five observations of 2 all land in bucket 1, which spans (1, 2]:
  // quantiles interpolate linearly across the bucket's width.
  Histogram h;
  for (int i = 0; i < 5; ++i) h.Observe(2);
  EXPECT_DOUBLE_EQ(h.ValueAtQuantile(1.0), 2.0);
  EXPECT_DOUBLE_EQ(h.ValueAtQuantile(0.5), 1.5);
  EXPECT_DOUBLE_EQ(h.ValueAtQuantile(0.1), 1.1);
}

TEST(HistogramTest, ValueAtQuantileCrossesBucketBoundaries) {
  // 10 values in bucket 0 ([0,1]) and 10 in bucket 2 ((2,4]): the median
  // sits exactly at bucket 0's upper edge, the p75 halfway into bucket 2.
  Histogram h;
  for (int i = 0; i < 10; ++i) h.Observe(1);
  for (int i = 0; i < 10; ++i) h.Observe(4);
  EXPECT_DOUBLE_EQ(h.ValueAtQuantile(0.25), 0.5);
  EXPECT_DOUBLE_EQ(h.ValueAtQuantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(h.ValueAtQuantile(0.75), 3.0);
  EXPECT_DOUBLE_EQ(h.ValueAtQuantile(1.0), 4.0);
}

TEST(HistogramTest, ValueAtQuantileOverflowBucketReportsLastFiniteBound) {
  // The +Inf bucket has no upper edge to interpolate toward; quantiles that
  // land there report the last finite bound (2^30) as a lower-bound
  // estimate instead of inventing a number.
  Histogram h;
  h.Observe(UINT64_MAX);
  const double last_finite = static_cast<double>(
      Histogram::BucketUpperBound(Histogram::kNumBuckets - 2));
  EXPECT_DOUBLE_EQ(h.ValueAtQuantile(0.5), last_finite);
  EXPECT_DOUBLE_EQ(h.ValueAtQuantile(1.0), last_finite);
}

TEST(MetricsRegistryTest, SnapshotValuesCoversAllKinds) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("reqs_total", "Requests");
  Gauge* g = registry.GetGauge("depth", "Depth");
  Histogram* h = registry.GetHistogram("lat_us", "Latency");
  c->Increment(7);
  g->Set(-3);
  h->Observe(10);
  h->Observe(20);

  auto snapshot = registry.SnapshotValues();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot.at("reqs_total").kind, MetricsRegistry::Kind::kCounter);
  EXPECT_EQ(snapshot.at("reqs_total").value, 7);
  EXPECT_EQ(snapshot.at("depth").kind, MetricsRegistry::Kind::kGauge);
  EXPECT_EQ(snapshot.at("depth").value, -3);
  EXPECT_EQ(snapshot.at("lat_us").kind, MetricsRegistry::Kind::kHistogram);
  EXPECT_EQ(snapshot.at("lat_us").count, 2u);
  EXPECT_EQ(snapshot.at("lat_us").sum, 30u);
}

TEST(MetricsRegistryTest, CounterAndGaugeBasics) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("c_total", "a counter");
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->Value(), 42u);
  // Same name returns the same object; help is first-registration-wins.
  EXPECT_EQ(registry.GetCounter("c_total", "ignored"), c);

  Gauge* g = registry.GetGauge("g", "a gauge");
  g->Set(7);
  g->Add(-10);
  EXPECT_EQ(g->Value(), -3);
  EXPECT_EQ(registry.num_metrics(), 2u);

  registry.ResetAllForTest();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(g->Value(), 0);
}

TEST(MetricsRegistryTest, KindMismatchAborts) {
  MetricsRegistry registry;
  registry.GetCounter("dual", "first as counter");
  EXPECT_DEATH(registry.GetGauge("dual", "now as gauge"),
               "re-registered as a different kind");
}

TEST(MetricsRegistryTest, PrometheusGolden) {
  MetricsRegistry registry;
  registry.GetCounter("zz_requests_total", "Requests served")->Increment(3);
  registry.GetGauge("aa_depth", "Queue depth")->Set(-2);
  Histogram* h = registry.GetHistogram("mm_latency_us", "Latency");
  h->Observe(1);
  h->Observe(3);
  h->Observe(3);

  std::string rendered = registry.RenderPrometheus();
  // Map order: aa_depth, mm_latency_us, zz_requests_total. Histogram
  // buckets are cumulative; value 1 -> le="1", the two 3s -> le="4".
  std::istringstream lines(rendered);
  std::string line;
  std::vector<std::string> got;
  while (std::getline(lines, line)) got.push_back(line);
  ASSERT_GE(got.size(), 6u);
  EXPECT_EQ(got[0], "# HELP aa_depth Queue depth");
  EXPECT_EQ(got[1], "# TYPE aa_depth gauge");
  EXPECT_EQ(got[2], "aa_depth -2");
  EXPECT_EQ(got[3], "# HELP mm_latency_us Latency");
  EXPECT_EQ(got[4], "# TYPE mm_latency_us histogram");
  EXPECT_EQ(got[5], "mm_latency_us_bucket{le=\"1\"} 1");
  EXPECT_EQ(got[6], "mm_latency_us_bucket{le=\"2\"} 1");
  EXPECT_EQ(got[7], "mm_latency_us_bucket{le=\"4\"} 3");
  // Every later bucket is cumulative at 3, through +Inf.
  size_t inf_index = 5 + Histogram::kNumBuckets - 1;
  EXPECT_EQ(got[inf_index], "mm_latency_us_bucket{le=\"+Inf\"} 3");
  EXPECT_EQ(got[inf_index + 1], "mm_latency_us_sum 7");
  EXPECT_EQ(got[inf_index + 2], "mm_latency_us_count 3");
  EXPECT_EQ(got[inf_index + 3], "# HELP zz_requests_total Requests served");
  EXPECT_EQ(got[inf_index + 4], "# TYPE zz_requests_total counter");
  EXPECT_EQ(got[inf_index + 5], "zz_requests_total 3");
  EXPECT_EQ(got.size(), inf_index + 6);
}

TEST(MetricsRegistryTest, JsonGolden) {
  MetricsRegistry registry;
  registry.GetCounter("requests_total", "Requests \"served\"")->Increment(2);
  registry.GetGauge("depth", "Depth")->Set(5);
  std::string rendered = registry.RenderJson();
  EXPECT_EQ(rendered,
            "{\"depth\":{\"type\":\"gauge\",\"value\":5},"
            "\"requests_total\":{\"type\":\"counter\",\"value\":2}}");
}

TEST(MetricsRegistryTest, JsonHistogramShape) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("lat", "Latency");
  h->Observe(4);
  std::string rendered = registry.RenderJson();
  EXPECT_NE(rendered.find("\"lat\":{\"type\":\"histogram\",\"count\":1,"
                          "\"sum\":4,\"buckets\":[{\"le\":\"1\",\"count\":0},"
                          "{\"le\":\"2\",\"count\":0},"
                          "{\"le\":\"4\",\"count\":1}"),
            std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("{\"le\":\"+Inf\",\"count\":1}]}"),
            std::string::npos)
      << rendered;
}

// The engine's metric inventory: names and kinds are part of the
// observability contract (dashboards and the CI golden check key on them).
TEST(EngineMetricsTest, SchemaGolden) {
  EngineMetrics::Get();  // Ensure every engine metric is registered.
  std::string rendered = MetricsRegistry::Global().RenderPrometheus();
  std::vector<std::string> type_lines;
  std::istringstream lines(rendered);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("# TYPE ", 0) == 0) type_lines.push_back(line);
  }
  const std::vector<std::string> expected = {
      "# TYPE aggcache_active_queries gauge",
      "# TYPE aggcache_admission_admitted_total counter",
      "# TYPE aggcache_admission_queue_waits_total counter",
      "# TYPE aggcache_admission_rejects_capacity_total counter",
      "# TYPE aggcache_admission_rejects_timeout_total counter",
      "# TYPE aggcache_admission_running gauge",
      "# TYPE aggcache_admission_wait_us histogram",
      "# TYPE aggcache_build_info gauge",
      "# TYPE aggcache_cache_admission_rejects_total counter",
      "# TYPE aggcache_cache_build_us histogram",
      "# TYPE aggcache_cache_delta_comp_us histogram",
      "# TYPE aggcache_cache_evictions_total counter",
      "# TYPE aggcache_cache_hits_total counter",
      "# TYPE aggcache_cache_lookups_total counter",
      "# TYPE aggcache_cache_main_comp_us histogram",
      "# TYPE aggcache_cache_memo_resets_invalidation_total counter",
      "# TYPE aggcache_cache_memo_resets_merge_total counter",
      "# TYPE aggcache_cache_memo_resets_older_snapshot_total counter",
      "# TYPE aggcache_cache_memo_resets_rebuild_total counter",
      "# TYPE aggcache_cache_memo_resets_unstable_rows_total counter",
      "# TYPE aggcache_cache_misses_total counter",
      "# TYPE aggcache_cache_rebuilds_total counter",
      "# TYPE aggcache_cache_singleflight_waits_total counter",
      "# TYPE aggcache_cache_uncached_fallbacks_total counter",
      "# TYPE aggcache_checkpoint_us histogram",
      "# TYPE aggcache_checkpoints_skipped_total counter",
      "# TYPE aggcache_checkpoints_total counter",
      "# TYPE aggcache_degraded_flips_total counter",
      "# TYPE aggcache_degraded_mode gauge",
      "# TYPE aggcache_entry_comp_overrun_us_total counter",
      "# TYPE aggcache_entry_delta_rows_total counter",
      "# TYPE aggcache_entry_hit_us histogram",
      "# TYPE aggcache_entry_saved_us_total counter",
      "# TYPE aggcache_executor_code_joins_total counter",
      "# TYPE aggcache_executor_fallback_groupings_total counter",
      "# TYPE aggcache_executor_packed_groupings_total counter",
      "# TYPE aggcache_executor_rows_scanned_total counter",
      "# TYPE aggcache_executor_rows_selected_total counter",
      "# TYPE aggcache_executor_selection_batches_total counter",
      "# TYPE aggcache_executor_subjoins_executed_total counter",
      "# TYPE aggcache_executor_tuples_joined_total counter",
      "# TYPE aggcache_mem_pressure_rejects_total counter",
      "# TYPE aggcache_mem_reserved_bytes gauge",
      "# TYPE aggcache_mem_reserved_hwm_bytes gauge",
      "# TYPE aggcache_merge_daemon_aborts_total counter",
      "# TYPE aggcache_merge_daemon_attempts_total counter",
      "# TYPE aggcache_merge_daemon_backoff_ms_total counter",
      "# TYPE aggcache_merge_daemon_commits_total counter",
      "# TYPE aggcache_merge_daemon_pressure_yields_total counter",
      "# TYPE aggcache_merge_daemon_ticks_total counter",
      "# TYPE aggcache_perf_counters_unavailable gauge",
      "# TYPE aggcache_pool_queue_depth gauge",
      "# TYPE aggcache_pool_task_us histogram",
      "# TYPE aggcache_pool_tasks_total counter",
      "# TYPE aggcache_pruner_considered_total counter",
      "# TYPE aggcache_pruner_pruned_aging_total counter",
      "# TYPE aggcache_pruner_pruned_empty_total counter",
      "# TYPE aggcache_pruner_pruned_tid_range_total counter",
      "# TYPE aggcache_pushdown_predicates_total counter",
      "# TYPE aggcache_query_cancellations_total counter",
      "# TYPE aggcache_query_deadline_aborts_total counter",
      "# TYPE aggcache_query_mem_aborts_total counter",
      "# TYPE aggcache_query_registrations_total counter",
      "# TYPE aggcache_recovery_discarded_scopes_total counter",
      "# TYPE aggcache_recovery_replay_us histogram",
      "# TYPE aggcache_recovery_replayed_records_total counter",
      "# TYPE aggcache_recovery_warm_admissions_total counter",
      "# TYPE aggcache_remote_cancellations_total counter",
      "# TYPE aggcache_slow_queries_total counter",
      "# TYPE aggcache_wal_appends_total counter",
      "# TYPE aggcache_wal_bytes_total counter",
      "# TYPE aggcache_wal_sync_us histogram",
      "# TYPE aggcache_wal_syncs_total counter",
  };
  EXPECT_EQ(type_lines, expected);
}

// The EngineMetrics handle must hand out registry-owned pointers — the
// lock-free update contract depends on their stability.
TEST(EngineMetricsTest, HandlesAreStableRegistryPointers) {
  const EngineMetrics& a = EngineMetrics::Get();
  const EngineMetrics& b = EngineMetrics::Get();
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.cache_lookups,
            MetricsRegistry::Global().GetCounter(
                "aggcache_cache_lookups_total", ""));
  uint64_t before = a.cache_lookups->Value();
  a.cache_lookups->Increment();
  EXPECT_EQ(b.cache_lookups->Value(), before + 1);
}

}  // namespace
}  // namespace aggcache
