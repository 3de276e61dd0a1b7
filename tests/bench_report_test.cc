// Tests for the structured benchmark report (bench/bench_report.h):
// nearest-rank latency summaries, the BENCH_*.json schema (golden —
// tools/bench_diff and CI parse these files), and the BenchContext flag
// grammar shared by every bench binary.

#include <cstdlib>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "bench/bench_report.h"
#include "obs/engine_metrics.h"
#include "obs/metrics_registry.h"

namespace aggcache {
namespace {

TEST(SummarizeLatenciesTest, NearestRankQuantiles) {
  LatencyStats stats = SummarizeLatencies({5.0, 1.0, 3.0, 2.0, 4.0});
  EXPECT_EQ(stats.reps, 5);
  EXPECT_DOUBLE_EQ(stats.p5_ms, 1.0);
  EXPECT_DOUBLE_EQ(stats.median_ms, 3.0);
  EXPECT_DOUBLE_EQ(stats.p95_ms, 5.0);
}

TEST(SummarizeLatenciesTest, SingleAndEmptyInputs) {
  LatencyStats one = SummarizeLatencies({7.5});
  EXPECT_EQ(one.reps, 1);
  EXPECT_DOUBLE_EQ(one.p5_ms, 7.5);
  EXPECT_DOUBLE_EQ(one.median_ms, 7.5);
  EXPECT_DOUBLE_EQ(one.p95_ms, 7.5);

  LatencyStats none = SummarizeLatencies({});
  EXPECT_EQ(none.reps, 0);
  EXPECT_DOUBLE_EQ(none.median_ms, 0.0);
}

TEST(BenchReportTest, JsonSchemaGolden) {
  // Byte-exact golden of the v1 schema. tools/bench_diff, the CI perf job
  // and any dashboards parse this format — change it only with a version
  // bump and a matching bench_diff update.
  BenchReport report("unit_scenario");
  report.SetConfig("threads", int64_t{4});
  report.SetConfig("quick", true);
  LatencyStats stats;
  stats.p5_ms = 1.25;
  stats.median_ms = 2.5;
  stats.p95_ms = 4.75;
  stats.reps = 5;
  report.AddLatency("query_ms", {{"strategy", "uncached"}, {"year", "2013"}},
                    stats);
  report.AddScalar("cache_bytes", {}, 4096.0, "bytes");
  // No SnapshotMetricsBaseline/CaptureMetricsDelta: metrics_delta renders
  // empty, keeping this golden independent of other tests' registry noise.
  EXPECT_EQ(report.ToJson(),
            "{\"schema_version\":1,"
            "\"scenario\":\"unit_scenario\","
            "\"config\":{\"quick\":\"true\",\"threads\":\"4\"},"
            "\"samples\":["
            "{\"name\":\"query_ms\","
            "\"labels\":{\"strategy\":\"uncached\",\"year\":\"2013\"},"
            "\"kind\":\"latency\",\"reps\":5,"
            "\"p5_ms\":1.25,\"median_ms\":2.5,\"p95_ms\":4.75},"
            "{\"name\":\"cache_bytes\",\"labels\":{},"
            "\"kind\":\"scalar\",\"value\":4096,\"unit\":\"bytes\"}"
            "],"
            "\"metrics_delta\":{}}");
}

TEST(BenchReportTest, MetricsDeltaOmitsUnchangedMetrics) {
  // The delta spans baseline..capture; metrics untouched in between must
  // not clutter the report. Engine metrics are reused rather than
  // registering test-only names: EngineMetricsTest.SchemaGolden asserts
  // the global registry's exact metric set.
  const EngineMetrics& metrics = EngineMetrics::Get();

  BenchReport report("delta_scenario");
  report.SnapshotMetricsBaseline();
  metrics.cache_lookups->Increment(3);
  report.CaptureMetricsDelta();

  std::string json = report.ToJson();
  EXPECT_NE(json.find("\"aggcache_cache_lookups_total\":"
                      "{\"kind\":\"counter\",\"delta\":3}"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find("aggcache_cache_evictions_total"), std::string::npos)
      << json;
}

TEST(BenchContextTest, ParsesJsonAndQuickFlags) {
  const char* argv[] = {"bench", "--quick", "--json=/tmp/out/", "--other"};
  BenchContext ctx(4, const_cast<char**>(argv), "ctx_scenario");
  EXPECT_TRUE(ctx.quick());
  EXPECT_TRUE(ctx.json_requested());
  EXPECT_EQ(ctx.json_path(), "/tmp/out/BENCH_ctx_scenario.json");
  EXPECT_EQ(ctx.QuickOr(1, 100), 1);
}

TEST(BenchContextTest, BareJsonFlagUsesWorkingDirectory) {
  const char* argv[] = {"bench", "--json"};
  BenchContext ctx(2, const_cast<char**>(argv), "cwd_scenario");
  EXPECT_EQ(ctx.json_path(), "BENCH_cwd_scenario.json");
  EXPECT_FALSE(ctx.quick());
  EXPECT_EQ(ctx.QuickOr(1, 100), 100);
}

TEST(BenchContextTest, EnvironmentDrivesFlagsAndArgvWins) {
  setenv("AGGCACHE_BENCH_JSON", "/tmp/envdir/", 1);
  setenv("AGGCACHE_BENCH_QUICK", "1", 1);
  {
    const char* argv[] = {"bench"};
    BenchContext ctx(1, const_cast<char**>(argv), "env_scenario");
    EXPECT_TRUE(ctx.quick());
    EXPECT_EQ(ctx.json_path(), "/tmp/envdir/BENCH_env_scenario.json");
  }
  {
    // Explicit argv overrides the environment's directory.
    const char* argv[] = {"bench", "--json=exact.json"};
    BenchContext ctx(2, const_cast<char**>(argv), "env_scenario");
    EXPECT_EQ(ctx.json_path(), "exact.json");
  }
  setenv("AGGCACHE_BENCH_JSON", "off", 1);
  {
    const char* argv[] = {"bench"};
    BenchContext ctx(1, const_cast<char**>(argv), "env_scenario");
    EXPECT_FALSE(ctx.json_requested());
  }
  unsetenv("AGGCACHE_BENCH_JSON");
  unsetenv("AGGCACHE_BENCH_QUICK");
}

TEST(BenchContextTest, RepsOverrideFromEnvironment) {
  const char* argv[] = {"bench", "--quick"};
  {
    BenchContext ctx(2, const_cast<char**>(argv), "reps_scenario");
    EXPECT_EQ(ctx.Reps(3, 50), 3);
  }
  setenv("AGGCACHE_BENCH_REPS", "21", 1);
  {
    // The override wins in both quick and full protocols.
    BenchContext quick_ctx(2, const_cast<char**>(argv), "reps_scenario");
    EXPECT_EQ(quick_ctx.Reps(3, 50), 21);
    const char* full_argv[] = {"bench"};
    BenchContext full_ctx(1, const_cast<char**>(full_argv), "reps_scenario");
    EXPECT_EQ(full_ctx.Reps(3, 50), 21);
  }
  unsetenv("AGGCACHE_BENCH_REPS");
}

}  // namespace
}  // namespace aggcache
