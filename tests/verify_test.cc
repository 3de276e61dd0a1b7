// gtest entry points for the differential correctness harness
// (src/verify/): fault injector semantics, oracle-vs-engine agreement,
// fuzz-seed smoke runs, self-test of the divergence reporting pipeline,
// and replayability of emitted traces.

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "verify/fault_injector.h"
#include "verify/fuzzer.h"
#include "verify/oracle.h"
#include "workload/trace.h"

namespace aggcache {
namespace {

using testing_util::CreateHeaderItemTables;
using testing_util::HeaderItemQuery;
using testing_util::InsertBusinessObject;

class FaultInjectorTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FaultInjector::Global().DisarmAll();
    FaultInjector::Global().ResetCounters();
  }
};

TEST_F(FaultInjectorTest, UnarmedPointNeverFails) {
  EXPECT_OK(FaultInjector::Global().MaybeFail("maintenance.compensate"));
  EXPECT_FALSE(FaultInjector::Global().AnyArmed());
}

TEST_F(FaultInjectorTest, ArmedPointFailsWithTaggedStatus) {
  FaultInjector::Global().Arm("maintenance.compensate", {/*probability=*/1.0});
  Status status = FaultInjector::Global().MaybeFail("maintenance.compensate");
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(FaultInjector::IsInjectedFault(status)) << status.ToString();
  // Other points stay unaffected.
  EXPECT_OK(FaultInjector::Global().MaybeFail("maintenance.fold"));
}

TEST_F(FaultInjectorTest, MaxFiresCapsFailures) {
  FaultInjector::PointConfig config;
  config.probability = 1.0;
  config.max_fires = 2;
  FaultInjector::Global().Arm("storage.merge", config);
  EXPECT_FALSE(FaultInjector::Global().MaybeFail("storage.merge").ok());
  EXPECT_FALSE(FaultInjector::Global().MaybeFail("storage.merge").ok());
  EXPECT_OK(FaultInjector::Global().MaybeFail("storage.merge"));
  FaultInjector::PointStats stats =
      FaultInjector::Global().stats("storage.merge");
  EXPECT_EQ(stats.fired, 2u);
  EXPECT_EQ(stats.hits, 3u);
}

TEST_F(FaultInjectorTest, ArmFromSpecParsesAndDisarms) {
  ASSERT_OK(FaultInjector::Global().ArmFromSpec(
      "maintenance.fold:0.5,storage.merge:1:3"));
  EXPECT_TRUE(FaultInjector::Global().AnyArmed());
  ASSERT_OK(FaultInjector::Global().ArmFromSpec("off"));
  EXPECT_FALSE(FaultInjector::Global().AnyArmed());
  EXPECT_FALSE(FaultInjector::Global().ArmFromSpec("fold:not-a-number").ok());
}

TEST_F(FaultInjectorTest, GenuineErrorIsNotInjected) {
  EXPECT_FALSE(
      FaultInjector::IsInjectedFault(Status::Internal("disk on fire")));
  EXPECT_FALSE(FaultInjector::IsInjectedFault(Status::Ok()));
}

std::vector<AggregateFunction> FunctionsOf(const AggregateQuery& query) {
  std::vector<AggregateFunction> functions;
  for (const AggregateSpec& spec : query.aggregates) {
    functions.push_back(spec.fn);
  }
  return functions;
}

TEST(OracleTest, MatchesEngineOnHeaderItemJoin) {
  Database db;
  Table* header = nullptr;
  Table* item = nullptr;
  CreateHeaderItemTables(&db, &header, &item);
  int64_t next_item_id = 1;
  for (int64_t h = 1; h <= 6; ++h) {
    ASSERT_OK(InsertBusinessObject(&db, header, item, h, 2014 + h % 2,
                                   /*num_items=*/3, /*amount=*/10.5 * h,
                                   &next_item_id));
  }
  ASSERT_OK(db.MergeTables({"Header"}));  // Mixed main/delta visibility.

  AggregateQuery query = HeaderItemQuery();
  AggregateCacheManager cache(&db);
  Transaction txn = db.Begin();
  ASSERT_OK_AND_ASSIGN(AggregateResult expected,
                       OracleExecute(db, query, txn.snapshot()));
  for (ExecutionStrategy strategy :
       {ExecutionStrategy::kUncached, ExecutionStrategy::kCachedFullPruning}) {
    ExecutionOptions options;
    options.strategy = strategy;
    ASSERT_OK_AND_ASSIGN(AggregateResult actual,
                         cache.Execute(query, txn, options));
    EXPECT_EQ(std::nullopt,
              DiffResults(expected, actual, FunctionsOf(query)))
        << ExecutionStrategyToString(strategy);
  }
}

TEST(OracleTest, DiffReportsStaleSnapshot) {
  Database db;
  Table* header = nullptr;
  Table* item = nullptr;
  CreateHeaderItemTables(&db, &header, &item);
  int64_t next_item_id = 1;
  ASSERT_OK(InsertBusinessObject(&db, header, item, 1, 2015, 2, 10.0,
                                 &next_item_id));
  Transaction before = db.Begin();
  ASSERT_OK(InsertBusinessObject(&db, header, item, 2, 2015, 2, 20.0,
                                 &next_item_id));
  Transaction after = db.Begin();

  AggregateQuery query = HeaderItemQuery();
  AggregateCacheManager cache(&db);
  ASSERT_OK_AND_ASSIGN(AggregateResult stale,
                       OracleExecute(db, query, before.snapshot()));
  ASSERT_OK_AND_ASSIGN(AggregateResult fresh,
                       cache.Execute(query, after, ExecutionOptions()));
  auto diff = DiffResults(stale, fresh, FunctionsOf(query));
  ASSERT_TRUE(diff.has_value());
  EXPECT_FALSE(diff->empty());
}

FuzzOptions SmokeOptions() {
  FuzzOptions options;
  options.steps = 30;
  options.check_every = 5;
  return options;
}

TEST(FuzzHarnessTest, CleanSeedsMatchOracle) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    FuzzReport report = RunFuzzSeed(seed, SmokeOptions());
    ASSERT_TRUE(report.ok) << report.Summary() << "\n" << report.trace;
    EXPECT_GT(report.queries_checked, 0u) << report.Summary();
    EXPECT_GT(report.combos_checked, report.queries_checked);
  }
}

TEST(FuzzHarnessTest, FaultSeedsConvergeToOracle) {
  FuzzOptions options = SmokeOptions();
  options.with_faults = true;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    FuzzReport report = RunFuzzSeed(seed, options);
    ASSERT_TRUE(report.ok) << report.Summary() << "\n" << report.trace;
  }
  EXPECT_FALSE(FaultInjector::Global().AnyArmed());
}

TEST(FuzzHarnessTest, SelfTestReportsPlantedDivergence) {
  FuzzOptions options = SmokeOptions();
  options.inject_divergence = true;
  FuzzReport report = RunFuzzSeed(1, options);
  ASSERT_FALSE(report.ok);
  ASSERT_TRUE(report.failure.has_value());
  EXPECT_FALSE(report.failure->where.empty());
  EXPECT_FALSE(report.failure->query_sql.empty());
  EXPECT_FALSE(report.failure->description.empty());
  // The trace must carry the diverging query so the failure replays.
  EXPECT_NE(report.trace.find(report.failure->query_sql), std::string::npos);
}

TEST(FuzzHarnessTest, EmittedTraceReplays) {
  FuzzReport report = RunFuzzSeed(3, SmokeOptions());
  ASSERT_TRUE(report.ok) << report.Summary();
  Database db;
  AggregateCacheManager cache(&db);
  TraceReplayer replayer(&db, &cache);
  ASSERT_OK_AND_ASSIGN(TraceReport replayed,
                       replayer.ReplayString(report.trace));
  EXPECT_EQ(replayed.queries, report.queries_checked);
  EXPECT_GT(replayed.inserts, 0u);
}

TEST(FuzzHarnessTest, FaultTraceReplaysWithSchedule) {
  FuzzOptions options = SmokeOptions();
  options.with_faults = true;
  options.steps = 40;
  FuzzReport report = RunFuzzSeed(2, options);
  ASSERT_TRUE(report.ok) << report.Summary();
  Database db;
  AggregateCacheManager cache(&db);
  TraceReplayer replayer(&db, &cache);
  auto replayed = replayer.ReplayString(report.trace);
  FaultInjector::Global().DisarmAll();
  ASSERT_TRUE(replayed.ok()) << replayed.status() << "\n" << report.trace;
  EXPECT_EQ(replayed->queries, report.queries_checked);
}

}  // namespace
}  // namespace aggcache
