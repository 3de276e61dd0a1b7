#include "storage/recovery.h"

#include <filesystem>
#include <optional>

#include "cache/aggregate_cache_manager.h"
#include "gtest/gtest.h"
#include "obs/engine_metrics.h"
#include "obs/metrics_registry.h"
#include "storage/merge_daemon.h"
#include "tests/test_util.h"

namespace aggcache {
namespace {

/// Each test gets its own durable directory under the build tree and drives
/// full engine lifecycles through it: open → mutate → (crash | clean close)
/// → reopen into a fresh Database, asserting the recovered state.
class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path("recovery_test_data") /
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }

  /// Opens `dir_` into a fresh engine generation, replacing the previous
  /// one. Returns the recovery report of the open.
  const RecoveryReport& Reopen(WalSyncPolicy policy = WalSyncPolicy::kSync) {
    durability_.reset();
    db_ = std::make_unique<Database>();
    DurabilityOptions options;
    options.wal_policy = policy;
    auto opened = DurabilityManager::Open(dir_.string(), db_.get(), options);
    AGGCACHE_CHECK(opened.ok()) << opened.status();
    durability_ = std::move(opened).value();
    return durability_->recovery_report();
  }

  /// Simulates a kill: nothing unwritten survives, locks release.
  void Crash() { durability_->SimulateCrash(); }

  /// Clean shutdown: the destructor closes the WAL after its last sync.
  void Close() {
    durability_.reset();
    db_.reset();
  }

  Table* GetTable(const std::string& name) {
    auto table_or = db_->GetTable(name);
    AGGCACHE_CHECK(table_or.ok()) << table_or.status();
    return table_or.value();
  }

  size_t Visible(const std::string& table) {
    return GetTable(table)->VisibleRows(db_->txn_manager().GlobalSnapshot());
  }

  /// Creates the canonical Header/Item MD schema (unless a recovered
  /// generation already has it) and inserts `n` more business objects of 2
  /// items each through atomic write scopes.
  void PopulateHeaderItem(size_t n) {
    Table* header = nullptr;
    Table* item = nullptr;
    if (db_->GetTable("Header").ok()) {
      header = GetTable("Header");
      item = GetTable("Item");
    } else {
      testing_util::CreateHeaderItemTables(db_.get(), &header, &item);
    }
    for (size_t i = 0; i < n; ++i) {
      int64_t h = next_header_id_++;
      ASSERT_OK(testing_util::InsertBusinessObject(
          db_.get(), header, item, h, 2010 + h % 3, 2, 1.5, &next_item_id_));
    }
  }

  std::filesystem::path dir_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<DurabilityManager> durability_;
  int64_t next_header_id_ = 1;
  int64_t next_item_id_ = 1;
};

TEST_F(RecoveryTest, EmptyDirectoryOpensEmpty) {
  const RecoveryReport& report = Reopen();
  EXPECT_FALSE(report.checkpoint_loaded);
  EXPECT_EQ(report.wal_records, 0u);
  EXPECT_TRUE(report.wal_clean);
  EXPECT_TRUE(db_->TableNames().empty());
}

TEST_F(RecoveryTest, OpenRejectsNonEmptyDatabase) {
  auto db = std::make_unique<Database>();
  Table* header = nullptr;
  Table* item = nullptr;
  testing_util::CreateHeaderItemTables(db.get(), &header, &item);
  auto opened =
      DurabilityManager::Open(dir_.string(), db.get(), DurabilityOptions());
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(RecoveryTest, WalOnlyReplayRestoresDataAndTids) {
  Reopen();
  PopulateHeaderItem(5);
  Tid last = db_->txn_manager().last_committed();
  Crash();

  const RecoveryReport& report = Reopen();
  EXPECT_FALSE(report.checkpoint_loaded);
  EXPECT_GT(report.replayed_records, 0u);
  EXPECT_EQ(report.discarded_records, 0u);
  EXPECT_EQ(Visible("Header"), 5u);
  EXPECT_EQ(Visible("Item"), 10u);
  // The tid counter continues where the dead process stopped: snapshots
  // taken before and after the restart order identically.
  EXPECT_EQ(db_->txn_manager().last_committed(), last);
}

TEST_F(RecoveryTest, UpdatesAndDeletesReplay) {
  Reopen();
  PopulateHeaderItem(4);
  Table* header = GetTable("Header");
  {
    Transaction txn = db_->Begin();
    ASSERT_OK(header->DeleteByPk(txn, Value(int64_t{2})));
  }
  {
    Transaction txn = db_->Begin();
    ASSERT_OK(header->UpdateByPk(txn, Value(int64_t{3}),
                                 {Value(int64_t{3}), Value(int64_t{2099})}));
  }
  Crash();

  Reopen();
  EXPECT_EQ(Visible("Header"), 3u);
  Table* restored = GetTable("Header");
  EXPECT_FALSE(restored->FindByPk(Value(int64_t{2})).has_value());
  EXPECT_TRUE(restored->FindByPk(Value(int64_t{3})).has_value());
}

TEST_F(RecoveryTest, CheckpointOnlyRestart) {
  Reopen();
  PopulateHeaderItem(5);
  ASSERT_OK(db_->MergeAll());  // The segment captures post-merge layout.
  ASSERT_OK_AND_ASSIGN(bool published, durability_->Checkpoint());
  EXPECT_TRUE(published);
  Crash();

  const RecoveryReport& report = Reopen();
  EXPECT_TRUE(report.checkpoint_loaded);
  EXPECT_EQ(report.replayed_records, 0u);
  EXPECT_EQ(Visible("Header"), 5u);
  EXPECT_EQ(Visible("Item"), 10u);
  // The merge's physical layout is part of the checkpoint image.
  EXPECT_EQ(GetTable("Header")->group(0).main.num_rows(), 5u);
  EXPECT_TRUE(GetTable("Header")->group(0).delta.empty());
}

TEST_F(RecoveryTest, CheckpointPlusWalTailComposes) {
  Reopen();
  PopulateHeaderItem(3);
  ASSERT_OK_AND_ASSIGN(bool published, durability_->Checkpoint());
  EXPECT_TRUE(published);
  PopulateHeaderItem(2);  // Tail beyond the checkpoint.
  Crash();

  const RecoveryReport& report = Reopen();
  EXPECT_TRUE(report.checkpoint_loaded);
  EXPECT_GT(report.replayed_records, 0u);
  EXPECT_EQ(Visible("Header"), 5u);
  EXPECT_EQ(Visible("Item"), 10u);
}

TEST_F(RecoveryTest, UncommittedScopeRolledBack) {
  Reopen();
  PopulateHeaderItem(2);
  Table* header = GetTable("Header");
  Table* item = GetTable("Item");
  auto scope = std::make_optional<ScopedTransaction>(db_->BeginAtomic());
  ASSERT_OK(header->Insert(*scope, {Value(int64_t{77}), Value(int64_t{2020})}));
  ASSERT_OK(
      item->Insert(*scope, {Value(int64_t{770}), Value(int64_t{77}),
                            Value(3.5)}));
  Crash();  // The scope never commits: its records must be discarded.
  scope.reset();

  const RecoveryReport& report = Reopen();
  EXPECT_EQ(report.discarded_scopes, 1u);
  EXPECT_GT(report.discarded_records, 0u);
  EXPECT_EQ(Visible("Header"), 2u);
  EXPECT_EQ(Visible("Item"), 4u);
  EXPECT_FALSE(GetTable("Header")->FindByPk(Value(int64_t{77})).has_value());
}

TEST_F(RecoveryTest, SplitAndAgingGroupReplay) {
  Reopen();
  PopulateHeaderItem(6);
  ASSERT_OK(db_->MergeAll());
  ASSERT_OK(GetTable("Header")->SplitHotCold("HeaderID", Value(int64_t{4})));
  ASSERT_OK(GetTable("Item")->SplitHotCold("HeaderID", Value(int64_t{4})));
  db_->RegisterAgingGroup({"Header", "Item"});
  db_->RegisterMergeGroup({"Header", "Item"}, 128);
  Crash();

  Reopen();
  EXPECT_EQ(GetTable("Header")->num_groups(), 2u);
  EXPECT_EQ(GetTable("Item")->num_groups(), 2u);
  ASSERT_EQ(db_->aging_groups().size(), 1u);
  EXPECT_EQ(db_->aging_groups()[0],
            (std::vector<std::string>{"Header", "Item"}));
  ASSERT_EQ(db_->merge_groups().size(), 1u);
  EXPECT_EQ(db_->merge_groups()[0].second, 128u);
  EXPECT_EQ(Visible("Header"), 6u);
}

TEST_F(RecoveryTest, LsnContinuityAcrossGenerations) {
  Reopen();
  PopulateHeaderItem(2);
  Crash();

  Reopen();
  Table* header = GetTable("Header");
  {
    Transaction txn = db_->Begin();
    ASSERT_OK(
        header->Insert(txn, {Value(int64_t{100}), Value(int64_t{2021})}));
  }
  Crash();

  const RecoveryReport& report = Reopen();
  EXPECT_TRUE(report.wal_clean) << report.wal_tail_error;
  EXPECT_EQ(Visible("Header"), 3u);
  EXPECT_TRUE(GetTable("Header")->FindByPk(Value(int64_t{100})).has_value());
}

TEST_F(RecoveryTest, QueriesAgreeAfterRecovery) {
  Reopen();
  PopulateHeaderItem(8);
  ASSERT_OK(db_->Merge("Header"));
  ASSERT_OK_AND_ASSIGN(bool published, durability_->Checkpoint());
  EXPECT_TRUE(published);
  PopulateHeaderItem(3);
  {
    Transaction txn = db_->Begin();
    ASSERT_OK(GetTable("Header")->DeleteByPk(txn, Value(int64_t{1})));
  }
  Crash();

  Reopen();
  AggregateCacheManager cache(db_.get(), AggregateCacheManager::Config());
  testing_util::ExpectAllStrategiesAgree(db_.get(), &cache,
                                         testing_util::HeaderItemQuery());
}

TEST_F(RecoveryTest, AsyncPolicySurvivesKill) {
  Reopen(WalSyncPolicy::kAsync);
  PopulateHeaderItem(4);
  Crash();  // Async writes reach the fd immediately; only the fsync lags.

  const RecoveryReport& report = Reopen(WalSyncPolicy::kAsync);
  EXPECT_TRUE(report.wal_clean) << report.wal_tail_error;
  EXPECT_EQ(Visible("Header"), 4u);
  EXPECT_EQ(Visible("Item"), 8u);
}

TEST_F(RecoveryTest, WarmDescriptorsReAdmitAcrossRestart) {
  uint64_t warm_before =
      EngineMetrics::Get().recovery_warm_admissions->Value();
  Reopen();
  PopulateHeaderItem(5);
  AggregateQuery query = testing_util::HeaderItemQuery();
  {
    AggregateCacheManager cache(db_.get(), AggregateCacheManager::Config());
    durability_->SetDescriptorSource(&cache);
    Transaction txn = db_->Begin();
    ASSERT_OK(cache.Execute(query, txn, ExecutionOptions()).status());
    ASSERT_OK(cache.Execute(query, txn, ExecutionOptions()).status());
    EXPECT_EQ(cache.ExportCacheDescriptors().size(), 1u);
    ASSERT_OK_AND_ASSIGN(bool published, durability_->Checkpoint());
    EXPECT_TRUE(published);
    durability_->SetDescriptorSource(nullptr);
  }
  Crash();

  const RecoveryReport& report = Reopen();
  EXPECT_EQ(report.warm_descriptors, 1u);
  // The restarted node sets an admission bar the rebuilt entry would fail
  // on cost alone — the warm descriptor must bypass it.
  AggregateCacheManager::Config config;
  config.min_main_exec_ms = 1e9;
  AggregateCacheManager cache(db_.get(), config);
  cache.ImportWarmDescriptors(durability_->TakeWarmDescriptors());
  EXPECT_EQ(cache.warm_descriptors_pending(), 1u);
  Transaction txn = db_->Begin();
  ASSERT_OK(cache.Execute(query, txn, ExecutionOptions()).status());
  EXPECT_EQ(cache.warm_descriptors_pending(), 0u);
  EXPECT_EQ(cache.ExportCacheDescriptors().size(), 1u);
  EXPECT_EQ(EngineMetrics::Get().recovery_warm_admissions->Value(),
            warm_before + 1);
  // A cold entry with the same config is still rejected by the bar.
  AggregateCacheManager cold(db_.get(), config);
  Transaction txn2 = db_->Begin();
  ASSERT_OK(cold.Execute(query, txn2, ExecutionOptions()).status());
  EXPECT_TRUE(cold.ExportCacheDescriptors().empty());
}

TEST_F(RecoveryTest, SecondOpenOfLiveDirectoryFailsLoudly) {
  Reopen();
  auto second = std::make_unique<Database>();
  auto opened = DurabilityManager::Open(dir_.string(), second.get(),
                                        DurabilityOptions());
  ASSERT_FALSE(opened.ok());
  // Releasing the first owner makes the directory openable again.
  Close();
  auto third = std::make_unique<Database>();
  auto reopened = DurabilityManager::Open(dir_.string(), third.get(),
                                          DurabilityOptions());
  EXPECT_TRUE(reopened.ok()) << reopened.status();
}

TEST_F(RecoveryTest, MergeDaemonRefusesToStartDuringRestore) {
  Database db;
  db.set_restoring(true);
  MergeDaemon daemon(db);
  EXPECT_DEATH(daemon.Start(), "recovery");
}

}  // namespace
}  // namespace aggcache
