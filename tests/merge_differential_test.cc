// Differential test of the code-space merge: every main the engine builds
// (MergeTableGroup, SplitHotCold, snapshot load) must equal what the
// row-at-a-time reference builder (tests/reference_merge.h) builds from the
// same rows — the same dictionary values in the same order, the same codes,
// tids and row order — and every primary-key lookup must agree with an index
// rebuilt from scratch.

#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "storage/database.h"
#include "storage/delta_merge.h"
#include "storage/snapshot.h"
#include "tests/reference_merge.h"
#include "tests/test_util.h"
#include "verify/fault_injector.h"

namespace aggcache {
namespace {

/// A user column's type and the domain its random values come from.
struct ColumnSpec {
  ColumnType type;
  int64_t domain;  // Distinct values drawn: small domains repeat values.
  bool huge;       // int64 values above 2^53 (distinct only as integers).
};

Value RandomValue(Rng& rng, const ColumnSpec& spec) {
  int64_t k = rng.UniformInt(-spec.domain, spec.domain);
  switch (spec.type) {
    case ColumnType::kInt64:
      return Value(spec.huge ? (int64_t{1} << 60) + k : k);
    case ColumnType::kDouble:
      return Value(static_cast<double>(k) * 0.25);
    case ColumnType::kString:
      return Value(k == 0 ? std::string() : "s" + std::to_string(k));
  }
  return Value();
}

/// Decoded rows, stamps, dictionaries and codes of a partition: equal
/// fingerprints mean equal partitions.
struct Fingerprint {
  std::vector<std::vector<Value>> rows;
  std::vector<Tid> create_tids;
  std::vector<Tid> invalidate_tids;
  std::vector<std::vector<Value>> dictionaries;
  std::vector<std::vector<ValueId>> codes;

  explicit Fingerprint(const Partition& p) {
    for (size_t r = 0; r < p.num_rows(); ++r) rows.push_back(p.GetRow(r));
    create_tids.assign(p.create_tids().begin(), p.create_tids().end());
    invalidate_tids.assign(p.invalidate_tids().begin(),
                           p.invalidate_tids().end());
    for (size_t c = 0; c < p.num_columns(); ++c) {
      dictionaries.push_back(p.column(c).dictionary().values());
      codes.emplace_back(p.num_rows());
      p.column(c).UnpackCodes(0, p.num_rows(), codes.back().data());
    }
  }
  bool operator==(const Fingerprint&) const = default;
};

/// Asserts that `actual` is the main `expected` is: same dictionary values
/// in the same order, same codes and code width, same stamps and row order,
/// and a dictionary index that finds every value at its code.
void ExpectSameMain(const Partition& actual, const Partition& expected) {
  ASSERT_EQ(actual.kind(), PartitionKind::kMain);
  ASSERT_EQ(actual.num_rows(), expected.num_rows());
  ASSERT_EQ(actual.num_columns(), expected.num_columns());
  EXPECT_TRUE(Fingerprint(actual) == Fingerprint(expected));
  EXPECT_EQ(actual.invalidation_count(), expected.invalidation_count());
  EXPECT_EQ(actual.max_invalidate_tid(), expected.max_invalidate_tid());
  for (size_t c = 0; c < actual.num_columns(); ++c) {
    const Column& column = actual.column(c);
    const Dictionary& dict = column.dictionary();
    EXPECT_EQ(dict.mode(), Dictionary::Mode::kSortedMain);
    EXPECT_EQ(dict.values(), expected.column(c).dictionary().values())
        << "column " << c;
    EXPECT_EQ(column.main_codes().bits_per_entry(),
              expected.column(c).main_codes().bits_per_entry());
    for (ValueId id = 0; id < dict.size(); ++id) {
      EXPECT_EQ(dict.Find(dict.value(id)), std::optional<ValueId>(id));
    }
  }
}

/// Asserts that FindByPk answers every key in `pks` as an index rebuilt
/// from scratch would: the first valid row with that key, groups in order,
/// main before delta.
void ExpectPkIndexFresh(const Table& table, const std::vector<Value>& pks) {
  const size_t pk_col = *table.schema().primary_key;
  std::unordered_map<Value, RowLocation, ValueHash> fresh;
  for (uint32_t g = 0; g < table.num_groups(); ++g) {
    for (PartitionKind kind : {PartitionKind::kMain, PartitionKind::kDelta}) {
      const Partition& p = kind == PartitionKind::kMain
                               ? table.group(g).main
                               : table.group(g).delta;
      for (uint32_t r = 0; r < p.num_rows(); ++r) {
        if (p.RowInvalidated(r)) continue;
        fresh.emplace(p.column(pk_col).GetValue(r), RowLocation{g, kind, r});
      }
    }
  }
  for (const Value& pk : pks) {
    std::optional<RowLocation> got = table.FindByPk(pk);
    auto want = fresh.find(pk);
    ASSERT_EQ(got.has_value(), want != fresh.end()) << "pk " << pk;
    if (got) {
      EXPECT_TRUE(*got == want->second)
          << "pk " << pk << ": got group " << got->group << " kind "
          << PartitionKindToString(got->kind) << " row " << got->row;
    }
  }
}

class MergeDifferentialTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    rng_.emplace(static_cast<uint64_t>(GetParam()) * 7919 + 1);
    SchemaBuilder builder("T");
    builder.AddColumn("id", ColumnType::kInt64).PrimaryKey();
    int num_columns = static_cast<int>(rng().UniformInt(1, 4));
    for (int c = 0; c < num_columns; ++c) {
      ColumnSpec spec{static_cast<ColumnType>(rng().UniformInt(0, 2)),
                      rng().UniformInt(1, 40), rng().Chance(0.2)};
      specs_.push_back(spec);
      builder.AddColumn("c" + std::to_string(c), spec.type);
    }
    auto table = db_.CreateTable(builder.Build());
    ASSERT_TRUE(table.ok()) << table.status();
    table_ = *table;
  }

  Rng& rng() { return *rng_; }

  std::vector<Value> RandomRow(int64_t id) {
    std::vector<Value> row{Value(id)};
    for (const ColumnSpec& spec : specs_) {
      row.push_back(RandomValue(rng(), spec));
    }
    return row;
  }

  /// Inserts, updates or deletes one row under `txn`.
  void RandomWrite(const Transaction& txn) {
    double dice = rng().UniformDouble(0, 1);
    if (live_.empty() || dice < 0.55) {
      int64_t id = next_id_++;
      ASSERT_OK(table_->Insert(txn, RandomRow(id)));
      live_.push_back(id);
      pks_.push_back(Value(id));
      return;
    }
    size_t pick = static_cast<size_t>(
        rng().UniformInt(0, static_cast<int64_t>(live_.size()) - 1));
    int64_t id = live_[pick];
    if (dice < 0.8) {
      ASSERT_OK(table_->UpdateByPk(txn, Value(id), RandomRow(id)));
    } else {
      ASSERT_OK(table_->DeleteByPk(txn, Value(id)));
      live_[pick] = live_.back();
      live_.pop_back();
    }
  }

  /// Merges group `g` at `snapshot` and checks the result against the
  /// reference built row by row under the same rules.
  void MergeAndCheck(size_t g, const Snapshot& snapshot) {
    MergeOptions options;
    options.keep_invalidated = rng().Chance(0.3);
    const PartitionGroup& group = table_->group(g);
    MainPartitionBuilder reference(table_->schema());
    std::vector<size_t> kept;
    for (const Partition* p : {&group.main, &group.delta}) {
      for (size_t r = 0; r < p->num_rows(); ++r) {
        if (p->kind() == PartitionKind::kDelta &&
            !snapshot.TidStable(p->create_tid(r))) {
          kept.push_back(r);
          continue;
        }
        if (p->RowInvalidated(r) && !options.keep_invalidated &&
            snapshot.TidStable(p->invalidate_tid(r))) {
          continue;
        }
        reference.AddRow(p->GetRow(r), p->create_tid(r), p->invalidate_tid(r));
      }
    }
    Partition expected_main = reference.Build();
    std::vector<std::vector<Value>> expected_delta;
    std::vector<std::pair<Tid, Tid>> expected_stamps;
    for (size_t r : kept) {
      expected_delta.push_back(group.delta.GetRow(r));
      expected_stamps.emplace_back(group.delta.create_tid(r),
                                   group.delta.invalidate_tid(r));
    }

    ASSERT_OK(MergeTableGroup(*table_, g, options, snapshot));
    ++merges_;
    ExpectSameMain(table_->group(g).main, expected_main);
    const Partition& delta = table_->group(g).delta;
    ASSERT_EQ(delta.num_rows(), expected_delta.size());
    for (size_t r = 0; r < delta.num_rows(); ++r) {
      EXPECT_EQ(delta.GetRow(r), expected_delta[r]);
      EXPECT_EQ(delta.create_tid(r), expected_stamps[r].first);
      EXPECT_EQ(delta.invalidate_tid(r), expected_stamps[r].second);
    }
    ExpectPkIndexFresh(*table_, pks_);
  }

  /// A merge at a snapshot some writes postdate: their rows stay in the
  /// delta and their invalidations stay unstable. Sometimes with an atomic
  /// scope in flight across the merge.
  void MergeWithLaterWrites() {
    std::optional<ScopedTransaction> scope;
    if (rng().Chance(0.5)) {
      scope.emplace(db_.BeginAtomic());
      for (int i = static_cast<int>(rng().UniformInt(1, 3)); i > 0; --i) {
        int64_t id = next_id_++;
        ASSERT_OK(table_->Insert(*scope, RandomRow(id)));
        live_.push_back(id);
        pks_.push_back(Value(id));
      }
    }
    Snapshot snapshot = db_.Begin().snapshot();
    for (int i = static_cast<int>(rng().UniformInt(0, 4)); i > 0; --i) {
      ASSERT_NO_FATAL_FAILURE(RandomWrite(db_.Begin()));
    }
    for (size_t g = 0; g < table_->num_groups(); ++g) {
      ASSERT_NO_FATAL_FAILURE(MergeAndCheck(g, snapshot));
    }
  }

  /// Splits into hot and cold on a random column and checks both mains
  /// against the reference.
  void SplitAndCheck() {
    ASSERT_OK(db_.Merge("T"));  // Splits need empty deltas.
    size_t col = static_cast<size_t>(
        rng().UniformInt(0, static_cast<int64_t>(specs_.size())));
    Value cold_below =
        col == 0 ? Value(rng().UniformInt(0, next_id_))
                 : RandomValue(rng(), specs_[col - 1]);
    const Partition& main = table_->group(0).main;
    MainPartitionBuilder hot(table_->schema());
    MainPartitionBuilder cold(table_->schema());
    for (size_t r = 0; r < main.num_rows(); ++r) {
      (main.column(col).GetValue(r) < cold_below ? cold : hot)
          .AddRow(main.GetRow(r), main.create_tid(r), main.invalidate_tid(r));
    }
    Partition expected_hot = hot.Build();
    Partition expected_cold = cold.Build();
    ASSERT_OK(table_->SplitHotCold(table_->schema().columns[col].name,
                                   cold_below));
    ASSERT_EQ(table_->num_groups(), 2u);
    ExpectSameMain(table_->group(0).main, expected_hot);
    ExpectSameMain(table_->group(1).main, expected_cold);
    ExpectPkIndexFresh(*table_, pks_);
  }

  /// A merge that fails at `point` leaves every partition and the pk index
  /// as they were.
  void FailedMergeLeavesGroupsUntouched(const char* point) {
    std::vector<Fingerprint> before;
    for (size_t g = 0; g < table_->num_groups(); ++g) {
      before.emplace_back(table_->group(g).main);
      before.emplace_back(table_->group(g).delta);
    }
    std::vector<std::optional<RowLocation>> locations;
    for (const Value& pk : pks_) locations.push_back(table_->FindByPk(pk));
    FaultInjector::PointConfig config;
    config.max_fires = 1;
    FaultInjector::Global().Arm(point, config);
    Status merged = db_.Merge("T");
    FaultInjector::Global().DisarmAll();
    ASSERT_FALSE(merged.ok()) << point;
    for (size_t g = 0; g < table_->num_groups(); ++g) {
      EXPECT_TRUE(Fingerprint(table_->group(g).main) == before[2 * g]);
      EXPECT_TRUE(Fingerprint(table_->group(g).delta) == before[2 * g + 1]);
    }
    for (size_t i = 0; i < pks_.size(); ++i) {
      std::optional<RowLocation> now = table_->FindByPk(pks_[i]);
      ASSERT_EQ(now.has_value(), locations[i].has_value());
      if (now) {
        EXPECT_TRUE(*now == *locations[i]);
      }
    }
  }

  /// Restores a snapshot of the database into a fresh one: every main must
  /// equal the reference built from the original main's rows, every delta
  /// the original delta.
  void SnapshotRoundTripAndCheck() {
    std::stringstream text;
    ASSERT_OK(WriteSnapshot(db_, text));
    Database restored;
    ASSERT_OK(ReadSnapshot(text, &restored));
    auto copy = restored.GetTable("T");
    ASSERT_TRUE(copy.ok());
    ASSERT_EQ((*copy)->num_groups(), table_->num_groups());
    for (size_t g = 0; g < table_->num_groups(); ++g) {
      const Partition& main = table_->group(g).main;
      MainPartitionBuilder reference(table_->schema());
      for (size_t r = 0; r < main.num_rows(); ++r) {
        reference.AddRow(main.GetRow(r), main.create_tid(r),
                         main.invalidate_tid(r));
      }
      ExpectSameMain((*copy)->group(g).main, reference.Build());
      const Partition& delta = table_->group(g).delta;
      const Partition& delta_copy = (*copy)->group(g).delta;
      ASSERT_EQ(delta_copy.num_rows(), delta.num_rows());
      for (size_t r = 0; r < delta.num_rows(); ++r) {
        EXPECT_EQ(delta_copy.GetRow(r), delta.GetRow(r));
        EXPECT_EQ(delta_copy.create_tid(r), delta.create_tid(r));
        EXPECT_EQ(delta_copy.invalidate_tid(r), delta.invalidate_tid(r));
      }
    }
    ExpectPkIndexFresh(**copy, pks_);
  }

  Database db_;
  Table* table_ = nullptr;
  std::optional<Rng> rng_;
  std::vector<ColumnSpec> specs_;
  std::vector<int64_t> live_;  // Keys of rows not deleted.
  std::vector<Value> pks_;     // Every key ever inserted.
  int64_t next_id_ = 0;
  int merges_ = 0;
};

TEST_P(MergeDifferentialTest, CodeSpaceMainEqualsRowReference) {
  // An empty main and an empty delta.
  ASSERT_NO_FATAL_FAILURE(MergeAndCheck(0, db_.Begin().snapshot()));
  bool split = false;
  for (int step = 0; step < 400; ++step) {
    double dice = rng().UniformDouble(0, 1);
    if (dice < 0.80) {
      ASSERT_NO_FATAL_FAILURE(RandomWrite(db_.Begin()));
    } else if (dice < 0.87) {
      Snapshot snapshot = db_.Begin().snapshot();
      for (size_t g = 0; g < table_->num_groups(); ++g) {
        ASSERT_NO_FATAL_FAILURE(MergeAndCheck(g, snapshot));
      }
    } else if (dice < 0.93) {
      ASSERT_NO_FATAL_FAILURE(MergeWithLaterWrites());
    } else if (dice < 0.95) {
      ASSERT_NO_FATAL_FAILURE(FailedMergeLeavesGroupsUntouched(
          rng().Chance(0.5) ? "storage.merge" : "storage.merge.publish"));
    } else if (dice < 0.97) {
      ASSERT_NO_FATAL_FAILURE(SnapshotRoundTripAndCheck());
    } else if (dice < 0.98 && !split) {
      ASSERT_NO_FATAL_FAILURE(SplitAndCheck());
      split = true;
    } else if (dice < 0.99) {
      // Every row dropped: delete all, then merge everything away.
      Transaction txn = db_.Begin();
      for (int64_t id : live_) ASSERT_OK(table_->DeleteByPk(txn, Value(id)));
      live_.clear();
      Snapshot snapshot = db_.Begin().snapshot();
      for (size_t g = 0; g < table_->num_groups(); ++g) {
        ASSERT_NO_FATAL_FAILURE(MergeAndCheck(g, snapshot));
      }
    }
  }
  ASSERT_NO_FATAL_FAILURE(SnapshotRoundTripAndCheck());
  EXPECT_GT(merges_, 10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergeDifferentialTest, ::testing::Range(0, 40));

TEST(MergeDictionaryTest, UnchangedColumnsShareTheirDictionary) {
  Database db;
  Table* header = nullptr;
  Table* item = nullptr;
  testing_util::CreateHeaderItemTables(&db, &header, &item);
  for (int64_t h = 1; h <= 4; ++h) {
    ASSERT_OK(header->Insert(db.Begin(), {Value(h), Value(int64_t{2013})}));
  }
  ASSERT_OK(db.Merge("Header"));
  const PartitionGroup& group = header->group(0);
  std::shared_ptr<const Dictionary> years =
      group.main.column(1).shared_dictionary();
  std::shared_ptr<const Dictionary> ids =
      group.main.column(0).shared_dictionary();
  // A new header in a known year: the year column gains no value.
  ASSERT_OK(
      header->Insert(db.Begin(), {Value(int64_t{5}), Value(int64_t{2013})}));
  ASSERT_OK(db.Merge("Header"));
  EXPECT_EQ(group.main.column(1).shared_dictionary(), years);
  EXPECT_NE(group.main.column(0).shared_dictionary(), ids);
  EXPECT_EQ(group.main.column(1).GetValue(4), Value(int64_t{2013}));
  // Deleting the only header of a year drops the value.
  ASSERT_OK(
      header->Insert(db.Begin(), {Value(int64_t{6}), Value(int64_t{2014})}));
  ASSERT_OK(db.Merge("Header"));
  EXPECT_EQ(group.main.column(1).dictionary().size(), 2u);
  ASSERT_OK(header->DeleteByPk(db.Begin(), Value(int64_t{6})));
  ASSERT_OK(db.Merge("Header"));
  EXPECT_EQ(group.main.column(1).dictionary().values(),
            std::vector<Value>{Value(int64_t{2013})});
  // A delta value used by more rows than a byte counts still adds once.
  for (int64_t h = 100; h < 700; ++h) {
    ASSERT_OK(header->Insert(db.Begin(), {Value(h), Value(int64_t{2020})}));
  }
  ASSERT_OK(db.Merge("Header"));
  EXPECT_EQ(group.main.column(1).dictionary().values(),
            (std::vector<Value>{Value(int64_t{2013}), Value(int64_t{2020})}));
}

}  // namespace
}  // namespace aggcache
