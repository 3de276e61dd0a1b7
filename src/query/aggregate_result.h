#ifndef AGGCACHE_QUERY_AGGREGATE_RESULT_H_
#define AGGCACHE_QUERY_AGGREGATE_RESULT_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace aggcache {

/// Aggregate functions supported by the query engine. The aggregate cache
/// admits only the self-maintainable ones (SUM, COUNT, AVG, COUNT(*)), per
/// Section 2.1 of the paper; MIN/MAX cannot be compensated under deletions.
enum class AggregateFunction : uint8_t {
  kSum,
  kCount,
  kAvg,
  kMin,
  kMax,
  kCountStar,
};

const char* AggregateFunctionToString(AggregateFunction fn);

/// True for functions whose states support add and subtract.
bool IsSelfMaintainable(AggregateFunction fn);

/// Group-by key: one value per group-by column.
struct GroupKey {
  std::vector<Value> values;

  bool operator==(const GroupKey& other) const {
    return values == other.values;
  }
  std::string ToString() const;
};

struct GroupKeyHash {
  size_t operator()(const GroupKey& key) const;
};

/// Mergeable and (for self-maintainable functions) subtractable state of one
/// aggregate within one group. SUM keeps exact int64 arithmetic for integer
/// columns and doubles otherwise; AVG is derived as SUM/COUNT at
/// finalization, the classic summary-delta representation.
struct AggregateState {
  int64_t sum_int = 0;
  double sum_double = 0.0;
  int64_t count = 0;
  /// True once a double value contributed; decides the SUM output type.
  bool saw_double = false;
  Value min;  ///< NULL until the first value arrives.
  Value max;

  /// Folds one input value into the state.
  void Add(const Value& v);

  /// Folds another state in (set union).
  void Merge(const AggregateState& other);

  /// Removes another state's contribution (main compensation). MIN/MAX
  /// content becomes meaningless after subtraction; callers must only
  /// subtract states used for self-maintainable functions.
  void Subtract(const AggregateState& other);

  /// Final value under `fn`. COUNT/COUNT(*) return int64; AVG returns
  /// double; SUM returns int64 for integer inputs and double otherwise.
  Value Finalize(AggregateFunction fn) const;
};

/// The extent of an aggregate query: group keys mapped to per-aggregate
/// states plus a COUNT(*) kept for every group. The hidden COUNT(*) is what
/// the paper's aggregate cache value stores as well (Fig. 2): it detects
/// groups whose rows all disappeared, so compensation can drop them.
///
/// A result either owns its group map or shares an immutable one. Share()
/// turns an owned map into a shared one; copying a shared result then
/// copies a pointer, not the groups. The first mutation of a shared result
/// copies the map into one it owns, so a shared map is never written and
/// no reference count is ever consulted. Copying an owned result copies
/// its groups, as before.
class AggregateResult {
 public:
  struct GroupEntry {
    std::vector<AggregateState> states;
    int64_t count_star = 0;
  };
  using Groups = std::unordered_map<GroupKey, GroupEntry, GroupKeyHash>;

  AggregateResult() = default;
  explicit AggregateResult(size_t num_aggregates)
      : num_aggregates_(num_aggregates) {}

  size_t num_aggregates() const { return num_aggregates_; }
  size_t num_groups() const { return groups().size(); }
  bool empty() const { return groups().empty(); }

  /// Moves the owned groups into an immutable shared map, so later copies
  /// of this result share them. A no-op on an already shared result.
  void Share();

  /// Folds one joined tuple into the result. `inputs` holds the input value
  /// for each aggregate (ignored for COUNT(*) entries, pass any value).
  void Accumulate(const GroupKey& key, const std::vector<Value>& inputs);

  /// Installs a fully formed group entry, replacing any existing one. Used
  /// when reconstructing a result from materialized storage (summary
  /// tables); `entry.states` must have num_aggregates() elements.
  void SetGroup(const GroupKey& key, GroupEntry entry);

  /// Set-union with another result over the same query shape. Merging an
  /// empty result changes nothing and leaves a shared map shared.
  void MergeFrom(const AggregateResult& other);

  /// Removes `other`'s contribution; groups whose COUNT(*) reaches zero are
  /// deleted. Returns InvalidArgument on shape mismatch and
  /// FailedPrecondition when a group would go negative (a compensation
  /// bug).
  Status SubtractFrom(const AggregateResult& other);

  const Groups& groups() const { return shared_ ? *shared_ : groups_; }

  /// Finalized rows, sorted by group key for deterministic output: each row
  /// is the group values followed by the finalized aggregates.
  std::vector<std::vector<Value>> Rows(
      const std::vector<AggregateFunction>& functions) const;

  /// Structural equality with numeric tolerance for double sums; used by
  /// the correctness property tests.
  bool ApproxEquals(const AggregateResult& other, double tolerance = 1e-6,
                    std::string* difference = nullptr) const;

  /// Approximate heap footprint, reported in cache metrics.
  size_t ByteSize() const;

 private:
  /// The groups, made owned first: copies a shared map on first write.
  Groups& MutableGroups();

  size_t num_aggregates_ = 0;
  Groups groups_;                         ///< Used while shared_ is null.
  std::shared_ptr<const Groups> shared_;  ///< Immutable once set.
};

}  // namespace aggcache

#endif  // AGGCACHE_QUERY_AGGREGATE_RESULT_H_
