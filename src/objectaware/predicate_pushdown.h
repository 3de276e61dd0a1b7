#ifndef AGGCACHE_OBJECTAWARE_PREDICATE_PUSHDOWN_H_
#define AGGCACHE_OBJECTAWARE_PREDICATE_PUSHDOWN_H_

#include <vector>

#include "query/executor.h"
#include "query/predicate.h"
#include "query/subjoin.h"

namespace aggcache {

/// Join predicate pushdown (Section 5.3): when the tid-range prefilter
/// fails for a subjoin, the matching dependency still bounds which rows can
/// participate. For each MD-covered join edge, each side receives a local
/// filter restricting its tid column to the other side's [min, max] tid
/// range, e.g. for Header_delta ⋈ Item_main:
///
///   f(Item)   = tid_H >= min(Header_delta[tid_H])
///   f(Header) = tid_H <= max(Item_main[tid_H])
///
/// shrinking the scan and hash-build input of the large main partition.
/// Returns filters keyed by query-table index, ready to pass to
/// Executor::ExecuteSubjoin as extra filters. Derived filters are implied
/// by the MD, so applying them never changes the subjoin's result.
std::vector<FilterPredicate> DerivePushdownFilters(
    const BoundQuery& bound, const SubjoinCombination& combination);

}  // namespace aggcache

#endif  // AGGCACHE_OBJECTAWARE_PREDICATE_PUSHDOWN_H_
