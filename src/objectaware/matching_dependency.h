#ifndef AGGCACHE_OBJECTAWARE_MATCHING_DEPENDENCY_H_
#define AGGCACHE_OBJECTAWARE_MATCHING_DEPENDENCY_H_

#include <string>

#include "storage/database.h"

namespace aggcache {

/// Verifies that the MD declared from `fk_table` to `ref_table` actually
/// holds on the current table contents (every matching pair agrees on the
/// tid columns). O(|R| + |S|); used by tests and debugging, never on the
/// query path, which reads the MDs BoundQuery::Bind resolved from the
/// schema (BoundQuery::mds).
StatusOr<bool> VerifyMdHolds(const Database& db, const std::string& ref_table,
                             const std::string& fk_table);

}  // namespace aggcache

#endif  // AGGCACHE_OBJECTAWARE_MATCHING_DEPENDENCY_H_
