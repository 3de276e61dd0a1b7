#include "objectaware/predicate_pushdown.h"

namespace aggcache {

std::vector<FilterPredicate> DerivePushdownFilters(
    const BoundQuery& bound, const SubjoinCombination& combination) {
  std::vector<FilterPredicate> filters;
  for (const MdBinding& md : bound.mds) {
    const Partition& left = ResolvePartition(*bound.tables[md.left_table],
                                             combination[md.left_table]);
    const Partition& right = ResolvePartition(*bound.tables[md.right_table],
                                              combination[md.right_table]);
    if (left.empty() || right.empty()) continue;
    // Only derive filters across the main/delta boundary: same-kind pairs
    // (delta-delta, main-main) overlap almost completely under temporal
    // locality, so the filters would select everything.
    if (combination[md.left_table].kind == combination[md.right_table].kind) {
      continue;
    }
    const Dictionary& ld = left.column(md.left_tid_column).dictionary();
    const Dictionary& rd = right.column(md.right_tid_column).dictionary();
    const std::string& left_name =
        bound.tables[md.left_table]->schema().columns[md.left_tid_column].name;
    const std::string& right_name = bound.tables[md.right_table]
                                        ->schema()
                                        .columns[md.right_tid_column]
                                        .name;
    // Each side's tid must fall inside the other side's range for the MD
    // join predicate to be satisfiable.
    filters.push_back(FilterPredicate{md.left_table, left_name,
                                      CompareOp::kGe, rd.min_value()});
    filters.push_back(FilterPredicate{md.left_table, left_name,
                                      CompareOp::kLe, rd.max_value()});
    filters.push_back(FilterPredicate{md.right_table, right_name,
                                      CompareOp::kGe, ld.min_value()});
    filters.push_back(FilterPredicate{md.right_table, right_name,
                                      CompareOp::kLe, ld.max_value()});
  }
  return filters;
}

}  // namespace aggcache
