#include "objectaware/matching_dependency.h"

namespace aggcache {

StatusOr<bool> VerifyMdHolds(const Database& db, const std::string& ref_table,
                             const std::string& fk_table) {
  ASSIGN_OR_RETURN(const Table* ref, db.GetTable(ref_table));
  ASSIGN_OR_RETURN(const Table* fk_t, db.GetTable(fk_table));
  if (!ref->schema().own_tid_column) {
    return Status::InvalidArgument("referenced table has no own-tid column");
  }
  const ForeignKeyDef* fk_def = nullptr;
  for (const ForeignKeyDef& fk : fk_t->schema().foreign_keys) {
    if (fk.ref_table == ref_table && fk.tid_column) {
      fk_def = &fk;
      break;
    }
  }
  if (fk_def == nullptr) {
    return Status::InvalidArgument(
        "no MD foreign key from " + fk_table + " to " + ref_table);
  }
  size_t ref_tid_col = *ref->schema().own_tid_column;
  for (size_t g = 0; g < fk_t->num_groups(); ++g) {
    const PartitionGroup& group = fk_t->group(g);
    for (const Partition* p : {&group.main, &group.delta}) {
      for (size_t r = 0; r < p->num_rows(); ++r) {
        const Value& fk_value = p->column(fk_def->column).GetValue(r);
        std::optional<RowLocation> loc = ref->FindByPk(fk_value);
        if (!loc) continue;  // Referenced row version replaced or deleted.
        const Value& ref_tid = ref->ValueAt(*loc, ref_tid_col);
        const Value& local_tid = p->column(*fk_def->tid_column).GetValue(r);
        if (!(ref_tid == local_tid)) return false;
      }
    }
  }
  return true;
}

}  // namespace aggcache
