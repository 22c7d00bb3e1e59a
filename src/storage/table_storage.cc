#include "storage/table_storage.h"

#include <utility>

#include "storage/column_store.h"
#include "storage/hybrid_store.h"
#include "storage/rcv_store.h"
#include "storage/row_store.h"

namespace dataspread {

const char* StorageModelName(StorageModel model) {
  switch (model) {
    case StorageModel::kRow:
      return "row";
    case StorageModel::kColumn:
      return "column";
    case StorageModel::kRcv:
      return "rcv";
    case StorageModel::kHybrid:
      return "hybrid";
  }
  return "unknown";
}

Status TableStorage::GetRows(size_t start, size_t count,
                             std::vector<Row>* out) const {
  if (count == 0) return Status::OK();
  DS_RETURN_IF_ERROR(CheckRowRange(start, count));
  out->reserve(out->size() + count);
  for (size_t r = start; r < start + count; ++r) {
    auto row = GetRow(r);
    DS_RETURN_IF_ERROR(row.status());
    out->push_back(std::move(row).ValueOrDie());
  }
  return Status::OK();
}

Status TableStorage::VisitRows(size_t start, size_t count,
                               const RowVisitor& visit) const {
  if (count == 0) return Status::OK();
  DS_RETURN_IF_ERROR(CheckRowRange(start, count));
  for (size_t r = start; r < start + count; ++r) {
    auto row = GetRow(r);
    DS_RETURN_IF_ERROR(row.status());
    visit(r, row.value().data());
  }
  return Status::OK();
}

TableStorage::TableStorage(storage::Pager* pager,
                           const storage::PagerConfig& config)
    : owned_pager_(pager == nullptr ? std::make_unique<storage::Pager>(config)
                                    : nullptr),
      pager_(pager == nullptr ? owned_pager_.get() : pager),
      accountant_(pager_) {}

std::unique_ptr<TableStorage> CreateStorage(StorageModel model,
                                            size_t num_columns,
                                            storage::Pager* pager,
                                            const storage::PagerConfig& config) {
  switch (model) {
    case StorageModel::kRow:
      return std::make_unique<RowStore>(num_columns, pager, config);
    case StorageModel::kColumn:
      return std::make_unique<ColumnStore>(num_columns, pager, config);
    case StorageModel::kRcv:
      return std::make_unique<RcvStore>(num_columns, pager, config);
    case StorageModel::kHybrid:
      return std::make_unique<HybridStore>(num_columns, pager, config);
  }
  return nullptr;
}

Result<std::unique_ptr<TableStorage>> AttachStorage(
    const StorageManifest& manifest, uint64_t num_rows,
    storage::Pager* pager) {
  switch (manifest.model) {
    case StorageModel::kRow: {
      DS_ASSIGN_OR_RETURN(std::unique_ptr<RowStore> s,
                          RowStore::Attach(manifest, num_rows, pager));
      return std::unique_ptr<TableStorage>(std::move(s));
    }
    case StorageModel::kColumn: {
      DS_ASSIGN_OR_RETURN(std::unique_ptr<ColumnStore> s,
                          ColumnStore::Attach(manifest, num_rows, pager));
      return std::unique_ptr<TableStorage>(std::move(s));
    }
    case StorageModel::kRcv: {
      DS_ASSIGN_OR_RETURN(std::unique_ptr<RcvStore> s,
                          RcvStore::Attach(manifest, num_rows, pager));
      return std::unique_ptr<TableStorage>(std::move(s));
    }
    case StorageModel::kHybrid: {
      DS_ASSIGN_OR_RETURN(std::unique_ptr<HybridStore> s,
                          HybridStore::Attach(manifest, num_rows, pager));
      return std::unique_ptr<TableStorage>(std::move(s));
    }
  }
  return Status::Internal("unknown storage model in manifest");
}

}  // namespace dataspread
