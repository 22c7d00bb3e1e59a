#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "db/database.h"
#include "storage/pager.h"

namespace dataspread {
namespace {

Schema MovieSchema() {
  return Schema({ColumnDef{"movieid", DataType::kInt, true},
                 ColumnDef{"title", DataType::kText, false},
                 ColumnDef{"year", DataType::kInt, false}});
}

TEST(SchemaTest, ValidateRejectsDuplicatesAndDoublePk) {
  Schema dup({ColumnDef{"a", DataType::kInt, false},
              ColumnDef{"A", DataType::kText, false}});
  EXPECT_FALSE(dup.Validate().ok());
  Schema two_pk({ColumnDef{"a", DataType::kInt, true},
                 ColumnDef{"b", DataType::kInt, true}});
  EXPECT_FALSE(two_pk.Validate().ok());
  EXPECT_TRUE(MovieSchema().Validate().ok());
}

TEST(SchemaTest, FindColumnCaseInsensitive) {
  Schema s = MovieSchema();
  EXPECT_EQ(s.FindColumn("TITLE").value_or(99), 1u);
  EXPECT_FALSE(s.FindColumn("nope").has_value());
  EXPECT_EQ(s.primary_key_index().value_or(99), 0u);
}

TEST(SchemaTest, MutationGuards) {
  Schema s = MovieSchema();
  EXPECT_FALSE(s.AddColumn(ColumnDef{"title", DataType::kInt, false}).ok());
  EXPECT_FALSE(s.AddColumn(ColumnDef{"id2", DataType::kInt, true}).ok());
  EXPECT_TRUE(s.AddColumn(ColumnDef{"genre", DataType::kText, false}).ok());
  EXPECT_FALSE(s.RenameColumn(1, "YEAR").ok());  // collision
  EXPECT_TRUE(s.RenameColumn(1, "name").ok());
  EXPECT_EQ(s.FindColumn("name").value_or(99), 1u);
}

TEST(TableTest, InsertAndOrderedAccess) {
  auto table = Table::Create("movies", MovieSchema()).ValueOrDie();
  ASSERT_TRUE(
      table->AppendRow({Value::Int(1), Value::Text("Alien"), Value::Int(1979)})
          .ok());
  ASSERT_TRUE(
      table->AppendRow({Value::Int(2), Value::Text("Brazil"), Value::Int(1985)})
          .ok());
  ASSERT_TRUE(table
                  ->InsertRowAt(1, {Value::Int(3), Value::Text("Clue"),
                                    Value::Int(1985)})
                  .ok());
  EXPECT_EQ(table->num_rows(), 3u);
  EXPECT_EQ(table->GetAt(0, 1).value(), Value::Text("Alien"));
  EXPECT_EQ(table->GetAt(1, 1).value(), Value::Text("Clue"));
  EXPECT_EQ(table->GetAt(2, 1).value(), Value::Text("Brazil"));
}

TEST(TableTest, TypeCoercionOnInsert) {
  auto table = Table::Create("movies", MovieSchema()).ValueOrDie();
  // year arrives as text but coerces to INT.
  ASSERT_TRUE(
      table->AppendRow({Value::Int(1), Value::Text("x"), Value::Text("1999")})
          .ok());
  EXPECT_EQ(table->GetAt(0, 2).value(), Value::Int(1999));
  // Uncoercible text fails.
  EXPECT_FALSE(
      table->AppendRow({Value::Int(2), Value::Text("y"), Value::Text("abc")})
          .ok());
}

TEST(TableTest, PrimaryKeyEnforced) {
  auto table = Table::Create("movies", MovieSchema()).ValueOrDie();
  ASSERT_TRUE(
      table->AppendRow({Value::Int(1), Value::Text("a"), Value::Int(2000)}).ok());
  // Duplicate key.
  EXPECT_FALSE(
      table->AppendRow({Value::Int(1), Value::Text("b"), Value::Int(2001)}).ok());
  // NULL key.
  EXPECT_FALSE(
      table->AppendRow({Value::Null(), Value::Text("c"), Value::Int(2002)}).ok());
  // Update to a clashing key fails; to a fresh key succeeds.
  ASSERT_TRUE(
      table->AppendRow({Value::Int(2), Value::Text("b"), Value::Int(2001)}).ok());
  EXPECT_FALSE(table->UpdateAt(1, 0, Value::Int(1)).ok());
  EXPECT_TRUE(table->UpdateAt(1, 0, Value::Int(9)).ok());
  EXPECT_EQ(table->FindByKey(Value::Int(9)).value(), 1u);
}

TEST(TableTest, FindByKeyAfterDeleteAndReorder) {
  auto table = Table::Create("movies", MovieSchema()).ValueOrDie();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(table
                    ->AppendRow({Value::Int(i), Value::Text("t"),
                                 Value::Int(1990 + i)})
                    .ok());
  }
  ASSERT_TRUE(table->DeleteRowAt(0).ok());
  EXPECT_FALSE(table->FindByKey(Value::Int(0)).ok());
  EXPECT_EQ(table->FindByKey(Value::Int(5)).value(), 4u);
  EXPECT_EQ(table->GetAt(4, 0).value(), Value::Int(5));
}

TEST(TableTest, GetWindowClipsAndOrders) {
  auto table = Table::Create("movies", MovieSchema()).ValueOrDie();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(table
                    ->AppendRow({Value::Int(i), Value::Text("t"),
                                 Value::Int(1900 + i)})
                    .ok());
  }
  auto window = table->GetWindow(90, 20);
  ASSERT_EQ(window.size(), 10u);
  EXPECT_EQ(window[0][0], Value::Int(90));
  EXPECT_EQ(window[9][0], Value::Int(99));
}

TEST(TableTest, SchemaChangesPreserveData) {
  auto table = Table::Create("movies", MovieSchema()).ValueOrDie();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(table
                    ->AppendRow({Value::Int(i), Value::Text("m"),
                                 Value::Int(2000)})
                    .ok());
  }
  ASSERT_TRUE(
      table->AddColumn(ColumnDef{"rating", DataType::kReal, false},
                       Value::Real(7.5))
          .ok());
  EXPECT_EQ(table->schema().num_columns(), 4u);
  EXPECT_EQ(table->GetAt(10, 3).value(), Value::Real(7.5));
  ASSERT_TRUE(table->DropColumn("year").ok());
  EXPECT_EQ(table->GetAt(10, 2).value(), Value::Real(7.5));
  ASSERT_TRUE(table->RenameColumn("rating", "score").ok());
  EXPECT_TRUE(table->schema().FindColumn("score").has_value());
  EXPECT_FALSE(table->DropColumn("ghost").ok());
}

TEST(TableTest, AddPkColumnOnlyWhenEmpty) {
  auto table =
      Table::Create("t", Schema({ColumnDef{"a", DataType::kInt, false}}))
          .ValueOrDie();
  ASSERT_TRUE(table->AppendRow({Value::Int(1)}).ok());
  EXPECT_FALSE(
      table->AddColumn(ColumnDef{"id", DataType::kInt, true}, Value::Null())
          .ok());
}

TEST(TableTest, ListenersFireWithPositions) {
  auto table = Table::Create("movies", MovieSchema()).ValueOrDie();
  std::vector<TableChange> changes;
  int token = table->AddListener(
      [&](const Table&, const TableChange& c) { changes.push_back(c); });
  ASSERT_TRUE(
      table->AppendRow({Value::Int(1), Value::Text("a"), Value::Int(1)}).ok());
  ASSERT_TRUE(table->UpdateAt(0, 1, Value::Text("b")).ok());
  ASSERT_TRUE(table->DeleteRowAt(0).ok());
  ASSERT_EQ(changes.size(), 3u);
  EXPECT_EQ(changes[0].kind, TableChange::Kind::kInsert);
  EXPECT_EQ(changes[1].kind, TableChange::Kind::kUpdate);
  EXPECT_EQ(changes[1].column, 1u);
  EXPECT_EQ(changes[2].kind, TableChange::Kind::kDelete);
  uint64_t version = table->version();
  table->RemoveListener(token);
  ASSERT_TRUE(
      table->AppendRow({Value::Int(2), Value::Text("c"), Value::Int(2)}).ok());
  EXPECT_EQ(changes.size(), 3u);          // detached
  EXPECT_GT(table->version(), version);  // version still advances
}

TEST(CatalogTest, CreateGetDrop) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("Movies", MovieSchema()).ok());
  EXPECT_TRUE(catalog.HasTable("MOVIES"));
  EXPECT_TRUE(catalog.GetTable("movies").ok());
  EXPECT_FALSE(catalog.CreateTable("MOVIES", MovieSchema()).ok());
  EXPECT_EQ(catalog.TableNames(), std::vector<std::string>{"Movies"});
  ASSERT_TRUE(catalog.DropTable("movies").ok());
  EXPECT_FALSE(catalog.GetTable("movies").ok());
  EXPECT_FALSE(catalog.DropTable("movies").ok());
}

TEST(TableTest, ScanEarlyStop) {
  auto table = Table::Create("movies", MovieSchema()).ValueOrDie();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        table->AppendRow({Value::Int(i), Value::Text("t"), Value::Int(i)}).ok());
  }
  int visited = 0;
  table->Scan([&](size_t, const Row&) {
    ++visited;
    return visited < 3;
  });
  EXPECT_EQ(visited, 3);
}

// ---------------------------------------------------------------------------
// Key↔position (DESIGN.md §10): FindByKey is a PK probe plus the order
// index's row locator. Every test runs on all four storage models and checks
// FindByKey against the display order itself after each mutation.
// ---------------------------------------------------------------------------

/// (title TEXT, id INT PRIMARY KEY, year INT): the key is not column 0, so
/// dropping column 0 moves it.
Schema KeyedSchema() {
  return Schema({ColumnDef{"title", DataType::kText, false},
                 ColumnDef{"id", DataType::kInt, true},
                 ColumnDef{"year", DataType::kInt, false}});
}

Row KeyedRow(int64_t id) {
  return {Value::Text("t" + std::to_string(id)), Value::Int(id),
          Value::Int(1900 + id % 100)};
}

/// Every row's key maps back to its display position, and `absent` keys
/// are not found.
void ExpectKeysAtPositions(const Table& table,
                           const std::vector<Value>& absent = {}) {
  size_t pk = table.schema().primary_key_index().value();
  for (size_t pos = 0; pos < table.num_rows(); ++pos) {
    Value key = table.GetAt(pos, pk).value();
    auto found = table.FindByKey(key);
    ASSERT_TRUE(found.ok()) << key.ToSqlLiteral() << ": " << found.status().ToString();
    ASSERT_EQ(found.value(), pos) << key.ToSqlLiteral();
  }
  for (const Value& key : absent) {
    auto found = table.FindByKey(key);
    ASSERT_FALSE(found.ok()) << key.ToSqlLiteral();
    EXPECT_EQ(found.status().code(), StatusCode::kNotFound);
  }
}

/// Reverses a journal the way ROLLBACK does (newest entry first).
void UndoAll(UndoJournal* journal) {
  for (size_t i = journal->entries.size(); i-- > 0;) {
    UndoJournal::Entry& e = journal->entries[i];
    Status s;
    switch (e.kind) {
      case UndoJournal::Entry::Kind::kInsert:
        s = e.table->UndoInsertRow(e.pos, e.rid);
        break;
      case UndoJournal::Entry::Kind::kDelete:
        s = e.table->UndoDeleteRow(e.pos, std::move(e.row), e.rid);
        break;
      case UndoJournal::Entry::Kind::kUpdate:
        s = e.table->UndoUpdateCell(e.rid, e.col, std::move(e.old_value));
        break;
    }
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  journal->Clear();
}

std::vector<Value> KeysInOrder(const Table& table) {
  size_t pk = table.schema().primary_key_index().value();
  std::vector<Value> keys;
  for (size_t pos = 0; pos < table.num_rows(); ++pos) {
    keys.push_back(table.GetAt(pos, pk).value());
  }
  return keys;
}

class KeyLocationTest : public ::testing::TestWithParam<StorageModel> {
 protected:
  std::unique_ptr<Table> MakeTable(Schema schema = KeyedSchema()) {
    return Table::Create("keyed", std::move(schema), GetParam()).ValueOrDie();
  }
};

TEST_P(KeyLocationTest, MiddleInsertsAndDeletes) {
  auto table = MakeTable();
  std::mt19937 rng(11);
  std::vector<Value> gone;
  int64_t next_key = 0;
  for (; next_key < 300; ++next_key) {
    ASSERT_TRUE(table->AppendRow(KeyedRow(next_key * 7)).ok());
  }
  ExpectKeysAtPositions(*table);
  for (int step = 0; step < 400; ++step) {
    if (rng() % 2 == 0) {
      size_t pos = rng() % (table->num_rows() + 1);
      ASSERT_TRUE(table->InsertRowAt(pos, KeyedRow(next_key++ * 7)).ok());
    } else {
      size_t pos = rng() % table->num_rows();
      gone.push_back(table->GetAt(pos, 1).value());
      ASSERT_TRUE(table->DeleteRowAt(pos).ok());
    }
    if (step % 20 == 0) ExpectKeysAtPositions(*table);
  }
  ExpectKeysAtPositions(*table, gone);
}

TEST_P(KeyLocationTest, UndoRestoresKeysAndPositions) {
  auto table = MakeTable();
  for (int64_t k = 0; k < 200; ++k) {
    ASSERT_TRUE(table->AppendRow(KeyedRow(k)).ok());
  }
  std::vector<Value> before = KeysInOrder(*table);
  UndoJournal journal;
  table->set_undo_journal(&journal);
  ASSERT_TRUE(table->InsertRowAt(50, KeyedRow(1000)).ok());
  ASSERT_TRUE(table->DeleteRowAt(120).ok());
  ASSERT_TRUE(table->DeleteRowAt(0).ok());
  ASSERT_TRUE(table->UpdateAt(10, 1, Value::Int(2000)).ok());     // PK update
  ASSERT_TRUE(table->UpdateByKey(Value::Int(77), 1, Value::Int(3000)).ok());
  ASSERT_TRUE(table->UpdateAt(20, 2, Value::Int(1)).ok());        // non-key
  ExpectKeysAtPositions(*table, {Value::Int(77)});
  EXPECT_EQ(table->FindByKey(Value::Int(1000)).value(), 49u);
  UndoAll(&journal);
  table->set_undo_journal(nullptr);
  EXPECT_EQ(KeysInOrder(*table), before);
  ExpectKeysAtPositions(*table, {Value::Int(1000), Value::Int(2000),
                                 Value::Int(3000)});
}

TEST_P(KeyLocationTest, PkUpdateAndDuplicateRejection) {
  auto table = MakeTable();
  for (int64_t k = 0; k < 50; ++k) {
    ASSERT_TRUE(table->AppendRow(KeyedRow(k)).ok());
  }
  // Duplicate keys are refused on insert, positional update and keyed
  // update, and leave the index as it was.
  EXPECT_FALSE(table->AppendRow(KeyedRow(5)).ok());
  EXPECT_FALSE(table->InsertRowAt(3, KeyedRow(49)).ok());
  EXPECT_FALSE(table->UpdateAt(7, 1, Value::Int(8)).ok());
  EXPECT_FALSE(table->UpdateByKey(Value::Int(9), 1, Value::Int(10)).ok());
  EXPECT_FALSE(table->UpdateByKey(Value::Int(9), 1, Value::Null()).ok());
  EXPECT_EQ(table->num_rows(), 50u);
  ExpectKeysAtPositions(*table);
  // A key moves; its old value frees up for another row.
  ASSERT_TRUE(table->UpdateByKey(Value::Int(9), 1, Value::Int(900)).ok());
  EXPECT_EQ(table->FindByKey(Value::Int(900)).value(), 9u);
  ASSERT_TRUE(table->InsertRowAt(0, KeyedRow(9)).ok());
  EXPECT_EQ(table->FindByKey(Value::Int(9)).value(), 0u);
  // A REAL probe equal to an INT key finds it (Value equality).
  EXPECT_EQ(table->FindByKey(Value::Real(900.0)).value(), 10u);
  ExpectKeysAtPositions(*table);
}

TEST_P(KeyLocationTest, SchemaChangesKeepTheKeyIndex) {
  auto table = MakeTable();
  for (int64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(table->AppendRow(KeyedRow(k * 3)).ok());
  }
  ASSERT_TRUE(table->DropColumn("title").ok());  // the key moves to column 0
  ASSERT_TRUE(
      table->AddColumn(ColumnDef{"note", DataType::kText, false}, Value::Null())
          .ok());
  ASSERT_TRUE(table->InsertRowAt(40, {Value::Int(1), Value::Int(5),
                                      Value::Text("n")})
                  .ok());
  ExpectKeysAtPositions(*table, {Value::Int(2)});
  EXPECT_EQ(table->FindByKey(Value::Int(1)).value(), 40u);
  // Dropping the key column drops the key index with it.
  ASSERT_TRUE(table->DropColumn("id").ok());
  EXPECT_FALSE(table->FindByKey(Value::Int(1)).ok());
}

TEST_P(KeyLocationTest, TextKeys) {
  auto table = MakeTable(Schema({ColumnDef{"name", DataType::kText, true},
                                 ColumnDef{"v", DataType::kInt, false}}));
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(table
                    ->InsertRowAt(static_cast<size_t>(i / 2),
                                  {Value::Text("key-" + std::to_string(i)),
                                   Value::Int(i)})
                    .ok());
  }
  ExpectKeysAtPositions(*table, {Value::Text("key-120"), Value::Text("")});
  EXPECT_FALSE(
      table->AppendRow({Value::Text("key-7"), Value::Int(0)}).ok());
  ASSERT_TRUE(table->UpdateByKey(Value::Text("key-7"), 0,
                                 Value::Text("renamed"))
                  .ok());
  ASSERT_TRUE(table->DeleteRowAt(table->FindByKey(Value::Text("key-8")).value())
                  .ok());
  ExpectKeysAtPositions(*table, {Value::Text("key-7"), Value::Text("key-8")});
}

TEST_P(KeyLocationTest, KeysWithCollidingLowHashBits) {
  // INT keys past 2^53 hash by identity in Value::Hash, so these share
  // their low 21 bits: one probe run without the index's hash finalizer.
  auto table = MakeTable();
  auto key = [](int64_t i) {
    return (int64_t{1} << 60) + (i << 21) + 1;
  };
  for (int64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(table->InsertRowAt(static_cast<size_t>(i % 7 == 0 ? 0 : i),
                                   KeyedRow(key(i)))
                    .ok());
  }
  std::vector<Value> gone;
  for (int64_t i = 0; i < 500; i += 3) {
    ASSERT_TRUE(
        table->DeleteRowAt(table->FindByKey(Value::Int(key(i))).value()).ok());
    gone.push_back(Value::Int(key(i)));
  }
  ExpectKeysAtPositions(*table, gone);
  EXPECT_FALSE(table->AppendRow(KeyedRow(key(1))).ok());
}

TEST_P(KeyLocationTest, RollbackRestoresPositions) {
  Database db;
  Table* table = db.CreateTable("keyed", KeyedSchema(), GetParam()).ValueOrDie();
  for (int64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(table->AppendRow(KeyedRow(k)).ok());
  }
  std::vector<Value> before = KeysInOrder(*table);
  ASSERT_TRUE(db.Execute("BEGIN").ok());
  ASSERT_TRUE(db.Execute("DELETE FROM keyed WHERE id = 40").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO keyed VALUES ('new', 500, 1)").ok());
  ASSERT_TRUE(db.Execute("UPDATE keyed SET id = 600 WHERE id = 3").ok());
  ASSERT_TRUE(db.Execute("DELETE FROM keyed WHERE year < 1905").ok());
  ExpectKeysAtPositions(*table, {Value::Int(40), Value::Int(3)});
  ASSERT_TRUE(db.Execute("ROLLBACK").ok());
  EXPECT_EQ(KeysInOrder(*table), before);
  ExpectKeysAtPositions(*table, {Value::Int(500), Value::Int(600)});
}

TEST_P(KeyLocationTest, FindByKeyAfterReopen) {
  const std::string base = ::testing::TempDir() + "ds_keyloc_" +
                           StorageModelName(GetParam());
  const std::string wal = base + ".wal", spill = base + ".pages";
  std::remove(wal.c_str());
  std::remove(spill.c_str());
  DatabaseOptions options;
  options.pager.spill_path = spill;
  options.pager.wal_path = wal;
  options.pager.durable_spill = true;
  std::vector<Value> keys;
  {
    Database db(options);
    Table* table =
        db.CreateTable("keyed", KeyedSchema(), GetParam()).ValueOrDie();
    for (int64_t k = 0; k < 150; ++k) {
      ASSERT_TRUE(table->InsertRowAt(static_cast<size_t>(k / 3), KeyedRow(k))
                      .ok());
    }
    ASSERT_TRUE(db.Execute("DELETE FROM keyed WHERE id = 10").ok());
    ASSERT_TRUE(db.Execute("UPDATE keyed SET id = 999 WHERE id = 20").ok());
    keys = KeysInOrder(*table);
  }
  {
    Database db(options);  // Attach → AdoptRowMaps → RebuildPkIndex
    Table* table = db.catalog().GetTable("keyed").ValueOrDie();
    EXPECT_EQ(KeysInOrder(*table), keys);
    ExpectKeysAtPositions(*table, {Value::Int(10), Value::Int(20)});
    EXPECT_FALSE(table->AppendRow(KeyedRow(999)).ok());
  }
  std::remove(wal.c_str());
  std::remove(spill.c_str());
}

INSTANTIATE_TEST_SUITE_P(Models, KeyLocationTest,
                         ::testing::Values(StorageModel::kRow,
                                           StorageModel::kColumn,
                                           StorageModel::kRcv,
                                           StorageModel::kHybrid),
                         [](const auto& info) {
                           return std::string(StorageModelName(info.param));
                         });

// ---------------------------------------------------------------------------
// Table::Attach validates and never repairs (DESIGN.md §6 "Catalog
// recovery"): recovery replays only closed statement brackets, so any
// disagreement between the side files and the storage files is corruption.
// Each case tampers with one fresh table's files through the Pager API and
// attaches it directly.
// ---------------------------------------------------------------------------

class TableAttachTest : public ::testing::TestWithParam<StorageModel> {
 protected:
  void SetUp() override {
    base_ = ::testing::TempDir() + "ds_attach_" + StorageModelName(GetParam());
    RemoveFiles();
    storage::PagerConfig config;
    config.wal_path = base_ + ".wal";
    config.spill_path = base_ + ".pages";
    config.durable_spill = true;
    pager_ = std::make_unique<storage::Pager>(config);
  }
  void TearDown() override {
    pager_.reset();
    RemoveFiles();
  }
  void RemoveFiles() {
    std::remove((base_ + ".wal").c_str());
    std::remove((base_ + ".pages").c_str());
  }

  /// A durable table of kRows rows whose display order differs from its
  /// storage order; the Table object goes away, its files stay.
  TableDescriptor MakeTable(const std::string& name) {
    auto table =
        Table::Create(name, MovieSchema(), GetParam(), pager_.get())
            .ValueOrDie();
    for (int64_t i = 0; i < static_cast<int64_t>(kRows); ++i) {
      EXPECT_TRUE(table->InsertRowAt(0, {Value::Int(i), Value::Text("t"),
                                         Value::Int(1900 + i)})
                      .ok());
    }
    return table->Describe();
  }

  static constexpr size_t kRows = 6;
  std::string base_;
  std::unique_ptr<storage::Pager> pager_;
};

TEST_P(TableAttachTest, AttachRejectsSideFilesThatDisagree) {
  storage::Pager& pager = *pager_;

  TableDescriptor clean = MakeTable("clean");
  auto attached = Table::Attach(clean, &pager);
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  ASSERT_EQ(attached.value()->num_rows(), kRows);
  for (size_t pos = 0; pos < kRows; ++pos) {
    EXPECT_EQ(attached.value()->GetAt(pos, 0).value(),
              Value::Int(static_cast<int64_t>(kRows - 1 - pos)));
  }

  TableDescriptor short_rid = MakeTable("short_rid");
  pager.Truncate(short_rid.rid_file, kRows - 1);
  EXPECT_FALSE(Table::Attach(short_rid, &pager).ok())
      << "rid file one slot short";

  TableDescriptor dup_order = MakeTable("dup_order");
  pager.Write(dup_order.order_file, 1, pager.Read(dup_order.order_file, 0));
  EXPECT_FALSE(Table::Attach(dup_order, &pager).ok())
      << "order file holding a duplicate rid";

  TableDescriptor torn = MakeTable("torn");
  const StorageManifest& m = torn.manifest;
  switch (GetParam()) {
    case StorageModel::kRow:
      // One more tuple's worth of slots than the order file has rows.
      for (uint64_t c = 0; c < m.num_columns; ++c) {
        pager.Write(m.files[0], kRows * m.num_columns + c, Value::Int(0));
      }
      break;
    case StorageModel::kColumn:
      for (uint64_t f : m.files) pager.Write(f, kRows, Value::Int(0));
      break;
    case StorageModel::kHybrid:
      for (const StorageManifest::Group& g : m.groups) {
        for (uint64_t o = 0; o < g.width; ++o) {
          pager.Write(g.file, kRows * g.width + o, Value::Int(0));
        }
      }
      break;
    case StorageModel::kRcv:
      // Column 0's first back-pointer names a row past the row count.
      pager.Write(m.files[1], 0, Value::Int(static_cast<int64_t>(kRows)));
      break;
  }
  EXPECT_FALSE(Table::Attach(torn, &pager).ok())
      << "storage files disagreeing with the order file";
}

INSTANTIATE_TEST_SUITE_P(Models, TableAttachTest,
                         ::testing::Values(StorageModel::kRow,
                                           StorageModel::kColumn,
                                           StorageModel::kRcv,
                                           StorageModel::kHybrid),
                         [](const auto& info) {
                           return std::string(StorageModelName(info.param));
                         });

}  // namespace
}  // namespace dataspread
