#include <gtest/gtest.h>

#include "core/dataspread.h"

namespace dataspread {
namespace {

/// Figure 2c scenarios: two-way synchronization between a bound sheet region
/// and the underlying relational table.
class BindingSyncTest : public ::testing::Test {
 protected:
  BindingSyncTest() {
    sheet_ = ds_.AddSheet("S").ValueOrDie();
    auto r = ds_.Sql(
        "CREATE TABLE people (id INT PRIMARY KEY, name TEXT, age INT)");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    r = ds_.Sql(
        "INSERT INTO people VALUES (1, 'ann', 30), (2, 'bob', 40), "
        "(3, 'cat', 50)");
    EXPECT_TRUE(r.ok());
  }

  DataSpread ds_;
  Sheet* sheet_;
};

TEST_F(BindingSyncTest, ImportMaterializesHeaderAndData) {
  auto binding = ds_.ImportTable("S", "A1", "people");
  ASSERT_TRUE(binding.ok()) << binding.status().ToString();
  // Header row: the anchor holds the DBTABLE formula whose value is the
  // first column name; the remaining headers are plain cells.
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 0), Value::Text("id"));
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 1), Value::Text("name"));
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 2), Value::Text("age"));
  // Data rows.
  EXPECT_EQ(ds_.GetValueAt(sheet_, 1, 0), Value::Int(1));
  EXPECT_EQ(ds_.GetValueAt(sheet_, 1, 1), Value::Text("ann"));
  EXPECT_EQ(ds_.GetValueAt(sheet_, 3, 2), Value::Int(50));
  EXPECT_TRUE(sheet_->GetCell(0, 0)->has_formula());
}

TEST_F(BindingSyncTest, BackEndUpdateRefreshesSheet) {
  ASSERT_TRUE(ds_.ImportTable("S", "A1", "people").ok());
  auto r = ds_.Sql("UPDATE people SET age = 31 WHERE id = 1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 1, 2), Value::Int(31));
}

TEST_F(BindingSyncTest, BackEndInsertAndDeleteRefreshSheet) {
  ASSERT_TRUE(ds_.ImportTable("S", "A1", "people").ok());
  ASSERT_TRUE(ds_.Sql("INSERT INTO people VALUES (4, 'dan', 60)").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 4, 1), Value::Text("dan"));
  ASSERT_TRUE(ds_.Sql("DELETE FROM people WHERE id = 2").ok());
  // Row for bob vanished; cat shifted up, dan now at row 3.
  EXPECT_EQ(ds_.GetValueAt(sheet_, 2, 1), Value::Text("cat"));
  EXPECT_EQ(ds_.GetValueAt(sheet_, 3, 1), Value::Text("dan"));
  EXPECT_TRUE(ds_.GetValueAt(sheet_, 4, 1).is_null());
}

TEST_F(BindingSyncTest, FrontEndEditBecomesKeyedUpdate) {
  ASSERT_TRUE(ds_.ImportTable("S", "A1", "people").ok());
  // Edit bob's age on the sheet (row 2 displays id 2).
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 2, 2, "41").ok());
  auto rs = ds_.Sql("SELECT age FROM people WHERE id = 2");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.value().rows[0][0], Value::Int(41));
  // And the sheet reflects it after the refresh round-trip.
  EXPECT_EQ(ds_.GetValueAt(sheet_, 2, 2), Value::Int(41));
}

TEST_F(BindingSyncTest, FrontEndEditRejectsTypeViolations) {
  ASSERT_TRUE(ds_.ImportTable("S", "A1", "people").ok());
  // age is INT; writing text must fail and leave the DB untouched.
  EXPECT_FALSE(ds_.SetCellAt(sheet_, 2, 2, "not a number").ok());
  auto rs = ds_.Sql("SELECT age FROM people WHERE id = 2");
  EXPECT_EQ(rs.value().rows[0][0], Value::Int(40));
}

TEST_F(BindingSyncTest, HeaderEditRenamesColumn) {
  ASSERT_TRUE(ds_.ImportTable("S", "A1", "people").ok());
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 0, 2, "years").ok());
  auto table = ds_.db().catalog().GetTable("people").ValueOrDie();
  EXPECT_TRUE(table->schema().FindColumn("years").has_value());
  EXPECT_FALSE(table->schema().FindColumn("age").has_value());
}

TEST_F(BindingSyncTest, FormulaInsideBindingRejected) {
  ASSERT_TRUE(ds_.ImportTable("S", "A1", "people").ok());
  EXPECT_FALSE(ds_.SetCellAt(sheet_, 1, 1, "=1+1").ok());
}

TEST_F(BindingSyncTest, SheetFormulasSeeBoundData) {
  ASSERT_TRUE(ds_.ImportTable("S", "A1", "people").ok());
  // SUM over the bound age column (C2:C4 in sheet coordinates).
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 0, 4, "=SUM(C2:C4)").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 4), Value::Real(120.0));
  // A back-end update flows through to the dependent formula (Figure 2c).
  ASSERT_TRUE(ds_.Sql("UPDATE people SET age = 35 WHERE id = 1").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 4), Value::Real(125.0));
}

TEST_F(BindingSyncTest, EditBeyondTableRejected) {
  ASSERT_TRUE(ds_.ImportTable("S", "A1", "people").ok());
  // Row 10 is inside the binding column span but beyond the 3 data rows:
  // not part of the bound region, lands as a plain sheet cell.
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 10, 0, "99").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 10, 0), Value::Int(99));
  auto rs = ds_.Sql("SELECT COUNT(*) FROM people");
  EXPECT_EQ(rs.value().rows[0][0], Value::Int(3));
}

TEST_F(BindingSyncTest, UnbindClearsMaterializedCells) {
  ASSERT_TRUE(ds_.ImportTable("S", "A1", "people").ok());
  auto* binding = ds_.interface_manager().FindBindingAt(sheet_, 1, 0);
  ASSERT_NE(binding, nullptr);
  ASSERT_TRUE(ds_.interface_manager().Unbind(binding->id()).ok());
  EXPECT_TRUE(ds_.GetValueAt(sheet_, 1, 0).is_null());
  EXPECT_TRUE(ds_.GetValueAt(sheet_, 0, 1).is_null());
  // Subsequent edits are plain cells again.
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 1, 0, "7").ok());
  EXPECT_EQ(ds_.Sql("SELECT COUNT(*) FROM people").value().rows[0][0],
            Value::Int(3));
}

TEST_F(BindingSyncTest, DropTableUnbindsItsBindings) {
  ASSERT_TRUE(ds_.ImportTable("S", "A1", "people").ok());
  ASSERT_TRUE(ds_.Sql("DROP TABLE people").ok());
  EXPECT_TRUE(ds_.interface_manager().bindings().empty());
  // The next pane move must not touch the dropped table.
  ASSERT_TRUE(ds_.ScrollTo("S", 0, 0).ok());
  ASSERT_TRUE(ds_.ScrollTo("S", 2, 0).ok());
  EXPECT_TRUE(ds_.GetValueAt(sheet_, 1, 0).is_null());
  EXPECT_TRUE(ds_.GetValueAt(sheet_, 0, 1).is_null());
  EXPECT_TRUE(ds_.GetValueAt(sheet_, 0, 0).is_error());  // DBTABLE: #NAME?
  // The region is plain cells again.
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 1, 1, "free").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 1, 1), Value::Text("free"));
  // A table recreated under the name binds afresh on re-entry.
  ASSERT_TRUE(ds_.Sql("CREATE TABLE people (id INT PRIMARY KEY, name TEXT)")
                  .ok());
  ASSERT_TRUE(ds_.Sql("INSERT INTO people VALUES (9, 'zed')").ok());
  ASSERT_TRUE(ds_.ImportTable("S", "A1", "people").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 1, 1), Value::Text("zed"));
}

TEST_F(BindingSyncTest, WindowSlideWritesOnlyEnteringRows) {
  for (int i = 4; i <= 200; ++i) {
    ASSERT_TRUE(ds_.Sql("INSERT INTO people VALUES (" + std::to_string(i) +
                        ", 'p" + std::to_string(i) + "', " +
                        std::to_string(i) + ")")
                    .ok());
  }
  ASSERT_TRUE(ds_.ImportTable("S", "A1", "people", 50).ok());
  TableBinding* binding = ds_.interface_manager().FindBindingAt(sheet_, 1, 0);
  ASSERT_NE(binding, nullptr);
  Table* table = binding->table();
  size_t written = 0;
  binding->set_cell_written_hook([&](int64_t, int64_t) { ++written; });
  auto expect_window = [&]() {
    for (size_t p = 0; p < table->num_rows(); ++p) {
      int64_t row = binding->data_row() + static_cast<int64_t>(p);
      bool shown = p >= binding->window_start() &&
                   p < binding->window_start() + binding->window_count();
      for (int64_t c = 0; c < 3; ++c) {
        Value cell = ds_.GetValueAt(sheet_, row, c);
        if (shown) {
          ASSERT_EQ(cell, table->GetAt(p, static_cast<size_t>(c)).value())
              << p;
        } else {
          ASSERT_TRUE(cell.is_null()) << p;
        }
      }
    }
  };
  // Down 10: 10 rows enter, 10 leave, 3 cells each.
  ASSERT_TRUE(binding->SetWindow(10, 50).ok());
  EXPECT_EQ(written, 60u);
  expect_window();
  // Up 4 (overlapping), then a jump (disjoint: every row is new).
  written = 0;
  ASSERT_TRUE(binding->SetWindow(6, 50).ok());
  EXPECT_EQ(written, 24u);
  expect_window();
  written = 0;
  ASSERT_TRUE(binding->SetWindow(120, 50).ok());
  EXPECT_EQ(written, 300u);
  expect_window();
  // A pending delta (no pump yet) makes the next slide rewrite it all.
  ASSERT_TRUE(table->UpdateAt(130, 1, Value::Text("changed")).ok());
  ASSERT_TRUE(table->DeleteRowAt(125).ok());
  ASSERT_TRUE(binding->SetWindow(121, 50).ok());
  expect_window();
  EXPECT_EQ(ds_.GetValueAt(sheet_, binding->data_row() + 129, 1),
            Value::Text("changed"));
}

TEST_F(BindingSyncTest, PklessTableUsesPositionalUpdates) {
  ASSERT_TRUE(ds_.Sql("CREATE TABLE notes (txt TEXT)").ok());
  ASSERT_TRUE(ds_.Sql("INSERT INTO notes VALUES ('a'), ('b')").ok());
  ASSERT_TRUE(ds_.ImportTable("S", "F1", "notes").ok());
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 2, 5, "edited").ok());
  auto rs = ds_.Sql("SELECT txt FROM notes ORDER BY txt");
  ASSERT_EQ(rs.value().num_rows(), 2u);
  EXPECT_EQ(rs.value().rows[1][0], Value::Text("edited"));
}

TEST_F(BindingSyncTest, CreateTableFromRangeExportsAndRoundTrips) {
  // Figure 2b: lay out a small table, export it, then import it elsewhere.
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 0, 6, "city").ok());
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 0, 7, "pop").ok());
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 1, 6, "oslo").ok());
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 1, 7, "700000").ok());
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 2, 6, "bergen").ok());
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 2, 7, "285000").ok());
  auto table = ds_.CreateTableFromRange("S", "G1:H3", "cities", "city");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table.value()->num_rows(), 2u);
  EXPECT_EQ(table.value()->schema().primary_key_index().value_or(99), 0u);
  auto rs = ds_.Sql("SELECT pop FROM cities WHERE city = 'oslo'");
  EXPECT_EQ(rs.value().rows[0][0], Value::Int(700000));
}

}  // namespace
}  // namespace dataspread
