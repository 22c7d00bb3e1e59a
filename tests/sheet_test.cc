#include <gtest/gtest.h>

#include "sheet/sheet.h"
#include "sheet/workbook.h"

namespace dataspread {
namespace {

TEST(SheetTest, EmptySheet) {
  Sheet s("S");
  EXPECT_EQ(s.cell_count(), 0u);
  EXPECT_EQ(s.GetCell(0, 0), nullptr);
  EXPECT_TRUE(s.GetValue(5, 5).is_null());
  EXPECT_EQ(s.UsedExtent(), (std::pair<int64_t, int64_t>{0, 0}));
}

TEST(SheetTest, SetAndGetValues) {
  Sheet s("S");
  ASSERT_TRUE(s.SetValue(1, 2, Value::Int(42)).ok());
  EXPECT_EQ(s.GetValue(1, 2), Value::Int(42));
  EXPECT_EQ(s.cell_count(), 1u);
  ASSERT_TRUE(s.SetValue(1, 2, Value::Text("x")).ok());
  EXPECT_EQ(s.GetValue(1, 2), Value::Text("x"));
  EXPECT_EQ(s.cell_count(), 1u);
  ASSERT_TRUE(s.ClearCell(1, 2).ok());
  EXPECT_EQ(s.cell_count(), 0u);
  EXPECT_TRUE(s.GetValue(1, 2).is_null());
}

TEST(SheetTest, SettingNullClears) {
  Sheet s("S");
  ASSERT_TRUE(s.SetValue(0, 0, Value::Int(1)).ok());
  ASSERT_TRUE(s.SetValue(0, 0, Value::Null()).ok());
  EXPECT_EQ(s.cell_count(), 0u);
}

TEST(SheetTest, AutoGrowsBeyondInitialExtent) {
  Sheet s("S", 4, 4);
  EXPECT_EQ(s.num_rows(), 4);
  ASSERT_TRUE(s.SetValue(1000, 100, Value::Int(1)).ok());
  EXPECT_GE(s.num_rows(), 1001);
  EXPECT_GE(s.num_cols(), 101);
  EXPECT_EQ(s.GetValue(1000, 100), Value::Int(1));
  EXPECT_FALSE(s.SetValue(-1, 0, Value::Int(1)).ok());
}

TEST(SheetTest, FormulaTextStored) {
  Sheet s("S");
  ASSERT_TRUE(s.SetFormula(0, 0, "=1+2").ok());
  const Cell* cell = s.GetCell(0, 0);
  ASSERT_NE(cell, nullptr);
  EXPECT_TRUE(cell->has_formula());
  EXPECT_EQ(cell->formula, "=1+2");
  EXPECT_FALSE(s.SetFormula(0, 1, "1+2").ok());  // must start with '='
  ASSERT_TRUE(s.SetComputedValue(0, 0, Value::Int(3)).ok());
  EXPECT_EQ(s.GetValue(0, 0), Value::Int(3));
  EXPECT_EQ(s.GetCell(0, 0)->formula, "=1+2");  // preserved
  // Plain SetValue clears the formula.
  ASSERT_TRUE(s.SetValue(0, 0, Value::Int(9)).ok());
  EXPECT_FALSE(s.GetCell(0, 0)->has_formula());
}

TEST(SheetTest, UsedExtentTracksOccupancy) {
  Sheet s("S");
  ASSERT_TRUE(s.SetValue(3, 7, Value::Int(1)).ok());
  ASSERT_TRUE(s.SetValue(10, 2, Value::Int(2)).ok());
  EXPECT_EQ(s.UsedExtent(), (std::pair<int64_t, int64_t>{11, 8}));
  ASSERT_TRUE(s.ClearCell(10, 2).ok());
  EXPECT_EQ(s.UsedExtent(), (std::pair<int64_t, int64_t>{4, 8}));
}

TEST(SheetTest, VisitRangeOnlyOccupied) {
  Sheet s("S");
  ASSERT_TRUE(s.SetValue(0, 0, Value::Int(1)).ok());
  ASSERT_TRUE(s.SetValue(2, 2, Value::Int(2)).ok());
  ASSERT_TRUE(s.SetValue(50, 50, Value::Int(3)).ok());
  int count = 0;
  s.VisitRange(0, 0, 10, 10, [&](int64_t r, int64_t c, const Cell& cell) {
    EXPECT_TRUE((r == 0 && c == 0) || (r == 2 && c == 2));
    EXPECT_FALSE(cell.value.is_null());
    ++count;
  });
  EXPECT_EQ(count, 2);
}

TEST(SheetTest, InsertRowsShiftsContentDown) {
  Sheet s("S");
  ASSERT_TRUE(s.SetValue(0, 0, Value::Int(10)).ok());
  ASSERT_TRUE(s.SetValue(1, 0, Value::Int(20)).ok());
  ASSERT_TRUE(s.InsertRows(1, 2).ok());
  EXPECT_EQ(s.GetValue(0, 0), Value::Int(10));
  EXPECT_TRUE(s.GetValue(1, 0).is_null());
  EXPECT_TRUE(s.GetValue(2, 0).is_null());
  EXPECT_EQ(s.GetValue(3, 0), Value::Int(20));
}

TEST(SheetTest, DeleteRowsRemovesContent) {
  Sheet s("S");
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(s.SetValue(i, 0, Value::Int(i)).ok());
  }
  ASSERT_TRUE(s.DeleteRows(1, 2).ok());
  EXPECT_EQ(s.GetValue(0, 0), Value::Int(0));
  EXPECT_EQ(s.GetValue(1, 0), Value::Int(3));
  EXPECT_EQ(s.GetValue(2, 0), Value::Int(4));
  EXPECT_EQ(s.cell_count(), 3u);
  EXPECT_FALSE(s.DeleteRows(1000000, 1).ok());
}

TEST(SheetTest, InsertAndDeleteColsShiftContent) {
  Sheet s("S");
  ASSERT_TRUE(s.SetValue(0, 0, Value::Int(1)).ok());
  ASSERT_TRUE(s.SetValue(0, 1, Value::Int(2)).ok());
  ASSERT_TRUE(s.InsertCols(1, 1).ok());
  EXPECT_EQ(s.GetValue(0, 0), Value::Int(1));
  EXPECT_TRUE(s.GetValue(0, 1).is_null());
  EXPECT_EQ(s.GetValue(0, 2), Value::Int(2));
  ASSERT_TRUE(s.DeleteCols(0, 2).ok());
  EXPECT_EQ(s.GetValue(0, 0), Value::Int(2));
  EXPECT_EQ(s.cell_count(), 1u);
}

TEST(SheetTest, StructuralOpsAreFastOnHugeSheets) {
  // O(log n) row insertion via the positional index: inserting in the middle
  // of a million-row sheet must not re-key any cell.
  Sheet s("S", 1 << 20, 8);
  ASSERT_TRUE(s.SetValue(1000000, 0, Value::Int(1)).ok());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(s.InsertRows(500000, 1).ok());
  }
  EXPECT_EQ(s.GetValue(1001000, 0), Value::Int(1));
}

TEST(SheetTest, ScrollingWindowReusesEmptiedTiles) {
  // A 64-row x 4-col window sliding down 20k rows, the way a bound pane
  // materializes: write the new rows, clear the ones that left. Emptied
  // tiles return to a free list, so the slot count stays at what the
  // window covers at once instead of growing with every tile ever touched.
  Sheet s("S");
  constexpr int64_t kWindow = 64, kCols = 4, kStep = 16;
  for (int64_t top = 0; top < 20000; top += kStep) {
    for (int64_t r = top; r < top + kWindow; ++r) {
      for (int64_t c = 0; c < kCols; ++c) {
        ASSERT_TRUE(s.SetValue(r, c, Value::Int(r)).ok());
      }
    }
    if (top >= kStep) {
      for (int64_t r = top - kStep; r < top; ++r) {
        for (int64_t c = 0; c < kCols; ++c) ASSERT_TRUE(s.ClearCell(r, c).ok());
      }
    }
  }
  EXPECT_EQ(s.cell_count(), static_cast<size_t>(kWindow * kCols));
  EXPECT_LE(s.tile_slots(), 4u);  // a 64-row span straddles at most 3 tiles
  EXPECT_EQ(s.GetValue(20000 - kStep, 0), Value::Int(20000 - kStep));
  EXPECT_TRUE(s.GetValue(0, 0).is_null());
}

TEST(SheetTest, EventsEmitted) {
  Sheet s("S");
  std::vector<SheetEvent> events;
  int token = s.AddListener([&](const SheetEvent& e) { events.push_back(e); });
  ASSERT_TRUE(s.SetValue(1, 1, Value::Int(1)).ok());
  ASSERT_TRUE(s.InsertRows(0, 2).ok());
  ASSERT_TRUE(s.DeleteCols(0, 1).ok());
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, SheetEvent::Kind::kCellChanged);
  EXPECT_EQ(events[0].row, 1);
  EXPECT_EQ(events[1].kind, SheetEvent::Kind::kRowsInserted);
  EXPECT_EQ(events[1].index, 0);
  EXPECT_EQ(events[1].count, 2);
  EXPECT_EQ(events[2].kind, SheetEvent::Kind::kColsDeleted);
  s.RemoveListener(token);
  ASSERT_TRUE(s.SetValue(0, 0, Value::Int(2)).ok());
  EXPECT_EQ(events.size(), 3u);
  // SetComputedValue is silent by design.
  int computed_events = 0;
  s.AddListener([&](const SheetEvent&) { ++computed_events; });
  ASSERT_TRUE(s.SetComputedValue(5, 5, Value::Int(9)).ok());
  EXPECT_EQ(computed_events, 0);
}

TEST(WorkbookTest, SheetManagement) {
  Workbook wb;
  ASSERT_TRUE(wb.AddSheet("Sheet1").ok());
  ASSERT_TRUE(wb.AddSheet("Data").ok());
  EXPECT_FALSE(wb.AddSheet("SHEET1").ok());  // case-insensitive collision
  EXPECT_TRUE(wb.GetSheet("sheet1").ok());
  EXPECT_FALSE(wb.GetSheet("ghost").ok());
  EXPECT_EQ(wb.size(), 2u);
  ASSERT_TRUE(wb.RemoveSheet("Data").ok());
  EXPECT_EQ(wb.size(), 1u);
}

}  // namespace
}  // namespace dataspread
