#include <gtest/gtest.h>

#include "core/dataspread.h"

namespace dataspread {
namespace {

/// Figure 2a scenarios: DBSQL with positional addressing (RANGEVALUE /
/// RANGETABLE) and result spills.
class DbsqlTest : public ::testing::Test {
 protected:
  DbsqlTest() {
    sheet_ = ds_.AddSheet("S").ValueOrDie();
    EXPECT_TRUE(ds_.Sql("CREATE TABLE actors (actorid INT PRIMARY KEY, "
                        "name TEXT)").ok());
    EXPECT_TRUE(ds_.Sql("INSERT INTO actors VALUES (1, 'Weaver'), "
                        "(2, 'Oldman'), (3, 'Thurman')").ok());
  }

  DataSpread ds_;
  Sheet* sheet_;
};

TEST_F(DbsqlTest, PlainQuerySpillsBlock) {
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 0, 0,
                            "=DBSQL(\"SELECT actorid, name FROM actors "
                            "ORDER BY actorid\")").ok());
  // Anchor gets the first value; the block spans 3 rows × 2 columns.
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 0), Value::Int(1));
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 1), Value::Text("Weaver"));
  EXPECT_EQ(ds_.GetValueAt(sheet_, 2, 1), Value::Text("Thurman"));
}

TEST_F(DbsqlTest, RangeValueRelativeReference) {
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 0, 0, "2").ok());  // A1
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 0, 1,
                            "=DBSQL(\"SELECT name FROM actors WHERE "
                            "actorid = RANGEVALUE(A1)\")").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 1), Value::Text("Oldman"));
  // Editing the referenced cell re-runs the query (dependency tracked).
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 0, 0, "3").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 1), Value::Text("Thurman"));
}

TEST_F(DbsqlTest, BackEndChangeRerunsDbsql) {
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 0, 0,
                            "=DBSQL(\"SELECT COUNT(*) FROM actors\")").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 0), Value::Int(3));
  ASSERT_TRUE(ds_.Sql("INSERT INTO actors VALUES (4, 'Rickman')").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 0), Value::Int(4));
}

TEST_F(DbsqlTest, RangeTableJoinsSheetDataWithDatabase) {
  // Sheet range with header: actorid | bonus.
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 0, 3, "actorid").ok());  // D1
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 0, 4, "bonus").ok());    // E1
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 1, 3, "1").ok());
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 1, 4, "100").ok());
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 2, 3, "3").ok());
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 2, 4, "250").ok());
  ASSERT_TRUE(ds_.SetCellAt(
                    sheet_, 0, 6,
                    "=DBSQL(\"SELECT name, bonus FROM actors NATURAL JOIN "
                    "RANGETABLE(D1:E3) ORDER BY bonus DESC\")")
                  .ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 6), Value::Text("Thurman"));
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 7), Value::Int(250));
  EXPECT_EQ(ds_.GetValueAt(sheet_, 1, 6), Value::Text("Weaver"));
  // Editing sheet data inside the RANGETABLE re-runs the query.
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 1, 4, "999").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 6), Value::Text("Weaver"));
}

TEST_F(DbsqlTest, SpillShrinksCleanly) {
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 0, 0,
                            "=DBSQL(\"SELECT name FROM actors ORDER BY "
                            "actorid\")").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 2, 0), Value::Text("Thurman"));
  ASSERT_TRUE(ds_.Sql("DELETE FROM actors WHERE actorid > 1").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 0), Value::Text("Weaver"));
  // Stale spill rows are cleared.
  EXPECT_TRUE(ds_.GetValueAt(sheet_, 1, 0).is_null());
  EXPECT_TRUE(ds_.GetValueAt(sheet_, 2, 0).is_null());
}

TEST_F(DbsqlTest, SharedComputationAcrossIdenticalCells) {
  uint64_t before = ds_.interface_manager().dbsql_executions();
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 0, 0,
                            "=DBSQL(\"SELECT COUNT(*) FROM actors\")").ok());
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 5, 0,
                            "=DBSQL(\"SELECT COUNT(*) FROM actors\")").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 5, 0), Value::Int(3));
  // The second identical query is served from the shared-result cache.
  EXPECT_EQ(ds_.interface_manager().dbsql_executions() - before, 1u);
  EXPECT_GE(ds_.interface_manager().dbsql_cache_hits(), 1u);
}

TEST_F(DbsqlTest, DbsqlRejectsNonSelect) {
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 0, 0,
                            "=DBSQL(\"DELETE FROM actors\")").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 0), Value::Error("#VALUE!"));
  EXPECT_EQ(ds_.Sql("SELECT COUNT(*) FROM actors").value().rows[0][0],
            Value::Int(3));
}

TEST_F(DbsqlTest, BadSqlShowsValueError) {
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 0, 0, "=DBSQL(\"SELEKT nope\")").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 0), Value::Error("#VALUE!"));
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 1, 0, "=DBSQL(42)").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 1, 0), Value::Error("#VALUE!"));
}

TEST_F(DbsqlTest, EmptyResultShowsPlaceholder) {
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 0, 0,
                            "=DBSQL(\"SELECT name FROM actors WHERE "
                            "actorid = 99\")").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 0), Value::Text("(0 rows)"));
}

TEST_F(DbsqlTest, FormulasOverSpill) {
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 0, 0,
                            "=DBSQL(\"SELECT actorid FROM actors ORDER BY "
                            "actorid\")").ok());
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 0, 2, "=SUM(A1:A3)").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 2), Value::Real(6.0));
  // Figure 2c chain: DB change → DBSQL spill refresh → dependent formula.
  // Inserting actorid 0 shifts the ordered spill to [0,1,2,3]: SUM(A1:A3)=3.
  ASSERT_TRUE(ds_.Sql("INSERT INTO actors VALUES (0, 'Zeta')").ok());
  EXPECT_EQ(ds_.GetValueAt(sheet_, 0, 2), Value::Real(3.0));
}

TEST(DbsqlCacheTest, DropAndRecreateIsNotAStaleHit) {
  // The recreated table restarts at the same version the dropped one had
  // reached; the cached result must still not be served for it.
  DataSpreadOptions opts;
  opts.auto_pump = false;
  DataSpread ds(opts);
  Sheet* sheet = ds.AddSheet("S").ValueOrDie();
  ASSERT_TRUE(ds.Sql("CREATE TABLE t (id INT PRIMARY KEY, amount INT)").ok());
  ASSERT_TRUE(ds.Sql("INSERT INTO t VALUES (1, 10), (2, 20)").ok());
  ASSERT_TRUE(ds.SetCellAt(sheet, 0, 0,
                           "=DBSQL(\"SELECT SUM(amount) FROM t\")").ok());
  ds.Pump();
  ASSERT_EQ(ds.GetValueAt(sheet, 0, 0), Value::Int(30));

  ASSERT_TRUE(ds.Sql("DROP TABLE t").ok());
  ASSERT_TRUE(ds.Sql("CREATE TABLE t (id INT PRIMARY KEY, amount INT)").ok());
  ASSERT_TRUE(ds.Sql("INSERT INTO t VALUES (1, 1000), (2, 2000)").ok());
  ds.Pump();
  EXPECT_EQ(ds.Sql("SELECT SUM(amount) FROM t").value().rows[0][0],
            Value::Int(3000));
  EXPECT_EQ(ds.GetValueAt(sheet, 0, 0), Value::Int(3000));
}

TEST(DbsqlCacheTest, AggregateEditsFoldWithoutReexecution) {
  // An eligible aggregate is seeded once, then kept current from deltas:
  // front-end edits, SQL DML and direct positional inserts/deletes all
  // refresh the anchor as cache hits.
  DataSpreadOptions opts;
  opts.auto_pump = false;
  DataSpread ds(opts);
  Sheet* sheet = ds.AddSheet("S").ValueOrDie();
  ASSERT_TRUE(ds.Sql("CREATE TABLE t (id INT PRIMARY KEY, amount INT)").ok());
  ASSERT_TRUE(ds.Sql("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)").ok());
  ASSERT_TRUE(ds.ImportTable("S", "A1", "t").ok());
  ASSERT_TRUE(ds.SetCellAt(sheet, 0, 4,
                           "=DBSQL(\"SELECT SUM(amount), COUNT(*), MAX(amount) "
                           "FROM t WHERE amount > 5\")").ok());
  ds.Pump();
  ASSERT_EQ(ds.GetValueAt(sheet, 0, 4), Value::Int(60));
  const uint64_t runs = ds.interface_manager().dbsql_executions();

  ASSERT_TRUE(ds.SetCellAt(sheet, 2, 1, "25").ok());  // id 2: 20 -> 25
  ds.Pump();
  EXPECT_EQ(ds.GetValueAt(sheet, 0, 4), Value::Int(65));
  EXPECT_EQ(ds.GetValueAt(sheet, 2, 1), Value::Int(25));
  ASSERT_TRUE(ds.Sql("UPDATE t SET amount = 1 WHERE id = 1").ok());  // leaves WHERE
  Table* t = ds.db().catalog().GetTable("t").ValueOrDie();
  ASSERT_TRUE(t->InsertRowAt(1, {Value::Int(9), Value::Int(7)}).ok());
  ASSERT_TRUE(t->DeleteRowAt(0).ok());
  ds.Pump();
  EXPECT_EQ(ds.GetValueAt(sheet, 0, 4), Value::Int(62));  // 7 + 25 + 30
  EXPECT_EQ(ds.GetValueAt(sheet, 0, 5), Value::Int(3));
  EXPECT_EQ(ds.GetValueAt(sheet, 0, 6), Value::Int(30));
  EXPECT_EQ(ds.GetValueAt(sheet, 1, 0), Value::Int(9));  // shifted window
  EXPECT_EQ(ds.interface_manager().dbsql_executions(), runs);

  // Deleting the MAX cannot be folded: the entry falls back to one
  // re-execution and is maintained again from there.
  ASSERT_TRUE(ds.Sql("DELETE FROM t WHERE id = 3").ok());
  ds.Pump();
  EXPECT_EQ(ds.GetValueAt(sheet, 0, 6), Value::Int(25));
  EXPECT_EQ(ds.interface_manager().dbsql_executions(), runs + 1);
}

TEST_F(DbsqlTest, SqlThroughFacadeSupportsQualifiedRefs) {
  ASSERT_TRUE(ds_.SetCellAt(sheet_, 0, 0, "2").ok());
  auto rs = ds_.Sql("SELECT name FROM actors WHERE actorid = RANGEVALUE(S!A1)");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs.value().num_rows(), 1u);
  EXPECT_EQ(rs.value().rows[0][0], Value::Text("Oldman"));
  // Unqualified refs have no anchor through the facade.
  EXPECT_FALSE(ds_.Sql("SELECT RANGEVALUE(A1)").ok());
}

}  // namespace
}  // namespace dataspread
