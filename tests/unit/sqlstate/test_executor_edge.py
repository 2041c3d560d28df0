"""Executor edge cases beyond the main engine suite."""

import pytest

from repro.common.errors import SqlConstraintError, SqlError
from repro.sqlstate.engine import Database
from repro.sqlstate.values import SqlNull


@pytest.fixture()
def db():
    database = Database()
    database.executescript(
        """
        CREATE TABLE a (id INTEGER PRIMARY KEY, x INTEGER);
        CREATE TABLE b (id INTEGER PRIMARY KEY, y INTEGER);
        """
    )
    database.execute("INSERT INTO a (x) VALUES (1), (2)")
    database.execute("INSERT INTO b (y) VALUES (10), (20), (30)")
    return database


class TestJoins:
    def test_cross_join_cardinality(self, db):
        rows = db.execute("SELECT a.x, b.y FROM a, b").rows
        assert len(rows) == 6

    def test_cross_join_keyword(self, db):
        rows = db.execute("SELECT COUNT(*) FROM a CROSS JOIN b").scalar()
        assert rows == 6

    def test_table_dot_star(self, db):
        result = db.execute("SELECT b.* FROM a JOIN b ON b.id = a.id")
        assert result.columns == ["id", "y"]
        assert len(result.rows) == 2

    def test_self_join_with_aliases(self, db):
        rows = db.execute(
            "SELECT lo.x, hi.x FROM a lo JOIN a hi ON hi.x > lo.x"
        ).rows
        assert rows == [(1, 2)]

    def test_ambiguous_column_rejected(self, db):
        with pytest.raises(SqlError, match="ambiguous"):
            db.execute("SELECT id FROM a JOIN b ON a.id = b.id")

    def test_qualified_rowid(self, db):
        rows = db.execute("SELECT a.rowid FROM a ORDER BY a.rowid").rows
        assert rows == [(1,), (2,)]


class TestSelectShapes:
    def test_order_by_expression(self, db):
        rows = db.execute("SELECT x FROM a ORDER BY -x").rows
        assert rows == [(2,), (1,)]

    def test_order_by_ordinal(self, db):
        rows = db.execute("SELECT x FROM a ORDER BY 1 DESC").rows
        assert rows == [(2,), (1,)]

    def test_limit_zero(self, db):
        assert db.execute("SELECT * FROM b LIMIT 0").rows == []

    def test_offset_without_matching_rows(self, db):
        assert db.execute("SELECT y FROM b ORDER BY y LIMIT 5 OFFSET 10").rows == []

    def test_limit_parameter(self, db):
        rows = db.execute("SELECT y FROM b ORDER BY y LIMIT ?", (2,)).rows
        assert rows == [(10,), (20,)]

    def test_mysql_style_limit_comma(self, db):
        rows = db.execute("SELECT y FROM b ORDER BY y LIMIT 1, 2").rows
        assert rows == [(20,), (30,)]

    def test_where_on_rowid(self, db):
        rows = db.execute("SELECT y FROM b WHERE rowid = 2").rows
        assert rows == [(20,)]

    def test_scalar_subexpression_select(self, db):
        assert db.execute("SELECT (1 + 2) * 3").scalar() == 9

    def test_concat_coerces_numbers(self, db):
        assert db.execute("SELECT 'n=' || 5").scalar() == "n=5"

    def test_case_without_else_yields_null(self, db):
        assert db.execute("SELECT CASE WHEN 0 THEN 'x' END").scalar() is SqlNull

    def test_integer_division_and_remainder_truncate_toward_zero(self, db):
        row = db.execute("SELECT -9 / 4, 9 / -4, -9 % 4, 9 % -4, 7 / 2").rows[0]
        assert row == (-2, -2, -1, 1, 3)

    def test_remainder_of_reals_is_taken_on_integers(self, db):
        row = db.execute("SELECT 5.5 % 2, -5.5 % 2, 5 % 2.5, 5 % 0.5, 7.5 / 2").rows[0]
        assert row == (1.0, -1.0, 1.0, SqlNull, 3.75)
        assert type(row[0]) is float


class TestAliases:
    """A select-item alias inside HAVING or ORDER BY expressions."""

    @pytest.fixture()
    def grouped(self, db):
        db.execute("INSERT INTO b (y) VALUES (-70), (5)")
        return db

    def test_alias_inside_a_having_function(self, grouped):
        rows = grouped.execute(
            "SELECT y > 0 AS pos, SUM(y) AS s FROM b GROUP BY y > 0 "
            "HAVING abs(s) > 3 ORDER BY pos"
        ).rows
        assert rows == [(0, -70), (1, 65)]

    def test_alias_inside_a_having_case(self, grouped):
        rows = grouped.execute(
            "SELECT y > 0 AS pos, SUM(y) AS s FROM b GROUP BY y > 0 "
            "HAVING CASE WHEN s > 0 THEN 1 ELSE 0 END"
        ).rows
        assert rows == [(1, 65)]

    def test_alias_inside_an_order_by_function(self, grouped):
        rows = grouped.execute(
            "SELECT y > 0 AS pos, SUM(y) AS s FROM b GROUP BY y > 0 ORDER BY abs(s)"
        ).rows
        assert rows == [(1, 65), (0, -70)]

    def test_alias_under_unary_minus_in_order_by(self, grouped):
        rows = grouped.execute("SELECT y AS v FROM b ORDER BY -v").rows
        assert rows == [(30,), (20,), (10,), (5,), (-70,)]

    def test_bare_alias_sorts_by_the_values_shown(self, db):
        rows = db.execute("SELECT random() AS r FROM b ORDER BY r").rows
        assert rows == sorted(rows)


class TestNullSemantics:
    def test_null_comparison_filters_row(self, db):
        db.execute("INSERT INTO a (x) VALUES (NULL)")
        assert db.execute("SELECT COUNT(*) FROM a WHERE x = x").scalar() == 2
        assert db.execute("SELECT COUNT(*) FROM a WHERE x != 1").scalar() == 1

    def test_not_null_is_three_valued(self, db):
        db.execute("INSERT INTO a (x) VALUES (NULL)")
        assert db.execute("SELECT COUNT(*) FROM a WHERE NOT (x = 1)").scalar() == 1

    def test_null_in_in_list(self, db):
        assert db.execute("SELECT 1 IN (2, NULL)").scalar() is SqlNull
        assert db.execute("SELECT 2 IN (2, NULL)").scalar() == 1

    def test_order_by_sorts_nulls_first(self, db):
        db.execute("INSERT INTO a (x) VALUES (NULL)")
        rows = db.execute("SELECT x FROM a ORDER BY x").rows
        assert rows[0][0] is SqlNull


class TestUpdateEdge:
    def test_update_rowid_alias(self, db):
        db.execute("UPDATE a SET id = 100 WHERE x = 1")
        rows = db.execute("SELECT id FROM a WHERE x = 1").rows
        assert rows == [(100,)]
        assert db.execute("SELECT COUNT(*) FROM a").scalar() == 2

    def test_update_rowid_into_collision_rejected(self, db):
        with pytest.raises(SqlConstraintError):
            db.execute("UPDATE a SET id = 2 WHERE id = 1")

    def test_update_references_old_values(self, db):
        db.execute("UPDATE a SET x = x * 10")
        rows = db.execute("SELECT x FROM a ORDER BY x").rows
        assert rows == [(10,), (20,)]

    def test_update_no_match_returns_zero(self, db):
        assert db.execute("UPDATE a SET x = 0 WHERE x = 999") == 0


class TestMultiRowInsert:
    def test_values_count_mismatch(self, db):
        with pytest.raises(SqlError, match="values"):
            db.execute("INSERT INTO a (x) VALUES (1, 2)")

    def test_insert_from_expression(self, db):
        db.execute("INSERT INTO a (x) VALUES (2 + 3)")
        assert db.execute("SELECT COUNT(*) FROM a WHERE x = 5").scalar() == 1


class TestSchemaEvolution:
    def test_add_column_defaults_for_old_rows(self, db):
        db.execute("ALTER TABLE a ADD COLUMN note TEXT DEFAULT 'none'")
        rows = db.execute("SELECT x, note FROM a ORDER BY x").rows
        assert rows == [(1, "none"), (2, "none")]
        db.execute("INSERT INTO a (x, note) VALUES (3, 'fresh')")
        assert db.execute("SELECT note FROM a WHERE x = 3").scalar() == "fresh"

    def test_add_column_old_rows_updateable(self, db):
        db.execute("ALTER TABLE a ADD COLUMN score INTEGER DEFAULT 0")
        db.execute("UPDATE a SET score = x * 100")
        rows = db.execute("SELECT score FROM a ORDER BY score").rows
        assert rows == [(100,), (200,)]

    def test_add_duplicate_column_rejected(self, db):
        import pytest as _pytest
        from repro.common.errors import SqlError as _SqlError

        with _pytest.raises(_SqlError, match="duplicate column"):
            db.execute("ALTER TABLE a ADD COLUMN x INTEGER")

    def test_add_not_null_without_default_rejected(self, db):
        import pytest as _pytest
        from repro.common.errors import SqlError as _SqlError

        with _pytest.raises(_SqlError, match="default"):
            db.execute("ALTER TABLE a ADD COLUMN req TEXT NOT NULL")

    def test_added_column_survives_reopen(self, db):
        db.execute("ALTER TABLE a ADD COLUMN tag TEXT DEFAULT 't'")
        db.reopen()
        assert db.execute("SELECT tag FROM a LIMIT 1").scalar() == "t"

    def test_drop_index(self, db):
        db.execute("CREATE INDEX idx_ax ON a(x)")
        before = db.executor.index_lookups
        db.execute("SELECT * FROM a WHERE x = 1")
        assert db.executor.index_lookups == before + 1
        db.execute("DROP INDEX idx_ax")
        db.execute("SELECT * FROM a WHERE x = 1")
        assert db.executor.index_lookups == before + 1  # full scan now
        db.execute("DROP INDEX IF EXISTS idx_ax")  # no error

    def test_drop_missing_index_rejected(self, db):
        import pytest as _pytest
        from repro.common.errors import SqlError as _SqlError

        with _pytest.raises(_SqlError, match="no such index"):
            db.execute("DROP INDEX nope")


class TestSubqueries:
    def test_in_select(self, db):
        rows = db.execute(
            "SELECT y FROM b WHERE y IN (SELECT x * 10 FROM a) ORDER BY y"
        ).rows
        assert rows == [(10,), (20,)]

    def test_not_in_select(self, db):
        rows = db.execute(
            "SELECT y FROM b WHERE y NOT IN (SELECT x * 10 FROM a)"
        ).rows
        assert rows == [(30,)]

    def test_in_empty_select(self, db):
        assert db.execute("SELECT 1 WHERE 5 IN (SELECT x FROM a WHERE x > 99)").rows == []

    def test_in_select_with_null_is_three_valued(self, db):
        db.execute("INSERT INTO a (x) VALUES (NULL)")
        rows = db.execute("SELECT y FROM b WHERE y NOT IN (SELECT x FROM a)").rows
        assert rows == []  # NULL in the subquery poisons NOT IN

    def test_scalar_subquery(self, db):
        value = db.execute("SELECT (SELECT MAX(y) FROM b) + 1").scalar()
        assert value == 31

    def test_scalar_subquery_empty_is_null(self, db):
        assert db.execute("SELECT (SELECT y FROM b WHERE y > 99)").scalar() is SqlNull

    def test_exists(self, db):
        assert db.execute("SELECT EXISTS (SELECT 1 FROM a WHERE x = 1)").scalar() == 1
        assert db.execute("SELECT EXISTS (SELECT 1 FROM a WHERE x = 9)").scalar() == 0
        assert db.execute("SELECT NOT EXISTS (SELECT 1 FROM a WHERE x = 9)").scalar() == 1

    def test_subquery_in_update(self, db):
        db.execute("UPDATE b SET y = 0 WHERE y IN (SELECT x * 10 FROM a)")
        assert db.execute("SELECT COUNT(*) FROM b WHERE y = 0").scalar() == 2

    def test_subquery_in_delete(self, db):
        db.execute("DELETE FROM b WHERE y IN (SELECT x * 10 FROM a)")
        assert db.execute("SELECT COUNT(*) FROM b").scalar() == 1

    def test_subquery_runs_once_per_statement(self, db):
        scanned_before = db.executor.rows_scanned
        db.execute("SELECT y FROM b WHERE y IN (SELECT x * 10 FROM a)")
        scanned = db.executor.rows_scanned - scanned_before
        # 3 rows of b + 2 rows of a (memoized), not 3 + 3*2.
        assert scanned == 5
