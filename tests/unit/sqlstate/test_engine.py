"""The Database facade: DDL, DML, queries, transactions."""

import pytest

from repro.common.errors import SqlConstraintError, SqlError, SqlSyntaxError
from repro.sqlstate.engine import Database
from repro.sqlstate.values import SqlNull


@pytest.fixture()
def db():
    database = Database()
    database.executescript(
        """
        CREATE TABLE users (
            id INTEGER PRIMARY KEY,
            name TEXT NOT NULL,
            age INTEGER,
            email TEXT UNIQUE
        );
        CREATE INDEX idx_age ON users(age);
        """
    )
    return database


def add_users(db, rows):
    for name, age, email in rows:
        db.execute(
            "INSERT INTO users (name, age, email) VALUES (?, ?, ?)", (name, age, email)
        )


SAMPLE = [
    ("alice", 30, "alice@x"),
    ("bob", 25, "bob@x"),
    ("carol", 35, "carol@x"),
    ("dave", 25, "dave@x"),
]


class TestInsertSelect:
    def test_insert_returns_count(self, db):
        assert db.execute("INSERT INTO users (name) VALUES ('x')") == 1
        assert db.execute("INSERT INTO users (name) VALUES ('y'), ('z')") == 2

    def test_rowid_autoincrements(self, db):
        add_users(db, SAMPLE)
        rows = db.execute("SELECT id, name FROM users ORDER BY id").rows
        assert [r[0] for r in rows] == [1, 2, 3, 4]

    def test_explicit_rowid_respected_and_continued(self, db):
        db.execute("INSERT INTO users (id, name) VALUES (100, 'x')")
        db.execute("INSERT INTO users (name) VALUES ('y')")
        rows = db.execute("SELECT id FROM users ORDER BY id").rows
        assert rows == [(100,), (101,)]

    def test_select_where(self, db):
        add_users(db, SAMPLE)
        rows = db.execute("SELECT name FROM users WHERE age = 25 ORDER BY name").rows
        assert rows == [("bob",), ("dave",)]

    def test_select_star(self, db):
        add_users(db, SAMPLE)
        result = db.execute("SELECT * FROM users WHERE name = 'alice'")
        assert result.columns == ["id", "name", "age", "email"]
        assert result.rows[0][1:] == ("alice", 30, "alice@x")

    def test_order_by_desc_and_limit_offset(self, db):
        add_users(db, SAMPLE)
        rows = db.execute(
            "SELECT name FROM users ORDER BY age DESC, name LIMIT 2 OFFSET 1"
        ).rows
        assert rows == [("alice",), ("bob",)]

    def test_expressions_in_select(self, db):
        add_users(db, SAMPLE)
        rows = db.execute(
            "SELECT name || '!' AS loud, age * 2 FROM users WHERE name = 'bob'"
        ).rows
        assert rows == [("bob!", 50)]

    def test_like_and_in_and_between(self, db):
        add_users(db, SAMPLE)
        assert len(db.execute("SELECT * FROM users WHERE name LIKE '%a%'").rows) == 3
        assert len(db.execute("SELECT * FROM users WHERE age IN (25, 35)").rows) == 3
        assert len(db.execute("SELECT * FROM users WHERE age BETWEEN 26 AND 36").rows) == 2

    def test_is_null(self, db):
        db.execute("INSERT INTO users (name) VALUES ('ghost')")
        rows = db.execute("SELECT name FROM users WHERE age IS NULL").rows
        assert rows == [("ghost",)]

    def test_case_expression(self, db):
        add_users(db, SAMPLE)
        rows = db.execute(
            "SELECT name, CASE WHEN age >= 30 THEN 'senior' ELSE 'junior' END "
            "FROM users ORDER BY id"
        ).rows
        assert rows[0] == ("alice", "senior")
        assert rows[1] == ("bob", "junior")

    def test_distinct(self, db):
        add_users(db, SAMPLE)
        rows = db.execute("SELECT DISTINCT age FROM users ORDER BY age").rows
        assert rows == [(25,), (30,), (35,)]

    def test_select_without_from(self, db):
        assert db.execute("SELECT 1 + 2 * 3").scalar() == 7


class TestAggregates:
    def test_count_star(self, db):
        add_users(db, SAMPLE)
        assert db.execute("SELECT COUNT(*) FROM users").scalar() == 4

    def test_count_column_skips_nulls(self, db):
        add_users(db, SAMPLE)
        db.execute("INSERT INTO users (name) VALUES ('no-age')")
        assert db.execute("SELECT COUNT(age) FROM users").scalar() == 4

    def test_sum_avg_min_max(self, db):
        add_users(db, SAMPLE)
        row = db.execute("SELECT SUM(age), AVG(age), MIN(age), MAX(age) FROM users").rows[0]
        assert row == (115, 115 / 4, 25, 35)

    def test_aggregate_on_empty_table(self, db):
        row = db.execute("SELECT COUNT(*), SUM(age), MIN(age) FROM users").rows[0]
        assert row == (0, SqlNull, SqlNull)

    def test_group_by_with_having(self, db):
        add_users(db, SAMPLE)
        rows = db.execute(
            "SELECT age, COUNT(*) AS n FROM users GROUP BY age "
            "HAVING n > 1 ORDER BY age"
        ).rows
        assert rows == [(25, 2)]

    def test_count_distinct(self, db):
        add_users(db, SAMPLE)
        assert db.execute("SELECT COUNT(DISTINCT age) FROM users").scalar() == 3


class TestJoins:
    @pytest.fixture()
    def joined(self, db):
        db.executescript(
            """
            CREATE TABLE pets (id INTEGER PRIMARY KEY, owner INTEGER, species TEXT);
            """
        )
        add_users(db, SAMPLE)
        db.execute("INSERT INTO pets (owner, species) VALUES (1, 'cat'), (1, 'dog'), (2, 'fish')")
        return db

    def test_inner_join(self, joined):
        rows = joined.execute(
            "SELECT u.name, p.species FROM users u JOIN pets p ON p.owner = u.id "
            "ORDER BY u.name, p.species"
        ).rows
        assert rows == [("alice", "cat"), ("alice", "dog"), ("bob", "fish")]

    def test_left_join_keeps_unmatched(self, joined):
        rows = joined.execute(
            "SELECT u.name, p.species FROM users u LEFT JOIN pets p ON p.owner = u.id "
            "WHERE p.species IS NULL ORDER BY u.name"
        ).rows
        assert rows == [("carol", SqlNull), ("dave", SqlNull)]

    def test_join_with_aggregate(self, joined):
        rows = joined.execute(
            "SELECT u.name, COUNT(p.id) AS pets FROM users u JOIN pets p "
            "ON p.owner = u.id GROUP BY u.name ORDER BY pets DESC"
        ).rows
        assert rows == [("alice", 2), ("bob", 1)]


class TestUpdateDelete:
    def test_update(self, db):
        add_users(db, SAMPLE)
        assert db.execute("UPDATE users SET age = age + 1 WHERE age = 25") == 2
        assert db.execute("SELECT COUNT(*) FROM users WHERE age = 26").scalar() == 2

    def test_update_respects_index_after_change(self, db):
        add_users(db, SAMPLE)
        db.execute("UPDATE users SET age = 99 WHERE name = 'bob'")
        rows = db.execute("SELECT name FROM users WHERE age = 99").rows
        assert rows == [("bob",)]
        assert db.execute("SELECT COUNT(*) FROM users WHERE age = 25").scalar() == 1

    def test_delete(self, db):
        add_users(db, SAMPLE)
        assert db.execute("DELETE FROM users WHERE age = 25") == 2
        assert db.execute("SELECT COUNT(*) FROM users").scalar() == 2

    def test_delete_all(self, db):
        add_users(db, SAMPLE)
        db.execute("DELETE FROM users")
        assert db.execute("SELECT COUNT(*) FROM users").scalar() == 0


class TestConstraints:
    def test_not_null(self, db):
        with pytest.raises(SqlConstraintError, match="NOT NULL"):
            db.execute("INSERT INTO users (name, age) VALUES (NULL, 5)")

    def test_unique_index(self, db):
        db.execute("INSERT INTO users (name, email) VALUES ('a', 'same@x')")
        with pytest.raises(SqlConstraintError, match="UNIQUE"):
            db.execute("INSERT INTO users (name, email) VALUES ('b', 'same@x')")

    def test_unique_allows_nulls(self, db):
        db.execute("INSERT INTO users (name) VALUES ('a')")
        db.execute("INSERT INTO users (name) VALUES ('b')")  # both emails NULL

    def test_duplicate_rowid(self, db):
        db.execute("INSERT INTO users (id, name) VALUES (1, 'a')")
        with pytest.raises(SqlConstraintError):
            db.execute("INSERT INTO users (id, name) VALUES (1, 'b')")

    def test_update_into_unique_conflict(self, db):
        db.execute("INSERT INTO users (name, email) VALUES ('a', 'a@x'), ('b', 'b@x')")
        with pytest.raises(SqlConstraintError):
            db.execute("UPDATE users SET email = 'a@x' WHERE name = 'b'")


class TestTransactions:
    def test_commit_persists(self, db):
        db.execute("BEGIN")
        db.execute("INSERT INTO users (name) VALUES ('t')")
        db.execute("COMMIT")
        assert db.execute("SELECT COUNT(*) FROM users").scalar() == 1

    def test_rollback_undoes_all(self, db):
        add_users(db, SAMPLE[:1])
        db.execute("BEGIN")
        db.execute("INSERT INTO users (name) VALUES ('t1')")
        db.execute("UPDATE users SET age = 0")
        db.execute("ROLLBACK")
        assert db.execute("SELECT COUNT(*) FROM users").scalar() == 1
        assert db.execute("SELECT age FROM users").scalar() == 30

    def test_rollback_undoes_ddl(self, db):
        db.execute("BEGIN")
        db.execute("CREATE TABLE temp_t (a INTEGER)")
        db.execute("ROLLBACK")
        with pytest.raises(SqlError, match="no such table"):
            db.execute("SELECT * FROM temp_t")

    def test_failed_autocommit_statement_rolls_back(self, db):
        db.execute("INSERT INTO users (name, email) VALUES ('a', 'dup@x')")
        with pytest.raises(SqlConstraintError):
            db.execute(
                "INSERT INTO users (name, email) VALUES ('b', 'new@x'), ('c', 'dup@x')"
            )
        # The partial multi-row insert must not have survived.
        assert db.execute("SELECT COUNT(*) FROM users").scalar() == 1

    def test_nested_begin_rejected(self, db):
        db.execute("BEGIN")
        with pytest.raises(SqlError):
            db.execute("BEGIN")

    def test_commit_without_begin_rejected(self, db):
        with pytest.raises(SqlError):
            db.execute("COMMIT")


class TestDdl:
    def test_create_existing_table_rejected(self, db):
        with pytest.raises(SqlError, match="already exists"):
            db.execute("CREATE TABLE users (a INTEGER)")
        db.execute("CREATE TABLE IF NOT EXISTS users (a INTEGER)")  # no error

    def test_drop_table(self, db):
        db.execute("DROP TABLE users")
        with pytest.raises(SqlError):
            db.execute("SELECT * FROM users")
        db.execute("DROP TABLE IF EXISTS users")

    def test_index_backfill(self, db):
        add_users(db, SAMPLE)
        db.execute("CREATE INDEX idx_name ON users(name)")
        rows = db.execute("SELECT age FROM users WHERE name = 'carol'").rows
        assert rows == [(35,)]

    def test_table_names(self, db):
        assert db.table_names() == ["users"]


class TestFunctions:
    def test_scalars(self, db):
        assert db.execute("SELECT length('abc')").scalar() == 3
        assert db.execute("SELECT upper('abc')").scalar() == "ABC"
        assert db.execute("SELECT coalesce(NULL, NULL, 5)").scalar() == 5
        assert db.execute("SELECT abs(-3)").scalar() == 3
        assert db.execute("SELECT substr('hello', 2, 3)").scalar() == "ell"
        assert db.execute("SELECT typeof(1.5)").scalar() == "real"
        assert db.execute("SELECT hex(x'0a')").scalar() == "0A"

    def test_nondeterministic_functions_come_from_env(self, db):
        db.env.set_from_nondet(123456789, b"\x07" * 16)
        assert db.execute("SELECT now()").scalar() == 123456789
        first = db.execute("SELECT random()").scalar()
        db.env.set_from_nondet(123456789, b"\x07" * 16)
        again = db.execute("SELECT random()").scalar()
        assert first == again  # same seed, same stream

    def test_unknown_function_rejected(self, db):
        with pytest.raises(SqlError, match="no such function"):
            db.execute("SELECT frobnicate(1)")


class TestErrors:
    def test_syntax_error(self, db):
        with pytest.raises(SqlSyntaxError):
            db.execute("SELEKT 1")

    def test_unknown_table(self, db):
        with pytest.raises(SqlError, match="no such table"):
            db.execute("SELECT * FROM nope")

    def test_unknown_column(self, db):
        with pytest.raises(SqlError, match="no such column"):
            db.execute("SELECT nope FROM users")

    def test_missing_parameter(self, db):
        with pytest.raises(SqlError, match="parameter"):
            db.execute("SELECT ?")

    def test_division_by_zero_yields_null(self, db):
        assert db.execute("SELECT 1 / 0").scalar() is SqlNull


def test_statement_stats_tracked(db):
    add_users(db, SAMPLE)
    db.execute("SELECT * FROM users")
    assert db.last_stats.rows_scanned == 4
    db.execute("INSERT INTO users (name) VALUES ('x')")
    assert db.last_stats.rows_written == 1


class TestStatementCache:
    def test_hot_path_caches_parsed_statements(self):
        db = Database()
        db.executescript("CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER)")
        db.execute("INSERT INTO t (x) VALUES (?)", (1,))
        db.execute("INSERT INTO t (x) VALUES (?)", (2,))
        db.execute("INSERT INTO t (x) VALUES (?)", (3,))
        assert db.plan_cache_hits == 2
        assert db.plan_cache_misses == 1

    def test_cached_statement_sees_fresh_subquery_results(self):
        # A cached plan shares its AST across executions; the executor's
        # per-statement subquery memo must not leak between them.
        db = Database()
        db.executescript(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER)"
        )
        db.execute("INSERT INTO t (x) VALUES (10), (20)")
        q = "SELECT x FROM t WHERE x = (SELECT MAX(x) FROM t)"
        assert db.execute(q).rows == [(20,)]
        db.execute("INSERT INTO t (x) VALUES (99)")
        assert db.execute(q).rows == [(99,)]
        assert db.plan_cache_hits >= 1

    def test_cached_statement_with_different_params_and_subquery(self):
        db = Database()
        db.executescript(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER)"
        )
        db.execute("INSERT INTO t (x) VALUES (10), (20), (30)")
        q = "SELECT x FROM t WHERE x = (SELECT MAX(x) FROM t WHERE x < ?)"
        assert db.execute(q, (25,)).rows == [(20,)]
        assert db.execute(q, (15,)).rows == [(10,)]


class TestPaddedRowsAndIndexes:
    """Rows stored before ALTER TABLE ADD COLUMN are shorter than the
    schema; every index operation must see the padded defaults — through
    the index the planner picks and through the full scan (the ``planned``
    fixture of conftest.py runs each test both ways)."""

    def build(self):
        db = Database()
        db.executescript("CREATE TABLE t (id INTEGER PRIMARY KEY, a TEXT)")
        db.execute("INSERT INTO t (a) VALUES ('one'), ('two'), ('three')")
        db.execute("ALTER TABLE t ADD COLUMN b TEXT DEFAULT 'd'")
        db.execute("CREATE INDEX idx_t_b ON t(b)")
        return db

    def test_backfill_uses_padded_defaults(self, planned):
        db = self.build()
        assert db.execute("SELECT a FROM t WHERE b = 'd' ORDER BY id").rows == [
            ("one",), ("two",), ("three",)
        ]
        assert (db.executor.index_lookups > 0) == planned

    def test_update_of_pre_alter_row_maintains_the_index(self, planned):
        db = self.build()
        db.execute("UPDATE t SET b = 'changed' WHERE a = 'two'")
        assert db.execute("SELECT a FROM t WHERE b = 'changed'").rows == [("two",)]
        assert db.execute("SELECT a FROM t WHERE b = 'd' ORDER BY id").rows == [
            ("one",), ("three",)
        ]

    def test_delete_of_pre_alter_row_leaves_no_phantom(self, planned):
        db = self.build()
        db.execute("DELETE FROM t WHERE a = 'one'")
        assert db.execute("SELECT a FROM t WHERE b = 'd' ORDER BY id").rows == [
            ("two",), ("three",)
        ]


class TestNanParameters:
    def test_nan_binds_as_null(self, planned):
        db = Database()
        db.executescript(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, x REAL)"
        )
        db.execute("INSERT INTO t (x) VALUES (?)", (float("nan"),))
        assert db.execute("SELECT x FROM t WHERE x IS NULL").rows == [(SqlNull,)]
        # NULL never compares equal: a NaN probe must match nothing.
        assert db.execute(
            "SELECT id FROM t WHERE x = ?", (float("nan"),)
        ).rows == []
