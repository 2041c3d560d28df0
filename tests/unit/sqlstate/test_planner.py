"""The cost-based planner: predicate extraction, plan choice, golden
EXPLAIN plans, and the planned-vs-forced differential identity guarantee."""

import pytest

from repro.sqlstate import planner
from repro.sqlstate.engine import Database
from repro.sqlstate.parser import parse


def make_db():
    db = Database()
    db.executescript(
        """
        CREATE TABLE users (
            id INTEGER PRIMARY KEY,
            name TEXT NOT NULL UNIQUE,
            age INTEGER NOT NULL
        );
        CREATE INDEX idx_users_age ON users(age);
        CREATE TABLE pets (
            id INTEGER PRIMARY KEY,
            owner INTEGER NOT NULL,
            species TEXT NOT NULL
        );
        CREATE INDEX idx_pets_owner ON pets(owner);
        """
    )
    return db


def populate(db, users=40, pets=120):
    for i in range(users):
        db.execute(
            "INSERT INTO users (name, age) VALUES (?, ?)", (f"u{i}", 20 + i % 30)
        )
    for i in range(pets):
        db.execute(
            "INSERT INTO pets (owner, species) VALUES (?, ?)",
            (1 + i % users, "cat" if i % 2 else "dog"),
        )


def select_where(db, sql):
    """Parse a SELECT and return (table, alias, where) for plan_scan."""
    stmt = parse(sql)
    source = stmt.source
    table = db.catalog.table(source.name)
    alias = source.alias or source.name
    return table, alias, stmt.where


class TestPredicateExtraction:
    def test_split_conjuncts_flattens_nested_ands(self):
        stmt = parse("SELECT * FROM t WHERE a = 1 AND b > 2 AND c = 3")
        parts = planner.split_conjuncts(stmt.where)
        assert len(parts) == 3

    def test_equalities_and_ranges_both_orientations(self):
        db = make_db()
        table, alias, where = select_where(
            db, "SELECT * FROM users WHERE age = 25 AND 30 > id"
        )
        eq, ranges = planner.extract_predicates(table, alias, where)
        assert set(eq) == {"age"}
        # "30 > id" flips to id < 30: an exclusive high bound.
        assert "id" in ranges
        low, low_strict, high, high_strict = ranges["id"]
        assert low is None and high is not None and high_strict

    def test_between_is_an_inclusive_range(self):
        db = make_db()
        table, alias, where = select_where(
            db, "SELECT * FROM users WHERE age BETWEEN 25 AND 30"
        )
        _eq, ranges = planner.extract_predicates(table, alias, where)
        low, low_strict, high, high_strict = ranges["age"]
        assert low is not None and high is not None
        assert not low_strict and not high_strict


class TestPlanChoice:
    def test_rowid_equality_beats_everything(self):
        db = make_db()
        populate(db)
        plan = planner.plan_scan(db.catalog, *select_where(
            db, "SELECT * FROM users WHERE id = 7"))
        assert plan.method == "rowid-eq"

    def test_unique_index_equality(self):
        db = make_db()
        populate(db)
        plan = planner.plan_scan(db.catalog, *select_where(
            db, "SELECT * FROM users WHERE name = 'u3'"))
        assert plan.method == "index-eq"
        assert plan.index == "__auto_users_name"

    def test_range_predicate_uses_index_range_scan(self):
        db = make_db()
        populate(db)
        plan = planner.plan_scan(db.catalog, *select_where(
            db, "SELECT * FROM users WHERE age > 25 AND age <= 40"))
        assert plan.method == "index-range"
        assert plan.index == "idx_users_age"

    def test_unindexed_column_falls_back_to_seq(self):
        db = make_db()
        populate(db)
        plan = planner.plan_scan(db.catalog, *select_where(
            db, "SELECT * FROM pets WHERE species = 'cat'"))
        assert plan.method == "seq"

    def test_empty_table_choice_is_metric_neutral(self):
        # At rows=0 the probe and seq costs tie and seq wins; that is fine
        # because either way zero rows are scanned, so the simulated
        # rows_scanned metric does not depend on the choice.
        db = make_db()
        plan = planner.plan_scan(db.catalog, *select_where(
            db, "SELECT * FROM users WHERE name = 'nobody'"))
        assert plan.method == "seq"
        assert db.execute("SELECT * FROM users WHERE name = 'nobody'").rows == []
        assert db.executor.rows_scanned == 0


class TestGoldenExplain:
    """Satellite: pin the plan choices as EXPLAIN text so an accidental
    cost-model change shows up as a readable diff."""

    def explain(self, db, sql):
        return [row[0] for row in db.execute("EXPLAIN " + sql).rows]

    def test_point_lookups(self):
        db = make_db()
        populate(db)
        assert self.explain(db, "SELECT * FROM users WHERE name = 'u3'") == [
            "SEARCH users USING INDEX __auto_users_name (name='u3')"
        ]
        assert self.explain(db, "SELECT * FROM users WHERE id = 7") == [
            "SEARCH users USING INTEGER PRIMARY KEY (rowid=7)"
        ]

    def test_range_scan(self):
        db = make_db()
        populate(db)
        assert self.explain(db, "SELECT * FROM users WHERE age > 25 AND age <= 40") == [
            "SEARCH users USING INDEX idx_users_age (age>25 AND age<=40)"
        ]
        assert self.explain(db, "SELECT * FROM users WHERE age BETWEEN 25 AND 30") == [
            "SEARCH users USING INDEX idx_users_age (age>=25 AND age<=30)"
        ]

    def test_hash_join(self):
        db = make_db()
        populate(db)
        assert self.explain(
            db, "SELECT u.name, p.species FROM users u JOIN pets p ON p.owner = u.id"
        ) == ["SCAN users AS u", "HASH JOIN pets AS p (owner=u.id)"]

    def test_index_join_for_tiny_left_large_indexed_right(self):
        db = make_db()
        populate(db, users=2, pets=120)
        lines = self.explain(
            db, "SELECT u.name, p.species FROM users u JOIN pets p ON p.owner = u.id"
        )
        assert lines == [
            "SCAN users AS u",
            "INDEX JOIN pets AS p USING INDEX idx_pets_owner (owner=u.id)",
        ]

    def test_aggregates_and_sort(self):
        db = make_db()
        populate(db)
        assert self.explain(db, "SELECT age, COUNT(*) FROM users GROUP BY age") == [
            "SCAN users",
            "HASH AGGREGATE (1 group-by column)",
        ]
        assert self.explain(db, "SELECT COUNT(*) FROM users") == [
            "SCAN users",
            "AGGREGATE (scalar)",
        ]
        assert self.explain(db, "SELECT * FROM users ORDER BY name") == [
            "SCAN users",
            "USE TEMP SORT FOR ORDER BY",
        ]

    def test_dml(self):
        db = make_db()
        populate(db)
        assert self.explain(db, "UPDATE users SET age = 99 WHERE name = 'u3'") == [
            "UPDATE users",
            "SEARCH users USING INDEX __auto_users_name (name='u3')",
        ]
        assert self.explain(db, "DELETE FROM users WHERE age > 90") == [
            "DELETE FROM users",
            "SEARCH users USING INDEX idx_users_age (age>90)",
        ]
        assert self.explain(db, "INSERT INTO users (name, age) VALUES (?, ?)") == [
            "INSERT INTO users (1 row)"
        ]

    def test_explain_does_not_execute(self):
        db = make_db()
        populate(db, users=3, pets=0)
        db.execute("EXPLAIN DELETE FROM users WHERE age > 0")
        assert db.execute("SELECT COUNT(*) FROM users").scalar() == 3


QUERIES = [
    ("SELECT * FROM users WHERE name = ?", ("u7",)),
    ("SELECT * FROM users WHERE id = ?", (5,)),
    ("SELECT id, age FROM users WHERE age > ? AND age <= ? ORDER BY id", (24, 38)),
    ("SELECT id FROM users WHERE age BETWEEN ? AND ?", (25, 30)),
    ("SELECT id FROM users WHERE age = ? AND id > ?", (25, 10)),
    ("SELECT u.name, p.species FROM users u JOIN pets p ON p.owner = u.id "
     "ORDER BY u.name, p.id", ()),
    ("SELECT u.name, COUNT(*) FROM users u LEFT JOIN pets p ON p.owner = u.id "
     "GROUP BY u.name ORDER BY u.name", ()),
    ("SELECT age, COUNT(*), SUM(id) FROM users GROUP BY age ORDER BY age", ()),
    ("SELECT * FROM users WHERE age = ?", (None,)),
    ("SELECT * FROM users WHERE age > ?", (None,)),
    ("SELECT * FROM users WHERE name = ?", (float("nan"),)),
]


class TestDifferentialIdentity:
    """The planner must be invisible in the results: every query returns
    bit-identical rows whether it runs as planned or with the planner
    forced to its trivial answers (conftest.py's ``trivial_plans``: scan
    everything, nested-loop every join), and planning never scans more."""

    def run_all(self):
        db = make_db()
        populate(db)
        out = []
        for sql, params in QUERIES:
            out.append(db.execute(sql, params).rows)
        # Ranged DML, then a full dump: writes must land identically.
        out.append(db.execute("UPDATE users SET age = age + 1 "
                              "WHERE age BETWEEN 25 AND 28"))
        out.append(db.execute("DELETE FROM users WHERE age > 47"))
        out.append(db.execute("SELECT * FROM users ORDER BY id").rows)
        out.append(db.execute("SELECT * FROM pets ORDER BY id").rows)
        return out, db.executor.rows_scanned, db.executor.index_lookups

    def test_off_and_on_agree(self, trivial_plans):
        with trivial_plans():
            forced_out, forced_scanned, forced_lookups = self.run_all()
        planned_out, planned_scanned, planned_lookups = self.run_all()
        assert planned_out == forced_out
        assert planned_scanned < forced_scanned
        assert forced_lookups == 0 < planned_lookups


class TestPlanInvalidation:
    def test_dropping_the_index_mid_stream_keeps_answers_correct(self):
        db = make_db()
        populate(db)
        q = "SELECT id FROM users WHERE age = ? ORDER BY id"
        before = db.execute(q, (25,)).rows
        db.execute("DROP INDEX idx_users_age")
        assert db.execute(q, (25,)).rows == before

    def test_new_index_is_picked_up_by_cached_statements(self):
        db = make_db()
        populate(db)
        q = "SELECT id FROM pets WHERE species = ? ORDER BY id"
        before = db.execute(q, ("cat",)).rows
        db.execute("CREATE INDEX idx_pets_species ON pets(species)")
        lookups = db.executor.index_lookups
        assert db.execute(q, ("cat",)).rows == before
        assert db.executor.index_lookups > lookups

    def test_rollback_reverts_planner_visible_state(self):
        db = make_db()
        populate(db, users=10, pets=0)
        db.execute("BEGIN")
        db.execute("DELETE FROM users WHERE age > 0")
        db.execute("ROLLBACK")
        assert db.execute("SELECT COUNT(*) FROM users").scalar() == 10
