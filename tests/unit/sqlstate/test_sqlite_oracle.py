"""The engine against stdlib ``sqlite3`` as the reference oracle.

One two-table schema with an index on each table and NULLs in most
columns, and a corpus of SELECTs covering the joins the planner picks
between, grouping, subqueries and the scalar operators.  Every statement
must return the rows ``sqlite3`` returns, value types included, both as
planned and under conftest.py's forced trivial plans.  A statement without
ORDER BY is compared as a multiset.
"""

import sqlite3

import pytest

from repro.sqlstate.engine import Database
from repro.sqlstate.values import SqlNull

SCHEMA = """
CREATE TABLE emp (id INTEGER PRIMARY KEY, name TEXT, dept INTEGER, salary REAL, boss INTEGER);
CREATE INDEX emp_dept ON emp(dept);
CREATE TABLE dept (id INTEGER PRIMARY KEY, title TEXT, head INTEGER, floor INTEGER);
CREATE INDEX dept_floor ON dept(floor);
"""

EMP = [
    (1, "Ann", 1, 3000.0, None),
    (2, "bob", 1, 1500.0, 1),
    (3, "Cid", 2, 2200.5, 1),
    (4, "dee", 2, None, 3),
    (5, "Eve", 3, 4100.0, 1),
    (6, None, None, 900.0, 2),
    (7, "fay", 2, 1500.0, 3),
    (8, "Gus", 9, 2600.0, 5),
    (9, "hal", 3, None, None),
    (10, "Ivy", 1, 1800.0, 2),
    (11, "jo", None, 1200.0, None),
    (12, "Kim", 2, 3300.0, 3),
]
DEPT = [
    (1, "eng", 1, 3),
    (2, "ops", 3, 1),
    (3, "sales", 5, None),
    (4, "hr", None, 2),
    (5, "legal", 42, 1),
]

CORPUS = [
    # -- joins: hash, index (rowid probe) and nested loops, INNER/LEFT/comma
    "SELECT e.name, d.title FROM emp e JOIN dept d ON d.id = e.dept ORDER BY e.id",
    "SELECT d.title, e.name FROM dept d LEFT JOIN emp e ON e.id = d.head ORDER BY d.id",
    "SELECT d.title, e.name FROM dept d JOIN emp e ON e.dept = d.id ORDER BY d.id, e.id",
    "SELECT d.title, e.name FROM dept d JOIN emp e ON e.id = d.floor + 0.0 ORDER BY d.id",
    "SELECT e.name, d.title FROM emp e JOIN dept d ON e.salary > d.floor * 1000 "
    "ORDER BY e.id, d.id",
    "SELECT e.id, d.id FROM emp e, dept d WHERE e.dept = d.id AND d.floor = 1 ORDER BY e.id",
    "SELECT e.name FROM emp e LEFT JOIN dept d ON d.id = e.dept WHERE d.id IS NULL "
    "ORDER BY e.id",
    "SELECT e.name, d.title, b.name FROM emp e JOIN dept d ON d.id = e.dept "
    "LEFT JOIN emp b ON b.id = e.boss ORDER BY e.id",
    "SELECT d.title, COUNT(e.id) AS n, SUM(e.salary) FROM dept d "
    "LEFT JOIN emp e ON e.dept = d.id GROUP BY d.title ORDER BY n DESC, d.title",
    # -- GROUP BY / HAVING / ORDER BY, aliases included
    "SELECT dept, COUNT(*) AS n, SUM(salary) AS s FROM emp GROUP BY dept ORDER BY dept",
    "SELECT dept, AVG(salary) AS mean FROM emp GROUP BY dept HAVING mean > 2000 "
    "ORDER BY mean DESC",
    "SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept HAVING n >= 2 AND abs(n - 3) < 2 "
    "ORDER BY 2 DESC, 1",
    "SELECT dept, MAX(salary) - MIN(salary) AS spread FROM emp WHERE dept IS NOT NULL "
    "GROUP BY dept ORDER BY spread, dept",
    "SELECT COUNT(*), COUNT(dept), COUNT(DISTINCT dept), SUM(dept), TOTAL(salary), "
    "MIN(name), MAX(name) FROM emp",
    "SELECT COUNT(*), SUM(salary) FROM emp WHERE id > 100",
    "SELECT dept % 2 AS parity, COUNT(*) FROM emp GROUP BY dept % 2 ORDER BY parity",
    "SELECT dept, SUM(salary) AS s FROM emp GROUP BY dept HAVING abs(s - 5000) < 1000 "
    "ORDER BY dept",
    "SELECT dept, SUM(salary) AS s FROM emp GROUP BY dept "
    "HAVING CASE WHEN s > 5000 THEN 1 ELSE 0 END ORDER BY dept",
    "SELECT id, salary AS pay FROM emp WHERE salary IS NOT NULL ORDER BY -pay, id",
    "SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept ORDER BY n * -1, dept",
    "SELECT e.name AS who, e.salary FROM emp e WHERE e.boss = 1 ORDER BY who",
    # -- subqueries
    "SELECT name FROM emp WHERE dept IN (SELECT id FROM dept WHERE floor = 1) ORDER BY id",
    "SELECT name FROM emp WHERE dept NOT IN (SELECT id FROM dept WHERE floor IS NOT NULL) "
    "ORDER BY id",
    "SELECT name FROM emp WHERE dept NOT IN (SELECT floor FROM dept)",
    "SELECT id FROM emp WHERE EXISTS (SELECT 1 FROM dept WHERE floor > 2) ORDER BY id",
    "SELECT id FROM emp WHERE NOT EXISTS (SELECT 1 FROM dept WHERE floor > 5)",
    "SELECT name, (SELECT MAX(salary) FROM emp) - salary FROM emp ORDER BY id",
    "SELECT title, (SELECT COUNT(*) FROM emp WHERE dept IS NULL) FROM dept ORDER BY id",
    # -- scalar operators, DISTINCT, LIMIT/OFFSET, the planner's access paths
    "SELECT id FROM emp WHERE salary BETWEEN 1500 AND 3000 ORDER BY id",
    "SELECT id FROM emp WHERE salary NOT BETWEEN 1500 AND 3000",
    "SELECT name FROM emp WHERE name LIKE '%e%' ORDER BY id",
    "SELECT name FROM emp WHERE name NOT LIKE 'a%' AND name LIKE '_o%'",
    "SELECT id, CASE WHEN salary IS NULL THEN 'none' WHEN salary > 2500 THEN 'high' "
    "ELSE 'low' END FROM emp ORDER BY id",
    "SELECT id, CASE dept WHEN 1 THEN 'one' WHEN 2 THEN 'two' END FROM emp ORDER BY id",
    "SELECT name || '@' || dept, dept || '' FROM emp ORDER BY id",
    "SELECT DISTINCT dept FROM emp",
    "SELECT DISTINCT dept % 2, salary > 2000 FROM emp",
    "SELECT id, name FROM emp ORDER BY salary DESC, id LIMIT 3 OFFSET 2",
    "SELECT id FROM emp ORDER BY id LIMIT 4",
    "SELECT id, (id - 6) / 4, (id - 6) % 4, -id % 5, salary / 4, salary % 7 FROM emp "
    "ORDER BY id",
    "SELECT 17 / 5, -17 / 5, 17 % -5, -17 % 5, 7.5 % 2, -7.5 % 2, 1 / 0, 5 % 0",
    "SELECT id FROM emp WHERE dept IN (1, 3, NULL) ORDER BY id",
    "SELECT id FROM emp WHERE dept = 2 AND salary > 2000 ORDER BY id",
    "SELECT id FROM emp WHERE dept >= 2 AND dept < 9 ORDER BY id",
    "SELECT name FROM emp WHERE id = 7",
    "SELECT title FROM dept WHERE floor = 1 ORDER BY id",
    "SELECT title, floor FROM dept WHERE floor IS NULL OR floor > 2 ORDER BY title",
]

# Statements whose answer still differs from sqlite3's, each with the reason.
DIVERGENT: dict[str, str] = {}


def load(execute) -> None:
    for row in EMP:
        execute("INSERT INTO emp VALUES (?, ?, ?, ?, ?)", row)
    for row in DEPT:
        execute("INSERT INTO dept VALUES (?, ?, ?, ?)", row)


@pytest.fixture(scope="module")
def reference():
    conn = sqlite3.connect(":memory:")
    conn.executescript(SCHEMA)
    load(conn.execute)
    yield conn
    conn.close()


def engine() -> Database:
    db = Database()
    db.executescript(SCHEMA)
    load(db.execute)
    return db


def typed(rows) -> list:
    """Rows of (type name, value) pairs, so 1 and 1.0 differ; NULL is None."""

    def cell(value):
        value = None if value is SqlNull else value
        return type(value).__name__, value

    return [tuple(map(cell, row)) for row in rows]


@pytest.mark.parametrize("sql", CORPUS)
def test_rows_match_sqlite(sql, planned, reference):
    expected = typed(reference.execute(sql).fetchall())
    got = typed(engine().execute(sql).rows)
    if "ORDER BY" not in sql:
        expected, got = sorted(expected, key=repr), sorted(got, key=repr)
    if sql in DIVERGENT:
        assert got != expected, f"agrees with sqlite3 now; drop it from DIVERGENT: {sql}"
    else:
        assert got == expected


def test_the_corpus_joins_run_every_strategy():
    db = engine()
    lines = {
        line.split(" JOIN ")[0].removeprefix("LEFT ")
        for sql in CORPUS
        for (line,) in db.execute("EXPLAIN " + sql).rows
        if " JOIN " in line
    }
    assert lines == {"HASH", "INDEX", "NESTED LOOP"}
