"""The engine micro workload: the statement shapes the planner narrows.

Point lookups, range scans, AND-conjunct narrowing, a hash join, hash
aggregation, rowid probes and a ranged UPDATE against a raw
:class:`Database`.  The planned run's result digest and work counts are
pinned, and the same run under conftest.py's ``trivial_plans`` oracle
must produce the same digest from more work.
"""

import hashlib

from repro.sqlstate.engine import Database

_SCHEMA = (
    "CREATE TABLE items (id INTEGER PRIMARY KEY, sku TEXT NOT NULL UNIQUE, "
    "category TEXT NOT NULL, price REAL NOT NULL, qty INTEGER NOT NULL);"
    "CREATE INDEX idx_items_category ON items(category);"
    "CREATE INDEX idx_items_price ON items(price);"
    "CREATE TABLE categories (name TEXT NOT NULL, floor_price REAL NOT NULL);"
)


def engine_micro_workload(rows: int, iters: int) -> dict:
    """Build a two-table database, then run a fixed query/DML mix.

    The digest folds in every statement's result rows plus a final
    ordered dump of the whole fact table, so any planner bug — wrong
    rows, wrong order, corrupted writes — changes it.
    """
    db = Database()
    db.executescript(_SCHEMA)
    for c in range(10):
        db.execute(
            "INSERT INTO categories (name, floor_price) VALUES (?, ?)",
            (f"cat{c}", float(c)),
        )
    for i in range(rows):
        db.execute(
            "INSERT INTO items (sku, category, price, qty) VALUES (?, ?, ?, ?)",
            (f"sku-{i}", f"cat{i % 10}", ((i * 37) % 1000) / 10.0, i % 50),
        )

    digest = hashlib.md5()

    def run(sql: str, params: tuple = ()):
        result = db.execute(sql, params)
        rows_out = result.rows if hasattr(result, "rows") else result
        digest.update(repr(rows_out).encode())

    for j in range(iters):
        run("SELECT id, price, qty FROM items WHERE sku = ?", (f"sku-{(j * 13) % rows}",))
        run(
            "SELECT COUNT(*), SUM(qty) FROM items WHERE price >= ? AND price < ?",
            (float(j % 80), float(j % 80 + 15)),
        )
        run(
            "SELECT id FROM items WHERE category = ? AND qty > ? ORDER BY id",
            (f"cat{j % 10}", 40),
        )
        run(
            "SELECT c.floor_price, COUNT(*) FROM items i "
            "JOIN categories c ON i.category = c.name "
            "GROUP BY c.floor_price ORDER BY c.floor_price"
        )
        run(
            "SELECT category, COUNT(*), SUM(price) FROM items "
            "GROUP BY category ORDER BY category"
        )
        run("SELECT sku FROM items WHERE id = ?", (1 + (j * 7) % rows,))
        if j % 10 == 0:
            run(
                "UPDATE items SET qty = qty + 1 WHERE price BETWEEN ? AND ?",
                (float(j % 60), float(j % 60 + 5)),
            )
    run("SELECT * FROM items ORDER BY id")
    return {
        "digest": digest.hexdigest(),
        "rows_scanned": db.executor.rows_scanned,
        "index_lookups": db.executor.index_lookups,
        "plan_cache": (db.plan_cache_hits, db.plan_cache_misses),
    }


def test_engine_micro_pins_and_planner_oracle(trivial_plans):
    planned = engine_micro_workload(300, 160)
    assert planned == {
        "digest": "5d1e5eecd7a15be8771185cb4c8326c2",
        "rows_scanned": 110469,
        "index_lookups": 496,
        "plan_cache": (1277, 10),
    }
    with trivial_plans():
        forced = engine_micro_workload(300, 160)
    assert forced == {
        "digest": planned["digest"],
        "rows_scanned": 294700,
        "index_lookups": 0,
        "plan_cache": (1277, 10),
    }
