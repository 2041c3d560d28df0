"""Cost-based access-path and join planning.

The executor's two trivial row sources — the full ``seq`` scan and the
materialize-and-scan nested loop — answer every statement correctly and
stay as the fallbacks the planner selects when nothing better applies.
This module chooses *narrower candidate sets* for the same statements:

* AND-conjunctions in WHERE are decomposed, so any one conjunct can
  drive an index equality probe or an index **range** scan;
* rowid lookups short-circuit to a direct page fetch;
* multi-table joins pick hash join or index nested-loop over the naive
  materialize-and-scan nested loop, guided by table/index statistics
  from the catalog.

Every plan is result-identical to those fallbacks by construction: a
plan only selects *candidate rows*; the full WHERE / ON expression is
always re-evaluated against each candidate by the executor, and
candidates are always produced in rowid order (range scans sort their
matches, hash buckets preserve build order), which is exactly the full
scan's order.  Cost estimates therefore only ever change *how much work*
is done, never the answer; tests/unit/sqlstate/test_planner.py checks it
by running each statement as planned and with the planner forced to its
trivial answers.

Plans reference tables and indexes by name, never by object: the
executor validates a memoized plan against the live catalog objects and
replans after any schema change (DDL bumps the schema version and
rebuilds the catalog).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.sqlstate import ast
from repro.sqlstate.catalog import Catalog, Table
from repro.sqlstate.functions import is_aggregate_call

# Cost constants.  Units are "rows touched"; the fixed overheads make the
# ordering stable on tiny/empty tables (a probe must beat a seq scan even
# at row_count == 0, so a bare equality on an indexed column probes
# whatever the table size and the pinned ``index_lookups`` counts hold).
_PROBE_OVERHEAD = 1.5
_SEQ_OVERHEAD = 2.5
_RANGE_SELECTIVITY = 4  # assume a range keeps ~1/4 of the rows
_NONUNIQUE_DISTINCT_DIVISOR = 10  # distinct-key estimate for non-unique indexes


# -- plan nodes -------------------------------------------------------------------


@dataclass
class ScanPlan:
    """Access path for one table occurrence."""

    table: str
    alias: str
    method: str  # "seq" | "rowid-eq" | "index-eq" | "index-range"
    index: Optional[str] = None  # index name for index-eq / index-range
    column: Optional[str] = None  # probed column (lower), for EXPLAIN
    eq_expr: object = None  # Literal/Parameter for rowid-eq / index-eq
    low: object = None  # Literal/Parameter lower bound (inclusive scan)
    low_strict: bool = False
    high: object = None
    high_strict: bool = False
    est_rows: float = 0.0


@dataclass
class JoinStepPlan:
    """Strategy for joining one more table onto the accumulated left side."""

    right_table: str
    right_alias: str
    kind: str  # INNER | LEFT | CROSS
    strategy: str  # "nested" | "hash" | "index"
    # For hash/index: the equi-condition  right_col = left_expr.
    left_expr: object = None  # expression over left-side columns
    right_column: Optional[str] = None  # build/probe column (lower)
    right_is_rowid: bool = False
    index: Optional[str] = None  # right-side index for "index" strategy


@dataclass
class SelectPlan:
    """Top-level shape of a SELECT, for EXPLAIN and the executor."""

    scan: Optional[ScanPlan] = None  # single-table source
    base: Optional[ScanPlan] = None  # leftmost table of a join tree
    joins: list[JoinStepPlan] = field(default_factory=list)


# -- WHERE decomposition ----------------------------------------------------------


def split_conjuncts(expr) -> list:
    """Flatten a tree of AND into its conjuncts (empty for None)."""
    if expr is None:
        return []
    out: list = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Binary) and node.op == "AND":
            stack.append(node.right)
            stack.append(node.left)
        else:
            out.append(node)
    # Stack order reverses; restore source order for deterministic plans.
    return out[::-1] if len(out) > 1 else out


def aggregate_calls(exprs) -> list:
    """The aggregate calls in ``exprs``, each node once, in source order.
    Neither an aggregate's arguments nor a subquery is searched."""
    found: dict[int, ast.FunctionCall] = {}

    def enter(node) -> bool:
        if isinstance(node, ast.FunctionCall) and (
            node.star or is_aggregate_call(node.name, len(node.args))
        ):
            found.setdefault(id(node), node)
            return False
        return True

    for expr in exprs:
        ast.walk(expr, enter, in_scope=True)
    return list(found.values())


def _is_const(expr) -> bool:
    return isinstance(expr, (ast.Literal, ast.Parameter))


def _column_for(expr, table: Table, alias: str) -> Optional[str]:
    """The lower-cased column name if ``expr`` is a reference to a column
    of this table occurrence (including ``rowid``), else None."""
    if not isinstance(expr, ast.ColumnRef):
        return None
    if expr.table is not None and expr.table.lower() != alias.lower():
        return None
    name = expr.name.lower()
    if name == "rowid":
        return name
    for col in table.columns:
        if col.name.lower() == name:
            return name
    return None


def _is_rowid_column(table: Table, column: str) -> bool:
    if column == "rowid":
        return True
    return (
        table.rowid_alias is not None
        and table.columns[table.rowid_alias].name.lower() == column
    )


def extract_predicates(table: Table, alias: str, where):
    """Split WHERE into (equalities, range bounds) usable for planning.

    Returns ``(eq, ranges)`` where ``eq`` maps column -> const expr and
    ``ranges`` maps column -> [low, low_strict, high, high_strict]
    (bounds are const exprs or None).  Only the first usable predicate
    per column/side is kept; everything is re-checked at execution.
    """
    eq: dict[str, object] = {}
    ranges: dict[str, list] = {}

    def bound(column: str, expr, op: str) -> None:
        entry = ranges.setdefault(column, [None, False, None, False])
        if op in (">", ">="):
            if entry[0] is None:
                entry[0], entry[1] = expr, op == ">"
        else:
            if entry[2] is None:
                entry[2], entry[3] = expr, op == "<"

    _FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
    for conj in split_conjuncts(where):
        if isinstance(conj, ast.Binary) and conj.op == "=":
            column_side, const_side = conj.left, conj.right
            if not isinstance(column_side, ast.ColumnRef):
                column_side, const_side = const_side, column_side
            column = _column_for(column_side, table, alias)
            if column is not None and _is_const(const_side):
                eq.setdefault(column, const_side)
            continue
        if isinstance(conj, ast.Binary) and conj.op in ("<", "<=", ">", ">="):
            column = _column_for(conj.left, table, alias)
            if column is not None and _is_const(conj.right):
                bound(column, conj.right, conj.op)
                continue
            column = _column_for(conj.right, table, alias)
            if column is not None and _is_const(conj.left):
                bound(column, conj.left, _FLIP[conj.op])
            continue
        if isinstance(conj, ast.Between) and not conj.negated:
            column = _column_for(conj.operand, table, alias)
            if column is not None and _is_const(conj.low) and _is_const(conj.high):
                bound(column, conj.low, ">=")
                bound(column, conj.high, "<=")
    return eq, ranges


def _single_column_index(table: Table, column: str):
    """First single-column index on ``column``, in catalog order."""
    for index in table.indexes:
        if len(index.columns) == 1 and index.columns[0].lower() == column:
            return index
    return None


# -- access-path selection --------------------------------------------------------


def plan_scan(catalog: Catalog, table: Table, alias: str, where) -> ScanPlan:
    """Pick the cheapest access path for one table occurrence."""
    stats = catalog.stats(table)
    rows = stats.row_count
    eq, ranges = extract_predicates(table, alias, where)

    best = ScanPlan(
        table=table.name, alias=alias, method="seq",
        est_rows=float(rows),
    )
    best_cost = rows + _SEQ_OVERHEAD

    for column, expr in eq.items():
        if _is_rowid_column(table, column):
            cost = _PROBE_OVERHEAD
            if cost < best_cost:
                best = ScanPlan(
                    table=table.name, alias=alias, method="rowid-eq",
                    column=column, eq_expr=expr, est_rows=1.0,
                )
                best_cost = cost
            continue
        index = _single_column_index(table, column)
        if index is None:
            continue
        matches = 1.0 if index.unique else max(
            1.0, rows / max(1, rows // _NONUNIQUE_DISTINCT_DIVISOR)
        )
        cost = _PROBE_OVERHEAD + matches
        if cost < best_cost:
            best = ScanPlan(
                table=table.name, alias=alias, method="index-eq",
                index=index.name, column=column, eq_expr=expr,
                est_rows=matches,
            )
            best_cost = cost

    for column, (low, low_strict, high, high_strict) in ranges.items():
        if column in eq:
            continue  # the equality is strictly better
        index = _single_column_index(table, column)
        if index is None:
            continue
        matches = max(1.0, rows / _RANGE_SELECTIVITY)
        cost = _PROBE_OVERHEAD + matches
        if cost < best_cost:
            best = ScanPlan(
                table=table.name, alias=alias, method="index-range",
                index=index.name, column=column,
                low=low, low_strict=low_strict,
                high=high, high_strict=high_strict,
                est_rows=matches,
            )
            best_cost = cost
    return best


# -- join planning ----------------------------------------------------------------


def _table_has_column(table: Table, name: str) -> bool:
    if name == "rowid":
        return True
    return any(col.name.lower() == name for col in table.columns)


_LEFT_ONLY_NODES = (ast.ColumnRef, ast.Binary, ast.Unary, ast.FunctionCall,
                    ast.Literal, ast.Parameter)


def _resolves_left_only(expr, left_aliases: set[str], left_columns: set[str],
                        right_table: Table) -> bool:
    """True if every column reference in ``expr`` is provably bound to the
    accumulated left side (never to the incoming right table)."""
    ok = True

    def enter(node) -> bool:
        nonlocal ok
        if not isinstance(node, _LEFT_ONLY_NODES):
            # Subqueries, CASE, IN, ... — too hairy to prove left-only;
            # the nested-loop fallback handles them.
            ok = False
        elif isinstance(node, ast.ColumnRef):
            if node.table is not None:
                bound = node.table.lower() in left_aliases
            else:
                # Unqualified: must be a left column and must not also name
                # a right column (that would be ambiguous or right-bound).
                name = node.name.lower()
                bound = name in left_columns and not _table_has_column(right_table, name)
            ok = ok and bound
        return ok

    ast.walk(expr, enter)
    return ok


def _equi_condition(join: ast.Join, catalog: Catalog):
    """Find ``right_col = left_expr`` among the ON conjuncts.

    Returns (right_column, left_expr) or None.  ``right_column`` may be
    the rowid / rowid alias.
    """
    if join.on is None:
        return None
    right_table = catalog.tables.get(join.right.name.lower())
    if right_table is None:
        return None
    right_alias = (join.right.alias or join.right.name).lower()
    refs = ast.table_refs(join.left)
    left_aliases = {(ref.alias or ref.name).lower() for ref in refs}
    left_columns: set[str] = set()
    for ref in refs:
        table = catalog.tables.get(ref.name.lower())
        if table is None:
            return None
        for col in table.columns:
            left_columns.add(col.name.lower())
    for conj in split_conjuncts(join.on):
        if not isinstance(conj, ast.Binary) or conj.op != "=":
            continue
        for col_side, other in ((conj.left, conj.right), (conj.right, conj.left)):
            if not isinstance(col_side, ast.ColumnRef):
                continue
            name = col_side.name.lower()
            if col_side.table is not None:
                if col_side.table.lower() != right_alias:
                    continue
            else:
                # Unqualified: must name a right column and no left column.
                if not _table_has_column(right_table, name) or name in left_columns:
                    continue
            if not _table_has_column(right_table, name):
                continue
            if _resolves_left_only(other, left_aliases, left_columns, right_table):
                return name, other
    return None


def estimate_source_rows(catalog: Catalog, source) -> float:
    """Rough cardinality of a FROM subtree: the largest member table.

    Equi-join chains tend to produce about one match per driving row, so
    the widest table dominates how many probes a subsequent join step
    will see.  Only used to rank join strategies, never for results.
    """
    best = 1.0
    for ref in ast.table_refs(source):
        table = catalog.tables.get(ref.name.lower())
        if table is not None:
            best = max(best, float(catalog.stats(table).row_count))
    return best


def plan_join_step(catalog: Catalog, join: ast.Join, left_est: float) -> JoinStepPlan:
    """Choose the strategy for joining ``join.right`` onto the left side."""
    right_table = catalog.tables.get(join.right.name.lower())
    right_alias = join.right.alias or join.right.name
    step = JoinStepPlan(
        right_table=join.right.name, right_alias=right_alias,
        kind=join.kind, strategy="nested",
    )
    if right_table is None:
        return step  # executor will raise "no such table" either way
    equi = _equi_condition(join, catalog)
    if equi is None:
        return step
    right_column, left_expr = equi
    rows = catalog.stats(right_table).row_count
    is_rowid = _is_rowid_column(right_table, right_column)
    index = None if is_rowid else _single_column_index(right_table, right_column)

    # Hash join: one full scan of the right side (same rows_scanned as the
    # naive materialization) plus O(1) probes.
    hash_cost = rows + left_est
    step.strategy = "hash"
    step.left_expr = left_expr
    step.right_column = right_column
    step.right_is_rowid = is_rowid

    if is_rowid or index is not None:
        if is_rowid:
            per_probe = 1.0
        elif index.unique:
            per_probe = 1.0
        else:
            per_probe = max(1.0, rows / max(1, rows // _NONUNIQUE_DISTINCT_DIVISOR))
        index_cost = left_est * (_PROBE_OVERHEAD + per_probe)
        if index_cost < hash_cost:
            step.strategy = "index"
            step.index = None if is_rowid else index.name
    return step


def plan_select_source(catalog: Catalog, source, where) -> SelectPlan:
    """Plan a SELECT's FROM clause (WHERE is only usable single-table,
    mirroring the executor's pushdown rule)."""
    plan = SelectPlan()
    if source is None:
        return plan
    if isinstance(source, ast.TableRef):
        table = catalog.tables.get(source.name.lower())
        if table is not None:
            plan.scan = plan_scan(
                catalog, table, source.alias or source.name, where
            )
        return plan
    if isinstance(source, ast.Join):
        # Walk to the leftmost table, planning each join step on the way up.
        joins: list[ast.Join] = []
        node = source
        while isinstance(node, ast.Join):
            joins.append(node)
            node = node.left
        joins.reverse()
        if isinstance(node, ast.TableRef):
            base_table = catalog.tables.get(node.name.lower())
            if base_table is not None:
                plan.base = plan_scan(
                    catalog, base_table, node.alias or node.name, None
                )
        for join in joins:
            # Use the same estimate the executor's _join_plan uses, so
            # EXPLAIN always reports the strategy that would actually run.
            step = plan_join_step(
                catalog, join, estimate_source_rows(catalog, join.left)
            )
            plan.joins.append(step)
        return plan
    return plan


# -- EXPLAIN rendering ------------------------------------------------------------


def _render_expr(expr) -> str:
    if isinstance(expr, ast.Literal):
        from repro.sqlstate.values import format_value

        value = expr.value
        return f"'{value}'" if isinstance(value, str) else format_value(value)
    if isinstance(expr, ast.Parameter):
        return "?"
    if isinstance(expr, ast.ColumnRef):
        return f"{expr.table}.{expr.name}" if expr.table else expr.name
    if isinstance(expr, ast.Binary):
        return f"{_render_expr(expr.left)}{expr.op}{_render_expr(expr.right)}"
    if isinstance(expr, ast.Unary):
        return f"{expr.op}{_render_expr(expr.operand)}"
    if isinstance(expr, ast.FunctionCall):
        inner = "*" if expr.star else ", ".join(_render_expr(a) for a in expr.args)
        return f"{expr.name}({inner})"
    return type(expr).__name__.lower()


def _scan_line(scan: ScanPlan) -> str:
    name = scan.table
    if scan.alias.lower() != scan.table.lower():
        name = f"{scan.table} AS {scan.alias}"
    if scan.method == "seq":
        return f"SCAN {name}"
    if scan.method == "rowid-eq":
        return f"SEARCH {name} USING INTEGER PRIMARY KEY (rowid={_render_expr(scan.eq_expr)})"
    if scan.method == "index-eq":
        return (
            f"SEARCH {name} USING INDEX {scan.index} "
            f"({scan.column}={_render_expr(scan.eq_expr)})"
        )
    parts = []
    if scan.low is not None:
        parts.append(f"{scan.column}{'>' if scan.low_strict else '>='}{_render_expr(scan.low)}")
    if scan.high is not None:
        parts.append(f"{scan.column}{'<' if scan.high_strict else '<='}{_render_expr(scan.high)}")
    return f"SEARCH {name} USING INDEX {scan.index} ({' AND '.join(parts)})"


def _join_line(step: JoinStepPlan) -> str:
    name = step.right_table
    if step.right_alias.lower() != step.right_table.lower():
        name = f"{step.right_table} AS {step.right_alias}"
    left = "LEFT " if step.kind == "LEFT" else ""
    if step.strategy == "hash":
        return (
            f"{left}HASH JOIN {name} "
            f"({step.right_column}={_render_expr(step.left_expr)})"
        )
    if step.strategy == "index":
        using = (
            "INTEGER PRIMARY KEY" if step.right_is_rowid
            else f"INDEX {step.index}"
        )
        return (
            f"{left}INDEX JOIN {name} USING {using} "
            f"({step.right_column}={_render_expr(step.left_expr)})"
        )
    cross = " (cross)" if step.kind == "CROSS" else ""
    return f"{left}NESTED LOOP JOIN {name}{cross}"


def explain_statement(stmt, catalog: Catalog) -> list[str]:
    """Human/test-readable plan description, one line per step."""
    if isinstance(stmt, ast.Select):
        lines: list[str] = []
        plan = plan_select_source(catalog, stmt.source, stmt.where)
        if plan.scan is not None:
            lines.append(_scan_line(plan.scan))
        if plan.base is not None:
            lines.append(_scan_line(plan.base))
        for step in plan.joins:
            lines.append(_join_line(step))
        if not lines:
            lines.append("SCAN CONSTANT ROW")
        if stmt.group_by:
            lines.append(
                f"HASH AGGREGATE ({len(stmt.group_by)} group-by "
                f"column{'s' if len(stmt.group_by) != 1 else ''})"
            )
        elif aggregate_calls(item.expr for item in stmt.items):
            lines.append("AGGREGATE (scalar)")
        if stmt.distinct:
            lines.append("DISTINCT")
        if stmt.order_by:
            lines.append("USE TEMP SORT FOR ORDER BY")
        return lines
    if isinstance(stmt, ast.Update):
        table = catalog.tables.get(stmt.table.lower())
        lines = [f"UPDATE {stmt.table}"]
        if table is not None:
            lines.append(_scan_line(plan_scan(catalog, table, stmt.table, stmt.where)))
        return lines
    if isinstance(stmt, ast.Delete):
        table = catalog.tables.get(stmt.table.lower())
        lines = [f"DELETE FROM {stmt.table}"]
        if table is not None:
            lines.append(_scan_line(plan_scan(catalog, table, stmt.table, stmt.where)))
        return lines
    if isinstance(stmt, ast.Insert):
        return [f"INSERT INTO {stmt.table} ({len(stmt.rows)} row"
                f"{'s' if len(stmt.rows) != 1 else ''})"]
    return [type(stmt).__name__.upper()]
