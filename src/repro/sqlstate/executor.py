"""Statement execution: expression evaluation, planning, DML/queries."""

from __future__ import annotations

from functools import cmp_to_key
from typing import Iterator, Optional

from repro.common.errors import SqlConstraintError, SqlError
from repro.sqlstate import ast, planner
from repro.sqlstate.btree import BTree
from repro.sqlstate.catalog import Catalog, Index, Table
from repro.sqlstate.functions import (
    Aggregate,
    call_scalar,
    is_aggregate_call,
    like_match,
)
from repro.sqlstate.records import (
    decode_record,
    decode_rowid,
    encode_key,
    encode_record,
    encode_rowid,
)
from repro.sqlstate.values import (
    SqlNull,
    apply_affinity,
    compare,
    format_value,
    is_truthy,
)


class RowContext:
    """Column bindings for one candidate row (or joined row tuple)."""

    __slots__ = ("qualified", "names")

    def __init__(self) -> None:
        self.qualified: dict[tuple[str, str], object] = {}
        self.names: dict[str, list[tuple[str, str]]] = {}

    def bind_table(self, alias: str, table: Table, rowid, row: list) -> None:
        """Bind one row of ``table``, padded to its schema, as ``alias``."""
        alias_l = alias.lower()
        self.qualified[(alias_l, "rowid")] = rowid
        self.names.setdefault("rowid", []).append((alias_l, "rowid"))
        for col, value in zip(table.columns, row):
            key = (alias_l, col.name.lower())
            self.qualified[key] = value
            self.names.setdefault(col.name.lower(), []).append(key)

    def lookup(self, name: str, table: Optional[str]) -> object:
        if table is not None:
            key = (table.lower(), name.lower())
            if key not in self.qualified:
                raise SqlError(f"no such column: {table}.{name}")
            return self.qualified[key]
        keys = self.names.get(name.lower())
        if not keys:
            raise SqlError(f"no such column: {name}")
        if len(keys) > 1:
            raise SqlError(f"ambiguous column name: {name}")
        return self.qualified[keys[0]]


_EMPTY_CTX = RowContext()


class Executor:
    """Executes parsed statements against the catalog and pager."""

    def __init__(self, catalog: Catalog, env) -> None:
        self.catalog = catalog
        self.pager = catalog.pager
        self.env = env
        self.rows_scanned = 0
        self.rows_written = 0
        self.index_lookups = 0
        # Per-statement memo for non-correlated subqueries: each runs once
        # no matter how many candidate rows consult it.
        self._subquery_cache: dict[int, object] = {}
        # Access-path/join plans memoized per AST node.  Entries hold a
        # strong reference to the node (id() alone could be reused after
        # GC) and are revalidated against the live catalog objects.
        self._plan_memo: dict = {}

    def begin_statement(self) -> None:
        """Reset per-statement state (subquery memoization).

        A *fresh* dict, not ``clear()``: the engine's plan cache shares
        AST nodes across executions, so ``id(select)`` keys recur — any
        aliasing of a previous execution's dict must not leak its rows.
        """
        self._subquery_cache = {}

    # ==== expression evaluation =====================================================

    def eval(self, expr, ctx: RowContext, params, agg: Optional[dict] = None):
        if isinstance(expr, ast.Literal):
            return expr.value
        if isinstance(expr, ast.Parameter):
            if expr.index >= len(params):
                raise SqlError(
                    f"statement requires parameter {expr.index + 1}, "
                    f"got {len(params)}"
                )
            return _normalize_param(params[expr.index])
        if isinstance(expr, ast.ColumnRef):
            return ctx.lookup(expr.name, expr.table)
        if isinstance(expr, ast.Unary):
            return self._eval_unary(expr, ctx, params, agg)
        if isinstance(expr, ast.Binary):
            return self._eval_binary(expr, ctx, params, agg)
        if isinstance(expr, ast.IsNull):
            value = self.eval(expr.operand, ctx, params, agg)
            result = value is SqlNull
            return int(result != expr.negated)
        if isinstance(expr, (ast.InList, ast.InSelect)):
            return self._eval_in(expr, ctx, params, agg)
        if isinstance(expr, ast.Between):
            value = self.eval(expr.operand, ctx, params, agg)
            low = self.eval(expr.low, ctx, params, agg)
            high = self.eval(expr.high, ctx, params, agg)
            if SqlNull in (value, low, high):
                return SqlNull
            inside = compare(value, low) >= 0 and compare(value, high) <= 0
            return int(inside != expr.negated)
        if isinstance(expr, ast.FunctionCall):
            if agg is not None and id(expr) in agg:
                return agg[id(expr)]
            if is_aggregate_call(expr.name, len(expr.args)) and not expr.star:
                raise SqlError(f"misplaced aggregate {expr.name}()")
            if expr.star:
                raise SqlError("COUNT(*) outside an aggregate context")
            args = [self.eval(a, ctx, params, agg) for a in expr.args]
            return call_scalar(expr.name, args, self.env)
        if isinstance(expr, ast.CaseExpr):
            return self._eval_case(expr, ctx, params, agg)
        if isinstance(expr, ast.ScalarSubquery):
            rows = self._subquery_rows(expr.select, params)
            return rows[0][0] if rows else SqlNull
        if isinstance(expr, ast.Exists):
            rows = self._subquery_rows(expr.select, params)
            return int(bool(rows) != expr.negated)
        raise SqlError(f"cannot evaluate expression node {type(expr).__name__}")

    def _subquery_rows(self, select, params) -> list[tuple]:
        """Run a non-correlated subquery once and memoize its rows."""
        cached = self._subquery_cache.get(id(select))
        if cached is None:
            _columns, cached = self.select(select, params, nested=True)
            self._subquery_cache[id(select)] = cached
        return cached

    def _eval_unary(self, expr, ctx, params, agg):
        value = self.eval(expr.operand, ctx, params, agg)
        if expr.op == "NOT":
            if value is SqlNull:
                return SqlNull
            return int(not is_truthy(value))
        if value is SqlNull:
            return SqlNull
        if not isinstance(value, (int, float)):
            raise SqlError(f"unary {expr.op} on non-numeric value")
        return -value if expr.op == "-" else value

    def _eval_binary(self, expr, ctx, params, agg):
        op = expr.op
        if op in ("AND", "OR"):
            left = self.eval(expr.left, ctx, params, agg)
            # Three-valued logic with short-circuiting.
            if op == "AND":
                if left is not SqlNull and not is_truthy(left):
                    return 0
                right = self.eval(expr.right, ctx, params, agg)
                if right is not SqlNull and not is_truthy(right):
                    return 0
                if left is SqlNull or right is SqlNull:
                    return SqlNull
                return 1
            if left is not SqlNull and is_truthy(left):
                return 1
            right = self.eval(expr.right, ctx, params, agg)
            if right is not SqlNull and is_truthy(right):
                return 1
            if left is SqlNull or right is SqlNull:
                return SqlNull
            return 0
        left = self.eval(expr.left, ctx, params, agg)
        right = self.eval(expr.right, ctx, params, agg)
        if op == "||":
            if left is SqlNull or right is SqlNull:
                return SqlNull
            return _as_text(left) + _as_text(right)
        if op == "LIKE":
            if left is SqlNull or right is SqlNull:
                return SqlNull
            return int(like_match(_as_text(right), _as_text(left)))
        if op in ("=", "!=", "<", "<=", ">", ">="):
            if left is SqlNull or right is SqlNull:
                return SqlNull
            cmp = compare(left, right)
            return int(
                {"=": cmp == 0, "!=": cmp != 0, "<": cmp < 0,
                 "<=": cmp <= 0, ">": cmp > 0, ">=": cmp >= 0}[op]
            )
        # Arithmetic.
        if left is SqlNull or right is SqlNull:
            return SqlNull
        if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
            raise SqlError(f"operator {op} requires numeric operands")
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        integers = isinstance(left, int) and isinstance(right, int)
        if op == "/":
            if right == 0:
                return SqlNull  # SQLite yields NULL on division by zero
            if integers:  # truncates toward zero, as in C
                quotient = abs(left) // abs(right)
                return quotient if (left < 0) == (right < 0) else -quotient
            return left / right
        if op == "%":
            # SQLite takes the remainder of the operands cast to INTEGER,
            # with the dividend's sign, and returns REAL if either was REAL.
            left, right = _to_integer(left), _to_integer(right)
            if right == 0:
                return SqlNull
            remainder = abs(left) % abs(right)
            remainder = -remainder if left < 0 else remainder
            return remainder if integers else float(remainder)
        raise SqlError(f"unknown operator {op}")

    def _eval_in(self, expr, ctx, params, agg):
        """``x [NOT] IN`` a list or a subquery's first column, three-valued."""
        value = self.eval(expr.operand, ctx, params, agg)
        if value is SqlNull:
            return SqlNull
        if isinstance(expr, ast.InSelect):
            candidates = (row[0] for row in self._subquery_rows(expr.select, params))
        else:
            candidates = (self.eval(item, ctx, params, agg) for item in expr.items)
        saw_null = False
        for candidate in candidates:
            if candidate is SqlNull:
                saw_null = True
                continue
            if compare(value, candidate) == 0:
                return int(not expr.negated)
        if saw_null:
            return SqlNull
        return int(expr.negated)

    def _eval_case(self, expr, ctx, params, agg):
        if expr.operand is not None:
            subject = self.eval(expr.operand, ctx, params, agg)
            for when, then in expr.whens:
                candidate = self.eval(when, ctx, params, agg)
                if (
                    subject is not SqlNull
                    and candidate is not SqlNull
                    and compare(subject, candidate) == 0
                ):
                    return self.eval(then, ctx, params, agg)
        else:
            for when, then in expr.whens:
                condition = self.eval(when, ctx, params, agg)
                if condition is not SqlNull and is_truthy(condition):
                    return self.eval(then, ctx, params, agg)
        if expr.default is not None:
            return self.eval(expr.default, ctx, params, agg)
        return SqlNull

    def _holds(self, condition, ctx: RowContext, params, agg=None) -> bool:
        """Whether ``condition`` (None: there is none) is true for ``ctx``;
        NULL is not true."""
        return condition is None or is_truthy(self.eval(condition, ctx, params, agg))

    def eval_literal(self, expr):
        """Constant-fold an expression with no row context (defaults)."""
        return self.eval(expr, _EMPTY_CTX, ())

    # ==== DML =======================================================================

    def insert(self, stmt: ast.Insert, params) -> int:
        self.begin_statement()
        table = self.catalog.table(stmt.table)
        tree = BTree(self.pager, table.root_page)
        if stmt.columns:
            positions = [table.column_index(c) for c in stmt.columns]
        else:
            positions = list(range(len(table.columns)))
        inserted = 0
        for row_exprs in stmt.rows:
            if len(row_exprs) != len(positions):
                raise SqlError(
                    f"{len(positions)} columns but {len(row_exprs)} values"
                )
            values = [col.default for col in table.columns]
            for pos, expr in zip(positions, row_exprs):
                values[pos] = self.eval(expr, _EMPTY_CTX, params)
            self._insert_row(table, tree, values)
            inserted += 1
        self.catalog.note_rows(table, inserted)
        return inserted

    def _insert_row(self, table: Table, tree: BTree, values: list) -> int:
        for i, col in enumerate(table.columns):
            values[i] = apply_affinity(values[i], col.affinity)
        rowid = self._assign_rowid(table, tree, values)
        for i, col in enumerate(table.columns):
            if values[i] is SqlNull and col.not_null and i != table.rowid_alias:
                raise SqlConstraintError(
                    f"NOT NULL constraint failed: {table.name}.{col.name}"
                )
        prefixes = self._check_unique_indexes(table, values, exclude_rowid=None)
        rowid_key = encode_rowid(rowid)
        tree.insert(rowid_key, encode_record(values), replace=False)
        for index, prefix in zip(table.indexes, prefixes):
            self._index_tree(index).insert(prefix + rowid_key, rowid_key)
        self.rows_written += 1
        return rowid

    def _assign_rowid(self, table: Table, tree: BTree, values: list) -> int:
        alias = table.rowid_alias
        if alias is not None and values[alias] is not SqlNull:
            value = values[alias]
            if not isinstance(value, int):
                raise SqlConstraintError(
                    f"datatype mismatch: {table.name}.{table.columns[alias].name} "
                    "must be an integer"
                )
            if tree.get(encode_rowid(value)) is not None:
                raise SqlConstraintError(
                    f"UNIQUE constraint failed: {table.name}."
                    f"{table.columns[alias].name}"
                )
            return value
        last = tree.last_key()
        rowid = 1 if last is None else decode_rowid(last) + 1
        if alias is not None:
            values[alias] = rowid
        return rowid

    def _check_unique_indexes(self, table, values, exclude_rowid) -> list[bytes]:
        """Raise if ``values`` collides in a unique index.  Returns the
        encoded key columns of every index, in ``table.indexes`` order,
        so the caller's index writes need not encode them again."""
        prefixes = []
        for index in table.indexes:
            key_values = [values[table.column_index(c)] for c in index.columns]
            prefix = encode_key(key_values)
            prefixes.append(prefix)
            if not index.unique or any(v is SqlNull for v in key_values):
                continue  # SQL: NULLs never collide in unique indexes
            for key, value in self._index_tree(index).scan_prefix(prefix):
                existing_rowid = decode_rowid(value)
                if exclude_rowid is not None and existing_rowid == exclude_rowid:
                    continue
                raise SqlConstraintError(
                    f"UNIQUE constraint failed: {table.name}"
                    f"({', '.join(index.columns)})"
                )
        return prefixes

    def _index_tree(self, index: Index) -> BTree:
        return BTree(self.pager, index.root_page)

    def _index_key(self, index: Index, table: Table, values, rowid: int) -> bytes:
        key_values = [values[table.column_index(c)] for c in index.columns]
        return encode_key(key_values) + encode_rowid(rowid)

    def update(self, stmt: ast.Update, params) -> int:
        self.begin_statement()
        table = self.catalog.table(stmt.table)
        tree = BTree(self.pager, table.root_page)
        assignments = [
            (table.column_index(name), expr) for name, expr in stmt.assignments
        ]
        changed = 0
        # Materialize candidates first: mutating while scanning is unsafe.
        victims = list(self._candidates(table, table.name, stmt.where, params))
        for rowid, row, ctx in victims:
            if not self._holds(stmt.where, ctx, params):
                continue
            new_values = list(row)
            for position, expr in assignments:
                value = self.eval(expr, ctx, params)
                new_values[position] = apply_affinity(
                    value, table.columns[position].affinity
                )
            for i, col in enumerate(table.columns):
                if new_values[i] is SqlNull and col.not_null:
                    raise SqlConstraintError(
                        f"NOT NULL constraint failed: {table.name}.{col.name}"
                    )
            new_rowid = rowid
            if table.rowid_alias is not None:
                alias_value = new_values[table.rowid_alias]
                if not isinstance(alias_value, int):
                    raise SqlConstraintError("rowid must remain an integer")
                new_rowid = alias_value
            prefixes = self._check_unique_indexes(
                table, new_values, exclude_rowid=rowid
            )
            if new_rowid != rowid and tree.get(encode_rowid(new_rowid)) is not None:
                raise SqlConstraintError(f"UNIQUE constraint failed: {table.name}")
            for index in table.indexes:
                self._index_tree(index).delete(
                    self._index_key(index, table, row, rowid)
                )
            if new_rowid != rowid:
                tree.delete(encode_rowid(rowid))
            new_key = encode_rowid(new_rowid)
            tree.insert(new_key, encode_record(new_values))
            for index, prefix in zip(table.indexes, prefixes):
                self._index_tree(index).insert(prefix + new_key, new_key)
            changed += 1
            self.rows_written += 1
        return changed

    def delete(self, stmt: ast.Delete, params) -> int:
        self.begin_statement()
        table = self.catalog.table(stmt.table)
        tree = BTree(self.pager, table.root_page)
        victims = []
        for rowid, row, ctx in self._candidates(table, table.name, stmt.where, params):
            if self._holds(stmt.where, ctx, params):
                victims.append((rowid, row))
        for rowid, row in victims:
            tree.delete(encode_rowid(rowid))
            for index in table.indexes:
                self._index_tree(index).delete(
                    self._index_key(index, table, row, rowid)
                )
            self.rows_written += 1
        self.catalog.note_rows(table, -len(victims))
        return len(victims)

    # ==== planning & row sources =====================================================

    def _candidates(
        self, table: Table, alias: str, where, params
    ) -> Iterator[tuple[int, list, RowContext]]:
        """Rows possibly matching ``where``, each bound to ``alias``.  The
        WHERE clause is still re-checked by the caller."""
        for rowid, row in self._scan_rows(table, alias, where, params):
            ctx = RowContext()
            ctx.bind_table(alias, table, rowid, row)
            yield rowid, row, ctx

    @staticmethod
    def _pad_row(table: Table, row: list) -> list:
        """Rows stored before an ALTER TABLE ADD COLUMN are shorter than
        the schema; pad with the added columns' defaults."""
        if len(row) < len(table.columns):
            row = row + [col.default for col in table.columns[len(row):]]
        return row

    def _scan_plan(self, table: Table, alias: str, where) -> "planner.ScanPlan":
        # Validity needs the schema version, not just object identity:
        # in-memory DDL (CREATE/DROP INDEX) mutates the Table in place, so
        # a memoized plan could otherwise survive the very DDL that should
        # change it.
        key = (id(where), table.name.lower(), alias.lower())
        entry = self._plan_memo.get(key)
        if (
            entry is not None
            and entry[0] is where
            and entry[1] is table
            and entry[3] == self.pager.schema_version
        ):
            return entry[2]
        plan = planner.plan_scan(self.catalog, table, alias, where)
        if len(self._plan_memo) >= 1024:
            self._plan_memo.clear()
        self._plan_memo[key] = (where, table, plan, self.pager.schema_version)
        return plan

    def _scan_rows(
        self, table: Table, alias: str, where, params
    ) -> Iterator[tuple[int, list]]:
        """(rowid, row) of the rows possibly matching ``where``, by the
        access path the planner picks.  Any bound value the plan cannot
        probe with (NULL, NaN, a non-integer rowid) degrades to the full
        scan, which the caller's WHERE re-check makes correct for any
        predicate."""
        plan = self._scan_plan(table, alias, where)
        if plan.method == "rowid-eq":
            value = self.eval(plan.eq_expr, _EMPTY_CTX, params)
            if isinstance(value, int):
                return self._rowid_rows(table, (value,))
        elif plan.method != "seq":
            index = self.catalog.indexes.get(plan.index.lower())
            if plan.method == "index-eq":
                low = high = self.eval(plan.eq_expr, _EMPTY_CTX, params)
            else:
                low, high = (
                    None if bound is None else self.eval(bound, _EMPTY_CTX, params)
                    for bound in (plan.low, plan.high)
                )
            if index is not None and all(
                value is None or _probeable(value) for value in (low, high)
            ):
                return self._index_rows(table, index, low, high)
        return self._table_rows(table)

    def _table_rows(self, table: Table) -> Iterator[tuple[int, list]]:
        """Every row of ``table``, in rowid order."""
        for key, raw in BTree(self.pager, table.root_page).scan():
            self.rows_scanned += 1
            yield decode_rowid(key), self._pad_row(table, decode_record(raw))

    def _rowid_rows(self, table: Table, rowids) -> Iterator[tuple[int, list]]:
        """The rows stored under ``rowids``; absent ones are skipped (an
        index can be ahead of its table within a statement)."""
        tree = BTree(self.pager, table.root_page)
        for rowid in rowids:
            raw = tree.get(encode_rowid(rowid))
            if raw is not None:
                self.rows_scanned += 1
                yield rowid, self._pad_row(table, decode_record(raw))

    def _index_rows(
        self, table: Table, index: Index, low, high
    ) -> Iterator[tuple[int, list]]:
        """The rows whose ``index`` key lies in [low, high] (None: open).
        Both bounds are inclusive encoded keys, and strictness is left to
        the caller's re-check: the numeric key encoding is monotone but not
        injective, so skipping boundary-equal keys could drop true matches.
        Rows come in rowid order — a full scan's order — so results do not
        depend on which access path was picked."""
        self.index_lookups += 1
        entries = self._index_tree(index).scan_range(
            None if low is None else encode_key([low]),
            None if high is None else encode_key([high]),
        )
        return self._rowid_rows(
            table, sorted(decode_rowid(stored) for _key, stored in entries)
        )

    def _join_plan(self, join: ast.Join) -> "planner.JoinStepPlan":
        key = (id(join), "join")
        entry = self._plan_memo.get(key)
        if (
            entry is not None
            and entry[0] is join
            and entry[1] == self.pager.schema_version
        ):
            return entry[2]
        plan = planner.plan_join_step(
            self.catalog, join, planner.estimate_source_rows(self.catalog, join.left)
        )
        if len(self._plan_memo) >= 1024:
            self._plan_memo.clear()
        self._plan_memo[key] = (join, self.pager.schema_version, plan)
        return plan

    def _merged_ctx(
        self, left_ctx: RowContext, right_alias: str, right_table: Table,
        rowid, row,
    ) -> RowContext:
        ctx = RowContext()
        ctx.qualified.update(left_ctx.qualified)
        for name, keys in left_ctx.names.items():
            ctx.names[name] = list(keys)
        ctx.bind_table(right_alias, right_table, rowid, row)
        return ctx

    def _source_rows(self, source, where, params) -> Iterator[RowContext]:
        if source is None:
            yield RowContext()
            return
        if isinstance(source, ast.TableRef):
            table = self.catalog.table(source.name)
            alias = source.alias or source.name
            # Only push the WHERE down for a plain single-table source.
            for _rowid, _row, ctx in self._candidates(table, alias, where, params):
                yield ctx
            return
        if isinstance(source, ast.Join):
            yield from self._join_rows(source, params)
            return
        raise SqlError(f"unsupported FROM clause {type(source).__name__}")

    def _join_rows(self, join: ast.Join, params) -> Iterator[RowContext]:
        """Join ``join.right`` onto the rows of ``join.left``.  The plan only
        picks which right rows are candidates for each left row, in rowid
        order; the full ON clause is re-checked on every candidate, so each
        strategy yields exactly the nested loop's rows, in its order."""
        right_table = self.catalog.table(join.right.name)
        right_alias = join.right.alias or join.right.name
        candidates = self._join_candidates(join, right_table, right_alias, params)
        null_row = [SqlNull] * len(right_table.columns)
        for left_ctx in self._source_rows(join.left, None, params):
            matched = False
            for rowid, row in candidates(left_ctx):
                ctx = self._merged_ctx(left_ctx, right_alias, right_table, rowid, row)
                if self._holds(join.on, ctx, params):
                    matched = True
                    yield ctx
            if join.kind == "LEFT" and not matched:
                yield self._merged_ctx(
                    left_ctx, right_alias, right_table, SqlNull, null_row
                )

    def _join_candidates(
        self, join: ast.Join, right_table: Table, right_alias: str, params
    ):
        """``left_ctx -> right rows`` for the planned strategy: an index
        probe per left row, a hash bucket, or — the nested loop — every
        right row, materialized once.  A probe value that cannot be looked
        up matches nothing when NULL and everything when NaN, which
        compares equal to every number in this engine."""
        plan = self._join_plan(join)
        index = None
        if plan.strategy == "index" and not plan.right_is_rowid:
            # None if the index vanished under a memoized plan: nested loop.
            index = self.catalog.indexes.get(plan.index.lower())
        if index is not None or (plan.strategy == "index" and plan.right_is_rowid):

            def probe(left_ctx):
                value = self.eval(plan.left_expr, left_ctx, params)
                if not _probeable(value):
                    if value is SqlNull:
                        return ()
                    return self._scan_rows(right_table, right_alias, None, params)
                if index is not None:
                    return self._index_rows(right_table, index, value, value)
                if isinstance(value, float) and value.is_integer():
                    value = int(value)  # unlike a WHERE rowid probe
                if not isinstance(value, int):
                    return ()
                return self._rowid_rows(right_table, (value,))

            return probe
        # The build side is scanned exactly once in rowid order, and each
        # bucket keeps that order.
        right_rows = list(self._scan_rows(right_table, right_alias, None, params))
        if plan.strategy != "hash":
            return lambda left_ctx: right_rows
        position = (
            None if plan.right_is_rowid
            else right_table.column_index(plan.right_column)
        )
        buckets: dict[object, list[tuple[int, list]]] = {}
        for rowid, row in right_rows:
            value = rowid if position is None else row[position]
            if _probeable(value):
                buckets.setdefault(_hashable(value), []).append((rowid, row))
            elif value is not SqlNull:
                # A stored NaN equals every number; hashing cannot honor
                # that, so the whole join falls back to the nested loop.
                return lambda left_ctx: right_rows

        def bucket(left_ctx):
            value = self.eval(plan.left_expr, left_ctx, params)
            if _probeable(value):
                return buckets.get(_hashable(value), ())
            return () if value is SqlNull else right_rows

        return bucket

    # ==== SELECT ======================================================================

    def select(
        self, stmt: ast.Select, params, nested: bool = False
    ) -> tuple[list[str], list[tuple]]:
        if not nested:
            self.begin_statement()
        items = self._expand_stars(stmt)
        having, *order_exprs = _resolve_aliases(
            [stmt.having, *(order.expr for order in stmt.order_by)], items
        )
        # An aliased item reused by HAVING/ORDER BY is the same node there:
        # each aggregate is stepped once per row.
        agg_nodes = planner.aggregate_calls(
            [*(item.expr for item in items), *order_exprs, having]
        )
        is_aggregate = bool(agg_nodes) or bool(stmt.group_by)

        columns = [self._column_label(item, i) for i, item in enumerate(items)]
        self._validate_column_refs(stmt, items)

        source_where = stmt.where if isinstance(stmt.source, ast.TableRef) else None
        rows_in = (
            ctx for ctx in self._source_rows(stmt.source, source_where, params)
            if self._holds(stmt.where, ctx, params)
        )

        def new_group(ctx: RowContext) -> tuple[RowContext, dict]:
            return ctx, {
                id(node): Aggregate(
                    "count_star" if node.star else node.name, distinct=node.distinct
                )
                for node in agg_nodes
            }

        results: list[tuple[tuple, RowContext, Optional[dict]]] = []
        if not is_aggregate:
            for ctx in rows_in:
                row = tuple(self.eval(item.expr, ctx, params) for item in items)
                results.append((row, ctx, None))
        else:
            groups: dict[tuple, tuple[RowContext, dict]] = {}
            for ctx in rows_in:
                group_key = tuple(
                    _hashable(self.eval(g, ctx, params)) for g in stmt.group_by
                )
                if group_key not in groups:
                    groups[group_key] = new_group(ctx)
                _ctx, aggs = groups[group_key]
                for node in agg_nodes:
                    state = aggs[id(node)]
                    if node.star:
                        state.step(1)
                    else:
                        state.step(self.eval(node.args[0], ctx, params))
            if not groups and not stmt.group_by:
                # Aggregate over an empty set still yields one row.
                groups[()] = new_group(RowContext())
            for _group_key, (ctx, aggs) in groups.items():
                agg_values = {key: state.result() for key, state in aggs.items()}
                if not self._holds(having, ctx, params, agg_values):
                    continue
                row = tuple(
                    self.eval(item.expr, ctx, params, agg_values) for item in items
                )
                results.append((row, ctx, agg_values))

        if stmt.order_by:
            def cmp_rows(a, b):
                for order, expr in zip(stmt.order_by, order_exprs):
                    va = self._order_value(order, expr, a, items, params)
                    vb = self._order_value(order, expr, b, items, params)
                    c = compare(va, vb)
                    if c:
                        return -c if order.descending else c
                return 0

            results.sort(key=cmp_to_key(cmp_rows))

        rows = [row for row, _ctx, _agg in results]
        if stmt.distinct:
            seen = set()
            unique = []
            for row in rows:
                marker = tuple(_hashable(v) for v in row)
                if marker in seen:
                    continue
                seen.add(marker)
                unique.append(row)
            rows = unique
        offset = 0
        if stmt.offset is not None:
            offset = int(self.eval(stmt.offset, _EMPTY_CTX, params))
        if stmt.limit is not None:
            limit = int(self.eval(stmt.limit, _EMPTY_CTX, params))
            rows = rows[offset : offset + limit] if limit >= 0 else rows[offset:]
        elif offset:
            rows = rows[offset:]
        return columns, rows

    def _order_value(self, order, expr, result_entry, items, params):
        """The sort key of one result row; ``expr`` is ``order.expr`` with
        select-item aliases resolved."""
        row, ctx, agg_values = result_entry
        # ORDER BY <n> refers to the n-th select item (1-based).
        if isinstance(order.expr, ast.Literal) and isinstance(order.expr.value, int):
            position = order.expr.value
            if 1 <= position <= len(row):
                return row[position - 1]
        # ORDER BY <alias> reads the select item's value as shown, so it
        # sorts by what a nondeterministic item such as random() returned.
        if isinstance(order.expr, ast.ColumnRef) and order.expr.table is None:
            wanted = order.expr.name.lower()
            for i, item in enumerate(items):
                if item.alias is not None and item.alias.lower() == wanted:
                    return row[i]
        return self.eval(expr, ctx, params, agg_values)

    def _expand_stars(self, stmt: ast.Select) -> list[ast.SelectItem]:
        items: list[ast.SelectItem] = []
        for item in stmt.items:
            if not item.star:
                items.append(item)
                continue
            for alias, table in self._source_tables(stmt.source):
                if item.star_table is not None and alias.lower() != item.star_table.lower():
                    continue
                for col in table.columns:
                    items.append(
                        ast.SelectItem(
                            expr=ast.ColumnRef(name=col.name, table=alias),
                            alias=col.name,
                        )
                    )
        if not items:
            raise SqlError("SELECT list is empty after * expansion")
        return items

    def _source_tables(self, source) -> list[tuple[str, Table]]:
        return [
            (ref.alias or ref.name, self.catalog.table(ref.name))
            for ref in ast.table_refs(source)
        ]

    def _validate_column_refs(self, stmt: ast.Select, items) -> None:
        """Reject unknown column names at statement level (like SQLite's
        prepare step), so an empty table still reports the error."""
        known: set[str] = {"rowid"}  # unqualified: columns and item aliases
        qualified: set[tuple[str, str]] = set()
        for alias, table in self._source_tables(stmt.source):
            qualified.add((alias.lower(), "rowid"))
            for col in table.columns:
                known.add(col.name.lower())
                qualified.add((alias.lower(), col.name.lower()))
        known.update(item.alias.lower() for item in items if item.alias is not None)

        def check(node) -> None:
            if not isinstance(node, ast.ColumnRef):
                return
            if node.table is not None:
                if (node.table.lower(), node.name.lower()) not in qualified:
                    raise SqlError(f"no such column: {node.table}.{node.name}")
            elif node.name.lower() not in known:
                raise SqlError(f"no such column: {node.name}")

        # A subquery's own columns are validated when it runs.
        for expr in (
            *(item.expr for item in items), stmt.where, *stmt.group_by,
            stmt.having, *(order.expr for order in stmt.order_by),
        ):
            ast.walk(expr, check, in_scope=True)

    @staticmethod
    def _column_label(item: ast.SelectItem, position: int) -> str:
        if item.alias:
            return item.alias
        if isinstance(item.expr, ast.ColumnRef):
            return item.expr.name
        return f"column{position + 1}"


def _resolve_aliases(exprs, items) -> list:
    """``exprs`` with every unqualified column ref that names a select-item
    alias replaced by that item's expression (SQLite allows aliases in
    HAVING and ORDER BY); the first item with the alias wins."""
    aliases = {
        item.alias.lower(): item.expr for item in reversed(items) if item.alias is not None
    }

    def resolve(node):
        if isinstance(node, ast.ColumnRef) and node.table is None:
            return aliases.get(node.name.lower())
        return None

    return [ast.rewrite(expr, resolve, in_scope=True) for expr in exprs]


def _normalize_param(value):
    if value is None or value is SqlNull:  # SqlNull: what a NULL is once it crossed the wire
        return SqlNull
    if isinstance(value, float) and value != value:
        return SqlNull  # NaN binds as NULL, matching storage affinity
    if isinstance(value, (int, float, str, bytes)):
        return value
    if isinstance(value, bool):
        return int(value)
    raise SqlError(f"unsupported parameter type {type(value).__name__}")


def _to_integer(value) -> int:
    """CAST(value AS INTEGER) for a number: toward zero, saturating."""
    if isinstance(value, int):
        return value
    if value != value:
        return 0
    if value >= 2.0**63:
        return 2**63 - 1
    return -(2**63) if value <= -(2.0**63) else int(value)


def _as_text(value) -> str:
    return value if isinstance(value, str) else format_value(value)


def _probeable(value) -> bool:
    """Whether a probe can look ``value`` up: NULL equals nothing and NaN
    compares equal to every number, so neither has a key to seek."""
    return value is not SqlNull and not (isinstance(value, float) and value != value)


def _hashable(value):
    return (b"b", value) if isinstance(value, bytes) else value
