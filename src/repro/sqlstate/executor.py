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

    def bind_table(self, alias: str, table: Table, rowid: int, row: list) -> None:
        alias_l = alias.lower()
        self.qualified[(alias_l, "rowid")] = rowid
        self.names.setdefault("rowid", []).append((alias_l, "rowid"))
        for position, col in enumerate(table.columns):
            # Rows written before an ALTER TABLE ADD COLUMN are shorter
            # than the schema; missing trailing columns read as defaults.
            value = row[position] if position < len(row) else col.default
            key = (alias_l, col.name.lower())
            self.qualified[key] = value
            self.names.setdefault(col.name.lower(), []).append(key)

    def bind_nulls(self, alias: str, table: Table) -> None:
        alias_l = alias.lower()
        self.qualified[(alias_l, "rowid")] = SqlNull
        self.names.setdefault("rowid", []).append((alias_l, "rowid"))
        for col in table.columns:
            key = (alias_l, col.name.lower())
            self.qualified[key] = SqlNull
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
        if isinstance(expr, ast.InList):
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
        if isinstance(expr, ast.InSelect):
            value = self.eval(expr.operand, ctx, params, agg)
            if value is SqlNull:
                return SqlNull
            rows = self._subquery_rows(expr.select, params)
            saw_null = False
            for row in rows:
                candidate = row[0]
                if candidate is SqlNull:
                    saw_null = True
                    continue
                if compare(value, candidate) == 0:
                    return int(not expr.negated)
            if saw_null:
                return SqlNull
            return int(expr.negated)
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
        if op == "/":
            if right == 0:
                return SqlNull  # SQLite yields NULL on division by zero
            result = left / right
            if isinstance(left, int) and isinstance(right, int):
                return int(left // right) if left % right == 0 else left // right
            return result
        if op == "%":
            if right == 0:
                return SqlNull
            return left % right
        raise SqlError(f"unknown operator {op}")

    def _eval_in(self, expr, ctx, params, agg):
        value = self.eval(expr.operand, ctx, params, agg)
        if value is SqlNull:
            return SqlNull
        saw_null = False
        for item in expr.items:
            candidate = self.eval(item, ctx, params, agg)
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
            if stmt.where is not None:
                verdict = self.eval(stmt.where, ctx, params)
                if verdict is SqlNull or not is_truthy(verdict):
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
            if stmt.where is not None:
                verdict = self.eval(stmt.where, ctx, params)
                if verdict is SqlNull or not is_truthy(verdict):
                    continue
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
        """Rows possibly matching ``where``, by the access path the planner
        picks (full scan when nothing narrower applies).  The WHERE clause
        is still re-checked by the caller."""
        plan = self._scan_plan(table, alias, where)
        return self._plan_candidates(plan, table, alias, params)

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

    def _plan_candidates(
        self, plan: "planner.ScanPlan", table: Table, alias: str, params
    ) -> Iterator[tuple[int, list, RowContext]]:
        """Execute an access plan.  Any bound value the plan cannot probe
        with (NULL, NaN, a non-integer rowid) degrades to the full scan,
        which the caller's WHERE re-check makes correct for any predicate."""
        tree = BTree(self.pager, table.root_page)
        if plan.method == "rowid-eq":
            value = self.eval(plan.eq_expr, _EMPTY_CTX, params)
            if isinstance(value, int):
                raw = tree.get(encode_rowid(value))
                if raw is not None:
                    yield self._make_candidate(table, alias, value, raw)
                return
        elif plan.method == "index-eq":
            index = self.catalog.indexes.get(plan.index.lower())
            value = self.eval(plan.eq_expr, _EMPTY_CTX, params)
            usable = (
                index is not None
                and value is not SqlNull
                and not (isinstance(value, float) and value != value)
            )
            if usable:
                self.index_lookups += 1
                prefix = encode_key([value])
                for _key, stored in self._index_tree(index).scan_prefix(prefix):
                    rowid = decode_rowid(stored)
                    raw = tree.get(encode_rowid(rowid))
                    if raw is None:
                        continue  # index ahead of table within this statement
                    yield self._make_candidate(table, alias, rowid, raw)
                return
        elif plan.method == "index-range":
            index = self.catalog.indexes.get(plan.index.lower())
            low = high = None
            usable = index is not None
            if usable and plan.low is not None:
                low = self.eval(plan.low, _EMPTY_CTX, params)
                usable = low is not SqlNull and not (
                    isinstance(low, float) and low != low
                )
            if usable and plan.high is not None:
                high = self.eval(plan.high, _EMPTY_CTX, params)
                usable = high is not SqlNull and not (
                    isinstance(high, float) and high != high
                )
            if usable:
                # Inclusive encoded bounds; strictness is enforced by the
                # caller's WHERE re-check on decoded values (the numeric
                # key encoding is monotone but not injective, so skipping
                # boundary-equal keys could drop true matches).
                low_key = None if plan.low is None else encode_key([low])
                high_key = None if plan.high is None else encode_key([high])
                self.index_lookups += 1
                rowids = [
                    decode_rowid(stored)
                    for _key, stored in self._index_tree(index).scan_range(
                        low_key, high_key
                    )
                ]
                # Emit in rowid order — the order a full scan would use —
                # so results do not depend on which access path was picked.
                rowids.sort()
                for rowid in rowids:
                    raw = tree.get(encode_rowid(rowid))
                    if raw is None:
                        continue
                    yield self._make_candidate(table, alias, rowid, raw)
                return
        for key, raw in tree.scan():
            yield self._make_candidate(table, alias, decode_rowid(key), raw)

    def _make_candidate(
        self, table: Table, alias: str, rowid: int, raw: bytes
    ) -> tuple[int, list, RowContext]:
        row = self._pad_row(table, decode_record(raw))
        ctx = RowContext()
        ctx.bind_table(alias, table, rowid, row)
        self.rows_scanned += 1
        return rowid, row, ctx

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

    def _join_left_iter(self, join: ast.Join, params) -> Iterator[RowContext]:
        if isinstance(join.left, ast.TableRef):
            return self._source_rows(join.left, None, params)
        return self._join_rows(join.left, params)

    def _merged_ctx(
        self, left_ctx: RowContext, right_alias: str, right_table: Table,
        rowid, row,
    ) -> RowContext:
        ctx = RowContext()
        ctx.qualified.update(left_ctx.qualified)
        for name, keys in left_ctx.names.items():
            ctx.names[name] = list(keys)
        if row is None:
            ctx.bind_nulls(right_alias, right_table)
        else:
            ctx.bind_table(right_alias, right_table, rowid, row)
        return ctx

    def _hash_join(
        self, join: ast.Join, plan: "planner.JoinStepPlan", params
    ) -> Iterator[RowContext]:
        """Equi-join via a build/probe hash table.

        The build side is scanned exactly once in rowid order (the same
        ``rows_scanned`` as the naive materialization) and each bucket
        keeps that order, so the emitted rows — after the full ON clause
        is re-evaluated per candidate — are identical to the naive
        nested loop's output, in the same order.
        """
        right_table = self.catalog.table(join.right.name)
        right_alias = join.right.alias or join.right.name
        position = (
            None if plan.right_is_rowid
            else right_table.column_index(plan.right_column)
        )
        right_rows: list[tuple[int, list]] = []
        buckets: dict[object, list[tuple[int, list]]] = {}
        nan_on_build = False
        for rowid, row, _ctx in self._candidates(
            right_table, right_alias, None, params
        ):
            right_rows.append((rowid, row))
            value = rowid if position is None else row[position]
            if isinstance(value, float) and value != value:
                # A stored NaN compares equal to every number in this
                # engine; hashing cannot honor that, so latch the whole
                # join back to the nested loop.
                nan_on_build = True
            elif value is not SqlNull:
                buckets.setdefault(_hashable(value), []).append((rowid, row))
        for left_ctx in self._join_left_iter(join, params):
            if nan_on_build:
                candidates: list = right_rows
            else:
                probe = self.eval(plan.left_expr, left_ctx, params)
                if isinstance(probe, float) and probe != probe:
                    candidates = right_rows  # NaN probe: consult everything
                elif probe is SqlNull:
                    candidates = []
                else:
                    candidates = buckets.get(_hashable(probe), [])
            matched = False
            for rowid, row in candidates:
                ctx = self._merged_ctx(left_ctx, right_alias, right_table, rowid, row)
                verdict = self.eval(join.on, ctx, params)
                if verdict is SqlNull or not is_truthy(verdict):
                    continue
                matched = True
                yield ctx
            if join.kind == "LEFT" and not matched:
                yield self._merged_ctx(left_ctx, right_alias, right_table, None, None)

    def _index_join(
        self, join: ast.Join, plan: "planner.JoinStepPlan", params
    ) -> Iterator[RowContext]:
        """Index nested-loop: probe the right side per left row instead of
        materializing it.  Candidates come out of the index in rowid order
        and the full ON clause is re-checked, so results match the naive
        loop exactly (the probe is a superset filter, never a decider)."""
        right_table = self.catalog.table(join.right.name)
        right_alias = join.right.alias or join.right.name
        tree = BTree(self.pager, right_table.root_page)
        index = (
            None if plan.right_is_rowid
            else self.catalog.indexes.get(plan.index.lower())
        )
        if index is None and not plan.right_is_rowid:
            # The index vanished under a memoized plan; degrade to hash
            # semantics-free materialization (the nested loop).
            yield from self._nested_join(join, params)
            return
        for left_ctx in self._join_left_iter(join, params):
            probe = self.eval(plan.left_expr, left_ctx, params)
            candidates: list[tuple[int, list]] = []
            if isinstance(probe, float) and probe != probe:
                # NaN: equal to every number under compare(); scan all.
                candidates = [
                    (rowid, row)
                    for rowid, row, _ctx in self._candidates(
                        right_table, right_alias, None, params
                    )
                ]
            elif probe is SqlNull:
                candidates = []
            elif plan.right_is_rowid:
                rowid_probe = None
                if isinstance(probe, int):
                    rowid_probe = probe
                elif isinstance(probe, float) and probe.is_integer():
                    rowid_probe = int(probe)
                if rowid_probe is not None:
                    raw = tree.get(encode_rowid(rowid_probe))
                    if raw is not None:
                        row = self._pad_row(right_table, decode_record(raw))
                        self.rows_scanned += 1
                        candidates = [(rowid_probe, row)]
            elif isinstance(probe, (int, float, str, bytes)):
                self.index_lookups += 1
                for _key, stored in self._index_tree(index).scan_prefix(
                    encode_key([probe])
                ):
                    rowid = decode_rowid(stored)
                    raw = tree.get(encode_rowid(rowid))
                    if raw is None:
                        continue
                    candidates.append(
                        (rowid, self._pad_row(right_table, decode_record(raw)))
                    )
                    self.rows_scanned += 1
            matched = False
            for rowid, row in candidates:
                ctx = self._merged_ctx(left_ctx, right_alias, right_table, rowid, row)
                verdict = self.eval(join.on, ctx, params)
                if verdict is SqlNull or not is_truthy(verdict):
                    continue
                matched = True
                yield ctx
            if join.kind == "LEFT" and not matched:
                yield self._merged_ctx(left_ctx, right_alias, right_table, None, None)

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
        plan = self._join_plan(join)
        if plan.strategy == "hash":
            return self._hash_join(join, plan, params)
        elif plan.strategy == "index":
            return self._index_join(join, plan, params)
        else:
            return self._nested_join(join, params)

    def _nested_join(self, join: ast.Join, params) -> Iterator[RowContext]:
        """Materialize the right side once, test ON against every pair.
        The planner picks this when no equi-condition is usable, and
        :meth:`_index_join` falls back to it when its index is gone."""
        right_table = self.catalog.table(join.right.name)
        right_alias = join.right.alias or join.right.name
        right_rows = [
            (rowid, row)
            for rowid, row, _ctx in self._candidates(right_table, right_alias, None, params)
        ]
        for left_ctx in self._join_left_iter(join, params):
            matched = False
            for rowid, row in right_rows:
                ctx = self._merged_ctx(left_ctx, right_alias, right_table, rowid, row)
                if join.on is not None:
                    verdict = self.eval(join.on, ctx, params)
                    if verdict is SqlNull or not is_truthy(verdict):
                        continue
                matched = True
                yield ctx
            if join.kind == "LEFT" and not matched:
                yield self._merged_ctx(left_ctx, right_alias, right_table, None, None)

    # ==== SELECT ======================================================================

    def select(
        self, stmt: ast.Select, params, nested: bool = False
    ) -> tuple[list[str], list[tuple]]:
        if not nested:
            self.begin_statement()
        items = self._expand_stars(stmt)
        having = _resolve_aliases(stmt.having, items) if stmt.having is not None else None
        agg_nodes = []
        for item in items:
            _collect_aggregates(item.expr, agg_nodes)
        for order in stmt.order_by:
            _collect_aggregates(order.expr, agg_nodes)
        if having is not None:
            _collect_aggregates(having, agg_nodes)
        # The same node can be referenced from several places (an aliased
        # item reused by HAVING/ORDER BY); step each aggregate once per row.
        seen_ids = set()
        agg_nodes = [
            n for n in agg_nodes if id(n) not in seen_ids and not seen_ids.add(id(n))
        ]
        is_aggregate = bool(agg_nodes) or bool(stmt.group_by)

        columns = [self._column_label(item, i) for i, item in enumerate(items)]
        self._validate_column_refs(stmt, items)

        source_where = stmt.where if isinstance(stmt.source, ast.TableRef) else None
        rows_in = self._source_rows(stmt.source, source_where, params)

        def passes_where(ctx: RowContext) -> bool:
            if stmt.where is None:
                return True
            verdict = self.eval(stmt.where, ctx, params)
            return verdict is not SqlNull and is_truthy(verdict)

        results: list[tuple[tuple, RowContext, Optional[dict]]] = []
        if not is_aggregate:
            for ctx in rows_in:
                if not passes_where(ctx):
                    continue
                row = tuple(self.eval(item.expr, ctx, params) for item in items)
                results.append((row, ctx, None))
        else:
            groups: dict[tuple, tuple[RowContext, dict]] = {}
            for ctx in rows_in:
                if not passes_where(ctx):
                    continue
                group_key = tuple(
                    _hashable(self.eval(g, ctx, params)) for g in stmt.group_by
                )
                if group_key not in groups:
                    groups[group_key] = (
                        ctx,
                        {
                            id(node): Aggregate(
                                "count_star" if node.star else node.name,
                                distinct=node.distinct,
                            )
                            for node in agg_nodes
                        },
                    )
                _ctx, aggs = groups[group_key]
                for node in agg_nodes:
                    state = aggs[id(node)]
                    if node.star:
                        state.step(1)
                    else:
                        state.step(self.eval(node.args[0], ctx, params))
            if not groups and not stmt.group_by:
                # Aggregate over an empty set still yields one row.
                groups[()] = (
                    RowContext(),
                    {
                        id(node): Aggregate(
                            "count_star" if node.star else node.name,
                            distinct=node.distinct,
                        )
                        for node in agg_nodes
                    },
                )
            for _group_key, (ctx, aggs) in groups.items():
                agg_values = {key: state.result() for key, state in aggs.items()}
                if having is not None:
                    verdict = self.eval(having, ctx, params, agg_values)
                    if verdict is SqlNull or not is_truthy(verdict):
                        continue
                row = tuple(
                    self.eval(item.expr, ctx, params, agg_values) for item in items
                )
                results.append((row, ctx, agg_values))

        if stmt.order_by:
            def cmp_rows(a, b):
                for order in stmt.order_by:
                    va = self._order_value(order, a, items, params)
                    vb = self._order_value(order, b, items, params)
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

    def _order_value(self, order, result_entry, items, params):
        row, ctx, agg_values = result_entry
        # ORDER BY <n> refers to the n-th select item (1-based).
        if isinstance(order.expr, ast.Literal) and isinstance(order.expr.value, int):
            position = order.expr.value
            if 1 <= position <= len(row):
                return row[position - 1]
        # ORDER BY <alias> refers to a select item by its output name.
        if isinstance(order.expr, ast.ColumnRef) and order.expr.table is None:
            wanted = order.expr.name.lower()
            for i, item in enumerate(items):
                if item.alias is not None and item.alias.lower() == wanted:
                    return row[i]
        return self.eval(order.expr, ctx, params, agg_values)

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
        if source is None:
            return []
        if isinstance(source, ast.TableRef):
            return [(source.alias or source.name, self.catalog.table(source.name))]
        if isinstance(source, ast.Join):
            return self._source_tables(source.left) + [
                (source.right.alias or source.right.name, self.catalog.table(source.right.name))
            ]
        return []

    def _validate_column_refs(self, stmt: ast.Select, items) -> None:
        """Reject unknown column names at statement level (like SQLite's
        prepare step), so an empty table still reports the error."""
        tables = self._source_tables(stmt.source)
        known: set[str] = {"rowid"}
        qualified: set[tuple[str, str]] = set()
        for alias, table in tables:
            qualified.add((alias.lower(), "rowid"))
            for col in table.columns:
                known.add(col.name.lower())
                qualified.add((alias.lower(), col.name.lower()))
        aliases = {
            item.alias.lower() for item in items if item.alias is not None
        }

        refs: list[ast.ColumnRef] = []

        def walk(expr) -> None:
            if isinstance(expr, ast.ColumnRef):
                refs.append(expr)
            elif isinstance(expr, ast.Binary):
                walk(expr.left)
                walk(expr.right)
            elif isinstance(expr, ast.Unary):
                walk(expr.operand)
            elif isinstance(expr, ast.IsNull):
                walk(expr.operand)
            elif isinstance(expr, ast.InList):
                walk(expr.operand)
                for entry in expr.items:
                    walk(entry)
            elif isinstance(expr, ast.Between):
                walk(expr.operand)
                walk(expr.low)
                walk(expr.high)
            elif isinstance(expr, ast.FunctionCall):
                for arg in expr.args:
                    walk(arg)
            elif isinstance(expr, ast.CaseExpr):
                if expr.operand is not None:
                    walk(expr.operand)
                for when, then in expr.whens:
                    walk(when)
                    walk(then)
                if expr.default is not None:
                    walk(expr.default)
            elif isinstance(expr, ast.InSelect):
                walk(expr.operand)
                # The subquery's own columns are validated when it runs.

        for item in items:
            walk(item.expr)
        if stmt.where is not None:
            walk(stmt.where)
        for group in stmt.group_by:
            walk(group)
        if stmt.having is not None:
            walk(stmt.having)
        for order in stmt.order_by:
            walk(order.expr)
        for ref in refs:
            if ref.table is not None:
                if (ref.table.lower(), ref.name.lower()) not in qualified:
                    raise SqlError(f"no such column: {ref.table}.{ref.name}")
            elif ref.name.lower() not in known and ref.name.lower() not in aliases:
                raise SqlError(f"no such column: {ref.name}")

    @staticmethod
    def _column_label(item: ast.SelectItem, position: int) -> str:
        if item.alias:
            return item.alias
        if isinstance(item.expr, ast.ColumnRef):
            return item.expr.name
        return f"column{position + 1}"


def _resolve_aliases(expr, items):
    """Rewrite unqualified column refs that name a select-item alias to the
    item's expression (SQLite allows aliases in HAVING and ORDER BY)."""
    if isinstance(expr, ast.ColumnRef) and expr.table is None:
        for item in items:
            if item.alias is not None and item.alias.lower() == expr.name.lower():
                return item.expr
        return expr
    if isinstance(expr, ast.Binary):
        return ast.Binary(expr.op, _resolve_aliases(expr.left, items),
                          _resolve_aliases(expr.right, items))
    if isinstance(expr, ast.Unary):
        return ast.Unary(expr.op, _resolve_aliases(expr.operand, items))
    if isinstance(expr, ast.IsNull):
        return ast.IsNull(_resolve_aliases(expr.operand, items), expr.negated)
    if isinstance(expr, ast.InList):
        return ast.InList(
            _resolve_aliases(expr.operand, items),
            tuple(_resolve_aliases(i, items) for i in expr.items),
            expr.negated,
        )
    if isinstance(expr, ast.Between):
        return ast.Between(
            _resolve_aliases(expr.operand, items),
            _resolve_aliases(expr.low, items),
            _resolve_aliases(expr.high, items),
            expr.negated,
        )
    return expr


def _collect_aggregates(expr, out: list) -> None:
    if isinstance(expr, ast.FunctionCall):
        if expr.star or is_aggregate_call(expr.name, len(expr.args)):
            out.append(expr)
            return
        for arg in expr.args:
            _collect_aggregates(arg, out)
        return
    if isinstance(expr, ast.Binary):
        _collect_aggregates(expr.left, out)
        _collect_aggregates(expr.right, out)
    elif isinstance(expr, ast.Unary):
        _collect_aggregates(expr.operand, out)
    elif isinstance(expr, ast.IsNull):
        _collect_aggregates(expr.operand, out)
    elif isinstance(expr, ast.InList):
        _collect_aggregates(expr.operand, out)
        for item in expr.items:
            _collect_aggregates(item, out)
    elif isinstance(expr, ast.Between):
        _collect_aggregates(expr.operand, out)
        _collect_aggregates(expr.low, out)
        _collect_aggregates(expr.high, out)
    elif isinstance(expr, ast.CaseExpr):
        if expr.operand is not None:
            _collect_aggregates(expr.operand, out)
        for when, then in expr.whens:
            _collect_aggregates(when, out)
            _collect_aggregates(then, out)
        if expr.default is not None:
            _collect_aggregates(expr.default, out)
    elif isinstance(expr, ast.InSelect):
        _collect_aggregates(expr.operand, out)


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


def _as_text(value) -> str:
    return value if isinstance(value, str) else format_value(value)


def _hashable(value):
    return (b"b", value) if isinstance(value, bytes) else value
