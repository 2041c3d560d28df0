"""Statement and expression AST nodes, and the one traversal of them."""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Callable, Iterator, Optional


# -- expressions ----------------------------------------------------------------


@dataclass(frozen=True)
class Literal:
    value: object  # SqlValue


@dataclass(frozen=True)
class Parameter:
    index: int  # 0-based position into the params tuple


@dataclass(frozen=True)
class ColumnRef:
    name: str
    table: Optional[str] = None


@dataclass(frozen=True)
class Unary:
    op: str  # "-", "+", "NOT"
    operand: object


@dataclass(frozen=True)
class Binary:
    op: str  # "=", "<", "AND", "+", "||", "LIKE", ...
    left: object
    right: object


@dataclass(frozen=True)
class IsNull:
    operand: object
    negated: bool = False


@dataclass(frozen=True)
class InList:
    operand: object
    items: tuple
    negated: bool = False


@dataclass(frozen=True)
class Between:
    operand: object
    low: object
    high: object
    negated: bool = False


@dataclass(frozen=True)
class InSelect:
    """``expr IN (SELECT ...)`` — non-correlated subqueries only."""

    operand: object
    select: object  # a Select statement
    negated: bool = False


@dataclass(frozen=True)
class ScalarSubquery:
    """``(SELECT ...)`` as an expression: first column of the first row."""

    select: object


@dataclass(frozen=True)
class Exists:
    """``EXISTS (SELECT ...)``."""

    select: object
    negated: bool = False


@dataclass(frozen=True)
class FunctionCall:
    name: str  # lower-cased
    args: tuple
    star: bool = False  # COUNT(*)
    distinct: bool = False


@dataclass(frozen=True)
class CaseExpr:
    operand: Optional[object]  # CASE x WHEN ... vs CASE WHEN ...
    whens: tuple  # of (condition/compare-value, result)
    default: Optional[object]


# -- statements ------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnDef:
    name: str
    declared_type: str
    primary_key: bool = False
    not_null: bool = False
    unique: bool = False
    default: Optional[object] = None  # expression


@dataclass(frozen=True)
class CreateTable:
    name: str
    columns: tuple[ColumnDef, ...]
    if_not_exists: bool = False


@dataclass(frozen=True)
class CreateIndex:
    name: str
    table: str
    columns: tuple[str, ...]
    unique: bool = False
    if_not_exists: bool = False


@dataclass(frozen=True)
class DropTable:
    name: str
    if_exists: bool = False


@dataclass(frozen=True)
class DropIndex:
    name: str
    if_exists: bool = False


@dataclass(frozen=True)
class AlterTableAddColumn:
    table: str
    column: ColumnDef


@dataclass(frozen=True)
class Insert:
    table: str
    columns: tuple[str, ...]  # empty = all columns in order
    rows: tuple[tuple, ...]  # tuples of expressions


@dataclass(frozen=True)
class SelectItem:
    expr: object
    alias: Optional[str] = None
    star: bool = False
    star_table: Optional[str] = None


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: Optional[str] = None


@dataclass(frozen=True)
class Join:
    left: object  # TableRef | Join
    right: TableRef
    on: Optional[object]  # expression; None = cross join
    kind: str = "INNER"  # INNER | LEFT | CROSS


@dataclass(frozen=True)
class OrderItem:
    expr: object
    descending: bool = False


@dataclass(frozen=True)
class Select:
    items: tuple[SelectItem, ...]
    source: Optional[object]  # TableRef | Join | None (SELECT 1+1)
    where: Optional[object] = None
    group_by: tuple = ()
    having: Optional[object] = None
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[object] = None
    offset: Optional[object] = None
    distinct: bool = False


@dataclass(frozen=True)
class Update:
    table: str
    assignments: tuple[tuple[str, object], ...]
    where: Optional[object] = None


@dataclass(frozen=True)
class Delete:
    table: str
    where: Optional[object] = None


@dataclass(frozen=True)
class Explain:
    """``EXPLAIN <statement>``: describe the plan instead of running it."""

    statement: object


@dataclass(frozen=True)
class Begin:
    pass


@dataclass(frozen=True)
class Commit:
    pass


@dataclass(frozen=True)
class Rollback:
    pass


# -- traversal -------------------------------------------------------------------
# Every pass that searches or rewrites a tree goes through ``walk`` or
# ``rewrite``, so the grammar is spelled out once: in the field lists above.
# A field holds a node, a tuple of them (nested for CASE arms and UPDATE
# assignments), or a scalar.

_FIELDS = {
    cls: tuple(f.name for f in fields(cls))
    for cls in list(globals().values())
    if isinstance(cls, type) and is_dataclass(cls)
}


def _nodes(value) -> Iterator:
    if type(value) is tuple:
        for item in value:
            yield from _nodes(item)
    elif type(value) in _FIELDS:
        yield value


def children(node) -> Iterator:
    """The child nodes of ``node`` in field order, which is source order."""
    for name in _FIELDS.get(type(node), ()):
        yield from _nodes(getattr(node, name))


def walk(node, enter: Callable, in_scope: bool = False) -> None:
    """Pre-order walk: ``enter(n)`` on ``node``, then on its children in
    source order; when it returns False, ``n``'s children are skipped.
    ``in_scope`` stops at a nested ``Select``: a subquery is its own scope,
    so its column references and aggregates are not this statement's."""
    if enter(node) is False:
        return
    for child in children(node):
        if not (in_scope and type(child) is Select):
            walk(child, enter, in_scope)


def rewrite(node, fn: Callable, in_scope: bool = False):
    """``node`` with subtrees replaced top-down: ``fn(n)`` returns the
    replacement for ``n`` (not walked further) or None to descend.  An
    unchanged subtree comes back as the *same object*, since aggregates are
    keyed by ``id()``: a rewritten HAVING must still hold the select list's
    own aggregate nodes.  ``in_scope`` is as for :func:`walk`."""
    replacement = fn(node)
    if replacement is not None:
        return replacement
    changes = {}
    for name in _FIELDS.get(type(node), ()):
        value = getattr(node, name)
        new = _rewrite_value(value, fn, in_scope)
        if new is not value:
            changes[name] = new
    return replace(node, **changes) if changes else node


def _rewrite_value(value, fn, in_scope):
    if type(value) is tuple:
        items = tuple(_rewrite_value(item, fn, in_scope) for item in value)
        return value if all(a is b for a, b in zip(items, value)) else items
    if type(value) in _FIELDS and not (in_scope and type(value) is Select):
        return rewrite(value, fn, in_scope)
    return value


def table_refs(source) -> list[TableRef]:
    """The tables of a FROM clause (None, a TableRef or a Join), left to
    right; ON clauses are not entered."""
    refs: list[TableRef] = []

    def enter(node) -> bool:
        if type(node) is TableRef:
            refs.append(node)
        return type(node) is Join

    walk(source, enter)
    return refs
