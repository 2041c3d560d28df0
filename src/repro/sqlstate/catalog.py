"""Schema catalog: table and index metadata, persisted in its own b-tree."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.common.errors import SqlError
from repro.sqlstate import ast
from repro.sqlstate.btree import BTree
from repro.sqlstate.pager import Pager
from repro.sqlstate.records import decode_record, encode_key, encode_record
from repro.sqlstate.values import SqlNull, affinity_of


@dataclass
class Column:
    name: str
    declared_type: str
    affinity: str
    primary_key: bool = False
    not_null: bool = False
    unique: bool = False
    default: object = SqlNull  # literal value only (evaluated at CREATE)


@dataclass
class Table:
    name: str
    columns: list[Column]
    root_page: int
    rowid_alias: Optional[int] = None  # column index aliasing the rowid
    indexes: list["Index"] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.remap_columns()

    def remap_columns(self) -> None:
        """(Re)build the name → position map; call after changing ``columns``."""
        self._positions: dict[str, int] = {}
        for i, col in enumerate(self.columns):  # the first of equal names wins
            self._positions.setdefault(col.name.lower(), i)

    def column_index(self, name: str) -> int:
        position = self._positions.get(name.lower())
        if position is None:
            raise SqlError(f"table {self.name} has no column {name!r}")
        return position


@dataclass
class Index:
    name: str
    table: str
    columns: tuple[str, ...]
    root_page: int
    unique: bool = False


@dataclass
class TableStats:
    """Cheap planner statistics: an estimated (not authoritative) row
    count, seeded by one tree scan and maintained incrementally."""

    row_count: int


class Catalog:
    """The schema, mirrored between memory and the schema b-tree."""

    def __init__(self, pager: Pager) -> None:
        self.pager = pager
        if pager.schema_root == 0:
            tree = BTree.create(pager)
            pager.set_schema_root(tree.root_page)
        self.schema_tree = BTree(pager, pager.schema_root)
        self.tables: dict[str, Table] = {}
        self.indexes: dict[str, Index] = {}
        self._stats: dict[str, TableStats] = {}
        self._loaded_version = -1
        self.reload()

    # -- persistence -----------------------------------------------------------------

    def reload(self) -> None:
        """Rebuild the in-memory schema from the schema tree."""
        self.tables = {}
        self.indexes = {}
        self._stats = {}
        for _key, value in self.schema_tree.scan():
            row = decode_record(value)
            kind = row[0]
            if kind == "table":
                table = self._table_from_row(row)
                self.tables[table.name.lower()] = table
            elif kind == "index":
                index = Index(
                    name=row[1],
                    table=row[2],
                    root_page=row[3],
                    columns=tuple(row[5].split(",")),
                    unique=bool(row[4]),
                )
                self.indexes[index.name.lower()] = index
        for index in self.indexes.values():
            table = self.tables.get(index.table.lower())
            if table is not None:
                table.indexes.append(index)
        self._loaded_version = self.pager.schema_version

    def maybe_reload(self) -> None:
        if self.pager.schema_version != self._loaded_version:
            self.reload()

    @staticmethod
    def _table_from_row(row) -> Table:
        name, root_page, ncols = row[1], row[2], row[3]
        columns = []
        pos = 4
        for _ in range(ncols):
            columns.append(
                Column(
                    name=row[pos],
                    declared_type=row[pos + 1],
                    affinity=affinity_of(row[pos + 1]),
                    primary_key=bool(row[pos + 2] & 1),
                    not_null=bool(row[pos + 2] & 2),
                    unique=bool(row[pos + 2] & 4),
                    default=row[pos + 3],
                )
            )
            pos += 4
        table = Table(name=name, columns=columns, root_page=root_page)
        table.rowid_alias = _find_rowid_alias(columns)
        return table

    def _persist_table(self, table: Table) -> None:
        row: list = ["table", table.name, table.root_page, len(table.columns)]
        for col in table.columns:
            flags = (
                (1 if col.primary_key else 0)
                | (2 if col.not_null else 0)
                | (4 if col.unique else 0)
            )
            row.extend([col.name, col.declared_type, flags, col.default])
        self.schema_tree.insert(
            encode_key(["table", table.name.lower()]), encode_record(row)
        )
        self.pager.bump_schema_version()
        self._loaded_version = self.pager.schema_version

    def _persist_index(self, index: Index) -> None:
        row = [
            "index",
            index.name,
            index.table,
            index.root_page,
            1 if index.unique else 0,
            ",".join(index.columns),
        ]
        self.schema_tree.insert(
            encode_key(["index", index.name.lower()]), encode_record(row)
        )
        self.pager.bump_schema_version()
        self._loaded_version = self.pager.schema_version

    # -- DDL ------------------------------------------------------------------------------

    def create_table(self, stmt: ast.CreateTable, evaluate_literal) -> Optional[Table]:
        if stmt.name.lower() in self.tables:
            if stmt.if_not_exists:
                return None
            raise SqlError(f"table {stmt.name} already exists")
        columns = []
        for cdef in stmt.columns:
            default = SqlNull
            if cdef.default is not None:
                default = evaluate_literal(cdef.default)
            columns.append(
                Column(
                    name=cdef.name,
                    declared_type=cdef.declared_type,
                    affinity=affinity_of(cdef.declared_type),
                    primary_key=cdef.primary_key,
                    not_null=cdef.not_null,
                    unique=cdef.unique,
                    default=default,
                )
            )
        tree = BTree.create(self.pager)
        table = Table(name=stmt.name, columns=columns, root_page=tree.root_page)
        table.rowid_alias = _find_rowid_alias(columns)
        self.tables[table.name.lower()] = table
        self._persist_table(table)
        # Non-rowid PRIMARY KEY and UNIQUE columns get automatic unique
        # indexes, like SQLite's implicit indexes.
        for col in columns:
            needs_index = (col.primary_key and table.rowid_alias is None) or col.unique
            if needs_index:
                self.create_index(
                    ast.CreateIndex(
                        name=f"__auto_{table.name}_{col.name}",
                        table=table.name,
                        columns=(col.name,),
                        unique=True,
                    )
                )
        return table

    def create_index(self, stmt: ast.CreateIndex) -> Optional[Index]:
        if stmt.name.lower() in self.indexes:
            if stmt.if_not_exists:
                return None
            raise SqlError(f"index {stmt.name} already exists")
        table = self.table(stmt.table)
        for col in stmt.columns:
            table.column_index(col)  # validates existence
        tree = BTree.create(self.pager)
        index = Index(
            name=stmt.name,
            table=table.name,
            columns=stmt.columns,
            root_page=tree.root_page,
            unique=stmt.unique,
        )
        self.indexes[index.name.lower()] = index
        table.indexes.append(index)
        self._persist_index(index)
        return index

    def drop_index(self, name: str, if_exists: bool) -> None:
        index = self.indexes.get(name.lower())
        if index is None:
            if if_exists:
                return
            raise SqlError(f"no such index {name}")
        del self.indexes[name.lower()]
        table = self.tables.get(index.table.lower())
        if table is not None:
            table.indexes = [i for i in table.indexes if i.name != index.name]
        self.schema_tree.delete(encode_key(["index", name.lower()]))
        self.pager.bump_schema_version()
        self._loaded_version = self.pager.schema_version

    def add_column(self, table_name: str, cdef: ast.ColumnDef, evaluate_literal) -> None:
        """ALTER TABLE ADD COLUMN: schema-only; existing rows are padded
        with the default at read time (SQLite's approach)."""
        table = self.table(table_name)
        if any(c.name.lower() == cdef.name.lower() for c in table.columns):
            raise SqlError(f"duplicate column name: {cdef.name}")
        default = SqlNull if cdef.default is None else evaluate_literal(cdef.default)
        if cdef.not_null and default is SqlNull:
            raise SqlError(
                "an added NOT NULL column needs a non-null default"
            )
        table.columns.append(
            Column(
                name=cdef.name,
                declared_type=cdef.declared_type,
                affinity=affinity_of(cdef.declared_type),
                not_null=cdef.not_null,
                default=default,
            )
        )
        table.remap_columns()
        self._persist_table(table)

    def drop_table(self, name: str, if_exists: bool) -> None:
        table = self.tables.get(name.lower())
        if table is None:
            if if_exists:
                return
            raise SqlError(f"no such table {name}")
        del self.tables[name.lower()]
        self._stats.pop(name.lower(), None)
        self.schema_tree.delete(encode_key(["table", name.lower()]))
        for index in list(table.indexes):
            self.indexes.pop(index.name.lower(), None)
            self.schema_tree.delete(encode_key(["index", index.name.lower()]))
        self.pager.bump_schema_version()
        self._loaded_version = self.pager.schema_version

    # -- statistics ------------------------------------------------------------------------

    def stats(self, table: Table) -> TableStats:
        """Planner statistics for ``table``, counted lazily on first use.

        Estimates may go stale relative to uncommitted work or drift
        from concurrent plans being memoized; that is fine — statistics
        only steer cost choices, never correctness (plans always
        re-check the full predicate).
        """
        key = table.name.lower()
        entry = self._stats.get(key)
        if entry is None:
            entry = TableStats(row_count=BTree(self.pager, table.root_page).count())
            self._stats[key] = entry
        return entry

    def note_rows(self, table: Table, delta: int) -> None:
        """Incremental row-count maintenance from the executor's DML."""
        entry = self._stats.get(table.name.lower())
        if entry is not None:
            entry.row_count = max(0, entry.row_count + delta)

    # -- lookup ----------------------------------------------------------------------------

    def table(self, name: str) -> Table:
        table = self.tables.get(name.lower())
        if table is None:
            raise SqlError(f"no such table {name}")
        return table


def _find_rowid_alias(columns: list[Column]) -> Optional[int]:
    """An INTEGER PRIMARY KEY column aliases the rowid, as in SQLite."""
    for i, col in enumerate(columns):
        if col.primary_key and col.declared_type.upper() == "INTEGER":
            return i
    return None
