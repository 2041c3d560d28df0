"""The :class:`Database` facade — the engine's public API.

Mirrors the shape of SQLite's C API the paper's applications code against:
``execute`` (one statement, optional ``?`` parameters), ``executescript``
(DDL batches), explicit BEGIN/COMMIT/ROLLBACK or per-statement
autocommit, and instrumentation counters the PBFT application layer turns
into simulated CPU/disk time.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.common.errors import SqlError
from repro.sqlstate import ast
from repro.sqlstate.catalog import Catalog
from repro.sqlstate.executor import Executor
from repro.sqlstate.pager import Pager
from repro.sqlstate.parser import parse, parse_script
from repro.sqlstate.vfs import MemoryVfsFile, VfsEnvironment, VfsFile


@dataclass
class ResultSet:
    """Rows plus column labels from a SELECT."""

    columns: list[str]
    rows: list[tuple]

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def scalar(self):
        """First column of the first row (or None)."""
        if not self.rows:
            return None
        return self.rows[0][0]


@dataclass
class StatementStats:
    """Instrumentation deltas for the last ``execute`` call."""

    rows_scanned: int = 0
    rows_written: int = 0
    pages_journaled: int = 0
    pages_written: int = 0
    syncs: int = 0
    statements: int = 0


_PLAN_CACHE_CAP = 256


class Database:
    """An embedded relational database over a VFS file pair."""

    def __init__(
        self,
        file: Optional[VfsFile] = None,
        journal_file: Optional[VfsFile] = None,
        page_size: int = 4096,
        env: Optional[VfsEnvironment] = None,
        journal: bool = True,
    ) -> None:
        """``journal=False`` is the paper's No-ACID mode: no rollback
        journal, no flushing per operation (section 4.2's 1155-TPS
        configuration).  Otherwise a journal is kept — on the supplied
        ``journal_file`` (typically a simulated local disk) or a free
        in-memory file."""
        self.file = file if file is not None else MemoryVfsFile()
        if journal and journal_file is None:
            journal_file = MemoryVfsFile()
        if not journal:
            journal_file = None
        self.journal_file = journal_file
        self.env = env or VfsEnvironment()
        self.pager = Pager(self.file, page_size=page_size, journal_file=journal_file)
        self.catalog = Catalog(self.pager)
        self.executor = Executor(self.catalog, self.env)
        self.explicit_transaction = False
        self.last_stats = StatementStats()
        self.total_statements = 0
        # Statement cache: SQL text → parsed AST.  The AST is pure syntax
        # (schema-independent), so it never goes stale; access-path plans
        # hang off its nodes in the executor's memo, which *does*
        # revalidate against the live catalog.  Bounded LRU.
        self._plan_cache: OrderedDict[str, object] = OrderedDict()
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        # Observability hook: called after every statement (success or
        # error) with the statement's AST type name and its instrumentation
        # deltas.  The PBFT application layer uses it to put per-statement
        # and per-fsync timing on the common-clock trace.
        self.on_statement: Optional[Callable[[str, StatementStats], None]] = None

    # -- transactions ------------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self.pager.in_transaction

    def begin(self) -> None:
        if self.explicit_transaction:
            raise SqlError("cannot start a transaction within a transaction")
        if not self.pager.in_transaction:
            self.pager.begin()
        self.explicit_transaction = True

    def commit(self) -> None:
        if not self.explicit_transaction:
            raise SqlError("cannot commit - no transaction is active")
        self.pager.commit()
        self.explicit_transaction = False

    def rollback(self) -> None:
        if not self.explicit_transaction:
            raise SqlError("cannot rollback - no transaction is active")
        self.pager.rollback()
        self.catalog.reload()
        self.explicit_transaction = False

    # -- statement execution ------------------------------------------------------

    def execute(self, sql: str, params: Sequence = ()):
        """Run one statement.

        Returns a :class:`ResultSet` for SELECT, an affected-row count for
        DML, and ``None`` for DDL/transaction control.  Outside an explicit
        transaction, each statement is its own (journaled, synced)
        autocommit transaction — the paper's vote-insertion workload runs
        this way.
        """
        return self._run(self._prepare(sql), tuple(params))

    def _prepare(self, sql: str):
        """Parse, going through the statement cache."""
        stmt = self._plan_cache.get(sql)
        if stmt is not None:
            self._plan_cache.move_to_end(sql)
            self.plan_cache_hits += 1
            return stmt
        self.plan_cache_misses += 1
        stmt = parse(sql)
        self._plan_cache[sql] = stmt
        if len(self._plan_cache) > _PLAN_CACHE_CAP:
            self._plan_cache.popitem(last=False)
        return stmt

    def executescript(self, sql: str) -> None:
        """Run a semicolon-separated batch (schema setup)."""
        for stmt in parse_script(sql):
            self._run(stmt, ())

    def _run(self, stmt, params):
        self.total_statements += 1
        baseline = self._snapshot_counters()
        try:
            result = self._dispatch(stmt, params)
        finally:
            self.last_stats = self._stats_since(baseline)
            if self.on_statement is not None:
                self.on_statement(type(stmt).__name__, self.last_stats)
        return result

    def _dispatch(self, stmt, params):
        self.catalog.maybe_reload()
        if isinstance(stmt, ast.Begin):
            self.begin()
            return None
        if isinstance(stmt, ast.Commit):
            self.commit()
            return None
        if isinstance(stmt, ast.Rollback):
            self.rollback()
            return None
        if isinstance(stmt, ast.Explain):
            from repro.sqlstate.planner import explain_statement

            lines = explain_statement(stmt.statement, self.catalog)
            return ResultSet(columns=["detail"], rows=[(line,) for line in lines])
        if isinstance(stmt, ast.Select):
            columns, rows = self.executor.select(stmt, params)
            return ResultSet(columns=columns, rows=rows)
        # Everything below mutates: wrap in autocommit when needed.
        auto = not self.pager.in_transaction
        if auto:
            self.pager.begin()
        try:
            if isinstance(stmt, ast.Insert):
                result = self.executor.insert(stmt, params)
            elif isinstance(stmt, ast.Update):
                result = self.executor.update(stmt, params)
            elif isinstance(stmt, ast.Delete):
                result = self.executor.delete(stmt, params)
            elif isinstance(stmt, ast.CreateTable):
                self.catalog.create_table(stmt, self.executor.eval_literal)
                result = None
            elif isinstance(stmt, ast.CreateIndex):
                created = self.catalog.create_index(stmt)
                if created is not None:
                    self._backfill_index(created)
                result = None
            elif isinstance(stmt, ast.DropTable):
                self.catalog.drop_table(stmt.name, stmt.if_exists)
                result = None
            elif isinstance(stmt, ast.DropIndex):
                self.catalog.drop_index(stmt.name, stmt.if_exists)
                result = None
            elif isinstance(stmt, ast.AlterTableAddColumn):
                self.catalog.add_column(
                    stmt.table, stmt.column, self.executor.eval_literal
                )
                result = None
            else:
                raise SqlError(f"unsupported statement {type(stmt).__name__}")
        except Exception:
            if auto and self.pager.in_transaction:
                if self.pager.journal is not None:
                    self.pager.rollback()
                    self.catalog.reload()
                else:
                    # No-ACID mode cannot roll back; commit what happened.
                    self.pager.commit()
            raise
        if auto:
            self.pager.commit()
        return result

    def _backfill_index(self, index) -> None:
        """Populate a newly created index from existing rows."""
        from repro.sqlstate.btree import BTree
        from repro.sqlstate.records import decode_record, decode_rowid, encode_rowid

        table = self.catalog.table(index.table)
        table_tree = BTree(self.pager, table.root_page)
        index_tree = BTree(self.pager, index.root_page)
        for key, raw in table_tree.scan():
            rowid = decode_rowid(key)
            # Rows stored before an ALTER TABLE ADD COLUMN are shorter
            # than the schema; index keys must see the padded defaults.
            row = self.executor._pad_row(table, decode_record(raw))
            index_tree.insert(
                self.executor._index_key(index, table, row, rowid),
                encode_rowid(rowid),
            )

    # -- instrumentation -------------------------------------------------------------

    def _snapshot_counters(self):
        journal = self.pager.journal
        return (
            self.executor.rows_scanned,
            self.executor.rows_written,
            journal.pages_journaled_total if journal else 0,
            self.pager.pages_written,
            self._sync_count(),
        )

    def _stats_since(self, baseline) -> StatementStats:
        journal = self.pager.journal
        return StatementStats(
            rows_scanned=self.executor.rows_scanned - baseline[0],
            rows_written=self.executor.rows_written - baseline[1],
            pages_journaled=(journal.pages_journaled_total if journal else 0)
            - baseline[2],
            pages_written=self.pager.pages_written - baseline[3],
            syncs=self._sync_count() - baseline[4],
            statements=1,
        )

    def _sync_count(self) -> int:
        disk = getattr(self.journal_file, "disk", None)
        main_disk = getattr(self.file, "disk", None)
        count = 0
        if disk is not None:
            count += disk.syncs
        if main_disk is not None and main_disk is not disk:
            count += main_disk.syncs
        return count

    # -- introspection ----------------------------------------------------------------

    def table_names(self) -> list[str]:
        return sorted(t.name for t in self.catalog.tables.values())

    def crash(self) -> None:
        """Simulation: lose volatile engine state (cache, open txn)."""
        self.pager.crash()
        self.explicit_transaction = False

    def reopen(self) -> None:
        """Simulate process restart: fresh pager over the same files.

        Journal recovery — "an uncommitted transaction will be rolled back
        on the next attempt to access the database file" — happens here.
        """
        self.pager = Pager(
            self.file, page_size=self.pager.page_size, journal_file=self.journal_file
        )
        self.catalog = Catalog(self.pager)
        self.executor = Executor(self.catalog, self.env)
        self.explicit_transaction = False
