"""The SQL application shim: PBFT state region + embedded engine.

This is the paper's section 3.2 architecture end to end:

* the **database file** is a sparse file mapped onto the PBFT state
  region's application partition (every write triggers the library's
  modify notification, so checkpointing/state transfer just work);
* the **rollback journal** lives on the replica's local simulated disk —
  it is recovery scaffolding, not replicated state — and its fsyncs are
  what make ACID cost what it costs (section 4.2);
* **non-determinism** (``now()``, ``random()``) comes from the agreed
  pre-prepare data via :class:`~repro.sqlstate.vfs.VfsEnvironment`.

Operations are encoded SQL statements with parameters; replies are
encoded result rows (or an affected-row count).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.common.errors import ProtocolError, SqlError
from repro.common.units import MICROSECOND
from repro.crypto.digests import md5_digest
from repro.pbft.messages import message
from repro.pbft.replica import Application
from repro.pbft.wire import blob, decode_exact, layout, seq, tagged, text, u64
from repro.sqlstate import ast
from repro.sqlstate.engine import Database, ResultSet
from repro.sqlstate.parser import parse
from repro.sqlstate.records import decode_record, encode_record
from repro.sqlstate.vfs import DiskModel, MemoryVfsFile, StateRegionVfsFile, VfsEnvironment
from repro.sqlstate.values import SqlNull


def _values_of(record: bytes) -> list:
    """The values of a client-supplied record (a statement's parameters, a
    migrated row), which must be the one encoding of them: ``sqlstate``
    reads its own records trustingly, so the op boundary is strict for it."""
    try:
        values = decode_record(record)
        canonical = encode_record(values) == record
    except SqlError as exc:
        raise ProtocolError(f"not a record: {exc}") from exc
    if not canonical:
        raise ProtocolError("not a canonical record")
    return values


@message
class SqlOp:
    """One statement and its parameters, as one record."""

    sql: str
    record: bytes

    LAYOUT = layout(0x01, sql=text, record=blob)


def encode_sql_op(sql: str, params: tuple = ()) -> bytes:
    """Encode one SQL operation for submission through PBFT."""
    return SqlOp(sql, encode_record([SqlNull if p is None else p for p in params])).encode()


# One operation is decoded by the router's codec, by the lock-key scan at
# every replica and again to execute; its bytes and the decoded
# (str, tuple-of-scalars) are both immutable, so the decodings are shared.
# The working set is the operations in flight, a few per router or client.
# A malformed operation raises every time: lru_cache stores no exceptions.
@functools.lru_cache(maxsize=256)
def decode_sql_op(op: bytes) -> tuple[str, tuple]:
    decoded = decode_exact(SqlOp, op)
    return decoded.sql, tuple(_values_of(decoded.record))


# The field that names a table, for every node that names one.
_TABLE_FIELDS = {
    ast.TableRef: "name", ast.Insert: "table", ast.Update: "table",
    ast.Delete: "table", ast.CreateTable: "name", ast.CreateIndex: "table",
    ast.DropTable: "name", ast.AlterTableAddColumn: "table",
}


@functools.lru_cache(maxsize=256)
def tables_of_sql(sql: str) -> tuple[str, ...]:
    """The table names a statement references, subqueries included, in
    first-mention order.

    This is the sharding layer's routing unit for SQL (tables, not rows:
    SQL tables are few and heavy, so :mod:`repro.shard` places and locks
    whole tables).  The names come from the engine's own parse.  A
    statement the engine cannot parse names no table and fails the same
    way when executed; it does not raise here, because lock keys are
    computed inside ordered execution at every replica.
    """
    try:
        stmt = parse(sql)
    except SqlError:
        return ()
    tables: dict[str, None] = {}

    def enter(node) -> None:
        field = _TABLE_FIELDS.get(type(node))
        if field is not None:
            tables.setdefault(getattr(node, field).lower())

    ast.walk(stmt, enter)
    return tuple(tables)


SQL_REPLY = tagged("SqlReply")


@message(family=SQL_REPLY)
class SqlNone:
    """The statement returns nothing (DDL)."""

    LAYOUT = layout(0x00)


@message(family=SQL_REPLY)
class SqlRows:
    """A SELECT's rows, one record each.  A migration chunk is the same shape."""

    rows: tuple[bytes, ...]

    LAYOUT = layout(0x01, rows=seq(blob))


@message(family=SQL_REPLY)
class SqlCount:
    count: int  # rows affected

    LAYOUT = layout(0x02, count=u64)


@message(family=SQL_REPLY)
class SqlFailure:
    """Errors are part of the deterministic reply, not a crash."""

    error: str

    LAYOUT = layout(0x03, error=text)


@message
class SqlChunk:
    """Migration chunk: the records of rows leaving with a table."""

    rows: tuple[bytes, ...]

    LAYOUT = layout(rows=seq(blob))


def encode_rows_reply(result: ResultSet) -> bytes:
    return SqlRows(tuple(encode_record(list(row)) for row in result.rows)).encode()


def decode_rows_reply(reply: bytes):
    """Decode a reply: list of row tuples, or an int count, or None."""
    decoded = decode_exact(SQL_REPLY, reply)
    if type(decoded) is SqlFailure:
        raise SqlError(decoded.error)
    if type(decoded) is SqlRows:
        return [tuple(decode_record(row)) for row in decoded.rows]
    return getattr(decoded, "count", None)


@dataclass(frozen=True)
class SqlCosts:
    """Simulated costs of SQL work (calibrated for Figure 5 / section 4.2)."""

    parse_ns: int = 40 * MICROSECOND
    per_row_written_ns: int = 60 * MICROSECOND
    per_row_scanned_ns: int = 4 * MICROSECOND
    per_page_journaled_ns: int = 25 * MICROSECOND
    fsync_ns: int = 400 * MICROSECOND
    disk_write_ns: int = 15 * MICROSECOND


class SqlApplication(Application):
    """A PBFT application whose whole state is a relational database."""

    def __init__(
        self,
        schema_sql: str = "",
        acid: bool = True,
        costs: SqlCosts | None = None,
    ) -> None:
        self.schema_sql = schema_sql
        self.acid = acid
        self.costs = costs or SqlCosts()
        self.env = VfsEnvironment()
        self.db: Database | None = None
        self.state = None
        self.app_offset = 0
        self._accumulated_ns = 0
        self._request_counter = 0
        self._tracer = None
        self._track = ""
        self._metrics: tuple | None = None  # engine counters, see attach_obs
        self.disk = DiskModel(
            charge=self._charge,
            sync_ns=self.costs.fsync_ns,
            write_ns_per_page=self.costs.disk_write_ns,
        )

    # -- Application interface ------------------------------------------------------

    def bind_state(self, state, app_offset: int) -> None:
        self.state = state
        self.app_offset = app_offset
        self._open_database(fresh=True)

    def _open_database(self, fresh: bool) -> None:
        file = StateRegionVfsFile(self.state, self.app_offset)
        journal_file = MemoryVfsFile(disk=self.disk) if self.acid else None
        self.db = Database(
            file=file,
            journal_file=journal_file,
            env=self.env,
            journal=self.acid,
        )
        if self._tracer is not None:
            self.db.on_statement = self._on_statement
        if fresh and self.schema_sql and not self.db.table_names():
            self.db.executescript(self.schema_sql)
            self.state.end_of_execution()

    def attach_obs(self, obs, track: str) -> None:
        """Put per-statement and per-fsync timing on the replica's track,
        and register the engine's planner/cache counters."""
        self._tracer = obs.tracer
        self._track = track
        if self.db is not None:
            self.db.on_statement = self._on_statement
        self.disk.observer = self._on_disk_op
        registry = getattr(obs, "registry", None)
        if registry is not None:
            self._metrics = tuple(
                registry.counter(f"{track}.sql.{name}")
                for name in (
                    "rows_scanned",
                    "index_lookups",
                    "plan_cache_hits",
                    "plan_cache_misses",
                    "buffer_pool_hits",
                    "buffer_pool_misses",
                )
            )

    def _engine_counters(self) -> tuple[int, ...]:
        db = self.db
        return (
            db.executor.rows_scanned,
            db.executor.index_lookups,
            db.plan_cache_hits,
            db.plan_cache_misses,
            db.pager.cache_hits,
            db.pager.cache_misses,
        )

    def _on_statement(self, stmt_kind: str, stats) -> None:
        tracer = self._tracer
        if tracer is None or not tracer.enabled:
            return
        now = tracer.clock()
        cost = (
            self._statement_cost_ns(stats)
            + stats.syncs * self.costs.fsync_ns
            + stats.pages_written * self.costs.disk_write_ns
        )
        tracer.complete(
            self._track, f"sql.{stmt_kind}", now, now + cost, cat="sql",
            args={
                "rows_scanned": stats.rows_scanned,
                "rows_written": stats.rows_written,
                "pages_journaled": stats.pages_journaled,
                "pages_written": stats.pages_written,
                "syncs": stats.syncs,
            },
        )

    def _on_disk_op(self, kind: str, cost_ns: int) -> None:
        tracer = self._tracer
        if tracer is None or not tracer.enabled or kind != "sync":
            return
        tracer.event(
            self._track, "fsync", cat="sql.disk", args={"cost_ns": cost_ns}
        )

    def on_state_installed(self) -> None:
        """Pages were replaced wholesale: reopen over the new contents.

        The journal is local scaffolding; the transferred state is a
        committed snapshot, so the journal is simply discarded.
        """
        if self.db is not None and self.db.journal_file is not None:
            self.db.journal_file.truncate(0)
        self._open_database(fresh=False)

    def execute(self, op: bytes, client_id: int, nondet_ts: int, readonly: bool) -> bytes:
        sql, params = decode_sql_op(op)
        self._request_counter += 1
        # Seed from (agreed timestamp, client, operation bytes): identical
        # at every replica AND stable across log replay/rollback, so
        # random() results never diverge the state roots.
        seed = md5_digest(
            nondet_ts.to_bytes(8, "big", signed=True)
            + client_id.to_bytes(8, "big")
            + md5_digest(op)
        )
        self.env.set_from_nondet(nondet_ts, seed)
        before = self._engine_counters() if self._metrics is not None else None
        try:
            try:
                result = self.db.execute(sql, params)
            except SqlError as exc:
                return SqlFailure(str(exc)).encode()
        finally:
            if before is not None:
                after = self._engine_counters()
                for counter, was, now in zip(self._metrics, before, after):
                    if now > was:
                        counter.inc(now - was)
        self._accumulated_ns += self._statement_cost_ns(self.db.last_stats)
        if isinstance(result, ResultSet):
            return encode_rows_reply(result)
        if isinstance(result, int):
            return SqlCount(result).encode()
        return SqlNone().encode()

    def _statement_cost_ns(self, stats) -> int:
        """Engine CPU cost of one statement (excludes journal disk time,
        which :class:`DiskModel` charges separately)."""
        return (
            self.costs.parse_ns
            + stats.rows_written * self.costs.per_row_written_ns
            + stats.rows_scanned * self.costs.per_row_scanned_ns
            + stats.pages_journaled * self.costs.per_page_journaled_ns
        )

    def execute_cost_ns(self, op: bytes, readonly: bool) -> int:
        return 0  # all cost is accounted dynamically via take_accumulated_cost

    def take_accumulated_cost(self) -> int:
        """Simulated time accrued by the last execution (engine work plus
        journal disk traffic); the replica charges it to its host CPU."""
        cost = self._accumulated_ns
        self._accumulated_ns = 0
        return cost

    def _charge(self, ns: int) -> None:
        self._accumulated_ns += ns

    def authorize_join(self, idbuf: bytes) -> int | None:
        """Default authorization: any non-empty identification buffer is a
        principal (hash of the buffer).  Applications override."""
        if not idbuf:
            return None
        return int.from_bytes(md5_digest(idbuf)[:6], "big")

    # -- live rebalancing hooks (driven by repro.shard.txapp) -----------------
    # The migration unit for SQL is a whole table — the same unit the
    # shard directory places and the transaction layer locks.  The
    # destination group's schema must already define the table (groups are
    # built from a common schema); rows arrive as encoded records and are
    # re-inserted positionally, so rowids are reassigned deterministically
    # at the destination.

    def _table_of(self, unit) -> str:
        try:
            return unit.name
        except AttributeError:
            raise SqlError("SQL applications migrate tables, not key ranges") from None

    def migrate_export(self, unit, cursor: int, budget: int):
        """Rows ``cursor..`` of ``SELECT * FROM <table>``, up to ~``budget``
        encoded bytes; returns (chunk, next_cursor, done).  The scan order
        is the B-tree's, identical at every replica; the table is frozen,
        so re-running the SELECT per chunk sees stable contents."""
        table = self._table_of(unit)
        result = self.db.execute(f"SELECT * FROM {table}")
        rows = result.rows if isinstance(result, ResultSet) else []
        self._accumulated_ns += self._statement_cost_ns(self.db.last_stats)
        records = []
        used = 0
        index = cursor
        while index < len(rows) and used < budget:
            record = encode_record(list(rows[index]))
            records.append(record)
            used += len(record)
            index += 1
        return SqlChunk(tuple(records)).encode(), index, index >= len(rows)

    def migrate_install(self, unit, chunk: bytes) -> None:
        table = self._table_of(unit)
        for row in [_values_of(record) for record in decode_exact(SqlChunk, chunk).rows]:
            placeholders = ", ".join("?" for _ in row)
            self.db.execute(
                f"INSERT INTO {table} VALUES ({placeholders})", row
            )
            self._accumulated_ns += self._statement_cost_ns(self.db.last_stats)

    def migrate_purge(self, unit) -> None:
        table = self._table_of(unit)
        self.db.execute(f"DELETE FROM {table}")
        self._accumulated_ns += self._statement_cost_ns(self.db.last_stats)
