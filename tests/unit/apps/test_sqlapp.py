"""The SQL application shim (state region + engine + nondet)."""

import pytest

from repro.apps.sqlapp import (
    SqlApplication,
    decode_rows_reply,
    decode_sql_op,
    encode_sql_op,
    tables_of_sql,
)
from repro.common.errors import ProtocolError, SqlError
from repro.sqlstate.values import SqlNull
from repro.statemgr.pages import PagedState

SCHEMA = "CREATE TABLE t (id INTEGER PRIMARY KEY, k TEXT UNIQUE, v TEXT);"


def make_app(acid=True, pages=64, page_size=2048):
    app = SqlApplication(schema_sql=SCHEMA, acid=acid)
    state = PagedState(pages, page_size)
    app.bind_state(state, app_offset=8 * page_size)
    return app, state


def run(app, state, sql, params=(), ts=1000, client=7):
    result = app.execute(encode_sql_op(sql, params), client, ts, readonly=False)
    state.end_of_execution()
    return result


class TestOpCodec:
    def test_roundtrip(self):
        op = encode_sql_op("INSERT INTO t VALUES (?, ?)", (1, "x"))
        assert decode_sql_op(op) == ("INSERT INTO t VALUES (?, ?)", (1, "x"))

    def test_none_params_become_null(self):
        op = encode_sql_op("SELECT ?", (None,))
        _sql, params = decode_sql_op(op)
        assert params[0] is SqlNull

    def test_memoised_decoding_equals_a_fresh_one(self):
        """Cold, warm and after eviction, the shared decoding is what the
        undecorated function returns."""
        ops = [
            encode_sql_op("UPDATE t SET v = ? WHERE k = ?", (f"v{i}", i, 1.5, b"\x00", None))
            for i in range(decode_sql_op.cache_info().maxsize + 8)
        ]
        decode_sql_op.cache_clear()
        for _pass in range(2):
            for op in ops[:8] + ops:  # the first eight are evicted, then redone
                assert decode_sql_op(op) == decode_sql_op.__wrapped__(op)
        assert decode_sql_op(ops[-1]) is decode_sql_op(bytes(bytearray(ops[-1])))
        assert decode_sql_op.cache_info().currsize == decode_sql_op.cache_info().maxsize

    @pytest.mark.parametrize("op", [b"\x02not sql", b"", b"\x01\x00\x00", b"\x01" + bytes(8)])
    def test_malformed_op_raises_every_time(self, op):
        decode_sql_op.cache_clear()
        errors = []
        for _ in range(3):
            with pytest.raises(Exception) as caught:
                decode_sql_op(op)
            errors.append(type(caught.value))
        assert set(errors) == {ProtocolError}  # what the replica answers, never another
        assert decode_sql_op.cache_info().currsize == 0
        with pytest.raises(ProtocolError, match="not a SqlOp"):
            decode_sql_op(b"\x02not sql")

    @pytest.mark.parametrize("sql, tables", [
        ("SELECT * FROM a", ("a",)),
        ("SELECT x FROM a, b AS bb WHERE a.k = bb.k", ("a", "b")),
        ("INSERT INTO Votes (k) VALUES (?)", ("votes",)),
        ("UPDATE acct SET v = v + 1 WHERE k IN (SELECT 1)", ("acct",)),
        ("SELECT 1", ()),
        ("CREATE TABLE t2 (k)", ("t2",)),
        ("SELECT * FROM a JOIN b ON a.k = b.k JOIN a ON 1", ("a", "b")),
        ("SELECT a FROM t WHERE s = 'a from b'", ("t",)),
        ("SELECT a FROM t WHERE b IN (SELECT c FROM u)", ("t", "u")),
        ("SELECT a FROM t -- from y", ("t",)),
        ("CREATE TABLE IF NOT EXISTS t (a)", ("t",)),
        ("CREATE INDEX i ON t(a)", ("t",)),
        ("SELEC a FROM t", ()),  # the engine's parse error names no table
    ])
    def test_tables_of_sql(self, sql, tables):
        tables_of_sql.cache_clear()
        assert tables_of_sql(sql) == tables  # cold
        assert tables_of_sql(sql) == tables_of_sql.__wrapped__(sql) == tables  # warm
        assert tables_of_sql.cache_info().hits == 1


class TestExecution:
    def test_insert_and_select(self):
        app, state = make_app()
        reply = run(app, state, "INSERT INTO t (k, v) VALUES ('a', '1')")
        assert decode_rows_reply(reply) == 1
        reply = run(app, state, "SELECT k, v FROM t")
        assert decode_rows_reply(reply) == [("a", "1")]

    def test_sql_errors_are_deterministic_replies_not_crashes(self):
        app, state = make_app()
        run(app, state, "INSERT INTO t (k) VALUES ('dup')")
        reply = run(app, state, "INSERT INTO t (k) VALUES ('dup')")
        with pytest.raises(SqlError, match="UNIQUE"):
            decode_rows_reply(reply)

    def test_identical_histories_produce_identical_roots(self):
        """The determinism requirement: two replicas executing the same
        ops with the same nondet data end with the same Merkle root —
        even with now() and randomblob() in the statements."""

        def build():
            app, state = make_app()
            for i in range(20):
                run(
                    app,
                    state,
                    "INSERT INTO t (k, v) VALUES (?, hex(randomblob(4)) || now())",
                    (f"key{i}",),
                    ts=5_000 + i,
                )
            return state.refresh_tree()

        assert build() == build()

    def test_nondet_functions_track_agreed_timestamp(self):
        app, state = make_app()
        run(app, state, "INSERT INTO t (k, v) VALUES ('x', '' || now())", ts=42_000)
        reply = run(app, state, "SELECT v FROM t WHERE k = 'x'")
        assert decode_rows_reply(reply) == [("42000",)]

    def test_cost_accumulates_and_resets(self):
        app, state = make_app()
        run(app, state, "INSERT INTO t (k, v) VALUES ('a', 'b')")
        cost = app.take_accumulated_cost()
        assert cost > 0
        assert app.take_accumulated_cost() == 0

    def test_acid_costs_more_than_noacid(self):
        app_acid, state_acid = make_app(acid=True)
        app_fast, state_fast = make_app(acid=False)
        run(app_acid, state_acid, "INSERT INTO t (k) VALUES ('x')")
        run(app_fast, state_fast, "INSERT INTO t (k) VALUES ('x')")
        assert app_acid.take_accumulated_cost() > app_fast.take_accumulated_cost()


class TestStateInstall:
    def test_reopen_after_state_transfer_sees_new_contents(self):
        source_app, source_state = make_app()
        run(source_app, source_state, "INSERT INTO t (k, v) VALUES ('moved', 'yes')")

        target_app, target_state = make_app()
        target_state.restore(source_state.snapshot_pages())
        target_app.on_state_installed()
        reply = target_app.execute(
            encode_sql_op("SELECT v FROM t WHERE k = 'moved'"), 1, 0, True
        )
        assert decode_rows_reply(reply) == [("yes",)]

    def test_authorize_join_default(self):
        app, _state = make_app()
        assert app.authorize_join(b"") is None
        a = app.authorize_join(b"user:1")
        assert a == app.authorize_join(b"user:1")
        assert a != app.authorize_join(b"user:2")


class TestMigrationHooks:
    """The hooks ``repro.shard.txapp`` drives; units are duck-typed here."""

    class Table:
        name = "t"

    def test_rows_with_nulls_move_and_a_null_parameter_binds(self):
        src, src_state = make_app()
        assert decode_rows_reply(run(src, src_state, "INSERT INTO t (k, v) VALUES (?, ?)", ("a", None))) == 1
        run(src, src_state, "INSERT INTO t (k, v) VALUES ('b', 'two')")
        chunk, cursor, done = src.migrate_export(self.Table, 0, 4096)
        assert (cursor, done) == (2, True)
        dst, dst_state = make_app()
        dst.migrate_install(self.Table, chunk)
        reply = run(dst, dst_state, "SELECT k, v FROM t ORDER BY k")
        assert decode_rows_reply(reply) == [("a", SqlNull), ("b", "two")]

    def test_a_chunk_of_garbage_records_is_refused_before_any_row_lands(self):
        from repro.apps.sqlapp import SqlChunk
        from repro.sqlstate.records import encode_record

        dst, dst_state = make_app()
        good = encode_record([1, "a", "x"])
        for bad in (b"\t", b"", b"\xff" * 9, good + b"\x00", good[:-1]):
            with pytest.raises(ProtocolError):
                dst.migrate_install(self.Table, SqlChunk((good, bad)).encode())
        with pytest.raises(ProtocolError):
            dst.migrate_install(self.Table, b"\x00\x00\x00\x02")
        assert decode_rows_reply(run(dst, dst_state, "SELECT * FROM t")) == []
        with pytest.raises(SqlError, match="migrate tables"):
            dst.migrate_export(object(), 0, 10)
