"""Property tests: protocol messages survive encode/decode, the wire
memos always equal a fresh encoding, and the one-store constructor builds
what the stock dataclass constructor builds."""

import cProfile
import copy
import dataclasses
import hashlib
import inspect
import linecache
import pickle
import pstats
import random
import struct
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.kvstore import KV_OP, Get, KvChunk, Put
from repro.apps.sqlapp import SqlChunk, SqlCount, SqlFailure, SqlNone, SqlOp, SqlRows
from repro.common.errors import ProtocolError
from repro.crypto.digests import md5_digest, memo_digest
from repro.membership.messages import (
    Join2Payload,
    JoinChallenge,
    JoinPhase1,
    ReconfigPayload,
)
from repro.pbft.messages import (
    AuthenticatorRefresh,
    BatchRetransmit,
    BusyReply,
    CheckpointMsg,
    Commit,
    DigestsMsg,
    DurableImage,
    FetchDigestsMsg,
    FetchPagesMsg,
    NewViewMsg,
    PagesMsg,
    PrePrepare,
    Prepare,
    Reply,
    Request,
    StatusMsg,
    ViewChangeMsg,
    PreparedProof,
    WireMemo,
    decode_message,
    message,
)
from repro.pbft.wire import (
    Atom, Decoder, blob, boolean, boxed, decode_exact, layout, raw, seq, tagged, text, u8, u16,
)
from repro.shard import txapp as tx
from repro.sqlstate.records import encode_record
from repro.sqlstate.values import SqlNull


def strategy_for(kind):
    """The Hypothesis strategy of a message class, or of one kind of the
    wire table, read off ``LAYOUT`` — a field added to a layout is fuzzed
    and round-tripped without touching this file."""
    if isinstance(kind, type):
        fields_ = kind.LAYOUT.fields.items()
        return st.builds(kind, **{name: strategy_for(k) for name, k in fields_})
    if isinstance(kind, Atom):
        if kind.allowed:
            return st.sampled_from(kind.allowed)
        plain = {boolean: st.booleans(), blob: st.binary(max_size=96), text: st.text(max_size=24)}
        if kind in plain:
            return plain[kind]
        return st.integers(min_value=0, max_value=256 ** struct.calcsize(kind.code) - 1)
    if isinstance(kind, raw):
        return st.binary(min_size=kind.size, max_size=kind.size)
    if isinstance(kind, boxed):
        return strategy_for(kind.cls)
    if isinstance(kind, tagged):
        return st.one_of(*map(strategy_for, kind.classes.values()))
    items = [strategy_for(k) for k in kind.item]
    return st.lists(items[0] if len(items) == 1 else st.tuples(*items), max_size=4).map(tuple)


def surcharge(value, kind=None) -> int:
    """Σ (charged − encoded) over a message: the bytes ``wire_size`` accounts
    for that ``wire`` does not carry (``raw(n, charged=m)`` in a layout)."""
    if kind is None or isinstance(kind, (type, boxed, tagged)):
        layout_fields = type(value).LAYOUT.fields.items()
        return sum(surcharge(getattr(value, name), k) for name, k in layout_fields)
    if isinstance(kind, raw):
        return kind.charged - kind.size
    if isinstance(kind, seq):
        rows = value if len(kind.item) > 1 else [(v,) for v in value]
        return sum(surcharge(v, k) for row in rows for v, k in zip(row, kind.item))
    return 0


requests = strategy_for(Request)
pre_prepares = strategy_for(PrePrepare)
small_messages = st.one_of(
    *map(strategy_for, (Prepare, Commit, CheckpointMsg, StatusMsg, Reply, BusyReply))
)
view_changes = strategy_for(ViewChangeMsg)
pages_msgs = strategy_for(PagesMsg)


# Through ``decode_message``: the tag dispatch, then the class's decoder.
@given(msg=requests)
@settings(max_examples=100)
def test_request_roundtrip(msg):
    assert decode_message(msg.encode()) == msg


@given(msg=pre_prepares)
@settings(max_examples=60)
def test_preprepare_roundtrip(msg):
    assert decode_message(msg.encode()) == msg


@given(msg=small_messages)
@settings(max_examples=150)
def test_small_messages_roundtrip(msg):
    assert decode_message(msg.encode()) == msg


@given(msg=view_changes)
@settings(max_examples=60)
def test_viewchange_roundtrip(msg):
    assert decode_message(msg.encode()) == msg


@given(msg=pages_msgs)
@settings(max_examples=60)
def test_pages_roundtrip(msg):
    assert decode_message(msg.encode()) == msg


def sample_messages():
    """One deterministic instance of every wire message type (all 16 tags).

    Shared with the golden-vector regression test
    (tests/unit/pbft/test_wire_golden.py): any change to these samples or
    to an encoder must be reflected there on purpose.
    """
    d = bytes(range(16))
    req = Request(client=7, req_id=42, op=b"op-bytes", readonly=False, big=False)
    pp = PrePrepare(
        view=1,
        seq=9,
        request_digests=(req.digest,),
        nondet=b"nd",
        inline_requests=(req,),
        sender=0,
    )
    vc = ViewChangeMsg(
        new_view=2,
        stable_seq=100,
        stable_root=d,
        checkpoint_proof=((0, d), (1, d)),
        prepared=(
            PreparedProof(
                seq=101,
                view=1,
                batch_digest=d,
                request_digests=(d,),
                nondet=b"n",
                noop=False,
            ),
        ),
        sender=3,
    )
    return [
        req,
        pp,
        Prepare(view=1, seq=9, batch_digest=d, sender=1),
        Commit(view=1, seq=9, batch_digest=d, sender=2),
        Reply(
            view=1, req_id=42, client=7, sender=0,
            result=b"result", tentative=True, digest_only=False,
        ),
        CheckpointMsg(seq=100, root=d, sender=1),
        vc,
        NewViewMsg(
            view=2,
            view_changes=(vc,),
            pre_prepares=(PreparedProof(seq=101, view=1, batch_digest=d, noop=True),),
            stable_seq=100,
            sender=2,
        ),
        StatusMsg(view=2, last_exec_seq=101, stable_seq=100, sender=3, recovering=True),
        BatchRetransmit(pre_prepare=pp, requests=(req,), sender=1),
        FetchDigestsMsg(checkpoint_seq=100, node_indices=(0, 3, 7), sender=2),
        DigestsMsg(checkpoint_seq=100, entries=((3, d),), sender=0),
        FetchPagesMsg(checkpoint_seq=100, page_indices=(1, 2), sender=3),
        PagesMsg(
            checkpoint_seq=100,
            root=d,
            pages=((1, b"pagedata"),),
            sender=0,
            client_marks=((7, 42),),
            client_replies=((7, b"reply"),),
        ),
        AuthenticatorRefresh(client=7, keys=((0, bytes(16)), (1, d))),
        BusyReply(
            view=1, req_id=43, client=7, sender=2,
            reason=1, retry_after_ns=5000, queue_depth=9,
        ),
    ]


def test_sample_catalog_covers_every_tag():
    tags = {type(m).TAG for m in sample_messages()}
    assert tags == set(range(1, 17))


def test_memoized_wire_equals_fresh_encode_for_every_type():
    # The oracle is the memo-free codec itself: ``encode()``/``body_size()``
    # called directly, on this object and on a fresh equal one whose memos
    # were never filled.  Read twice: the first read computes and stores,
    # the second is the stored value.
    for msg in sample_messages():
        twin = replace(msg)
        assert twin == msg and "wire" not in vars(twin)
        for _read in range(2):
            assert msg.wire == msg.encode() == twin.encode()
            assert msg.wire_size == msg.body_size() == twin.body_size()
        assert msg.wire is msg.wire  # memoized: literally the same object
        assert decode_message(msg.wire) == msg
        if isinstance(msg, PrePrepare):
            assert msg.header_wire == msg.encode_header() == twin.encode_header()
            assert msg.header_wire is msg.header_wire
            assert msg.batch_digest == md5_digest(twin.encode_header())
        if isinstance(msg, (Request, ViewChangeMsg)):
            assert msg.digest == md5_digest(twin.encode())
            assert msg.digest is msg.digest


@given(msg=requests)
@settings(max_examples=100)
def test_request_digest_identical_across_cache_modes(msg):
    """The two modes a memo has: cold (this read computes) and warm (this
    read is the stored value) both equal a digest worked out from a fresh
    equal request's direct ``encode()``."""
    fresh = Request(
        client=msg.client, req_id=msg.req_id, op=msg.op,
        readonly=msg.readonly, big=msg.big,
    )
    expected = md5_digest(fresh.encode())
    assert "digest" not in vars(msg)
    assert msg.digest == expected  # cold
    assert msg.digest == expected  # warm
    assert msg.wire == fresh.encode()


@given(msg=requests)
@settings(max_examples=100)
def test_digest_is_injective_over_samples(msg):
    assert msg.digest != replace(msg, req_id=msg.req_id ^ 1).digest


# -- the one-store constructor -----------------------------------------------------
# ``message`` replaces the dataclass-generated ``__init__``; the stock one is
# the oracle here, twice over: an instance assembled field by field with
# ``object.__setattr__`` (what the stock constructor does), and a twin class
# with the same fields under plain ``@dataclass(frozen=True)``.


def membership_samples():
    """One deterministic instance of each ``repro.membership.messages`` class;
    pinned next to ``sample_messages()`` in test_wire_golden.py."""
    d = bytes(range(16))
    return [
        JoinPhase1(temp_client=9, pubkey_n=b"\x01" * 8, nonce=b"nonce", host="h", port=7000),
        JoinChallenge(temp_client=9, challenge=d, sender=2),
        Join2Payload(
            temp_client=9, pubkey_n=b"\x01" * 8, nonce=b"nonce", response=d,
            idbuf=b"alice", session_keys=((0, d), (1, d)), host="h", port=7000,
        ),
        ReconfigPayload(action=3, slot=1, incarnation=4),
    ]


def image_sample():
    """A replica's durable image: two pages, two votes, one client."""
    d = bytes(range(16))
    reply = Reply(view=2, req_id=42, client=7, sender=1, result=b"ok", tentative=True)
    return DurableImage(
        view=2, view_evidence=((0, 2), (3, 1)), next_seq=140, stable_seq=128, root=d,
        proof=((0, d), (1, d)), pages=(b"page-0", bytes(8)),
        client_marks=((7, 42),), client_replies=((7, reply),),
    )


def all_samples():
    """``sample_messages()`` plus the decorated classes that carry no tag of
    their own: proofs nested in view changes, the membership messages and
    the durable image."""
    samples = sample_messages()
    proofs = [p for m in samples if isinstance(m, (ViewChangeMsg, NewViewMsg))
              for p in getattr(m, "prepared", ()) + getattr(m, "pre_prepares", ())]
    return samples + proofs + membership_samples() + [image_sample()]


# -- the op families: kv, sql, shard-tx -------------------------------------------------
# What travels *inside* ``Request.op`` and ``Reply.result``, and what a shard
# persists in its reserved pages.  Pinned in test_wire_golden.py (OP_GOLDEN).

TXID_1, TXID_2, MIG_1 = ((n).to_bytes(16, "big") for n in (1, 2, 7))
LOW_HALF = tx.RangeUnit(0, 1 << 31)
ACCOUNTS = tx.TableUnit("accounts")
KV_RECORDS = (
    (md5_digest(b"a"), b"alpha"),
    (md5_digest(b"b"), b""),
)
SQL_ROWS = ((1, "ann", 100), (2, "bob", None))


def op_samples():
    """One deterministic instance of every ordered op, reply, migration
    payload and migration chunk, and a tx-table image with every table
    populated — each a class that declares its ``LAYOUT``."""
    put = Put(b"key", b"value")
    rows = tuple(encode_record([SqlNull if v is None else v for v in row]) for row in SQL_ROWS)
    kv_chunk = KvChunk(KV_RECORDS)
    table = tx.TxTable(
        prepared=(tx.PreparedTx(TXID_1, 9, 0, (0, 1), (put.encode(),), (b"key",)),),
        outcomes=((TXID_2, tx.DECISION_ABORT),),
        decisions=((TXID_1, tx.DECISION_COMMIT),),
        migrations=(tx.Migration(MIG_1, tx.ROLE_DST, ACCOUNTS, 1, 3),),
        moved=((TXID_2, LOW_HALF, 1, 4),),
        owned=((TXID_1, ACCOUNTS, 5),),
    )
    return [
        put,
        Get(b"key"),
        kv_chunk,
        SqlOp("SELECT * FROM t WHERE a = ? AND b = ?", encode_record([1, "x"])),
        SqlNone(),
        SqlRows(rows),
        SqlCount(3),
        SqlFailure("no such table t"),
        SqlChunk(rows),
        tx.TxPrepare(TXID_1, 0, (0, 1), (put.encode(),), (b"key",)),
        tx.TxCommit(TXID_1),
        tx.TxAbort(TXID_1),
        tx.TxDecide(TXID_1, tx.DECISION_COMMIT),
        tx.TxResolve(TXID_1),
        tx.TxStatus(TXID_1),
        tx.TxForget(TXID_1),
        tx.MigFreeze(MIG_1, LOW_HALF, 1),
        tx.MigExport(MIG_1, 5, 2048),
        tx.MigBegin(MIG_1, ACCOUNTS, 0),
        tx.MigInstall(MIG_1, 2, kv_chunk.encode()),
        tx.MigActivate(MIG_1, LOW_HALF, 4),
        tx.MigCommit(MIG_1, ACCOUNTS, 1, 4),
        tx.MigAbort(MIG_1),
        tx.MigStatus(MIG_1),
        tx.ReplyErr("commit after abort"),
        tx.ReplyOk((b"\x01OK", b"\x00MISS")),
        tx.ReplyLocked(TXID_1, 2),
        tx.ReplyTombstone(),
        tx.ReplyDecision(tx.DECISION_COMMIT),
        tx.ReplyUnknown(),
        tx.ReplyFrozen(),
        tx.ReplyWrongShard(LOW_HALF, 1, 4),
        tx.ReplyMig(b"payload"),
        tx.FreezePayload(((TXID_1, 0), (TXID_2, 3))),
        tx.ExportPayload(17, True, kv_chunk.encode()),
        tx.InstallPayload(True, 3),
        tx.StatusPayload(tx.MIG_DST_ACTIVE, 3),
        tx.TxTableImage(table),
    ]


def op_family_samples() -> dict[str, bytes]:
    """``op_samples()`` as the golden-vector test pins them: class name -> bytes."""
    return {type(sample).__name__: sample.encode() for sample in op_samples()}


def every_op_sample():
    """``op_samples()`` plus the classes that only travel nested: the two
    migration units and the rows of the tx-table image."""
    samples = op_samples()
    table = samples[-1].table
    return samples + [LOW_HALF, ACCOUNTS, table, *table.prepared, *table.migrations]


MESSAGE_CLASSES = sorted({type(m) for m in all_samples()}, key=lambda c: c.__qualname__)


# -- the wire table: every class, from its LAYOUT -------------------------------------


def by_class(test):
    """Over the protocol messages and the op families: whatever declares a ``LAYOUT`` obeys the same laws."""
    classes = MESSAGE_CLASSES + sorted({type(m) for m in every_op_sample()}, key=lambda c: c.__name__)
    return pytest.mark.parametrize("cls", classes, ids=lambda c: c.__name__)(test)


def samples_of(cls):
    return [m for m in all_samples() + every_op_sample() if type(m) is cls]


def check_size_law(msg):
    """Accounted size = encoded length + the layout's declared charges."""
    assert msg.body_size() == len(msg.encode()) + surcharge(msg)
    if isinstance(msg, WireMemo):
        assert msg.wire_size == msg.body_size()


def test_size_law_on_the_catalogue_and_the_one_layout_that_charges():
    for msg in all_samples():
        check_size_law(msg)
    charged = {type(m).__name__: surcharge(m) for m in all_samples() if surcharge(m)}
    assert charged == {"AuthenticatorRefresh": 2 * (64 - 16)}


@by_class
@given(data=st.data())
@settings(max_examples=40)
def test_every_class_roundtrips_and_obeys_the_size_law(cls, data):
    msg = data.draw(strategy_for(cls))
    assert decode_exact(cls, msg.encode()) == msg
    check_size_law(msg)


def check_decodes_canonically_or_refuses(cls, data: bytes):
    """The decoder contract: a typed refusal, or a message that *is* these
    bytes — never another exception, never two byte strings for one message
    (MACs and signatures cover the bytes, quorums match on the message)."""
    try:
        msg = decode_exact(cls, data)
    except ProtocolError:
        return
    assert msg.encode() == data


@by_class
def test_decoder_fuzz_mutated_truncated_and_extended_samples(cls):
    rng = random.Random(f"wire-fuzz:{cls.__name__}")  # pinned: same mutants every run
    for sample in samples_of(cls):
        wire = sample.encode()
        assert decode_exact(cls, wire) == sample
        for cut in range(len(wire)):
            with pytest.raises(ProtocolError):
                decode_exact(cls, wire[:cut])
        for extra in (b"\x00", rng.randbytes(rng.randrange(1, 9))):
            with pytest.raises(ProtocolError):
                decode_exact(cls, wire + extra)
        for at in range(len(wire)):
            values = {wire[at] ^ (1 << bit) for bit in range(8)} | {rng.randrange(256) for _ in range(4)}
            for value in values - {wire[at]}:
                check_decodes_canonically_or_refuses(cls, wire[:at] + bytes([value]) + wire[at + 1:])


@by_class
@given(data=st.binary(max_size=200), after_prefix=st.booleans())
@settings(max_examples=60)
def test_decoder_fuzz_arbitrary_bytes(cls, data, after_prefix):
    # Arbitrary bytes rarely get past the tag; half the time put them behind it.
    check_decodes_canonically_or_refuses(cls, bytes(cls.LAYOUT.prefix) * after_prefix + data)


def test_decode_message_reaches_every_tagged_class_and_only_those():
    for msg in all_samples():
        if hasattr(msg, "TAG"):
            assert decode_message(msg.encode()) == msg
        elif msg.LAYOUT.prefix:  # a system op: 0xFF is nobody's tag
            with pytest.raises(ProtocolError):
                decode_message(msg.encode())


def test_a_reused_tag_is_an_import_time_error():
    with pytest.raises(TypeError, match="reuses tag 03 of Prepare"):
        @message
        class Impostor(WireMemo):
            TAG = Prepare.TAG
            sender: int
            LAYOUT = layout(TAG, sender=u16)

    # ...inside each family: a kv op may be 0x01 although a Request is, but
    # not although a Put is, and a shard-tx reply is told by its second byte.
    with pytest.raises(TypeError, match="reuses tag 01 of Put"):
        @message(family=KV_OP)
        class Upsert:
            LAYOUT = layout(0x01)

    with pytest.raises(TypeError, match="reuses tag b0 03 of ReplyTombstone"):
        @message(family=tx.TX_REPLY)
        class Gravestone:
            LAYOUT = layout(tx.REPLY_MAGIC, 0x03)

    with pytest.raises(TypeError, match="has no 2-byte tag to join TxReply"):
        @message(family=tx.TX_REPLY)
        class Untagged:
            LAYOUT = layout(tx.REPLY_MAGIC)


def test_a_layout_must_name_each_field_once():
    with pytest.raises(TypeError, match="must name each field once"):
        @message
        class Forgetful:
            a: int
            b: int
            LAYOUT = layout(a=u8)


def field_values(msg) -> dict:
    return {f.name: getattr(msg, f.name) for f in fields(msg)}


def assembled(cls, **values):
    """An instance put together the way the stock ``__init__`` does it."""
    obj = cls.__new__(cls)
    for f in fields(cls):
        object.__setattr__(obj, f.name, values.get(f.name, f.default))
    assert MISSING not in vars(obj).values()
    return obj


def stock_twin(cls):
    """The same fields under the stock frozen-dataclass constructor."""
    namespace = {"__annotations__": {f.name: f.type for f in fields(cls)}}
    namespace.update((f.name, f.default) for f in fields(cls) if f.default is not MISSING)
    return dataclass(frozen=True)(type(cls.__name__, (), namespace))


def check_equals_assembled(msg):
    msg = type(msg)(**field_values(msg))  # fresh: a sample may have memos filled
    oracle = assembled(type(msg), **field_values(msg))
    assert vars(msg) == vars(oracle)
    assert msg == oracle and oracle == msg
    assert hash(msg) == hash(oracle)
    assert repr(msg) == repr(oracle)
    assert list(vars(msg)) == [f.name for f in fields(msg)]  # field order, and no memo filled yet
    if isinstance(msg, WireMemo):
        assert msg.wire == oracle.wire == oracle.encode()
        assert msg.wire_size == oracle.wire_size
        assert msg.auth_bytes() == oracle.auth_bytes()
        for memo in ("digest", "batch_digest", "result_digest", "header_wire"):
            if hasattr(type(msg), memo):
                assert getattr(msg, memo) == getattr(oracle, memo)


def test_sample_catalog_covers_every_decorated_class():
    import repro.membership.messages as membership
    import repro.pbft.messages as pbft

    decorated = {
        cls for module in (pbft, membership) for cls in vars(module).values()
        if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
    }
    assert decorated == set(MESSAGE_CLASSES) and len(decorated) == 22


def test_constructor_equals_field_by_field_assembly_for_every_type():
    for msg in all_samples():
        check_equals_assembled(msg)


@given(msg=st.one_of(requests, pre_prepares, small_messages, view_changes, pages_msgs))
@settings(max_examples=200)
def test_constructor_equals_field_by_field_assembly(msg):
    check_equals_assembled(msg)
    for nested in getattr(msg, "prepared", ()) + getattr(msg, "inline_requests", ()):
        check_equals_assembled(nested)


@pytest.mark.parametrize("cls", MESSAGE_CLASSES, ids=lambda c: c.__name__)
def test_constructor_signature_is_the_field_list(cls):
    twin = stock_twin(cls)
    assert twin.__init__.__code__.co_filename == "<string>"  # the oracle is the stock one
    assert cls.__init__.__code__.co_filename != "<string>"  # and the class's is not
    assert inspect.signature(cls) == inspect.signature(twin)
    assert inspect.signature(cls.__init__) == inspect.signature(twin.__init__)
    params = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in params] == [f.name for f in fields(cls)]
    assert [p.default for p in params] == [
        inspect.Parameter.empty if f.default is MISSING else f.default for f in fields(cls)
    ]
    assert {p.kind for p in params} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
    assert cls.__init__.__module__ == cls.__module__


def test_positional_keyword_and_defaulted_calls():
    for msg in all_samples():
        cls, twin = type(msg), stock_twin(type(msg))
        values = field_values(msg)
        names = list(values)
        required = [f.name for f in fields(cls) if f.default is MISSING]
        for split in range(len(names) + 1):  # first `split` positional, the rest by keyword
            args = [values[n] for n in names[:split]]
            kwargs = {n: values[n] for n in names[split:]}
            built = cls(*args, **kwargs)
            assert built == msg
            assert field_values(built) == field_values(twin(*args, **kwargs))
        # Every defaulted field left out: the defaults are the dataclass's.
        minimal = {n: values[n] for n in required}
        assert field_values(cls(**minimal)) == field_values(twin(**minimal))
        assert cls(**minimal) == assembled(cls, **minimal)
        shuffled = dict(reversed(list(values.items())))
        assert cls(**shuffled) == msg and list(vars(cls(**shuffled))) == names


def test_unknown_missing_or_surplus_argument_is_a_type_error():
    for msg in all_samples():
        cls, twin = type(msg), stock_twin(type(msg))
        values = field_values(msg)
        first = next(iter(values))
        bad_calls = [
            ((), {**values, "no_such_field": 1}),
            ((), {n: v for n, v in values.items() if n != first}),
            ((), {}),
            (tuple(values.values()) + (1,), {}),
            ((values[first],), values),  # one field twice
        ]
        for args, kwargs in bad_calls:
            with pytest.raises(TypeError):
                twin(*args, **kwargs)
            with pytest.raises(TypeError):
                cls(*args, **kwargs)


def test_messages_are_still_frozen():
    for msg in all_samples():
        before = dict(vars(msg))
        for name in before:
            with pytest.raises(FrozenInstanceError):
                setattr(msg, name, before[name])
            with pytest.raises(FrozenInstanceError):
                delattr(msg, name)
        with pytest.raises(FrozenInstanceError):
            msg.not_a_field = 1
        with pytest.raises(FrozenInstanceError):
            msg.__dict__ = {}  # the dict the constructor installed is never rebound
        with pytest.raises(FrozenInstanceError):
            del msg.__dict__
        assert vars(msg) == before


def test_dataclass_protocol_still_works():
    for msg in all_samples():
        cls = type(msg)
        assert dataclasses.is_dataclass(msg) and cls.__dataclass_params__.frozen
        assert [f.name for f in fields(msg)] == list(inspect.signature(cls).parameters)
        assert cls.__match_args__ == tuple(f.name for f in fields(msg))
        twin = replace(msg)
        assert twin == msg and twin is not msg and type(twin) is cls
        name, value = next((n, v) for n, v in field_values(msg).items() if type(v) is int)
        changed = replace(msg, **{name: value + 1})
        assert getattr(changed, name) == value + 1 and changed != msg
        assert {n: v for n, v in field_values(changed).items() if n != name} == {
            n: v for n, v in field_values(msg).items() if n != name
        }
        assert list(dataclasses.asdict(msg)) == [f.name for f in fields(msg)]
        assert len(dataclasses.astuple(msg)) == len(fields(msg))
        if isinstance(msg, WireMemo):
            msg.wire  # a filled memo travels with a copy and is not a field
        for clone in (copy.copy(msg), copy.deepcopy(msg), pickle.loads(pickle.dumps(msg))):
            assert clone == msg and clone is not msg and hash(clone) == hash(msg)
            assert field_values(clone) == field_values(msg)
            with pytest.raises(FrozenInstanceError):
                setattr(clone, name, value)
            if isinstance(msg, WireMemo):
                assert clone.wire == msg.encode()
                assert type(msg).decode(Decoder(clone.wire)) == msg


def test_lazy_attribute_is_computed_once_and_stored():
    encodings = []

    @message
    class Probe(WireMemo):
        payload: bytes
        sender: int = 0

        def encode(self) -> bytes:
            encodings.append(self.payload)
            return b"<" + self.payload + b">"

        def body_size(self) -> int:
            return len(self.payload)

    probe = Probe(b"p")
    assert Probe.KIND == "Probe" and list(vars(probe)) == ["payload", "sender"]
    assert probe.wire == b"<p>" and probe.wire is probe.wire and probe.auth_bytes() is probe.wire
    assert encodings == [b"p"]
    assert vars(probe)["wire"] is probe.wire and probe.wire_size == 1
    assert list(vars(probe)) == ["payload", "sender", "wire", "wire_size"]
    assert probe == Probe(b"p") and repr(probe).endswith("Probe(payload=b'p', sender=0)")
    assert "wire" not in vars(replace(probe, sender=1))


def test_classes_that_do_more_than_assign_keep_the_stock_constructor():
    @message
    class Checked:
        x: int

        def __post_init__(self):
            if self.x < 0:
                raise ValueError("negative")

    @message
    class Fresh:
        x: int
        items: list = field(default_factory=list)

    @message
    class Derived:
        x: int
        twice: int = field(init=False, default=0)

    @message
    class Named:
        x: int
        y: int = field(default=0, kw_only=True)

    for cls in (Checked, Fresh, Derived, Named):
        assert cls.__init__.__code__.co_filename == "<string>"
        with pytest.raises(FrozenInstanceError):
            cls(1).x = 2
    with pytest.raises(ValueError):
        Checked(-1)
    assert Fresh(1).items == [] and Fresh(1).items is not Fresh(1).items
    with pytest.raises(TypeError):
        Derived(1, 2)
    with pytest.raises(TypeError):
        Named(1, 2)
    assert Named(1, y=2).y == 2


def test_each_constructor_has_its_own_code_location():
    """Profilers key rows by ``(co_filename, co_firstlineno, co_name)``; the
    stock constructors all share ``('<string>', 2, '__init__')``."""
    locations = {}
    for cls in MESSAGE_CLASSES:
        code = cls.__init__.__code__
        assert code.co_filename == inspect.getsourcefile(cls)
        assert linecache.getline(code.co_filename, code.co_firstlineno).strip() == "@message"
        _source, class_line = inspect.getsourcelines(cls)
        assert code.co_firstlineno == class_line
        locations[code.co_filename, code.co_firstlineno] = cls
    assert len(locations) == len(MESSAGE_CLASSES)
    stock = {stock_twin(cls).__init__.__code__.co_firstlineno for cls in MESSAGE_CLASSES}
    assert len(stock) == 1  # what made the collision


def test_repr_eq_hash_and_doc_are_the_stock_ones():
    for msg in all_samples():
        cls, twin = type(msg), stock_twin(type(msg))
        values = field_values(msg)
        stock = twin(**values)
        assert repr(msg) == repr(stock) and hash(msg) == hash(stock)
        assert (msg == stock, msg != stock) == (False, True)  # another class: NotImplemented
        # A class without a docstring gets the stock one: its name and signature.
        assert cls.__doc__ == twin.__doc__ or not cls.__doc__.startswith(f"{cls.__name__}(")
        assert cls.__eq__.__code__.co_filename == cls.__init__.__code__.co_filename


def test_generated_methods_honour_the_field_flags():
    @message
    class Flagged:
        x: int
        hidden: int = field(default=0, repr=False, compare=False)
        unhashed: int = field(default=0, hash=False)

    @dataclass(frozen=True)
    class Stock:
        x: int
        hidden: int = field(default=0, repr=False, compare=False)
        unhashed: int = field(default=0, hash=False)

    assert Flagged.__init__.__code__.co_filename == __file__  # the one-store constructor
    for args in [(1, 2, 3), (1, 5, 3), (1, 2, 4), (2, 2, 3)]:
        assert repr(Flagged(*args)).endswith(repr(Stock(*args)).replace("Stock", "Flagged"))
        assert hash(Flagged(*args)) == hash(Stock(*args))
        for other in [(1, 2, 3), (1, 5, 3), (1, 2, 4)]:
            assert (Flagged(*args) == Flagged(*other)) == (Stock(*args) == Stock(*other))
    assert Flagged.__doc__ == Stock.__doc__.replace("Stock", "Flagged")


def test_each_record_compiles_once(monkeypatch):
    import builtins

    compiled = []
    real = builtins.compile
    monkeypatch.setattr(builtins, "compile", lambda *a, **k: compiled.append(a[1]) or real(*a, **k))

    @message(family=tagged("probe"))
    class Once(WireMemo):
        view: int
        body: bytes = b""
        LAYOUT = layout(0x7F, view=u16, body=blob)

    assert compiled == [__file__]
    assert Once.decode(Decoder(Once(3, b"x").encode())) == Once(3, b"x")
    assert {Once.__dict__[name].__code__.co_filename for name in ("__init__", "__eq__", "encode")} == {__file__}


def test_profile_keeps_one_row_per_message_type():
    d = bytes(16)
    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(3):
        Prepare(view=1, seq=2, batch_digest=d, sender=3)
    Commit(view=1, seq=2, batch_digest=d, sender=3)
    profiler.disable()
    rows = {
        key: row for key, row in pstats.Stats(profiler).stats.items() if key[2] == "__init__"
    }
    assert sorted(row[0] for row in rows.values()) == [1, 3]  # call counts, not merged
    assert all(key[0].endswith("messages.py") and "repro" in key[0] for key in rows)


def test_reply_result_digest_through_the_memo_cold_warm_and_past_its_bound():
    bound = memo_digest.cache_info().maxsize
    assert bound and memo_digest.__wrapped__ is md5_digest
    bodies = [index.to_bytes(4, "big") * 9 for index in range(bound + 16)]
    memo_digest.cache_clear()
    for _pass in range(2):
        # The first sixteen are computed, evicted by the rest, then computed again.
        for body in bodies[:16] + bodies[:16] + bodies:
            expected = hashlib.md5(body).digest()
            full = Reply(view=1, req_id=2, client=3, sender=0, result=body)
            assert full.result_digest == expected  # this read computes or recalls
            assert full.result_digest is vars(full)["result_digest"]  # this one is stored
            short = Reply(view=1, req_id=2, client=3, sender=1, result=expected, digest_only=True)
            assert short.result_digest is expected
            assert Reply(view=1, req_id=2, client=3, sender=2, result=bytes(body)).result_digest == expected
    info = memo_digest.cache_info()
    assert info.currsize == bound and info.hits > 0 and info.misses > len(bodies)
    assert Reply(view=1, req_id=2, client=3, sender=0, result=b"").result_digest == hashlib.md5(b"").digest()


def test_op_family_catalogue_covers_every_class_that_declares_a_layout():
    import repro.apps.kvstore as kvstore
    import repro.apps.sqlapp as sqlapp

    declared = {
        cls for module in (kvstore, sqlapp, tx) for cls in vars(module).values()
        if isinstance(cls, type) and hasattr(cls, "LAYOUT") and cls.__module__ == module.__name__
    }
    assert declared == {type(m) for m in every_op_sample()} and len(declared) == 43


def test_every_family_decodes_its_own_samples_and_refuses_its_neighbours():
    from repro.apps.sqlapp import SQL_REPLY

    families = (KV_OP, SQL_REPLY, tx.TX_OP, tx.TX_REPLY, tx.UNIT)
    for sample in every_op_sample():
        homes = [f for f in families if type(sample) in f.classes.values()]
        for family in families:
            if family in homes:
                assert decode_exact(family, sample.encode()) == sample
            elif type(sample).__name__ not in ("SqlOp", "KvChunk", "SqlChunk"):  # 0x01 / a count
                check_refused(family, sample.encode())


def check_refused(family, data):
    try:
        decoded = decode_exact(family, data)
    except ProtocolError:
        return
    assert decoded.encode() == data  # a neighbour's bytes may *be* one of ours


def test_sql_op_parameters_are_a_canonical_record_or_the_op_is_refused():
    from repro.apps.sqlapp import decode_sql_op, encode_sql_op

    good = encode_sql_op("SELECT ?", (1, "x", None, 2.5, b"\x00"))
    assert decode_sql_op(good) == ("SELECT ?", (1, "x", SqlNull, 2.5, b"\x00"))
    sql = SqlOp("SELECT 1", b"").encode()[:-4]
    records = [
        b"", b"\t", b"\xff" * 9, b"\x01\x03\x00\x00\x00\x05ab",  # empty, short, bad tag, short text
        b"\x01\x03\x00\x00\x00\x01\xff", b"\x01\x01" + bytes(7),    # not UTF-8, short int
        b"\x00trailing",
    ]
    for record in records:
        with pytest.raises(ProtocolError):
            decode_sql_op(sql + len(record).to_bytes(4, "big") + record)
