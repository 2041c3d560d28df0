"""Golden-vector regression: canonical encodings are frozen.

The wire format is a compatibility surface — replicas authenticate the
exact bytes, digests key the protocol's quorum matching, and traces store
them.  A refactor that changes any encoding silently invalidates all of
that, so every message type's canonical bytes (and their MD5 digest) are
pinned here.  The samples come from the shared catalog in
tests/properties/test_wire_props.py; a failure means the wire format
changed and must be a deliberate, versioned decision — regenerate the
vectors only in that case.
"""

from dataclasses import replace

from repro.apps.kvstore import KvApplication, encode_put, keys_of_op
from repro.apps.sqlapp import SqlApplication, encode_sql_op
from repro.crypto.digests import md5_digest
from repro.pbft.messages import PreparedProof, decode_message
from repro.shard.txapp import RangeUnit, ShardTxApplication
from repro.statemgr.pages import PagedState
from tests.properties.test_wire_props import (
    ACCOUNTS, SQL_ROWS, all_samples, membership_samples, op_family_samples, sample_messages,
)

WHOLE_KEYSPACE = RangeUnit(0, 1 << 32)

# type name -> (canonical encoding hex, md5 digest hex)
GOLDEN = {
    "Request": (
        "0100000007000000000000002a000000086f702d62797465730000",
        "a21d78358e7ef22cb8289e9a3417f5d0",
    ),
    "PrePrepare": (
        "02000000000000000000010000000000000009000000026e6400000001a21d78"
        "358e7ef22cb8289e9a3417f5d0000000010000001b0100000007000000000000"
        "002a000000086f702d62797465730000",
        "bbf378dc0a87f165625387d2146d762f",
    ),
    "Prepare": (
        "03000100000000000000010000000000000009000102030405060708090a0b0c"
        "0d0e0f",
        "330ae29b2f9a45aaa39d4f2797639448",
    ),
    "Commit": (
        "04000200000000000000010000000000000009000102030405060708090a0b0c"
        "0d0e0f",
        "6bcce05a555e5af50533e90ef3c38862",
    ),
    "Reply": (
        "0500000000000000000001000000000000002a00000007010000000006726573"
        "756c74",
        "d86d31adf3dabc81bd0956e2af195430",
    ),
    "CheckpointMsg": (
        "0600010000000000000064000102030405060708090a0b0c0d0e0f",
        "4c982dcec87e31c0e4f3802eeba14e55",
    ),
    "ViewChangeMsg": (
        "07000300000000000000020000000000000064000102030405060708090a0b0c"
        "0d0e0f000000020000000102030405060708090a0b0c0d0e0f00010001020304"
        "05060708090a0b0c0d0e0f000000010000000000000065000000000000000100"
        "0102030405060708090a0b0c0d0e0f00000000016e0000000100010203040506"
        "0708090a0b0c0d0e0f",
        "6d5272902ecb398b8687ce72e4640ecb",
    ),
    "NewViewMsg": (
        "0800020000000000000002000000000000006400000001000000890700030000"
        "0000000000020000000000000064000102030405060708090a0b0c0d0e0f0000"
        "00020000000102030405060708090a0b0c0d0e0f000100010203040506070809"
        "0a0b0c0d0e0f0000000100000000000000650000000000000001000102030405"
        "060708090a0b0c0d0e0f00000000016e00000001000102030405060708090a0b"
        "0c0d0e0f00000001000000000000006500000000000000010001020304050607"
        "08090a0b0c0d0e0f010000000000000000",
        "d5da969a5560f2cf5353429428658fbe",
    ),
    "StatusMsg": (
        "09000300000000000000020000000000000065000000000000006401",
        "c30818c2770f14d3573862e02ff8d521",
    ),
    "BatchRetransmit": (
        "0a00010000005002000000000000000000010000000000000009000000026e64"
        "00000001a21d78358e7ef22cb8289e9a3417f5d0000000010000001b01000000"
        "07000000000000002a000000086f702d62797465730000000000030000000100"
        "02000000010000001b0100000007000000000000002a000000086f702d627974"
        "65730000",
        "3a7abc5c92a960a78667ce5ec98ca420",
    ),
    "FetchDigestsMsg": (
        "0b0002000000000000006400000003000000000000000300000007",
        "ab03903744511c995ca4e4e686149ccb",
    ),
    "DigestsMsg": (
        "0c000000000000000000640000000100000003000102030405060708090a0b0c"
        "0d0e0f",
        "db79810089d49d98325cbeb3641f5ec4",
    ),
    "FetchPagesMsg": (
        "0d00030000000000000064000000020000000100000002",
        "0e1c806135dfa79b409f09f1706dc162",
    ),
    "PagesMsg": (
        "0e00000000000000000064000102030405060708090a0b0c0d0e0f0000000100"
        "0000010000000870616765646174610000000100000007000000000000002a00"
        "00000100000007000000057265706c79",
        "89a28e511eabe3b07217a23dde56ac00",
    ),
    "AuthenticatorRefresh": (
        "0f00000007000000020000000000000000000000000000000000000001000102"
        "030405060708090a0b0c0d0e0f",
        "4b44e91acd9c17417272d35d1863bbf5",
    ),
    "BusyReply": (
        "1000020000000000000001000000000000002b00000007010000000000001388"
        "00000009",
        "c0af16d6ca8a7954a2e693f9b63bc4a4",
    ),
}

# The four ``repro.membership.messages`` classes, same shape.  The two
# payloads are system ops: their canonical bytes are the ordered ``op``.
MEMBERSHIP_GOLDEN = {
    "JoinPhase1": (
        "1400000009000000080101010101010101000000056e6f6e636500000001681b"
        "58",
        "deb6914f95b1e52f65c49821f82664d5",
    ),
    "JoinChallenge": (
        "15000200000009000102030405060708090a0b0c0d0e0f",
        "38dc745489cc600b2b95f9a9860a649c",
    ),
    "Join2Payload": (
        "ff0100000009000000080101010101010101000000056e6f6e63650001020304"
        "05060708090a0b0c0d0e0f00000005616c696365000000020000000102030405"
        "060708090a0b0c0d0e0f0001000102030405060708090a0b0c0d0e0f00000001"
        "681b58",
        "911fca9c471a0efbba39a9aa060c76eb",
    ),
    "ReconfigPayload": (
        "ff0303000100000004",
        "c6fb96b028a0b010dd6a692f47befb5d",
    ),
}

# type name -> accounted wire size: what the fabric charges bandwidth for
# and ``net.bytes_per_op`` sums.  Equal to the encoded length everywhere
# but ``AuthenticatorRefresh`` (a 64-byte public-key block per 16-byte key).
WIRE_SIZES = {
    "Request": 27,
    "PrePrepare": 80,
    "Prepare": 35,
    "Commit": 35,
    "Reply": 35,
    "CheckpointMsg": 27,
    "ViewChangeMsg": 137,
    "NewViewMsg": 209,
    "StatusMsg": 28,
    "BatchRetransmit": 132,
    "FetchDigestsMsg": 27,
    "DigestsMsg": 35,
    "FetchPagesMsg": 23,
    "PagesMsg": 80,
    "AuthenticatorRefresh": 141,
    "BusyReply": 36,
    "JoinPhase1": 33,
    "JoinChallenge": 23,
}
# The two proofs of the catalogue (inline in the view change, then the
# no-op of the new view): their share of the enclosing message's size.
PROOF_SIZES = [58, 41]


def test_golden_covers_every_sample():
    assert {type(m).__name__ for m in sample_messages()} == set(GOLDEN)
    assert {type(m).__name__ for m in membership_samples()} == set(MEMBERSHIP_GOLDEN)
    sized = {type(m).__name__ for m in all_samples() if hasattr(m, "wire_size")}
    assert sized == set(WIRE_SIZES)


def test_membership_encodings_match_golden_vectors():
    for msg in membership_samples():
        wire_hex, digest_hex = MEMBERSHIP_GOLDEN[type(msg).__name__]
        assert msg.encode().hex() == wire_hex, type(msg).__name__
        assert md5_digest(msg.encode()).hex() == digest_hex, type(msg).__name__


def test_accounted_wire_sizes_match_golden_sizes():
    for msg in all_samples():
        if hasattr(msg, "wire_size"):
            assert msg.wire_size == msg.body_size() == WIRE_SIZES[type(msg).__name__], msg
    proofs = [m for m in all_samples() if isinstance(m, PreparedProof)]
    assert [p.body_size() for p in proofs] == PROOF_SIZES


def test_canonical_encodings_match_golden_vectors():
    for msg in sample_messages():
        wire_hex, digest_hex = GOLDEN[type(msg).__name__]
        assert msg.encode().hex() == wire_hex, type(msg).__name__
        assert md5_digest(msg.encode()).hex() == digest_hex, type(msg).__name__


def test_golden_vectors_decode_back_to_the_samples():
    for msg in sample_messages():
        wire_hex, _ = GOLDEN[type(msg).__name__]
        assert decode_message(bytes.fromhex(wire_hex)) == msg


def test_memoized_wire_matches_golden_in_both_cache_modes():
    # A memo's two modes: the read that computes and stores (cold — a
    # fresh copy, because building the catalog already read some) and the
    # read of the stored value (warm).
    for sample in sample_messages():
        msg = replace(sample)
        wire_hex, _ = GOLDEN[type(msg).__name__]
        assert "wire" not in vars(msg)
        for mode in ("cold", "warm"):
            assert msg.wire.hex() == wire_hex, (type(msg).__name__, mode)


# -- the op families: what travels inside Request.op / Reply.result ----------------
# One sample per kv op, SQL op and reply, shard-tx op and reply, migration
# reply payload and migration chunk, and a tx-table page image; names are
# those of the classes that declare the layouts.

OP_GOLDEN = {
    "Put": "01000000036b65790000000576616c7565",
    "Get": "02000000036b6579",
    "KvChunk": (
        "000000020cc175b9c0f1b6a831c399e26977266100000005616c70686192eb5f"
        "fee6ae2fec3ad71c777531578f00000000"
    ),
    "SqlOp": (
        "010000002553454c454354202a2046524f4d20742057484552452061203d203f"
        "20414e442062203d203f0000001002010000000000000001030000000178"
    ),
    "SqlNone": "00",
    "SqlRows": (
        "01000000020000001b030100000000000000010300000003616e6e0100000000"
        "0000006400000013030100000000000000020300000003626f6200"
    ),
    "SqlCount": "020000000000000003",
    "SqlFailure": "030000000f6e6f2073756368207461626c652074",
    "SqlChunk": (
        "000000020000001b030100000000000000010300000003616e6e010000000000"
        "00006400000013030100000000000000020300000003626f6200"
    ),
    "TxPrepare": (
        "b100000000000000000000000000000001000000000002000000010000000100"
        "00001101000000036b65790000000576616c756500000001000000036b6579"
    ),
    "TxCommit": "b200000000000000000000000000000001",
    "TxAbort": "b300000000000000000000000000000001",
    "TxDecide": "b40000000000000000000000000000000101",
    "TxResolve": "b500000000000000000000000000000001",
    "TxStatus": "b600000000000000000000000000000001",
    "TxForget": "b700000000000000000000000000000001",
    "MigFreeze": (
        "b800000000000000000000000000000007000000000000000000000000008000"
        "00000001"
    ),
    "MigExport": "b900000000000000000000000000000007000000000000000500000800",
    "MigBegin": "ba0000000000000000000000000000000701000000086163636f756e74730000",
    "MigInstall": (
        "bb000000000000000000000000000000070000000200000031000000020cc175"
        "b9c0f1b6a831c399e26977266100000005616c70686192eb5ffee6ae2fec3ad7"
        "1c777531578f00000000"
    ),
    "MigActivate": (
        "bc00000000000000000000000000000007000000000000000000000000008000"
        "000000000004"
    ),
    "MigCommit": (
        "bd0000000000000000000000000000000701000000086163636f756e74730001"
        "00000004"
    ),
    "MigAbort": "be00000000000000000000000000000007",
    "MigStatus": "bf00000000000000000000000000000007",
    "ReplyErr": "b00000000012636f6d6d69742061667465722061626f7274",
    "ReplyOk": "b0010000000200000003014f4b00000005004d495353",
    "ReplyLocked": "b002000000000000000000000000000000010002",
    "ReplyTombstone": "b00300000000",
    "ReplyDecision": "b00401",
    "ReplyUnknown": "b00500000000",
    "ReplyFrozen": "b00600000000",
    "ReplyWrongShard": "b0070000000000000000000000000080000000000100000004",
    "ReplyMig": "b008000000077061796c6f6164",
    "FreezePayload": (
        "0000000200000000000000000000000000000001000000000000000000000000"
        "0000000000020003"
    ),
    "ExportPayload": (
        "00000000000000110100000031000000020cc175b9c0f1b6a831c399e2697726"
        "6100000005616c70686192eb5ffee6ae2fec3ad71c777531578f00000000"
    ),
    "InstallPayload": "0100000003",
    "StatusPayload": "0200000003",
    "TxTableImage": (
        "54585331000000ec000000010000000000000000000000000000000100000000"
        "0000000900000000000200000001000000010000001101000000036b65790000"
        "000576616c756500000001000000036b65790000000100000000000000000000"
        "0000000000020000000001000000000000000000000000000000010100000001"
        "000000000000000000000000000000070101000000086163636f756e74730001"
        "0000000300000001000000000000000000000000000000020000000000000000"
        "0000000000800000000001000000040000000100000000000000000000000000"
        "00000101000000086163636f756e747300000005"
    ),
}


def test_op_family_encodings_match_golden_vectors():
    samples = op_family_samples()
    assert set(samples) == set(OP_GOLDEN)
    for name, wire in samples.items():
        assert wire.hex() == OP_GOLDEN[name], name


def test_kv_and_sql_applications_export_the_golden_chunks():
    kv = KvApplication(num_slots=8, value_size=16)
    kv.bind_state(PagedState(num_pages=4, page_size=512), 0)
    for key, value in ((b"b", b""), (b"a", b"alpha")):
        assert kv.execute(encode_put(key, value), 1, 0, False) == b"\x01OK"
    chunk, cursor, done = kv.migrate_export(WHOLE_KEYSPACE, 0, 1000)
    assert (chunk.hex(), cursor, done) == (OP_GOLDEN["KvChunk"], 8, True)

    sql = SqlApplication("CREATE TABLE accounts (id INTEGER PRIMARY KEY, owner TEXT, balance INTEGER);")
    sql.bind_state(PagedState(num_pages=64, page_size=1024), 0)
    one_row = bytes.fromhex(OP_GOLDEN["SqlCount"])[:-1] + b"\x01"
    assert sql.execute(encode_sql_op("INSERT INTO accounts VALUES (?, ?, ?)", SQL_ROWS[0]), 1, 0, False) == one_row
    assert sql.execute(encode_sql_op("INSERT INTO accounts VALUES (2, 'bob', NULL)"), 1, 0, False) == one_row
    chunk, cursor, done = sql.migrate_export(ACCOUNTS, 0, 1000)
    assert (chunk.hex(), cursor, done) == (OP_GOLDEN["SqlChunk"], 2, True)
    select = sql.execute(encode_sql_op("SELECT * FROM accounts"), 1, 0, True)
    assert select.hex() == OP_GOLDEN["SqlRows"]
    assert sql.execute(encode_sql_op("SELECT * FROM t"), 1, 0, True).hex() == OP_GOLDEN["SqlFailure"]
    assert sql.execute(encode_sql_op("DROP TABLE accounts"), 1, 0, False).hex() == OP_GOLDEN["SqlNone"]


# A two-shard life of the tx table, driven with hand-packed op bytes (this
# file's own statement of the formats) through ``ShardTxApplication.execute``:
# every reply kind once, then the reserved pages of both shards.

def _u(width: int, value: int) -> bytes:
    return value.to_bytes(width, "big")


def _blobs(*items: bytes) -> bytes:
    return _u(4, len(items)) + b"".join(_u(4, len(item)) + item for item in items)


def _put(key: bytes, value: bytes) -> bytes:
    return b"\x01" + _blobs(key, value)[4:]


def _prepare(txid: bytes, coordinator: int, key: bytes, value: bytes) -> bytes:
    shards = _u(4, 2) + _u(2, 0) + _u(2, 1)
    return b"\xb1" + txid + _u(2, coordinator) + shards + _blobs(_put(key, value)) + _blobs(key)


def _range(lo: int, hi: int) -> bytes:
    return b"\x00" + _u(8, lo) + _u(8, hi)


def drive_tx_scenario():
    """``([(step, reply bytes)], {"SRC": image, "DST": image})``."""
    half = 1 << 31
    tx1, tx2, tx3, tx4, mig1, mig2 = (_u(16, n) for n in (1, 2, 3, 4, 7, 8))
    low, upper = _range(0, half), _range(half, half + half // 2)
    shards = []
    for shard_id in (0, 1):
        app = ShardTxApplication(
            KvApplication(num_slots=16, value_size=16), keys_of=keys_of_op,
            shard_id=shard_id, tx_pages=2,
        )
        app.bind_state(PagedState(num_pages=16, page_size=512), 0)
        shards.append(app)
    src, dst = shards
    steps = []

    def step(label: str, app, op: bytes, readonly: bool = False) -> bytes:
        reply = app.execute(op, 9, 0, readonly)
        steps.append((label, reply))
        return reply

    step("put", src, _put(b"low", b"v0"))
    step("prepare", src, _prepare(tx1, 0, b"low", b"v1"))
    step("put-locked", src, _put(b"low", b"v2"))
    step("freeze-held", src, b"\xb8" + mig1 + low + _u(2, 1))
    step("export-held", src, b"\xb9" + mig1 + _u(8, 0) + _u(4, 64))
    step("decide", src, b"\xb4" + tx1 + b"\x01")
    step("commit", src, b"\xb2" + tx1)
    step("put-frozen", src, _put(b"low", b"v3"))
    step("abort", src, b"\xb3" + tx2)
    step("prepare-aborted", src, _prepare(tx2, 0, b"low", b"v4"))
    step("status-unknown", src, b"\xb6" + tx3)
    exported = step("export", src, b"\xb9" + mig1 + _u(8, 0) + _u(4, 64))
    chunk = exported[2 + 4 + 8 + 1 + 4:]
    step("begin", dst, b"\xba" + mig1 + low + _u(2, 0))
    step("install", dst, b"\xbb" + mig1 + _u(4, 0) + _blobs(chunk)[4:])
    step("mig-status", dst, b"\xbf" + mig1)
    step("activate", dst, b"\xbc" + mig1 + low + _u(4, 1))
    step("mig-commit", src, b"\xbd" + mig1 + low + _u(2, 1) + _u(4, 1))
    step("get-moved", src, b"\x02" + _blobs(b"low")[4:], readonly=True)
    step("get-arrived", dst, b"\x02" + _blobs(b"low")[4:], readonly=True)
    step("prepare-upper", src, _prepare(tx4, 1, b"high", b"v5"))
    step("freeze-upper", src, b"\xb8" + mig2 + upper + _u(2, 1))
    images = {}
    for which, app in (("SRC", src), ("DST", dst)):
        length = int.from_bytes(app.state.read(4, 4), "big")
        images[which] = app.state.read(0, 8 + length)
    return steps, images


TX_SCENARIO_REPLIES = [
    ("put", "014f4b"),
    ("prepare", "b00100000000"),
    ("put-locked", "b002000000000000000000000000000000010000"),
    ("freeze-held", "b0080000001600000001000000000000000000000000000000010000"),
    ("export-held",
     "b000000000266578706f7274206265666f72652070726570617265642068"
     "6f6c6465727320647261696e6564"),
    ("decide", "b00401"),
    ("commit", "b0010000000100000003014f4b"),
    ("put-frozen", "b00600000000"),
    ("abort", "b00100000000"),
    ("prepare-aborted", "b00300000000"),
    ("status-unknown", "b00500000000"),
    ("export",
     "b008000000270000000000000010010000001a0000000153cced8d281a1a"
     "0ace3cb6594daaa4f7000000027631"),
    ("begin", "b00800000000"),
    ("install", "b008000000050100000001"),
    ("mig-status", "b008000000050200000001"),
    ("activate", "b00800000000"),
    ("mig-commit", "b00800000000"),
    ("get-moved", "b0070000000000000000000000000080000000000100000001"),
    ("get-arrived", "017631"),
    ("prepare-upper", "b00100000000"),
    ("freeze-upper", "b0080000001600000001000000000000000000000000000000040001"),
]
TX_IMAGE_SRC = (
    "54585331000000df000000010000000000000000000000000000000400000000"
    "0000000900010000000200000001000000010000000f01000000046869676800"
    "0000027635000000010000000468696768000000020000000000000000000000"
    "0000000001010000000000000000000000000000000200000000010000000000"
    "0000000000000000000001010000000100000000000000000000000000000008"
    "0000000000008000000000000000c00000000001000000000000000100000000"
    "0000000000000000000000070000000000000000000000000080000000000100"
    "00000100000000"
)
TX_IMAGE_DST = (
    "545853310000003d000000000000000000000000000000000000000000000001"
    "0000000000000000000000000000000700000000000000000000000000800000"
    "0000000001"
)


def test_tx_scenario_replies_and_page_images_match_golden_vectors():
    steps, images = drive_tx_scenario()
    assert [(label, reply.hex()) for label, reply in steps] == TX_SCENARIO_REPLIES
    assert images["SRC"].hex() == TX_IMAGE_SRC
    assert images["DST"].hex() == TX_IMAGE_DST
    # Every reply kind of the catalogue was drawn at least once.
    kinds = {reply[:2].hex() for _label, reply in steps if reply[:1] == b"\xb0"}
    assert kinds == {f"b0{status:02x}" for status in range(9)}
