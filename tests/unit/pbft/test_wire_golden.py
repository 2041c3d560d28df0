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

from repro.crypto.digests import md5_digest
from repro.pbft.messages import PreparedProof, decode_message
from tests.properties.test_wire_props import all_samples, membership_samples, sample_messages

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
