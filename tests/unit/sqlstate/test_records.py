"""Record and key serialization."""

import pytest

from repro.common.errors import SqlError
from repro.sqlstate.records import (
    decode_record,
    decode_rowid,
    encode_key,
    encode_record,
    encode_rowid,
)
from repro.sqlstate.values import SqlNull, compare


def test_record_roundtrip_all_types():
    row = [SqlNull, 42, -1, 2.5, "text", b"\x00\x01", ""]
    assert decode_record(encode_record(row)) == row


def test_empty_record():
    assert decode_record(encode_record([])) == []


def test_corrupt_record_rejected():
    with pytest.raises(SqlError):
        decode_record(b"")
    with pytest.raises(SqlError):
        decode_record(b"\x01\xfe")  # unknown tag


SAMPLE_ROW = [SqlNull, 42, -2.5, "tëxt", b"\x00\x01\x02", "", b""]


def test_every_truncation_raises_only_sql_error():
    """A record cut anywhere — in a tag, an INT/REAL, a length prefix or
    the bytes a prefix announces — fails loud, never with a bare
    IndexError/struct.error or a silently shortened TEXT/BLOB."""
    record = encode_record(SAMPLE_ROW)
    for cut in range(len(record)):
        with pytest.raises(SqlError, match="corrupt record|empty record"):
            decode_record(record[:cut])


def test_truncated_text_and_blob_are_not_shortened():
    for value in ("abcdef", b"abcdef"):
        record = encode_record([value])
        with pytest.raises(SqlError, match="truncated value 0: 6 bytes announced, 3 left"):
            decode_record(record[:-3])


def test_non_utf8_text_is_a_sql_error():
    record = encode_record(["ab"])
    with pytest.raises(SqlError, match="not UTF-8"):
        decode_record(record[:-2] + b"\xff\xfe")


def test_round_trips_unchanged_by_the_checks():
    assert decode_record(encode_record(SAMPLE_ROW)) == SAMPLE_ROW
    for value in SAMPLE_ROW:
        assert decode_record(encode_record([value])) == [value]


def test_rowid_encoding_preserves_order():
    ids = [-100, -1, 0, 1, 7, 1 << 40]
    encoded = [encode_rowid(i) for i in ids]
    assert encoded == sorted(encoded)
    assert [decode_rowid(e) for e in encoded] == ids


def test_key_encoding_respects_value_comparison():
    values = [SqlNull, -10, -1.5, 0, 2, 1000.25, "", "a", "ab", "b", b"", b"\x00", b"z"]
    for a in values:
        for b in values:
            byte_cmp = (encode_key([a]) > encode_key([b])) - (
                encode_key([a]) < encode_key([b])
            )
            value_cmp = compare(a, b)
            assert (byte_cmp > 0) == (value_cmp > 0), (a, b)
            assert (byte_cmp < 0) == (value_cmp < 0), (a, b)


def test_composite_keys_order_by_first_then_second():
    k1 = encode_key(["a", 2])
    k2 = encode_key(["a", 10])
    k3 = encode_key(["b", 1])
    assert k1 < k2 < k3


def test_string_with_embedded_nul_does_not_bleed():
    # The escaped encoding must keep ("a\x00b") distinct from ("a", "b")-ish
    # prefixes and preserve order.
    a = encode_key(["a"])
    ab = encode_key(["a\x00b"])
    b = encode_key(["ab"])
    assert a < ab < b


def test_prefix_scan_property():
    # encode_key(prefix) is a byte prefix of encode_key(prefix + suffix)
    # only for the composite form used by indexes (key + rowid suffix).
    base = encode_key(["candidate-1"])
    composite = encode_key(["candidate-1"]) + encode_rowid(5)
    assert composite.startswith(base)
