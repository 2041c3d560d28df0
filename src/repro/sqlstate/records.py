"""Row and key serialization.

Records are tag-prefixed value sequences (a simplified cousin of SQLite's
serial-type records).  Index keys use an *order-preserving* encoding so
B+tree byte comparison matches SQL value comparison — the property the
b-tree relies on for range scans.
"""

from __future__ import annotations

import struct

from repro.common.errors import SqlError
from repro.sqlstate.values import SqlNull, SqlValue

_TAG_NULL = 0
_TAG_INT = 1
_TAG_REAL = 2
_TAG_TEXT = 3
_TAG_BLOB = 4

_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_U32 = struct.Struct(">I")


def encode_record(values: list[SqlValue]) -> bytes:
    """Serialize a row."""
    parts = [bytes([len(values)])] if len(values) < 256 else None
    if parts is None:
        raise SqlError("rows are limited to 255 columns")
    for value in values:
        if value is SqlNull:
            parts.append(bytes([_TAG_NULL]))
        elif isinstance(value, bool):
            parts.append(bytes([_TAG_INT]) + _I64.pack(int(value)))
        elif isinstance(value, int):
            parts.append(bytes([_TAG_INT]) + _I64.pack(value))
        elif isinstance(value, float):
            parts.append(bytes([_TAG_REAL]) + _F64.pack(value))
        elif isinstance(value, str):
            raw = value.encode()
            parts.append(bytes([_TAG_TEXT]) + _U32.pack(len(raw)) + raw)
        elif isinstance(value, bytes):
            parts.append(bytes([_TAG_BLOB]) + _U32.pack(len(value)) + value)
        else:
            raise SqlError(f"cannot store value of type {type(value).__name__}")
    return b"".join(parts)


def decode_record(data: bytes) -> list[SqlValue]:
    """Deserialize a row.

    Malformed input fails loud with :class:`SqlError`: a record that ends
    before its last value (in a tag, a number, a length prefix or the bytes
    a prefix announces), an unknown tag, or TEXT that is not UTF-8.
    """
    if not data:
        raise SqlError("empty record")
    count = data[0]
    pos = 1
    values: list[SqlValue] = []
    try:
        for _ in range(count):
            tag = data[pos]
            pos += 1
            if tag == _TAG_NULL:
                values.append(SqlNull)
            elif tag == _TAG_INT:
                values.append(_I64.unpack_from(data, pos)[0])
                pos += 8
            elif tag == _TAG_REAL:
                values.append(_F64.unpack_from(data, pos)[0])
                pos += 8
            elif tag in (_TAG_TEXT, _TAG_BLOB):
                length = _U32.unpack_from(data, pos)[0]
                pos += 4
                if pos + length > len(data):
                    raise SqlError(
                        f"corrupt record: truncated value {len(values)}: "
                        f"{length} bytes announced, {len(data) - pos} left"
                    )
                raw = data[pos : pos + length]
                pos += length
                values.append(raw.decode() if tag == _TAG_TEXT else bytes(raw))
            else:
                raise SqlError(f"corrupt record: unknown tag {tag}")
    except (IndexError, struct.error):
        raise SqlError(
            f"corrupt record: truncated value {len(values)} of {count} "
            f"at byte {pos} of {len(data)}"
        ) from None
    except UnicodeDecodeError as exc:
        raise SqlError(f"corrupt record: TEXT value {len(values)} is not UTF-8") from exc
    return values


# -- order-preserving key encoding -------------------------------------------------
#
# Byte-comparable encoding: class byte first (NULL < numbers < text < blob),
# then a monotone payload.  Integers and reals share the number class via a
# sign-flipped float encoding (SQLite also compares ints and reals
# numerically).


def _encode_number(value: float) -> bytes:
    if value == 0.0:
        value = 0.0  # -0.0 compares equal to 0.0; encode them identically
    raw = _F64.pack(float(value))
    as_int = int.from_bytes(raw, "big")
    if as_int & (1 << 63):
        as_int ^= (1 << 64) - 1  # negative: flip everything
    else:
        as_int |= 1 << 63  # non-negative: flip the sign bit
    return as_int.to_bytes(8, "big")


def _escape_bytes(raw: bytes) -> bytes:
    """0x00-free encoding terminated by 0x00 0x00, preserving order."""
    return raw.replace(b"\x00", b"\x00\xff") + b"\x00\x00"


def encode_key(values: list[SqlValue]) -> bytes:
    """Order-preserving encoding of a key tuple."""
    parts = []
    for value in values:
        if value is SqlNull:
            parts.append(b"\x01")
        elif isinstance(value, (bool, int, float)):
            parts.append(b"\x02" + _encode_number(float(value)))
        elif isinstance(value, str):
            parts.append(b"\x03" + _escape_bytes(value.encode()))
        elif isinstance(value, bytes):
            parts.append(b"\x04" + _escape_bytes(value))
        else:
            raise SqlError(f"cannot index value of type {type(value).__name__}")
    return b"".join(parts)


def encode_rowid(rowid: int) -> bytes:
    """Table keys: rowids as big-endian signed 8-byte integers (offset so
    byte order equals numeric order)."""
    return struct.pack(">Q", rowid + (1 << 63))


def decode_rowid(key: bytes) -> int:
    return struct.unpack(">Q", key)[0] - (1 << 63)
