"""Canonical byte encoding for protocol messages.

Two purposes:

* **authentication material** — MACs and signatures are computed over these
  bytes, so corruption and forgery genuinely fail verification in tests;
* **wire sizes** — the network fabric charges bandwidth for the encoded
  size.

Within the simulator, messages travel as Python objects (DESIGN.md section
1); the codec below is the byte layout they *would* have, and it round-trips
(``decode(encode(m)) == m``) so the layout is honest.
"""

from __future__ import annotations

import struct
from typing import Callable

from repro.common.errors import ProtocolError

_U8 = struct.Struct(">B")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_I64 = struct.Struct(">q")


class Encoder:
    """Append-only canonical encoder."""

    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def u8(self, value: int) -> "Encoder":
        self._parts.append(_U8.pack(value))
        return self

    def u16(self, value: int) -> "Encoder":
        self._parts.append(_U16.pack(value))
        return self

    def u32(self, value: int) -> "Encoder":
        self._parts.append(_U32.pack(value))
        return self

    def u64(self, value: int) -> "Encoder":
        self._parts.append(_U64.pack(value))
        return self

    def i64(self, value: int) -> "Encoder":
        self._parts.append(_I64.pack(value))
        return self

    def boolean(self, value: bool) -> "Encoder":
        return self.u8(1 if value else 0)

    def blob(self, data: bytes) -> "Encoder":
        """Length-prefixed byte string."""
        self._parts.append(_U32.pack(len(data)))
        self._parts.append(data)
        return self

    def raw(self, data: bytes) -> "Encoder":
        """Fixed-size field; caller guarantees the length."""
        self._parts.append(data)
        return self

    def sequence(self, items, encode_item: Callable[["Encoder", object], None]) -> "Encoder":
        self._parts.append(_U32.pack(len(items)))
        for item in items:
            encode_item(self, item)
        return self

    def finish(self) -> bytes:
        return b"".join(self._parts)


class Decoder:
    """Matching decoder, raising :class:`ProtocolError` on truncation."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def _take(self, size: int) -> bytes:
        if self._pos + size > len(self._data):
            raise ProtocolError(
                f"truncated message: wanted {size} bytes at offset {self._pos}, "
                f"have {len(self._data) - self._pos}"
            )
        out = self._data[self._pos : self._pos + size]
        self._pos += size
        return out

    def u8(self) -> int:
        return _U8.unpack(self._take(1))[0]

    def u16(self) -> int:
        return _U16.unpack(self._take(2))[0]

    def u32(self) -> int:
        return _U32.unpack(self._take(4))[0]

    def u64(self) -> int:
        return _U64.unpack(self._take(8))[0]

    def i64(self) -> int:
        return _I64.unpack(self._take(8))[0]

    def boolean(self) -> bool:
        return self.u8() != 0

    def unpack(self, layout: struct.Struct) -> tuple:
        """Decode one fixed-layout run of fields (a precompiled Struct)."""
        return layout.unpack(self._take(layout.size))

    def blob(self) -> bytes:
        size = self.u32()
        return self._take(size)

    def raw(self, size: int) -> bytes:
        return self._take(size)

    def sequence(self, decode_item: Callable[["Decoder"], object]) -> list:
        count = self.u32()
        return [decode_item(self) for _ in range(count)]

    def finished(self) -> bool:
        return self._pos == len(self._data)

    def expect_end(self) -> None:
        if not self.finished():
            raise ProtocolError(
                f"{len(self._data) - self._pos} trailing bytes after message"
            )
