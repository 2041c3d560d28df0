"""Canonical byte encoding for protocol messages.

Two purposes:

* **authentication material** — MACs and signatures are computed over these
  bytes, so corruption and forgery genuinely fail verification in tests;
* **wire sizes** — the network fabric charges bandwidth for the encoded
  size.

Within the simulator, messages travel as Python objects (DESIGN.md section
1); the codec below is the byte layout they *would* have, and it round-trips
(``decode(encode(m)) == m``) so the layout is honest.

Below the two coders is the *wire table* (DESIGN.md section 7): the kinds a
message's ``LAYOUT`` is written in, and :func:`derive`, which compiles one.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import groupby
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
        value = self.u8()
        if value > 1:  # it would re-encode as 1: two byte strings, one message
            raise ProtocolError(f"boolean byte {value} at offset {self._pos - 1}")
        return value == 1

    def blob(self) -> bytes:
        size = self.u32()
        return self._take(size)

    def text(self) -> str:
        """A length-prefixed UTF-8 string."""
        try:
            return self.blob().decode()
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"string field is not UTF-8: {exc}") from exc

    def raw(self, size: int) -> bytes:
        return self._take(size)

    def peek(self, size: int) -> bytes:
        """The next ``size`` bytes (fewer at the end of input), not consumed."""
        return self._data[self._pos : self._pos + size]

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


# -- the wire table ---------------------------------------------------------------
# A message class states its byte layout once (``LAYOUT``), in these kinds.


@dataclass(frozen=True)
class Atom:
    """A kind the Decoder reads with its method ``name``.  With a ``struct``
    ``code`` it is a fixed-width scalar (adjacent ones pack together) and a
    non-empty ``allowed`` is all that decode accepts; without one it is a
    u32 length and that many bytes (``blob``) or UTF-8 bytes (``text``)."""

    name: str
    code: str = ""
    allowed: tuple[int, ...] = ()


u8, u16, u32, u64 = Atom("u8", "B"), Atom("u16", "H"), Atom("u32", "I"), Atom("u64", "Q")
boolean = Atom("boolean", "?")  # one byte, 0 or 1
blob, text = Atom("blob"), Atom("text")


def enum(*allowed: int) -> Atom:
    return Atom("u8", "B", allowed)


class raw:
    """``size`` bytes, no length prefix, accounted as ``charged`` (default
    ``size``): more where the real wire carries what the encoding elides — a
    16-byte session key travels as a 64-byte public-key-encrypted block."""

    def __init__(self, size: int, charged: int | None = None) -> None:
        self.size, self.charged = size, size if charged is None else charged


@dataclass(frozen=True)
class boxed:
    """A whole message of ``cls``, tag and all, carried as a blob.  (A class
    named bare in a layout is *inline*: its fields follow directly.)"""

    cls: type


class seq:
    """A u32 count, then that many items; an item of several kinds is a tuple."""

    def __init__(self, *item) -> None:
        self.item = item


class tagged:
    """One of several classes, told apart by the first ``width`` constant bytes
    of their layouts, encoded inline.  It is also its family's tag registry:
    ``@message(family=...)`` adds a class, and a tag used twice is a
    ``TypeError`` at import."""

    def __init__(self, name: str, width: int = 1) -> None:
        self.__name__, self.width, self.classes = name, width, {}

    def add(self, cls: type) -> None:
        tag = bytes(cls.LAYOUT.prefix[: self.width])
        if len(tag) < self.width:
            raise TypeError(f"{cls.__name__} has no {self.width}-byte tag to join {self.__name__}")
        owner = self.classes.setdefault(tag, cls)
        if owner is not cls:
            raise TypeError(f"{cls.__name__} reuses tag {tag.hex(' ')} of {owner.__name__}")

    def decode(self, d: Decoder):
        cls = self.classes.get(d.peek(self.width))
        if cls is None:
            raise ProtocolError(f"no {self.__name__} class for tag {d.peek(self.width)!r}")
        return cls.decode(d)


class layout:
    """``layout(<leading constant bytes>, <field>=<kind>, ...)`` in wire order:
    the tag (or 0xFF and the system-op kind), then the fields.  ``header_through``
    is the last field ``encode_header`` covers, where authentication covers less."""

    def __init__(self, *prefix: int, header_through: str | None = None, **fields) -> None:
        self.prefix, self.fields, self.header_through = prefix, fields, header_through


def decode_exact(cls, data: bytes):
    """``data`` as exactly one ``cls``: nothing missing, nothing left over."""
    dec = Decoder(data)
    msg = cls.decode(dec)
    dec.expect_end()
    return msg


_BYTE = {value: bytes((value,)) for value in range(256)}  # (True and False are 1 and 0)
_INLINE = (type, tagged)  # kinds whose values encode, decode and size themselves
_ITEM_NAMES = "abcde"  # a sequence item's values, inside the generated comprehension


def _member(value: int, allowed: tuple[int, ...]) -> int:
    if value not in allowed:
        raise ProtocolError(f"value {value} is not one of {allowed}")
    return value


class _Codegen:
    """Source expressions for one class's codec, and the names they use.
    ``x`` is a value's expression (``self.op``; ``a``/``b``/``c`` inside a
    sequence item); ``d`` is the Decoder being read."""

    def __init__(self) -> None:
        self.namespace = {
            "_blob": lambda data: _U32.pack(len(data)) + data, "_member": _member, "_byte": _BYTE,
            "decode_exact": decode_exact, "ProtocolError": ProtocolError,
        }

    def parts(self, kind, x: str) -> list[tuple[str, str]]:
        """How ``x`` encodes, in wire order: ``(struct code, expr)`` per
        scalar, ``("", expr)`` per byte string."""
        if isinstance(kind, raw):
            return [("", x)]
        if kind is blob:
            return [("I", f"len({x})"), ("", x)]
        if isinstance(kind, Atom) and kind.code:
            return [(kind.code, x)]
        if isinstance(kind, seq):
            names = _ITEM_NAMES[: len(kind.item)]
            item = self.encode(zip(kind.item, names))
            items = x if item == names else f"[{item} for {', '.join(names)} in {x}]"
            return [("I", f"len({x})"), ("", f"b''.join({items})")]
        # A str and a boxed message encode themselves, then travel as a blob.
        return [("", f"{x}.encode()" if isinstance(kind, _INLINE) else f"_blob({x}.encode())")]

    def encode(self, pairs, lead=()) -> str:
        """One bytes expression for ``lead`` parts then ``(kind, expr)`` pairs;
        every run of adjacent scalars is one call of a precompiled ``Struct.pack``."""
        parts = [*lead, *(part for kind, x in pairs for part in self.parts(kind, x))]
        terms = []
        for is_bytes, run in groupby(parts, key=lambda part: not part[0]):
            codes, exprs = zip(*run)
            if is_bytes:
                terms += exprs
            elif codes in (("B",), ("?",)):
                terms.append(f"_byte[{exprs[0]}]")  # a lone byte: a lookup, not a call
            else:
                pack = f"_pack{len(self.namespace)}"
                self.namespace[pack] = struct.Struct(">" + "".join(codes)).pack
                terms.append(f"{pack}({', '.join(exprs)})")
        return " + ".join(terms)

    def size(self, pairs, constant: int = 0) -> str:
        """The accounted size of ``(kind, expr)`` pairs on top of ``constant``:
        one folded constant plus a term per variable-length value."""
        terms = []
        for kind, x in pairs:
            if isinstance(kind, Atom) and kind.code:
                constant += struct.calcsize(kind.code)
            elif isinstance(kind, raw):
                constant += kind.charged
            elif isinstance(kind, (*_INLINE, boxed)):
                constant += 4 * isinstance(kind, boxed)
                terms.append(f"{x}.body_size()")
            else:
                constant += 4
                if kind is blob:
                    terms.append(f"len({x})")
                elif kind is text:
                    terms.append(f"len({x}.encode())")
                else:
                    names = _ITEM_NAMES[: len(kind.item)]
                    item = self.size(zip(kind.item, names))
                    terms.append(
                        f"{item} * len({x})" if item.isdigit()
                        else f"sum([{item} for {', '.join(names)} in {x}])"
                    )
        return " + ".join([str(constant)] * bool(constant or not terms) + terms)

    def read(self, kind) -> str:
        if isinstance(kind, Atom):
            value = f"d.{kind.name}()"
            return f"_member({value}, {kind.allowed})" if kind.allowed else value
        if isinstance(kind, raw):
            return f"d.raw({kind.size})"
        if isinstance(kind, (*_INLINE, boxed)):
            cls = getattr(kind, "cls", kind)
            name = cls.__name__
            self.namespace[name] = cls
            return f"{name}.decode(d)" if cls is kind else f"decode_exact({name}, d.blob())"
        items = [self.read(k) for k in kind.item]
        item = items[0] if len(items) == 1 else f"({', '.join(items)})"
        return f"tuple(d.sequence(lambda d: {item}))"


def derive(name: str, spec: layout) -> tuple[dict[str, str], dict]:
    """The codec of class ``name``: ``{function name: source}`` for ``encode``,
    ``decode(cls, d)``, ``body_size`` (and ``encode_header`` if the layout names
    one), plus the namespace they run in.  Derived once, at class definition: an
    encoder is the ``Struct.pack(...) + bytes`` one would write by hand, not a walk.
    """
    gen = _Codegen()
    values = [(kind, f"self.{field}") for field, kind in spec.fields.items()]
    lead = [("B", str(byte)) for byte in spec.prefix]
    cut = list(spec.fields).index(spec.header_through) + 1 if spec.header_through else 0
    exprs = {"body_size": gen.size(values, len(lead))}
    if cut:
        exprs["encode_header"] = gen.encode(values[:cut], lead)
        exprs["encode"] = f"self.encode_header() + {gen.encode(values[cut:])}"
    else:
        exprs["encode"] = gen.encode(values, lead)
    sources = {fn: f"def {fn}(self): return {expr}" for fn, expr in exprs.items()}
    reads = ", ".join(f"{field}={gen.read(kind)}" for field, kind in spec.fields.items())
    tag = f"if d.raw({len(lead)}) != {bytes(spec.prefix)!r}: raise ProtocolError('not a {name}')"
    sources["decode"] = f"def decode(cls, d):\n    {tag if lead else ''}\n    return cls({reads})"
    return sources, gen.namespace
