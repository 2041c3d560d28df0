"""libgmp through ``ctypes``: the number theory under the signer and the
prime test, on native integers when the library loads.

Only the handle is shared.  :func:`library` locates and loads libgmp once
per process, on its first call (``find_library`` starts ``ldconfig``, so
importing this module must not), and answers ``None`` when there is no
library, it does not load or a function is missing; callers then run their
pure-Python code, which computes the same values.  Every integer lives in
a :class:`Registers` object that its owner creates and keeps, and is
cleared when that object is collected.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import functools
import weakref
from typing import Optional

_ptr = ctypes.c_void_p
_size = ctypes.c_size_t
_int = ctypes.c_int


class _Mpz(ctypes.Structure):
    """GMP's ``__mpz_struct``: allocated limbs, signed used limbs, limbs."""

    _fields_ = [("_mp_alloc", _int), ("_mp_size", _int), ("_mp_d", _ptr)]


class Gmp:
    """The six libgmp functions used here, with their C types declared."""

    # name: (restype, argtypes), from gmp.h.
    _SIGNATURES = {
        "init": (None, (_ptr,)),
        "clear": (None, (_ptr,)),
        # import(rop, count, order, size, endian, nails, op)
        "import_": (None, (_ptr, _size, _int, _size, _int, _size, ctypes.c_char_p)),
        # export(rop, countp, order, size, endian, nails, op) -> rop
        "export": (_ptr, (_ptr, ctypes.POINTER(_size), _int, _size, _int, _size, _ptr)),
        "jacobi": (_int, (_ptr, _ptr)),
        # powm(rop, base, exp, mod)
        "powm": (None, (_ptr, _ptr, _ptr, _ptr)),
    }

    def __init__(self, cdll: ctypes.CDLL) -> None:
        for name, (restype, argtypes) in self._SIGNATURES.items():
            function = getattr(cdll, "__gmpz_" + name.rstrip("_"))  # AttributeError if missing
            function.restype = restype
            function.argtypes = argtypes
            setattr(self, name, function)


@functools.cache
def library() -> Optional[Gmp]:
    """The loaded library, or None when it is not there or not usable."""
    name = ctypes.util.find_library("gmp")
    if name is None:
        return None
    try:
        return Gmp(ctypes.CDLL(name))
    except (OSError, AttributeError):
        return None


def _clear_all(clear, cells) -> None:
    for cell in cells:
        clear(ctypes.addressof(cell))


class Registers:
    """``count`` native integers, numbered from 0, that hold values below
    ``256**width``.

    Values go in through :meth:`load` (``OverflowError`` for a negative
    value or one of more than ``width`` bytes, raised before any pointer
    is passed) and come out through :meth:`read` into a buffer of
    ``width`` bytes.  That buffer is big enough because a register only
    ever holds a loaded value or a :meth:`powm` result, which is below a
    loaded modulus.  One object is scratch for one computation at a time.
    """

    def __init__(self, gmp: Gmp, count: int, width: int) -> None:
        self._gmp = gmp
        self._width = width
        cells = (_Mpz * count)()
        for cell in cells:
            gmp.init(ctypes.addressof(cell))
        # The finalizer keeps ``cells`` alive until it has cleared them.
        weakref.finalize(self, _clear_all, gmp.clear, cells)
        self._addresses = tuple(ctypes.addressof(cell) for cell in cells)
        self._buffer = ctypes.create_string_buffer(width)
        self._count = _size()
        self._count_ref = ctypes.byref(self._count)

    def load(self, index: int, value: int) -> None:
        data = value.to_bytes(self._width, "big")
        # Most significant byte first; one-byte words, so no endianness.
        self._gmp.import_(self._addresses[index], len(data), 1, 1, 0, 0, data)

    def read(self, index: int) -> int:
        self._gmp.export(self._buffer, self._count_ref, 1, 1, 0, 0, self._addresses[index])
        return int.from_bytes(self._buffer.raw[: self._count.value], "big")

    def jacobi(self, a: int, b: int) -> int:
        """The Jacobi symbol of register ``a`` over odd register ``b``."""
        addresses = self._addresses
        return self._gmp.jacobi(addresses[a], addresses[b])

    def powm(self, result: int, base: int, exponent: int, modulus: int) -> None:
        """``result = base ** exponent mod modulus``, all registers."""
        addresses = self._addresses
        self._gmp.powm(
            addresses[result], addresses[base], addresses[exponent], addresses[modulus]
        )
