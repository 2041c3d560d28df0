"""UMAC32-style message authentication codes.

The original PBFT uses UMAC32: a fast universal-hash MAC with a 32-bit tag.
We reproduce the *interface and tag size* with HMAC-MD5 truncated to four
bytes; the simulated cost model (:mod:`repro.crypto.costs`) carries the
"MACs are ~3 orders of magnitude cheaper than signatures" property that the
paper's Table 1 turns on.  The MD5 states and the constant-time compare come
from :mod:`repro.crypto.digests`, the package's one hashing seam.
"""

from __future__ import annotations

from repro.common.errors import CryptoError
from repro.crypto.digests import compare_digest, md5

MAC_SIZE = 4
_KEY_SIZE = 16
_MD5_BLOCK = 64  # MD5 block size; HMAC pads/xors the key to this width.


class MacKey:
    """A shared symmetric session key between one client and one replica."""

    __slots__ = ("key", "_iproto", "_oproto")

    def __init__(self, key: bytes) -> None:
        if len(key) != _KEY_SIZE:
            raise CryptoError(f"MAC key must be {_KEY_SIZE} bytes, got {len(key)}")
        self.key = key
        # Lazily built inner/outer MD5 states with the HMAC key schedule
        # (key xor ipad / key xor opad) already absorbed; compute_mac()
        # copies them instead of re-deriving the schedule per tag.  The
        # construction H((K^opad) || H((K^ipad) || data)) is HMAC by
        # definition, so the tags are byte-identical to the standard
        # library's HMAC-MD5.
        self._iproto = None
        self._oproto = None

    @staticmethod
    def generate(rng) -> "MacKey":
        """Generate a key from a deterministic RNG stream."""
        return MacKey(bytes(rng.randrange(256) for _ in range(_KEY_SIZE)))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MacKey) and compare_digest(self.key, other.key)

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"MacKey({self.key[:4].hex()}..)"


def compute_mac(key: MacKey, data: bytes) -> bytes:
    """Compute the 4-byte tag over ``data``."""
    iproto = key._iproto
    if iproto is None:
        block = key.key.ljust(_MD5_BLOCK, b"\0")
        iproto = key._iproto = md5(bytes(b ^ 0x36 for b in block))
        key._oproto = md5(bytes(b ^ 0x5C for b in block))
    inner = iproto.copy()
    inner.update(data)
    outer = key._oproto.copy()
    outer.update(inner.digest())
    return outer.digest()[:MAC_SIZE]


def verify_mac(key: MacKey, data: bytes, tag: bytes) -> bool:
    """Constant-time check of a 4-byte tag."""
    if len(tag) != MAC_SIZE:
        return False
    return compare_digest(compute_mac(key, data), tag)
