"""MD5 digests — the hash the original PBFT codebase used.

MD5 is of course broken as a cryptographic hash today; we keep it for
fidelity to the system under study.  Everything takes digests through this
module so swapping the primitive is a one-line change.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

DIGEST_SIZE = 16


def md5_digest(data: bytes) -> bytes:
    """Digest a byte string."""
    return hashlib.md5(data).digest()


def digest_state(data: bytes):
    """A running digest over ``data``.  ``.copy()`` forks it, so several
    suffixes of one prefix are hashed without re-hashing the prefix."""
    return hashlib.md5(data)


def digest_parts(parts: Iterable[bytes]) -> bytes:
    """Digest the concatenation of ``parts`` without building it in memory."""
    h = hashlib.md5()
    for part in parts:
        h.update(part)
    return h.digest()
