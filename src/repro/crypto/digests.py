"""MD5 digests — the hash the original PBFT codebase used.

MD5 is of course broken as a cryptographic hash today; we keep it for
fidelity to the system under study.  Everything takes digests through this
module so swapping the primitive is a one-line change.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Iterable

DIGEST_SIZE = 16


def md5_digest(data: bytes) -> bytes:
    """Digest a byte string."""
    return hashlib.md5(data).digest()


#: :func:`md5_digest` through a bounded memo keyed by the bytes themselves,
#: for callers that digest the *same* content again and again — a reply
#: body is digested by every replica that sends only its digest and once
#: more by the client.  Same contract as ``MacCache``: a digest is a pure
#: function of the bytes, so a hit returns exactly what a fresh computation
#: would and the memo can only skip one; simulated CPU is charged by
#: message size where a message is sent and received, not by what the host
#: hashed, so the cost model cannot see it.  A body is useful from its
#: first execution until the client has matched its quorum, so the working
#: set is the bodies in flight; the bound stays small because every key
#: pins its bytes.
memo_digest = functools.lru_cache(maxsize=256)(md5_digest)


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
