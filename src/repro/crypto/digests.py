"""The process's one hashing seam: MD5 digests, SHA-256 and a constant-time compare.

MD5 is the hash the original PBFT codebase used.  It is of course broken
as a cryptographic hash today; we keep it for fidelity to the system under
study.  Every digest, MAC, derived RNG seed and tag comparison in the
package goes through this module, so swapping a primitive is a change here
and nowhere else.

The primitives come from CPython's built-in modules, not from ``hashlib``:
``md5`` from ``_md5``, ``sha256`` from ``_sha2`` or ``_sha256``, and
``compare_digest`` from ``_operator._compare_digest``, the constant-time
compare ``hmac`` itself uses when ``_hashlib`` is absent.  Importing
``hashlib`` or ``hmac`` loads ``_hashlib``, which maps OpenSSL's
``libcrypto``: about 3.5 MiB resident that nothing here uses.  A build
without a built-in module falls back to ``hashlib``'s constructor: the same
digests, only without the memory saving.
"""

from __future__ import annotations

import functools
from typing import Iterable

from _operator import _compare_digest as compare_digest

try:
    from _md5 import md5
except ImportError:  # a build without the built-in module
    from hashlib import md5
try:
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10, 3.11
    except ImportError:  # a build without the built-in module
        from hashlib import sha256

DIGEST_SIZE = 16


def md5_digest(data: bytes) -> bytes:
    """Digest a byte string."""
    return md5(data).digest()


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
    return md5(data)


def digest_parts(parts: Iterable[bytes]) -> bytes:
    """Digest the concatenation of ``parts`` without building it in memory."""
    h = md5()
    for part in parts:
        h.update(part)
    return h.digest()
