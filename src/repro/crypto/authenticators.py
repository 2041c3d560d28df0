"""Authenticators: one MAC per replica, attached to a single message.

This is the optimization Castro & Liskov introduced to avoid public-key
signatures on the critical path (paper section 2.1).  A client (or replica)
holds a distinct session key for every replica and stamps each message with
a vector of MACs — each replica checks only its own entry.

The paper's section 2.3 shows the dark side: a restarted replica has lost
the session keys, so every authenticator in the replayed log fails to
verify until the periodic blind rebroadcast re-delivers the keys.  That
behaviour is reproduced in :mod:`repro.pbft.recovery`.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.crypto.digests import compare_digest
from repro.crypto.mac import MAC_SIZE, MacKey, compute_mac, verify_mac


class Authenticator:
    """A vector of per-replica MAC tags over one message digest."""

    __slots__ = ("tags",)

    def __init__(self, tags: dict[int, bytes]) -> None:
        self.tags = tags

    def tag_for(self, replica_id: int) -> bytes | None:
        return self.tags.get(replica_id)

    @property
    def size(self) -> int:
        """Wire size: 4 bytes of tag plus 2 bytes of replica id per entry."""
        return len(self.tags) * 6

    def __len__(self) -> int:
        return len(self.tags)

    def __repr__(self) -> str:
        return f"Authenticator({sorted(self.tags)})"


def make_authenticator(keys: dict[int, MacKey], data: bytes) -> Authenticator:
    """MAC ``data`` once per replica with that replica's session key."""
    return Authenticator({rid: compute_mac(key, data) for rid, key in keys.items()})


class MacCache:
    """Bounded memo of MAC tags keyed by ``(session key bytes, data)``.

    A MAC is a pure function of the key and the message bytes, so the memo
    can never change a tag — only skip recomputing one.  The protocol
    recomputes the same tag constantly: the sender MACs a message once per
    replica when building an authenticator and again on retransmission,
    and every receiver re-derives its own entry to verify it.  Determinism
    is preserved because a cache hit returns exactly the bytes a fresh
    computation would.

    Eviction is FIFO over insertion order.  An entry is useful from the
    send that mints it until the last receiver has verified it, so the
    working set is the tags of messages in flight: 12 closed-loop clients
    on 4 replicas keep fewer than 128 entries live (hit ratio 0.4998 at
    every bound from 128 up, 0.4987 at 96, 0.435 at 64 — sender miss,
    receiver hit, so 0.5 is the ceiling).  The default of 256 is twice
    that; it is not larger because every key pins its message bytes: 4,096
    entries held ≈1.6 MiB of dead 1 KiB bodies on the null row and 32,768
    held ≈13 MiB, for the same hit ratio.  A deployment with far more
    concurrent senders can pass a larger bound; too small a one only costs
    recomputation.  The cache keys on the raw key *bytes*, so dropping and
    re-learning a session key (restart recovery, section 2.3) naturally
    maps onto the right entries: a different key means a different cache
    line.
    """

    __slots__ = ("max_entries", "hits", "misses", "_tags")

    def __init__(self, max_entries: int = 256) -> None:
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        # OrderedDict for O(1) oldest-first eviction; a plain dict's
        # next(iter(...)) degrades to O(n) tombstone scans under churn.
        self._tags: OrderedDict[tuple[bytes, bytes], bytes] = OrderedDict()

    def __len__(self) -> int:
        return len(self._tags)

    def tag(self, key: MacKey, data: bytes) -> bytes:
        """Compute (or recall) the 4-byte tag over ``data``."""
        tags = self._tags
        cache_key = (key.key, data)
        tag = tags.get(cache_key)
        if tag is None:
            self.misses += 1
            tag = compute_mac(key, data)
            if len(tags) >= self.max_entries:
                tags.popitem(last=False)
            tags[cache_key] = tag
        else:
            self.hits += 1
        return tag

    def verify(self, key: MacKey, data: bytes, tag: bytes) -> bool:
        """Constant-time tag check through the cache."""
        if len(tag) != MAC_SIZE:
            return False
        return compare_digest(self.tag(key, data), tag)

    def authenticator(self, keys: dict[int, MacKey], data: bytes) -> Authenticator:
        """:func:`make_authenticator` through the cache."""
        tag = self.tag
        return Authenticator({rid: tag(key, data) for rid, key in keys.items()})

    def verify_authenticator(
        self, key: MacKey, replica_id: int, data: bytes, auth: Authenticator
    ) -> bool:
        """:func:`verify_authenticator` through the cache.

        The receiver's entry is almost always already cached (the sender
        just computed it), so the hit is checked inline and only a miss
        goes through :meth:`tag`.
        """
        tag = auth.tags.get(replica_id)
        if tag is None or len(tag) != MAC_SIZE:
            return False
        expected = self._tags.get((key.key, data))
        if expected is None:
            expected = self.tag(key, data)
        else:
            self.hits += 1
        return compare_digest(expected, tag)

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "entries": len(self._tags)}


def verify_authenticator(
    key: MacKey, replica_id: int, data: bytes, auth: Authenticator
) -> bool:
    """Verify this replica's own entry; other entries are opaque to it."""
    tag = auth.tag_for(replica_id)
    if tag is None:
        return False
    return verify_mac(key, data, tag)
