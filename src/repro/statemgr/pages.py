"""The paged state region with the notify-before-modify contract."""

from __future__ import annotations

import sys

from repro.common.errors import StateError
from repro.crypto.digests import md5_digest
from repro.statemgr.merkle import MerkleTree

# What a bytes object allocates beyond its payload (see PagedState._open).
_BYTES_OVERHEAD = sys.getsizeof(b"")

# Every frozen page content in the process, keyed by its Merkle leaf digest
# (see PagedState, "Pages are interned").  Only a cache: what it loses is
# sharing, never a page.
_interned: dict[bytes, bytes] = {}
_SWEEP_FLOOR = 64
_sweep_at = _SWEEP_FLOOR


def _intern(digest: bytes, page: bytes | bytearray) -> bytes:
    """The frozen page for ``page`` (frozen or open) whose digest is
    ``digest``: the table's object if its bytes are equal, else its own."""
    shared = _interned.get(digest)
    if shared is not None:
        # An MD5 collision keeps its own object, so no two contents alias.
        return shared if shared == page else bytes(page)
    if len(_interned) >= _sweep_at:
        _sweep()
    page = _interned[digest] = bytes(page)
    return page


def _sweep() -> None:
    """Drop the entries only the table holds; ``bytes`` take no weak
    references, so a reference count of 2 (the table's and the call's
    argument) is what says nothing else does."""
    global _sweep_at
    for digest in [d for d in _interned if sys.getrefcount(_interned[d]) <= 2]:
        del _interned[digest]
    _sweep_at = max(_SWEEP_FLOOR, 2 * len(_interned))


class PagedState:
    """A continuous memory region divided into equal-length pages.

    Pages are handed out as immutable ``bytes`` objects, which makes
    copy-on-write checkpointing free: a snapshot is a shallow copy of the
    page list, and a later write never touches an object a snapshot holds.

    Between checkpoints a page being written is an open ``bytearray``
    buffer: the first write after the last freeze copies the page into
    one, and every later write splices into it in place.  Everything that
    hands a page object out or digests it — :meth:`refresh_tree` (and so
    :meth:`snapshot_pages`, :attr:`root`, :attr:`tree`) and :meth:`page` —
    freezes open buffers back to ``bytes`` first.  An application that
    rewrites one counter page hundreds of times per checkpoint interval
    thus pays one page copy per interval, not one per write.  Every open
    buffer is dirty (only a write opens one, only :meth:`refresh_tree`
    clears the dirty set, and it freezes what it digests), which is what
    lets the dirty set double as the list of buffers to freeze.

    Pages are interned: :meth:`refresh_tree` looks each dirty page's leaf
    digest up in a process-wide table and, when the stored page's bytes
    are equal, keeps that object instead, so a content held by several
    replicas and checkpoints is one object (a digest match with unequal
    bytes keeps its own).  :meth:`install_page` and a :meth:`restore`
    without a tree snapshot mark pages dirty, so transfers and restarts
    intern through the same seam.  An open buffer is never stored.  When
    an insert finds the table at twice its size after the last sweep (64
    at least), entries that only the table holds are dropped.

    The PBFT contract (paper section 3.2): the application "has free read
    access to it, but is required to notify the library before making
    changes to any region".  :meth:`write` enforces this — an unnotified
    write raises :class:`~repro.common.errors.StateError` instead of
    silently corrupting checkpoints, turning the paper's "havoc" into a
    detectable bug.
    """

    def __init__(self, num_pages: int, page_size: int) -> None:
        if num_pages <= 0 or page_size <= 0:
            raise StateError("num_pages and page_size must be positive")
        self.num_pages = num_pages
        self.page_size = page_size
        self.size = num_pages * page_size
        zero_page = bytes(page_size)
        zero_digest = md5_digest(zero_page)
        zero_page = _intern(zero_digest, zero_page)
        # A bytearray while the page is open for writing, else bytes.
        self._pages: list[bytes | bytearray] = [zero_page] * num_pages
        # Every page starts zeroed, so the tree is uniform: built with one
        # digest per level instead of one per page.
        self._tree = MerkleTree.uniform(num_pages, zero_digest)
        self._notified: set[int] = set()
        self._dirty: set[int] = set()
        self.writes = 0

    # -- the application-facing contract -------------------------------------

    def modify(self, offset: int, length: int) -> None:
        """Notify the library that ``[offset, offset+length)`` may change."""
        if length > 0 and offset >= 0:
            # Fast path: a range inside one page is one set insertion.
            first, in_page = divmod(offset, self.page_size)
            if in_page + length <= self.page_size and first < self.num_pages:
                self._notified.add(first)
                return
        if length < 0:
            raise StateError("modify length must be non-negative")
        self._check_range(offset, length)
        if length == 0:
            return
        first = offset // self.page_size
        last = (offset + length - 1) // self.page_size
        self._notified.update(range(first, last + 1))

    def read(self, offset: int, length: int) -> bytes:
        """Read bytes; always allowed."""
        if length > 0 and offset >= 0:
            # Fast path: a read contained in one page is a single slice
            # (copied to bytes if the page is an open buffer).
            page_size = self.page_size
            first, in_page = divmod(offset, page_size)
            end = in_page + length
            if end <= page_size and first < self.num_pages:
                chunk = self._pages[first][in_page:end]
                return chunk if chunk.__class__ is bytes else bytes(chunk)
        self._check_range(offset, length)
        if length == 0:
            return b""
        out = []
        remaining = length
        pos = offset
        while remaining > 0:
            page_index, in_page = divmod(pos, self.page_size)
            take = min(remaining, self.page_size - in_page)
            out.append(self._pages[page_index][in_page : in_page + take])
            pos += take
            remaining -= take
        return b"".join(out)

    def write(self, offset: int, data) -> None:
        """Write bytes (or any bytes-like object); every touched page must
        have been notified."""
        length = len(data)
        if length and offset >= 0:
            # Fast path: a write contained in one notified page (the common
            # case — application writes are far smaller than a page).  The
            # notified-set membership check doubles as the bounds check:
            # modify() only ever admits in-range pages.
            page_size = self.page_size
            first, in_page = divmod(offset, page_size)
            end = in_page + length
            if end <= page_size and first in self._notified:
                self.writes += 1
                self._dirty.add(first)
                if length == page_size and data.__class__ is bytes:
                    self._pages[first] = data  # a whole immutable page: adopt it
                    return
                page = self._pages[first]
                if page.__class__ is bytes:
                    page = self._open(first)
                page[in_page:end] = data
                return
        self._check_range(offset, length)
        if not length:
            return
        first = offset // self.page_size
        last = (offset + length - 1) // self.page_size
        unnotified = [p for p in range(first, last + 1) if p not in self._notified]
        if unnotified:
            raise StateError(
                f"write to pages {unnotified} without a prior modify() "
                "notification — this is the misbehaviour the paper warns "
                "would corrupt PBFT state synchronization (section 3.2)"
            )
        self.writes += 1
        view = memoryview(data)
        pos = offset
        while view:
            page_index, in_page = divmod(pos, self.page_size)
            take = min(len(view), self.page_size - in_page)
            page = self._pages[page_index]
            if page.__class__ is bytes:
                page = self._open(page_index)
            page[in_page : in_page + take] = view[:take]
            self._dirty.add(page_index)
            pos += take
            view = view[take:]

    def _open(self, index: int) -> bytearray:
        """Make page ``index`` a write buffer holding a copy of its bytes.

        The buffer is allocated with a frozen page's worth of capacity
        (``del`` of a short tail keeps a bytearray's allocation): when a
        checkpoint freezes buffers one after another, the block each one
        frees then fits the next frozen page.  An exact-size buffer frees a
        block a few bytes too small for one, which the C allocator keeps as
        a hole until a page reopens — 1.4 MiB of holes on ``kv_4shard``
        under glibc, all of it peak RSS.
        """
        page_size = self.page_size
        buffer = bytearray(page_size + _BYTES_OVERHEAD)
        del buffer[page_size:]
        buffer[:] = self._pages[index]
        self._pages[index] = buffer
        return buffer

    # -- library-side operations ----------------------------------------------

    def refresh_tree(self) -> bytes:
        """Freeze, intern and re-digest dirty pages into the Merkle tree;
        return the root.

        Only pages written since the last refresh are re-digested, and the
        batched tree update re-hashes each affected internal node once —
        a checkpoint costs O(dirty · log n) digests, not O(n).  An open
        buffer is digested as it is and copied to ``bytes`` only when no
        equal page is interned.
        """
        if self._dirty:
            pages = self._pages
            leaves = []
            for index in sorted(self._dirty):
                digest = md5_digest(pages[index])
                pages[index] = _intern(digest, pages[index])
                leaves.append((index, digest))
            self._tree.update_leaves(leaves)
            self._dirty.clear()
        return self._tree.root

    def end_of_execution(self) -> None:
        """Reset the per-request notification window.

        The library calls this after each request executes; a page notified
        during one request must be re-notified before the next request may
        write it.
        """
        self._notified.clear()

    @property
    def root(self) -> bytes:
        """Current Merkle root (dirty pages are folded in first)."""
        return self.refresh_tree()

    @property
    def tree(self) -> MerkleTree:
        self.refresh_tree()
        return self._tree

    def page(self, index: int) -> bytes:
        if not 0 <= index < self.num_pages:
            raise StateError(f"page index {index} out of range")
        page = self._pages[index]
        if page.__class__ is not bytes:
            page = self._pages[index] = bytes(page)
        return page

    def install_page(self, index: int, data: bytes) -> None:
        """State transfer: overwrite a whole page, bypassing notifications."""
        if len(data) != self.page_size:
            raise StateError(
                f"page data must be exactly {self.page_size} bytes, got {len(data)}"
            )
        if not 0 <= index < self.num_pages:
            raise StateError(f"page index {index} out of range")
        self._pages[index] = bytes(data)
        self._dirty.add(index)

    def snapshot_pages(self) -> list[bytes]:
        """Copy-on-write snapshot: O(num_pages) references to frozen pages."""
        self.refresh_tree()
        return list(self._pages)

    def restore(self, pages: list[bytes], tree_nodes: list[bytes] | None = None) -> None:
        """Roll the whole region back to a snapshot.

        When the caller holds the matching Merkle snapshot (checkpoints
        store both), the tree is installed directly instead of re-digesting
        every page.  ``tree_nodes`` must be the snapshot taken from the
        same page set; checkpoint construction guarantees the pairing.
        """
        if len(pages) != self.num_pages:
            raise StateError("snapshot page count mismatch")
        # bytes() of a bytes page is that page; anything else is copied so
        # no caller-held buffer becomes one of ours.
        self._pages = [bytes(page) for page in pages]
        self._notified.clear()
        if tree_nodes is not None:
            self._tree = MerkleTree.from_snapshot(self.num_pages, tree_nodes)
            self._dirty.clear()
            return
        self._dirty = set(range(self.num_pages))
        self.refresh_tree()

    def _check_range(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.size:
            raise StateError(
                f"range [{offset}, {offset + length}) outside state of size {self.size}"
            )
