"""The paged state region with the notify-before-modify contract."""

from __future__ import annotations

from repro.common.errors import StateError
from repro.crypto.digests import md5_digest
from repro.statemgr.merkle import MerkleTree


class PagedState:
    """A continuous memory region divided into equal-length pages.

    Pages are held as immutable ``bytes`` objects, which makes copy-on-write
    checkpointing free: a snapshot is a shallow copy of the page list, and a
    later write replaces the page object rather than mutating it.

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
        self._pages: list[bytes] = [zero_page] * num_pages
        # Every page starts zeroed, so the tree is uniform: built with one
        # digest per level instead of one per page.
        self._tree = MerkleTree.uniform(num_pages, md5_digest(zero_page))
        self._notified: set[int] = set()
        self._dirty: set[int] = set()
        self.writes = 0

    # -- the application-facing contract -------------------------------------

    def modify(self, offset: int, length: int) -> None:
        """Notify the library that ``[offset, offset+length)`` may change."""
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
            # Fast path: a read contained in one page is a single slice.
            page_size = self.page_size
            first, in_page = divmod(offset, page_size)
            end = in_page + length
            if end <= page_size and first < self.num_pages:
                return self._pages[first][in_page:end]
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

    def write(self, offset: int, data: bytes) -> None:
        """Write bytes; every touched page must have been notified."""
        if data.__class__ is bytes and data and offset >= 0:
            # Fast path: a write contained in one notified page (the common
            # case — application writes are far smaller than a page) is a
            # single slice-splice with none of the multi-page bookkeeping.
            # The notified-set membership check doubles as the bounds check:
            # modify() only ever admits in-range pages.
            page_size = self.page_size
            first, in_page = divmod(offset, page_size)
            end = in_page + len(data)
            if end <= page_size and first in self._notified:
                self.writes += 1
                old = self._pages[first]
                if len(data) == page_size:
                    self._pages[first] = data
                else:
                    self._pages[first] = old[:in_page] + data + old[end:]
                self._dirty.add(first)
                return
        self._check_range(offset, len(data))
        if not data:
            return
        first = offset // self.page_size
        last = (offset + len(data) - 1) // self.page_size
        unnotified = [p for p in range(first, last + 1) if p not in self._notified]
        if unnotified:
            raise StateError(
                f"write to pages {unnotified} without a prior modify() "
                "notification — this is the misbehaviour the paper warns "
                "would corrupt PBFT state synchronization (section 3.2)"
            )
        self.writes += 1
        if not isinstance(data, bytes):
            data = bytes(data)
        pos = offset
        remaining = memoryview(data)
        while len(remaining) > 0:
            page_index, in_page = divmod(pos, self.page_size)
            take = min(len(remaining), self.page_size - in_page)
            old = self._pages[page_index]
            new = old[:in_page] + bytes(remaining[:take]) + old[in_page + take :]
            self._pages[page_index] = new
            self._dirty.add(page_index)
            pos += take
            remaining = remaining[take:]

    # -- library-side operations ----------------------------------------------

    def refresh_tree(self) -> bytes:
        """Re-digest dirty pages into the Merkle tree; return the root.

        Only pages written since the last refresh are re-digested, and the
        batched tree update re-hashes each affected internal node once —
        a checkpoint costs O(dirty · log n) digests, not O(n).
        """
        if self._dirty:
            pages = self._pages
            self._tree.update_leaves(
                (i, md5_digest(pages[i])) for i in sorted(self._dirty)
            )
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
        return self._pages[index]

    def install_page(self, index: int, data: bytes) -> None:
        """State transfer: overwrite a whole page, bypassing notifications."""
        if len(data) != self.page_size:
            raise StateError(
                f"page data must be exactly {self.page_size} bytes, got {len(data)}"
            )
        if not 0 <= index < self.num_pages:
            raise StateError(f"page index {index} out of range")
        self._pages[index] = data
        self._dirty.add(index)

    def snapshot_pages(self) -> list[bytes]:
        """Copy-on-write snapshot: O(num_pages) references, zero data copies."""
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
        self._pages = list(pages)
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
