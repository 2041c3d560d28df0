"""Page cache and transaction control over a VFS file.

Clean page images live in a process-wide bounded LRU :class:`BufferPool`
shared by every open pager (one per database / replica state region),
replacing the unbounded per-pager dict this module started with.  Dirty
pages never enter the pool — each pager pins them privately until flush,
so eviction can never lose a write.  The pager also hosts a small cache
of *parsed* b-tree nodes (see :mod:`repro.sqlstate.btree`), invalidated
here on every write/rollback/crash so the two caches cannot diverge.
"""

from __future__ import annotations

import itertools
import struct
import weakref
from collections import OrderedDict
from typing import Optional

from repro.common.errors import SqlError
from repro.sqlstate.journal import RollbackJournal
from repro.sqlstate.vfs import VfsFile

_DB_MAGIC = b"REPRODB1"
_HEADER = struct.Struct(">8sIIIII")
# magic, page_size, page_count, freelist_head, schema_root, schema_version
HEADER_PAGE = 0
_FREELIST_NEXT = struct.Struct(">I")

_NODE_CACHE_CAP = 4096

# Owner tokens must never be reused (an id() could be, after GC, which
# would let a new pager read a dead pager's pool entries).
_OWNER_IDS = itertools.count(1)


class BufferPool:
    """Bounded, shared LRU cache of clean page images.

    Keys are ``(owner, page_no)`` so pagers never see each other's pages;
    capacity is counted in pages across all owners.
    """

    def __init__(self, capacity_pages: int = 4096) -> None:
        self.capacity = capacity_pages
        self._pages: OrderedDict[tuple[int, int], bytes] = OrderedDict()
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._pages)

    def get(self, owner: int, page_no: int) -> Optional[bytes]:
        key = (owner, page_no)
        data = self._pages.get(key)
        if data is not None:
            self._pages.move_to_end(key)
        return data

    def put(self, owner: int, page_no: int, data: bytes) -> None:
        key = (owner, page_no)
        self._pages[key] = data
        self._pages.move_to_end(key)
        while len(self._pages) > self.capacity:
            self._pages.popitem(last=False)
            self.evictions += 1

    def discard(self, owner: int, page_no: int) -> None:
        self._pages.pop((owner, page_no), None)

    def drop_owner(self, owner: int) -> None:
        for key in [k for k in self._pages if k[0] == owner]:
            del self._pages[key]


_SHARED_POOL = BufferPool()


def shared_pool() -> BufferPool:
    return _SHARED_POOL


class Pager:
    """Reads, writes, allocates and journals fixed-size pages.

    Transactions: :meth:`begin` / :meth:`commit` / :meth:`rollback`.  With
    a journal, commit follows the sync-journal → write-db → sync-db →
    invalidate-journal protocol; without one (the paper's No-ACID
    configuration) commit just writes through.
    """

    def __init__(
        self,
        file: VfsFile,
        page_size: int = 4096,
        journal_file: Optional[VfsFile] = None,
        pool: Optional[BufferPool] = None,
    ) -> None:
        if page_size < 512:
            raise SqlError("page size must be at least 512 bytes")
        self.file = file
        self.page_size = page_size
        self.journal = (
            RollbackJournal(journal_file, page_size) if journal_file is not None else None
        )
        self.pool = pool if pool is not None else _SHARED_POOL
        self._owner = next(_OWNER_IDS)
        # A dead pager's clean pages would otherwise sit in the shared pool
        # until live pagers' pages push them out.
        weakref.finalize(self, self.pool.drop_owner, self._owner)
        self._dirty: dict[int, bytes] = {}  # pinned until flush
        self._nodes: dict[int, object] = {}  # parsed b-tree nodes, by page
        self.in_transaction = False
        self.page_count = 0
        self.freelist_head = 0
        self.schema_root = 0
        self.schema_version = 0
        self.commits = 0
        self.rollbacks = 0
        self.pages_written = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self._open()

    # -- open / recover ----------------------------------------------------------

    def _open(self) -> None:
        if self.journal is not None:
            self._recover_if_needed()
        raw = self.file.read(0, _HEADER.size)
        # A sparse state-region file reports size 0 until written, and a
        # fresh region is all zeroes — either way, initialize; any other
        # content must carry the magic.
        if len(raw) < _HEADER.size or raw == bytes(_HEADER.size):
            self.page_count = 1
            self._write_header_to_cache()
            self._flush_all()
            return
        magic, page_size, count, freelist, schema_root, version = _HEADER.unpack(raw)
        if magic != _DB_MAGIC:
            raise SqlError("not a repro database file")
        if page_size != self.page_size:
            raise SqlError(
                f"page size mismatch: file has {page_size}, pager opened with "
                f"{self.page_size}"
            )
        self.page_count = count
        self.freelist_head = freelist
        self.schema_root = schema_root
        self.schema_version = version

    def _recover_if_needed(self) -> None:
        """Roll back a transaction interrupted by a crash.

        "An uncommitted transaction will be rolled back on the next
        attempt to access the database file" — the paper's durability
        argument for the SQLite approach.
        """
        entries = self.journal.entries()
        if not entries:
            return
        for page_no, original in entries:
            self.file.write(page_no * self.page_size, original)
        self.file.sync()
        self.journal.invalidate()
        self.recovered = True

    # -- header ------------------------------------------------------------------

    def _header_bytes(self) -> bytes:
        raw = _HEADER.pack(
            _DB_MAGIC,
            self.page_size,
            self.page_count,
            self.freelist_head,
            self.schema_root,
            self.schema_version,
        )
        return raw + bytes(self.page_size - len(raw))

    def _write_header_to_cache(self) -> None:
        self._journal_original(HEADER_PAGE)
        self._dirty[HEADER_PAGE] = self._header_bytes()
        self.pool.discard(self._owner, HEADER_PAGE)

    def set_schema_root(self, page_no: int) -> None:
        self.schema_root = page_no
        self._write_header_to_cache()

    def bump_schema_version(self) -> None:
        self.schema_version += 1
        self._write_header_to_cache()

    # -- page access ---------------------------------------------------------------

    def get(self, page_no: int) -> bytes:
        if page_no >= self.page_count or page_no < 0:
            raise SqlError(f"page {page_no} out of range (count {self.page_count})")
        data = self._dirty.get(page_no)
        if data is not None:
            self.cache_hits += 1
            return data
        data = self.pool.get(self._owner, page_no)
        if data is not None:
            self.cache_hits += 1
            return data
        self.cache_misses += 1
        raw = self.file.read(page_no * self.page_size, self.page_size)
        if len(raw) < self.page_size:
            raw = raw + bytes(self.page_size - len(raw))
        self.pool.put(self._owner, page_no, raw)
        return raw

    def put(self, page_no: int, data: bytes) -> None:
        if len(data) != self.page_size:
            raise SqlError(f"page write of {len(data)} bytes != page size")
        if page_no >= self.page_count or page_no < 0:
            raise SqlError(f"page {page_no} out of range")
        self._journal_original(page_no)
        self._dirty[page_no] = data
        self.pool.discard(self._owner, page_no)
        self._nodes.pop(page_no, None)

    def _journal_original(self, page_no: int) -> None:
        if self.journal is None or not self.in_transaction:
            return
        if self.journal.journaled(page_no):
            return
        if page_no >= self._pages_at_begin:
            return  # page did not exist when the transaction began
        # Dirty pages diverge from the file image; the pool only ever
        # holds flushed (= on-file) bytes, so it is a valid source.
        original = None
        if page_no not in self._dirty:
            original = self.pool.get(self._owner, page_no)
        if original is None:
            raw = self.file.read(page_no * self.page_size, self.page_size)
            if len(raw) < self.page_size:
                raw += bytes(self.page_size - len(raw))
            original = raw
        self.journal.record(page_no, original)

    # -- parsed-node cache ----------------------------------------------------------

    def cached_node(self, page_no: int):
        return self._nodes.get(page_no)

    def register_node(self, page_no: int, node: object) -> None:
        if len(self._nodes) >= _NODE_CACHE_CAP:
            self._nodes.clear()
        self._nodes[page_no] = node

    # -- allocation -------------------------------------------------------------------

    def allocate(self) -> int:
        if self.freelist_head:
            page_no = self.freelist_head
            raw = self.get(page_no)
            (next_free,) = _FREELIST_NEXT.unpack_from(raw, 1)
            self.freelist_head = next_free
            self._write_header_to_cache()
            return page_no
        page_no = self.page_count
        self.page_count += 1
        self._dirty[page_no] = bytes(self.page_size)
        self._write_header_to_cache()
        return page_no

    def free(self, page_no: int) -> None:
        raw = bytearray(self.page_size)
        raw[0] = 0xFF  # freelist marker
        _FREELIST_NEXT.pack_into(raw, 1, self.freelist_head)
        self.put(page_no, bytes(raw))
        self.freelist_head = page_no
        self._write_header_to_cache()

    # -- transactions ---------------------------------------------------------------------

    def begin(self) -> None:
        if self.in_transaction:
            raise SqlError("transaction already active")
        self.in_transaction = True
        self._pages_at_begin = self.page_count

    def commit(self) -> None:
        if not self.in_transaction:
            raise SqlError("no active transaction")
        if self._dirty and (max(self._dirty) + 1) * self.page_size > self.file.capacity:
            # Refused before the journal is sealed or a page is written, so
            # the file still holds the last commit.  With a journal the
            # caller rolls back; without one nothing else could drop the
            # transaction's pages.
            if self.journal is None:
                self._drop_transaction()
            raise SqlError("database or disk is full")
        if self.journal is not None:
            self.journal.seal()
        self._flush_all()
        self.file.sync()
        if self.journal is not None:
            self.journal.invalidate()
        self.in_transaction = False
        self.commits += 1

    def rollback(self) -> None:
        if not self.in_transaction:
            raise SqlError("no active transaction")
        if self.journal is None:
            raise SqlError(
                "cannot roll back without a journal (No-ACID mode)"
            )
        journaled = [page_no for page_no, _original in self.journal.entries()]
        for page_no, original in self.journal.entries():
            self.file.write(page_no * self.page_size, original)
        self.journal.invalidate()
        # Journal-aware invalidation: only pages the transaction touched
        # can be stale.  Journaled pages revert on disk; dirty pages were
        # pinned outside the pool (this includes every page allocated
        # after begin()); everything else in the pool still matches the
        # file image and stays warm.
        for page_no in journaled:
            self.pool.discard(self._owner, page_no)
            self._nodes.pop(page_no, None)
        self._drop_transaction()
        self.rollbacks += 1

    def _drop_transaction(self) -> None:
        """Forget the dirty pages and re-read the header from the file."""
        for page_no in self._dirty:
            self._nodes.pop(page_no, None)
        self._dirty.clear()
        raw = self.file.read(0, _HEADER.size)
        _magic, _ps, count, freelist, schema_root, version = _HEADER.unpack(raw)
        self.page_count = count
        self.freelist_head = freelist
        self.schema_root = schema_root
        self.schema_version = version
        self.in_transaction = False

    def _flush_all(self) -> None:
        for page_no in sorted(self._dirty):
            data = self._dirty[page_no]
            self.file.write(page_no * self.page_size, data)
            self.pool.put(self._owner, page_no, data)
            self.pages_written += 1
        self._dirty.clear()

    def crash(self) -> None:
        """Simulation hook: lose all volatile state (cache, open txn)."""
        self.pool.drop_owner(self._owner)
        self._dirty.clear()
        self._nodes.clear()
        self.in_transaction = False
