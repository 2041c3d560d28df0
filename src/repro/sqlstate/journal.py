"""The rollback journal — ACID's backbone (paper section 3.2).

Before a page is modified for the first time in a transaction, its
original image is appended to the journal file.  Commit is the classic
two-step dance: sync the journal (point of no return for rollback), write
the database pages, sync the database, then invalidate the journal.  A
crash at any point either finds a valid journal (roll the pre-images
back) or an invalidated one (the transaction is durable) — never a
half-committed database.

The paper keeps the journal on *local disk* rather than in the PBFT state
region: "it allows the engine to recover in the case of system failure and
it is not actually part of the application state."
"""

from __future__ import annotations

import struct

from repro.sqlstate.vfs import VfsFile

_MAGIC = b"RJRNL\x01\x00\x00"
_HEADER = struct.Struct(">8sII")  # magic, page_size, page_count
_ENTRY_HEAD = struct.Struct(">I")  # page number


class RollbackJournal:
    """Pre-image log for one database file."""

    def __init__(self, file: VfsFile, page_size: int) -> None:
        self.file = file
        self.page_size = page_size
        self._journaled: set[int] = set()
        self._count = 0
        self.pages_journaled_total = 0

    @property
    def active(self) -> bool:
        return bool(self._journaled)

    def journaled(self, page_no: int) -> bool:
        return page_no in self._journaled

    def record(self, page_no: int, original: bytes) -> None:
        """Append one pre-image (first modification of the page this txn)."""
        if page_no in self._journaled:
            return
        if self._count == 0:
            self.file.write(0, _HEADER.pack(_MAGIC, self.page_size, 0))
        offset = _HEADER.size + self._count * (_ENTRY_HEAD.size + self.page_size)
        self.file.write(offset, _ENTRY_HEAD.pack(page_no) + original)
        self._count += 1
        self._journaled.add(page_no)
        self.pages_journaled_total += 1

    def seal(self) -> None:
        """Finalize the header and fsync: after this, rollback is possible
        even across a power failure."""
        if self._count == 0:
            return
        self.file.write(0, _HEADER.pack(_MAGIC, self.page_size, self._count))
        self.file.sync()

    def invalidate(self) -> None:
        """Commit completed: the journal no longer applies."""
        self.file.truncate(0)
        self.file.sync()
        self._journaled.clear()
        self._count = 0

    def entries(self) -> list[tuple[int, bytes]]:
        """Read back all pre-images (rollback and crash recovery)."""
        if self.file.size() < _HEADER.size:
            return []
        magic, page_size, count = _HEADER.unpack(self.file.read(0, _HEADER.size))
        if magic != _MAGIC or page_size != self.page_size:
            return []
        out = []
        entry_size = _ENTRY_HEAD.size + self.page_size
        for i in range(count):
            offset = _HEADER.size + i * entry_size
            raw = self.file.read(offset, entry_size)
            if len(raw) < entry_size:
                break  # torn tail: the header count said more than was synced
            (page_no,) = _ENTRY_HEAD.unpack_from(raw)
            out.append((page_no, raw[_ENTRY_HEAD.size :]))
        return out
