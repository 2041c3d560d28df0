"""The virtual file system layer (paper section 3.2, Figure 3).

SQLite's VFS is the abstraction the paper hooks to interpose PBFT: "By
hooking into this subsystem, we not only can manage memory mapping and
perform PBFT-required memory modification notifications, but also
re-implement non-deterministic functions, such as system time and random
values, by using the upcalls."

Three file backends:

* :class:`MemoryVfsFile` — plain bytes in memory (tests, No-ACID mode);
* :class:`DiskModel` + :class:`MemoryVfsFile` — a simulated local disk
  that charges fsync latency and supports crash semantics (unsynced
  writes are lost), used for the rollback journal;
* :class:`StateRegionVfsFile` — the database file mapped onto the PBFT
  state region: every write issues the required modify() notification.
  The file is a fixed-size *sparse* region, exactly the paper's answer to
  PBFT needing the state size up front.

:class:`VfsEnvironment` carries the non-determinism hooks: inside a PBFT
execution up-call they return the primary's agreed timestamp and a
deterministic PRNG seeded from it.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.common.errors import SqlError, StateError
from repro.crypto.digests import md5_digest


class VfsFile:
    """Abstract random-access file."""

    #: Bytes the file can ever hold: fixed for a state region, unbounded in memory.
    capacity: float = float("inf")

    def read(self, offset: int, length: int) -> bytes:
        raise NotImplementedError

    def write(self, offset: int, data: bytes) -> None:
        raise NotImplementedError

    def truncate(self, size: int) -> None:
        raise NotImplementedError

    def sync(self) -> None:
        """Durably flush (fsync)."""

    def size(self) -> int:
        raise NotImplementedError


class DiskModel:
    """Cost/crash model shared by the files of one simulated disk.

    ``charge(ns)`` is the hook the PBFT application uses to add simulated
    time; ``sync`` latency dominates the ACID-vs-No-ACID experiment (the
    paper's 534 vs 1155 TPS).
    """

    def __init__(
        self,
        charge: Optional[Callable[[int], None]] = None,
        sync_ns: int = 1_000_000,
        write_ns_per_page: int = 12_000,
    ) -> None:
        self.charge = charge or (lambda ns: None)
        self.sync_ns = sync_ns
        self.write_ns_per_page = write_ns_per_page
        self.syncs = 0
        self.writes = 0
        # Optional observability hook: called as observer(kind, cost_ns)
        # for every disk operation ("sync" or "write").
        self.observer: Optional[Callable[[str, int], None]] = None

    def on_write(self, length: int) -> None:
        self.writes += 1
        self.charge(self.write_ns_per_page)
        if self.observer is not None:
            self.observer("write", self.write_ns_per_page)

    def on_sync(self) -> None:
        self.syncs += 1
        self.charge(self.sync_ns)
        if self.observer is not None:
            self.observer("sync", self.sync_ns)


class MemoryVfsFile(VfsFile):
    """A byte-buffer file with optional disk semantics.

    With a :class:`DiskModel`, writes land in an unsynced overlay;
    :meth:`sync` makes them durable and :meth:`crash` discards whatever
    was not synced — enough to test that the rollback journal really
    delivers the D in ACID.
    """

    def __init__(self, disk: Optional[DiskModel] = None) -> None:
        self._durable = bytearray()
        self._volatile: Optional[bytearray] = None
        self.disk = disk

    def _buffer(self) -> bytearray:
        if self.disk is None:
            return self._durable
        if self._volatile is None:
            self._volatile = bytearray(self._durable)
        return self._volatile

    def read(self, offset: int, length: int) -> bytes:
        buf = self._volatile if self._volatile is not None else self._durable
        return bytes(buf[offset : offset + length])

    def write(self, offset: int, data: bytes) -> None:
        buf = self._buffer()
        end = offset + len(data)
        if end > len(buf):
            buf.extend(b"\0" * (end - len(buf)))
        buf[offset:end] = data
        if self.disk is not None:
            self.disk.on_write(len(data))

    def truncate(self, size: int) -> None:
        buf = self._buffer()
        del buf[size:]

    def sync(self) -> None:
        if self.disk is not None:
            self.disk.on_sync()
            if self._volatile is not None:
                self._durable = bytearray(self._volatile)
                self._volatile = None

    def size(self) -> int:
        buf = self._volatile if self._volatile is not None else self._durable
        return len(buf)

    def crash(self) -> None:
        """Power failure: unsynced writes evaporate."""
        self._volatile = None


class StateRegionVfsFile(VfsFile):
    """The database file mapped into the PBFT state region.

    Reads and writes go straight to the
    :class:`~repro.statemgr.pages.PagedState` application partition, with
    the library's modify() notification issued before every write — the
    exact contract the paper's VFS shim implements.  The "file" is a
    fixed-size sparse region: growth just uses more of it.
    """

    def __init__(self, state, app_offset: int) -> None:
        self.state = state
        self.app_offset = app_offset
        self.capacity = state.size - app_offset
        if self.capacity <= 0:
            raise SqlError("state region leaves no room for a database file")
        self._logical_size = 0

    def read(self, offset: int, length: int) -> bytes:
        self._check(offset, length)
        return self.state.read(self.app_offset + offset, length)

    def write(self, offset: int, data: bytes) -> None:
        self._check(offset, len(data))
        try:
            self.state.modify(self.app_offset + offset, len(data))
            self.state.write(self.app_offset + offset, data)
        except StateError as exc:
            raise SqlError(f"state-region write failed: {exc}") from exc
        self._logical_size = max(self._logical_size, offset + len(data))

    def truncate(self, size: int) -> None:
        # Sparse region: just shrink the logical size; data beyond it is
        # never read back.
        self._logical_size = min(self._logical_size, size)

    def sync(self) -> None:
        """The state region *is* memory; PBFT checkpointing handles
        durability (and the paper notes the database file is synchronized
        with its disk image on commit — modelled by the journal's disk)."""

    def size(self) -> int:
        return self._logical_size

    def _check(self, offset: int, length: int) -> None:
        if offset < 0 or offset + length > self.capacity:
            raise SqlError(
                f"I/O beyond the sparse state file (offset {offset}, "
                f"length {length}, capacity {self.capacity})"
            )


class VfsEnvironment:
    """Non-determinism hooks: time and randomness.

    Outside PBFT these default to a fixed epoch and a zero-seeded PRNG;
    inside a replica, the application sets them per request from the
    pre-prepare's agreed non-determinism data (section 2.5), so every
    replica computes identical "current time" and "random" values.
    """

    def __init__(self) -> None:
        self._now_ns = 0
        self._random_seed = b"\0" * 16
        self._random_counter = 0

    def set_from_nondet(self, now_ns: int, seed: bytes) -> None:
        self._now_ns = now_ns
        self._random_seed = seed
        self._random_counter = 0

    def current_time_ns(self) -> int:
        return self._now_ns

    def random_bytes(self, count: int) -> bytes:
        out = b""
        while len(out) < count:
            block = md5_digest(self._random_seed + self._random_counter.to_bytes(8, "big"))
            self._random_counter += 1
            out += block
        return out[:count]
