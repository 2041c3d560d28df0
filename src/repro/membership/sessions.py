"""Per-session state — the paper's section 3.3.2 proposal, implemented.

"The current implementation of the PBFT protocol purposely ignores the
notion of client-specific state. ... With our addition of application
level sign-on messages to the protocol, resulting in identification of
specific sessions, a library-level subsystem can be developed that will
map parts of the state to a specific session.  This would enable easier
porting of stateful applications to the BFT world."

:class:`SessionStateManager` gives each joined client a fixed-size slot
inside the *library partition* of the replicated state region: written
during request execution (so it is totally ordered and deterministic),
checkpointed and transferred with everything else, and wiped when the
session ends (Leave, termination by a new session, or stale-session GC).
"""

from __future__ import annotations

import struct

from repro.common.errors import StateError
from repro.pbft.config import LIBRARY_PAGES

_SLOT_HEADER = struct.Struct(">H")  # used length
SLOT_BYTES = 128  # state bytes per session
STRIDE = _SLOT_HEADER.size + SLOT_BYTES


class SessionStateManager:
    """Fixed-size per-session slots in the library partition."""

    def __init__(self, replica, base_offset: int) -> None:
        self.replica = replica
        self.base_offset = base_offset
        self.capacity = replica.config.max_node_entries
        needed = base_offset + self.capacity * STRIDE
        available = LIBRARY_PAGES * replica.config.page_size
        if needed > available:
            raise StateError(
                f"session state needs {needed} library bytes, "
                f"partition has {available}"
            )

    def _offset_for(self, client_id: int) -> int:
        membership = self.replica.membership
        if membership is None or client_id not in membership.redirection:
            raise StateError(f"client {client_id} has no live session")
        slot = membership.redirection[client_id]
        return self.base_offset + slot * STRIDE

    # -- the application-facing API -------------------------------------------

    def read(self, client_id: int) -> bytes:
        """The session's stored state (empty bytes if never written)."""
        offset = self._offset_for(client_id)
        state = self.replica.state
        (length,) = _SLOT_HEADER.unpack(state.read(offset, _SLOT_HEADER.size))
        if length == 0 or length > SLOT_BYTES:
            return b""
        return state.read(offset + _SLOT_HEADER.size, length)

    def write(self, client_id: int, data: bytes) -> None:
        """Store session state; must run inside request execution so every
        replica applies the identical write."""
        if len(data) > SLOT_BYTES:
            raise StateError(
                f"session state of {len(data)} bytes exceeds the "
                f"{SLOT_BYTES}-byte slot"
            )
        offset = self._offset_for(client_id)
        state = self.replica.state
        state.modify(offset, STRIDE)
        state.write(offset, _SLOT_HEADER.pack(len(data)) + data)

    # -- lifecycle hooks (called by the membership manager) ----------------------

    def wipe_slot(self, slot: int) -> None:
        """Session ended: its state must not leak to the slot's next owner."""
        offset = self.base_offset + slot * STRIDE
        state = self.replica.state
        state.modify(offset, STRIDE)
        state.write(offset, bytes(STRIDE))
