"""The replica's message log: slots, certificates, watermarks, GC.

A *slot* tracks one sequence number through the three phases.  A batch is
*prepared* when the replica holds the pre-prepare plus 2f matching prepares
from distinct backups; *committed-local* when additionally 2f+1 commits
match (paper section 2.1).  Slots live between the low watermark (the last
stable checkpoint) and low + log window; stabilizing a checkpoint garbage
collects everything at or below it.
"""

from __future__ import annotations

from typing import Optional

from repro.common.errors import ProtocolError
from repro.pbft.messages import PrePrepare, Reply, Request


class ViewSlot:
    """Per-(seq, view) certificate state.

    Votes go in through :meth:`add_prepare` / :meth:`add_commit` and the
    pre-prepare through :meth:`accept`, which keep the matching-vote counts
    current, so the per-message ``prepared`` / ``committed_local`` checks
    are O(1) instead of a pass over the votes.
    """

    __slots__ = (
        "pre_prepare", "prepares", "commits", "matching_prepares", "matching_commits",
    )

    def __init__(self) -> None:
        self.pre_prepare: Optional[PrePrepare] = None
        self.prepares: dict[int, bytes] = {}  # replica -> digest
        self.commits: dict[int, bytes] = {}
        # Votes whose digest equals the pre-prepare's (0 until it arrives).
        self.matching_prepares = 0
        self.matching_commits = 0

    def accept(self, pre_prepare: PrePrepare) -> None:
        """Install the pre-prepare; votes that beat it here count now."""
        self.pre_prepare = pre_prepare
        want = pre_prepare.batch_digest
        self.matching_prepares = sum(1 for d in self.prepares.values() if d == want)
        self.matching_commits = sum(1 for d in self.commits.values() if d == want)

    def add_prepare(self, sender: int, digest: bytes) -> None:
        self.matching_prepares += self._vote(self.prepares, sender, digest)

    def add_commit(self, sender: int, digest: bytes) -> None:
        self.matching_commits += self._vote(self.commits, sender, digest)

    def _vote(self, votes: dict[int, bytes], sender: int, digest: bytes) -> int:
        """Record ``sender``'s vote (a later one replaces an earlier one);
        return the change in votes matching the pre-prepare."""
        pp = self.pre_prepare
        delta = 0
        if pp is not None:
            want = pp.batch_digest
            delta = (digest == want) - (votes.get(sender) == want)
        votes[sender] = digest
        return delta


class Slot:
    """All protocol state for one sequence number."""

    __slots__ = ("seq", "views", "executed", "tentative", "committed", "committed_view")

    def __init__(self, seq: int) -> None:
        self.seq = seq
        self.views: dict[int, ViewSlot] = {}
        # Flipped only through MessageLog.set_executed, which keeps the
        # log's count of unexecuted slots.
        self.executed = False
        self.tentative = False  # executed tentatively, commit still pending
        self.committed = False
        self.committed_view = 0

    def view_slot(self, view: int) -> ViewSlot:
        vs = self.views.get(view)
        if vs is None:
            vs = ViewSlot()
            self.views[view] = vs
        return vs

    def pre_prepare_in(self, view: int) -> Optional[PrePrepare]:
        vs = self.views.get(view)
        return vs.pre_prepare if vs else None

    def prepared(self, view: int, f: int) -> bool:
        vs = self.views.get(view)
        # The primary's pre-prepare counts as its prepare.
        return (
            vs is not None
            and vs.pre_prepare is not None
            and vs.matching_prepares >= 2 * f
        )

    def committed_local(self, view: int, f: int) -> bool:
        return self.prepared(view, f) and self.views[view].matching_commits >= 2 * f + 1

    def latest_prepared_proof(self, f: int) -> Optional[tuple[int, bytes]]:
        """(view, batch digest) of the highest view in which this slot
        prepared — the P-set entry for view changes."""
        best = None
        for view in sorted(self.views):
            if self.prepared(view, f):
                best = (view, self.views[view].pre_prepare.batch_digest)
        return best


class RequestStore:
    """Request bodies by digest, plus per-client execution bookkeeping.

    ``last_reply`` caches each client's last reply for retransmissions.  A
    reply produced by tentative execution carries ``tentative=True`` until
    a quorum proof (commit certificate, stable checkpoint, committed
    replay) shows its execution final.  The proof only *records* the reply
    in ``proven``; the stable copy is built when someone looks —
    :meth:`cached_reply` for a resend, :meth:`stabilize_proven` for a
    checkpoint — so a reply that is superseded before anyone asks for it
    again is never copied.  ``proven`` holds the very object the proof
    covered: a newer reply for the same client is a different object and
    stays as it is.
    """

    def __init__(self) -> None:
        self.by_digest: dict[bytes, Request] = {}
        self.last_executed_req: dict[int, int] = {}  # client -> req_id
        self.last_reply: dict[int, Reply] = {}  # client -> Reply
        self.proven: dict[int, Reply] = {}  # client -> tentative reply proven final
        self.last_active: dict[int, int] = {}  # client -> primary-timestamp
        # client -> req_id of the last read-only request answered; those
        # execute unordered and leave no other trace here.
        self.last_readonly: dict[int, int] = {}

    def add(self, request: Request) -> None:
        self.by_digest.setdefault(request.digest, request)

    def get(self, digest: bytes) -> Optional[Request]:
        return self.by_digest.get(digest)

    def already_executed(self, request: Request) -> bool:
        return self.last_executed_req.get(request.client, -1) >= request.req_id

    def held_for(self, client: int, digests) -> list[bytes]:
        """Those of ``digests`` whose stored body belongs to ``client``."""
        by_digest = self.by_digest
        return [
            d for d in digests
            if (req := by_digest.get(d)) is not None and req.client == client
        ]

    def executed_among(self, digests) -> set[bytes]:
        """Those of ``digests`` whose stored body has already executed."""
        by_digest, marks = self.by_digest, self.last_executed_req
        return {
            d for d in digests
            if (req := by_digest.get(d)) is not None
            and marks.get(req.client, -1) >= req.req_id
        }

    def record_execution(self, request: Request, reply: Reply, timestamp: int) -> None:
        self.last_executed_req[request.client] = request.req_id
        self.last_reply[request.client] = reply
        self.last_active[request.client] = timestamp

    def prove(self, requests) -> None:
        """A quorum proof shows the execution of ``requests`` final: each
        one's cached reply, if it is still that request's tentative reply,
        is to be answered stable from now on."""
        last_reply, proven = self.last_reply, self.proven
        for request in requests:
            cached = last_reply.get(request.client)
            if cached is not None and cached.req_id == request.req_id and cached.tentative:
                proven[request.client] = cached

    def cached_reply(self, client: int) -> Optional[Reply]:
        """The client's cached reply, stabilized first if it was proven."""
        reply = self.last_reply.get(client)
        if reply is not None and self.proven.pop(client, None) is reply:
            reply = self.last_reply[client] = reply.stabilized()
        return reply

    def stabilize_proven(self) -> None:
        """Stabilize every proven reply still cached (before a checkpoint
        snapshots ``last_reply``)."""
        last_reply = self.last_reply
        for client, reply in self.proven.items():
            if last_reply.get(client) is reply:
                last_reply[client] = reply.stabilized()
        self.proven.clear()

    def restore_replies(self, marks: dict[int, int], replies: dict[int, Reply]) -> None:
        """Adopt a stable checkpoint's client marks and replies.  Its replies
        are final even if they were cached as tentative when it was taken."""
        self.last_executed_req = dict(marks)
        self.last_reply = {client: reply.stabilized() for client, reply in replies.items()}
        self.proven = {}

    def forget_client(self, client: int) -> None:
        self.last_executed_req.pop(client, None)
        self.last_reply.pop(client, None)
        self.proven.pop(client, None)
        self.last_active.pop(client, None)
        self.last_readonly.pop(client, None)

    def gc_digests(self, keep: set[bytes]) -> None:
        """Drop executed bodies not referenced by any live slot.

        Bodies that have not executed yet are always kept: they may be
        pending at the primary or waiting for a pre-prepare at a backup,
        and dropping them would wedge execution when their batch arrives.
        """
        for digest in [d for d in self.by_digest if d not in keep]:
            if self.already_executed(self.by_digest[digest]):
                del self.by_digest[digest]


class MessageLog:
    """Slots between the watermarks, with checkpoint-driven GC."""

    def __init__(self, log_window: int) -> None:
        self.log_window = log_window
        self.low_watermark = 0  # last stable checkpoint seq
        self.slots: dict[int, Slot] = {}
        # Slots in the log that have not executed: outstanding work.
        self.unexecuted = 0

    @property
    def high_watermark(self) -> int:
        return self.low_watermark + self.log_window

    def in_window(self, seq: int) -> bool:
        return self.low_watermark < seq <= self.high_watermark

    def slot(self, seq: int) -> Slot:
        if not self.in_window(seq):
            raise ProtocolError(
                f"seq {seq} outside watermarks ({self.low_watermark}, "
                f"{self.high_watermark}]"
            )
        entry = self.slots.get(seq)
        if entry is None:
            entry = Slot(seq)
            self.slots[seq] = entry
            self.unexecuted += 1
        return entry

    def open(self, seq: int, view: int) -> Optional[tuple[Slot, ViewSlot]]:
        """The slot and view slot an agreement message for ``(seq, view)``
        lands in, created on first use; None when ``seq`` lies outside the
        watermarks and the message is to be dropped.

        The per-message form of :meth:`in_window` + :meth:`slot` +
        :meth:`Slot.view_slot`: one call, the watermark tested inline.
        """
        low = self.low_watermark
        if not low < seq <= low + self.log_window:
            return None
        slot = self.slots.get(seq)
        if slot is None:
            slot = self.slot(seq)
        vs = slot.views.get(view)
        if vs is None:
            vs = slot.view_slot(view)
        return slot, vs

    def set_executed(self, slot: Slot, executed: bool) -> None:
        """Flip a live slot's ``executed`` flag, keeping :attr:`unexecuted`."""
        if slot.executed != executed:
            slot.executed = executed
            self.unexecuted += -1 if executed else 1

    def peek(self, seq: int) -> Optional[Slot]:
        return self.slots.get(seq)

    def advance_stable(self, seq: int) -> None:
        """Move the low watermark to a newly stable checkpoint and GC."""
        if seq <= self.low_watermark:
            return
        self.low_watermark = seq
        for old in [s for s in self.slots if s <= seq]:
            if not self.slots.pop(old).executed:
                self.unexecuted -= 1

    def live_request_digests(self) -> set[bytes]:
        digests: set[bytes] = set()
        for slot in self.slots.values():
            for vs in slot.views.values():
                if vs.pre_prepare is not None:
                    digests.update(vs.pre_prepare.request_digests)
        return digests

    def prepared_proofs(self, f: int) -> list[tuple[int, int, "PrePrepare"]]:
        """(seq, view, pre-prepare) for every slot prepared above the
        watermark — the contents a view change must carry forward."""
        proofs = []
        for seq in sorted(self.slots):
            slot = self.slots[seq]
            proof = slot.latest_prepared_proof(f)
            if proof is not None:
                view = proof[0]
                proofs.append((seq, view, slot.views[view].pre_prepare))
        return proofs
