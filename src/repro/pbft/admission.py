"""Bounded admission pipeline: overload and Byzantine-client defenses.

The paper's configurations run at or beyond saturation, yet the original
middleware accepts unbounded work: any client — including a Byzantine
flooder — can enqueue arbitrarily many operations, and clients learn
about overload only through timeouts.  This module supplies the replica's
admission layer (see DESIGN.md, "Overload model and graceful
degradation"):

* a per-client in-flight cap enforcing the protocol's "one outstanding
  operation per client" rule at the primary;
* a deterministic load-shedding policy for the bounded batching queue —
  shed the *newest* request of the *heaviest* client, so a flooder sheds
  its own tail before displacing anyone else's work;
* a penalty box that mutes senders after repeated authentication
  failures (invalid-MAC / garbage floods), dropping their packets before
  the (expensive) verification step.

Everything here is deliberately free of replica state: the structures
are plain data keyed by client/sender ids, so the policy is unit-testable
and the shed set is a pure function of arrival order — same seed, same
shed set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.pbft.config import PbftConfig
from repro.pbft.messages import Request

# Verdicts from the per-client in-flight check.
ADMIT = "admit"
# The same (client, req_id) is already admitted to the queue (under a
# different digest — retransmissions of the identical request are caught
# earlier, by the queued-digest check): absorbed without consuming more
# queue space.
DUPLICATE = "duplicate"
# A *different* request while the client already has queued, not-yet-
# ordered work: the client is violating the one-outstanding-op rule;
# dropped with a BUSY reply.
CAPPED = "capped"


def pick_shed_victim(pending: list[Request], arriving: Request) -> Request:
    """The deterministic shedding policy: newest request of the heaviest client.

    The arriving request counts toward its client's load, so a flooder
    whose burst fills the queue sheds its own newest request rather than
    displacing lighter clients.  Ties break toward the higher client id —
    an arbitrary but deterministic choice, so identical arrival histories
    always produce identical shed sets.
    """
    counts: dict[int, int] = {}
    for req in pending:
        counts[req.client] = counts.get(req.client, 0) + 1
    counts[arriving.client] = counts.get(arriving.client, 0) + 1
    heaviest = max(counts, key=lambda c: (counts[c], c))
    if heaviest == arriving.client:
        return arriving
    for req in reversed(pending):
        if req.client == heaviest:
            return req
    return arriving


@dataclass
class _BoxEntry:
    strikes: int
    window_start: int
    muted_until: int


class PenaltyBox:
    """Mutes senders that keep failing authentication.

    ``threshold`` failures within one ``duration_ns`` window mute the
    sender for ``duration_ns``; while muted, its packets are dropped for
    the cost of a header peek instead of a full MAC/signature check.
    Entries are forgotten once a mute expires, so a sender that stops
    misbehaving starts from a clean slate.
    """

    def __init__(self, threshold: int, duration_ns: int) -> None:
        self.threshold = threshold
        self.duration_ns = duration_ns
        self.entries: dict[tuple[str, int], _BoxEntry] = {}

    def strike(self, key: tuple[str, int], now: int) -> bool:
        """Record an auth failure; returns True if the sender was just muted."""
        entry = self.entries.get(key)
        if entry is None:
            entry = self.entries[key] = _BoxEntry(0, now, 0)
        if now - entry.window_start > self.duration_ns:
            entry.strikes = 0
            entry.window_start = now
        entry.strikes += 1
        if entry.strikes >= self.threshold and entry.muted_until <= now:
            if self.duration_ns <= 0:
                return False
            entry.muted_until = now + self.duration_ns
            entry.strikes = 0
            return True
        return False

    def muted(self, key: tuple[str, int], now: int) -> bool:
        entry = self.entries.get(key)
        if entry is None:
            return False
        if entry.muted_until and entry.muted_until <= now:
            del self.entries[key]
            return False
        return entry.muted_until > now


class AdmissionControl:
    """Per-replica admission state: in-flight tracking and the penalty box."""

    def __init__(self, config: PbftConfig) -> None:
        self.config = config
        # client id -> req_ids admitted to the batching queue but not yet
        # assigned a sequence number; released at pre-prepare issuance.
        self.inflight: dict[int, set[int]] = {}
        self.penalty = PenaltyBox(
            config.penalty_box_threshold, config.penalty_box_ns
        )

    def inflight_verdict(self, req: Request) -> str:
        cap = self.config.max_client_inflight
        if cap <= 0:
            return ADMIT
        admitted = self.inflight.get(req.client)
        if not admitted:
            return ADMIT
        if req.req_id in admitted:
            return DUPLICATE
        if len(admitted) >= cap:
            return CAPPED
        return ADMIT

    def note_inflight(self, req: Request) -> None:
        if self.config.max_client_inflight <= 0:
            return
        self.inflight.setdefault(req.client, set()).add(req.req_id)

    def release(self, client: int, req_id: int) -> None:
        admitted = self.inflight.get(client)
        if admitted is None:
            return
        admitted.discard(req_id)
        if not admitted:
            del self.inflight[client]

    def reset_inflight(self) -> None:
        """Forget all in-flight bookkeeping (view entry, restart).

        At-most-once execution is still guaranteed by the request store;
        the cap is an overload defense, so after a reset it is simply
        re-learned from the rebuilt queue.
        """
        self.inflight.clear()

    def retry_hint_ns(self, queue_depth: int, budget: Optional[int]) -> int:
        """Retry-after hint scaled by queue pressure at rejection time."""
        base = self.config.busy_retry_hint_ns
        if not budget or budget <= 0:
            return base
        return base * max(1, (queue_depth + budget - 1) // budget)
