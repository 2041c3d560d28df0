"""The PBFT client library.

Implements the client side of the protocol as the paper describes it
(section 2.1): one outstanding request at a time; requests go to the
primary unless they are *big* or read-only (then they are multicast);
replies are accepted once f+1 stable or 2f+1 tentative copies match; on
timeout the request is retransmitted to the whole group.  A reply quorum
of digests whose body is the business of a crashed, withholding or deposed
replica is completed by fetching the body from one of the responders.

In MAC mode the client holds one session key per replica and stamps every
request with an authenticator covering the full group.  It also runs the
periodic blind authenticator rebroadcast of section 2.3 so restarted
replicas can re-learn its keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.common.errors import ConfigError
from repro.crypto.mac import MacKey
from repro.net.fabric import Host
from repro.pbft.config import PbftConfig
from repro.pbft.messages import (
    BUSY_OVERSIZED,
    AuthenticatorRefresh,
    BusyReply,
    Reply,
    Request,
    designated_replier,
)
from repro.pbft.node import Envelope, KeyDirectory, Node, replica_address


@dataclass
class PendingOp:
    """Bookkeeping for the single outstanding request."""

    request: Request
    callback: Optional[Callable[[bytes, int], None]]
    sent_at: int
    # Invoked with a reason string if the operation terminates without a
    # result (oversized rejection, workload cancellation).  Session
    # multiplexers (repro.harness.workload) rely on exactly one of
    # callback/fail_callback firing to reclaim the session.
    fail_callback: Optional[Callable[[str], None]] = None
    timer: object = None
    # result digest -> {replica id -> is_tentative}
    votes: dict[bytes, dict[int, bool]] = field(default_factory=dict)
    full_result: dict[bytes, bytes] = field(default_factory=dict)
    # A reply quorum formed on a digest whose body has not arrived: the
    # designated replier's full reply is late, lost, or never coming.
    awaiting_body: bool = False
    retransmits: int = 0
    # Consecutive BUSY replies absorbed for this request: drives the
    # busy-backoff schedule, separate from the loss-retransmit counter.
    busy_count: int = 0
    # Replicas that rejected this request as oversized; f+1 distinct
    # senders prove at least one correct replica did, and the operation
    # fails permanently instead of retrying forever.
    oversized_from: set[int] = field(default_factory=set)
    # Signed requests (join phase 2) are signature-authenticated because no
    # session keys exist at the replicas yet.
    signed: bool = False


class PbftClient(Node):
    """A client endpoint; supports static and (via join) dynamic membership."""

    def __init__(
        self,
        client_id: int,
        config: PbftConfig,
        host: Host,
        port: int,
        keys: KeyDirectory,
        real_crypto: bool = True,
        obs=None,
    ) -> None:
        super().__init__(
            config, host, port, keys, "client", client_id, real_crypto, obs=obs
        )
        self.view_guess = 0
        self.next_req_id = 0
        self.pending: Optional[PendingOp] = None
        self.joined = not config.dynamic_clients
        self.join_state = None  # managed by repro.membership.joiner
        self.completed_ops = 0
        self.failed_ops = 0
        self.retransmissions = 0
        # Replicas not expected to deliver the reply bodies they are
        # designated for: one that left a request at its retransmit timeout
        # with a digest quorum and no body (crashed, or withholding), and
        # the primaries the group deposed.  A full reply clears its sender.
        # Requests whose designated replier is listed fetch their body
        # from a responder instead of waiting out the timer; the set is
        # empty, and nothing extra is ever sent, in a fault-free run.
        self.suspects: set[int] = set()
        self.full_reply_fetches = 0
        self.latencies_ns: list[int] = []
        prefix = config.group_prefix
        self.stats = self.obs.registry.view(f"{prefix}client{client_id}.")
        # One latency histogram shared by every client on the registry
        # (per group in sharded deployments).
        self._latency_hist = self.obs.registry.histogram(f"{prefix}client.latency_ns")
        self._track = f"{prefix}client{client_id}"
        self._refresh_timer = None
        if config.use_macs:
            self._start_authenticator_rebroadcast()

    # -- session keys ------------------------------------------------------------

    def generate_session_keys(self, rng) -> dict[int, MacKey]:
        """Create one session key per replica and remember them."""
        keys = {rid: MacKey.generate(rng) for rid in range(self.config.n)}
        for rid, key in keys.items():
            self.install_session_key("replica", rid, key)
        return keys

    def _start_authenticator_rebroadcast(self) -> None:
        self._refresh_timer = self.host.sim.schedule(
            self.config.authenticator_rebroadcast_ns, self._rebroadcast_authenticators
        )

    def _rebroadcast_authenticators(self) -> None:
        self._refresh_timer = None
        key_entries = tuple(
            (rid, key.key)
            for (kind, rid), key in sorted(self.session_keys.items())
            if kind == "replica"
        )
        if key_entries and self.joined:
            msg = AuthenticatorRefresh(client=self.node_id, keys=key_entries)
            # Signed so a replica with no session key can still trust it.
            for rid in range(self.n):
                self.send_signed(replica_address(rid, self.group_prefix), msg)
        self._start_authenticator_rebroadcast()

    # -- invoking operations ------------------------------------------------------------

    @property
    def busy(self) -> bool:
        return self.pending is not None

    def invoke(
        self,
        op: bytes,
        readonly: bool = False,
        callback: Optional[Callable[[bytes, int], None]] = None,
        on_fail: Optional[Callable[[str], None]] = None,
    ) -> Request:
        """Submit one operation; at most one may be outstanding.

        ``on_fail`` is called with a reason string if the operation
        terminates without a result instead of completing.
        """
        if self.pending is not None:
            raise ConfigError(f"client {self.node_id} already has a request in flight")
        if not self.joined:
            raise ConfigError(f"client {self.node_id} has not joined the service yet")
        self.next_req_id += 1
        request = Request(
            client=self.node_id,
            req_id=self.next_req_id,
            op=op,
            readonly=readonly,
            big=self.config.is_big(len(op)),
        )
        self.pending = PendingOp(
            request=request, callback=callback, sent_at=self.host.sim.now,
            fail_callback=on_fail,
        )
        if self.tracer.enabled:
            self.tracer.mark((self.node_id, request.req_id), "invoke", self._track)
        self._transmit(first=True)
        return request

    def _transmit(self, first: bool) -> None:
        pending = self.pending
        if pending is None:
            return
        request = pending.request
        if pending.signed:
            for rid in range(self.n):
                self.send_signed(replica_address(rid, self.group_prefix), request)
        elif request.big or request.readonly or not first:
            # Big and read-only requests are always multicast; ordinary
            # requests are multicast on retransmission so backups start
            # their view-change timers.
            self.broadcast_to_replicas(request)
        else:
            primary = self.view_guess % self.n
            self.broadcast_to_replicas(request, only=[primary])
        pending.timer = self.host.sim.schedule(
            self._retransmit_interval_ns(pending.retransmits),
            self._on_retransmit_timeout,
        )

    def _retransmit_interval_ns(self, retransmits: int) -> int:
        """Exponential backoff: double per retransmission, capped.

        A fixed interval floods the group exactly when it is least able
        to absorb the load — during a long view change every waiting
        client multicasts on every tick.  The counter lives on the
        PendingOp, so completing a request naturally resets the backoff.
        """
        base = self.config.client_retransmit_ns
        cap = self.config.client_retransmit_cap_ns
        shift = min(retransmits, 32)  # avoid giant ints before the cap
        return min(base << shift, cap)

    def _on_retransmit_timeout(self) -> None:
        pending = self.pending
        if pending is None:
            return
        pending.retransmits += 1
        self.retransmissions += 1
        self.stats.inc("retransmissions")
        if pending.awaiting_body:
            self.suspects.add(designated_replier(pending.request, self.n))
        if self.tracer.enabled:
            self.tracer.event(
                self._track, "retransmit", cat="client",
                args={"req_id": pending.request.req_id},
            )
        self._transmit(first=False)

    # -- replies ------------------------------------------------------------------------

    def dispatch(self, env: Envelope) -> None:
        msg = env.msg
        if isinstance(msg, Reply):
            self.on_reply(msg, env)
        elif isinstance(msg, BusyReply):
            self.on_busy(msg, env)
        elif self.join_state is not None:
            self.join_state.dispatch(env)

    # -- backpressure -------------------------------------------------------------------

    def on_busy(self, msg: BusyReply, env: Envelope = None) -> None:
        """An explicit overload rejection from a replica.

        BUSY is advisory for timing: a forged one merely delays a single
        retransmission, so any sender is honored for backoff.  The
        exception is the oversized verdict, which would abort the
        operation — that needs f+1 distinct replicas to agree.
        """
        pending = self.pending
        if (
            pending is None
            or msg.req_id != pending.request.req_id
            or msg.client != self.node_id
        ):
            return
        self.stats.inc("busy_received")
        if msg.view > self.view_guess:
            self._advance_view(msg.view)
        if msg.reason == BUSY_OVERSIZED:
            pending.oversized_from.add(msg.sender)
            if len(pending.oversized_from) >= self.config.weak_quorum:
                self._fail_pending("oversized")
            return
        pending.busy_count += 1
        if pending.timer is not None:
            pending.timer.cancel()
        delay = self._busy_backoff_ns(pending, msg.retry_after_ns)
        pending.timer = self.host.sim.schedule(delay, self._on_busy_timeout)
        if self.tracer.enabled:
            self.tracer.event(
                self._track, "busy-backoff", cat="client",
                args={"req_id": msg.req_id, "reason": msg.reason,
                      "delay_ns": delay},
            )

    def _busy_backoff_ns(self, pending: PendingOp, retry_after_ns: int) -> int:
        """Jittered exponential backoff after a BUSY reply.

        Doubles per consecutive BUSY (floored by the replica's retry-after
        hint, capped by config) with a deterministic +/-25% jitter derived
        from (client, request, attempt) — so shed clients spread out
        instead of thundering back in lock-step, and identical runs make
        identical choices.
        """
        base = self.config.client_busy_backoff_ns
        cap = self.config.client_busy_backoff_cap_ns
        shift = min(pending.busy_count - 1, 32)
        interval = max(retry_after_ns, min(base << shift, cap))
        x = (
            self.node_id * 2654435761
            + pending.request.req_id * 40503
            + pending.busy_count * 69069
        ) & 0xFFFFFFFF
        x ^= x >> 16
        x = (x * 2246822519) & 0xFFFFFFFF
        x ^= x >> 13
        jitter = (x % 1001) / 1000.0 - 0.5  # in [-0.5, 0.5]
        return max(1, int(interval * (1.0 + 0.5 * jitter)))

    def _on_busy_timeout(self) -> None:
        pending = self.pending
        if pending is None:
            return
        self.stats.inc("busy_retries")
        # The replica that said BUSY is alive — retry toward the primary
        # on the first-transmission path (big/read-only requests still
        # multicast) and let the ordinary loss-retransmit timer take over
        # from there.
        self._transmit(first=True)

    def _fail_pending(self, reason: str) -> None:
        pending = self.pending
        if pending is None:
            return
        if pending.timer is not None:
            pending.timer.cancel()
        self.pending = None
        self.failed_ops += 1
        self.stats.inc("failed_ops")
        self.stats.inc(f"rejected_{reason}")
        if self.tracer.enabled:
            self.tracer.event(
                self._track, f"rejected-{reason}", cat="client",
                args={"req_id": pending.request.req_id},
            )
        if pending.fail_callback is not None:
            pending.fail_callback(reason)

    def on_reply(self, reply: Reply, env: Envelope = None) -> None:
        pending = self.pending
        if pending is None or reply.req_id != pending.request.req_id:
            return
        if reply.client != self.node_id:
            return
        digest = reply.result_digest
        votes = pending.votes.setdefault(digest, {})
        # A stable reply supersedes a tentative one from the same replica.
        if not votes.get(reply.sender, True) and reply.tentative:
            pass
        else:
            votes[reply.sender] = reply.tentative
        if not reply.digest_only:
            pending.full_result[digest] = reply.result
            if self.suspects:
                self.suspects.discard(reply.sender)
        if reply.view > self.view_guess:
            self._advance_view(reply.view)
        self._check_quorum(digest)

    def _check_quorum(self, digest: bytes) -> None:
        pending = self.pending
        if pending is None:
            return
        votes = pending.votes.get(digest, {})
        stable = list(votes.values()).count(False)
        total = len(votes)
        if pending.request.readonly:
            done = total >= self.config.quorum
        else:
            done = stable >= self.config.weak_quorum or total >= self.config.quorum
        if not done:
            return
        if digest not in pending.full_result:
            if not pending.awaiting_body:
                pending.awaiting_body = True
                if self.suspects:
                    self._fetch_full_reply(pending, votes)
            return
        result = pending.full_result[digest]
        latency = self.host.sim.now - pending.sent_at
        if pending.timer is not None:
            pending.timer.cancel()
        self.pending = None
        self.completed_ops += 1
        self.latencies_ns.append(latency)
        self.stats.inc("completed_ops")
        self._latency_hist.observe(latency)
        if self.tracer.enabled:
            corr = (self.node_id, pending.request.req_id)
            self.tracer.mark(corr, "done", self._track)
            self.tracer.complete(
                self._track, "request", pending.sent_at, self.host.sim.now,
                cat="client", corr=corr,
                args={"retransmits": pending.retransmits,
                      "readonly": pending.request.readonly},
            )
        if pending.callback is not None:
            pending.callback(result, latency)

    def _advance_view(self, view: int) -> None:
        """Adopt a later view.  The group deposed every primary in between,
        which is as good a reason to suspect them as a stall of our own
        (at most the n-1 latest, never the new view's primary)."""
        first = max(self.view_guess, view - self.n + 1)
        self.suspects.update(v % self.n for v in range(first, view))
        self.view_guess = view

    def _fetch_full_reply(self, pending: PendingOp, votes: dict[int, bool]) -> None:
        """Ask one responder for the body a suspect designated replier owes.

        Called once per request, when its reply quorum first forms without
        the body.  If the designated replier is a suspect, waiting for it
        most likely means waiting out the retransmit timer; instead the
        request is re-sent to one replica that already voted, which answers
        an executed request with its cached reply in full.  The target
        rotates over the non-suspect responders so the extra body is not
        always the primary's to send.  The retransmit timer stays armed as
        the fallback.
        """
        request = pending.request
        if designated_replier(request, self.n) not in self.suspects:
            return
        responders = sorted(votes.keys() - self.suspects)
        if not responders:
            return
        target = responders[self.full_reply_fetches % len(responders)]
        self.full_reply_fetches += 1
        self.stats.inc("full_reply_fetches")
        if self.tracer.enabled:
            self.tracer.event(
                self._track, "fetch-full-reply", cat="client",
                args={"req_id": request.req_id, "target": target},
            )
        # (Signed join requests never get here: their replies fit a digest
        # and are always sent whole.)
        self.broadcast_to_replicas(request, only=[target])

    def cancel_pending(self) -> None:
        """Abort the outstanding request (used by workload teardown)."""
        pending = self.pending
        if pending is None:
            return
        if pending.timer is not None:
            pending.timer.cancel()
        self.failed_ops += 1
        self.stats.inc("failed_ops")
        self.pending = None
        if pending.fail_callback is not None:
            pending.fail_callback("cancelled")

    def stop(self) -> None:
        """Quiesce timers so the simulation can drain."""
        self.cancel_pending()
        if self._refresh_timer is not None:
            self._refresh_timer.cancel()
            self._refresh_timer = None
