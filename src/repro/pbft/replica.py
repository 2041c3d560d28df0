"""The PBFT replica: the three-phase agreement state machine.

One :class:`Replica` is one member of the 3f+1 group.  The primary of view
``v`` is replica ``v mod n``; it sequences client requests into batches
behind a congestion window.  Backups monitor it and fall back to view
changes (:mod:`repro.pbft.viewchange`); restart and catch-up live in
:mod:`repro.pbft.recovery`.

Applications plug in through the up-call interface the original library
defined (paper sections 2.1 and 3.2): an ``execute`` up-call over a shared
:class:`~repro.statemgr.pages.PagedState` region, plus the BASE-style
non-determinism up-calls.
"""

from __future__ import annotations

from typing import Optional

from repro.common.errors import ProtocolError
from repro.crypto.digests import DIGEST_SIZE, md5_digest
from repro.net.fabric import Address, Host
from repro.pbft.admission import (
    ADMIT,
    CAPPED,
    DUPLICATE,
    AdmissionControl,
    pick_shed_victim,
)
from repro.pbft.config import PbftConfig
from repro.pbft.log import Slot, ViewSlot
from repro.pbft.messages import (
    BUSY_INFLIGHT,
    BUSY_OVERSIZED,
    BUSY_SHED,
    SYS_RECONFIG,
    SYSTEM_OP_PREFIX,
    AuthenticatorRefresh,
    BatchRetransmit,
    BusyReply,
    CheckpointMsg,
    Commit,
    DigestsMsg,
    FetchDigestsMsg,
    FetchPagesMsg,
    NewViewMsg,
    PagesMsg,
    PrePrepare,
    Prepare,
    Reply,
    Request,
    StatusMsg,
    ViewChangeMsg,
    designated_replier,
)
from repro.pbft.node import Envelope, KeyDirectory, Node, REPLICA_PORT, replica_address
from repro.pbft.nondet import (
    AcceptAllValidator,
    TimestampProvider,
    decode_timestamp,
)
from repro.pbft.reconfig import ReconfigManager
from repro.pbft.recovery import RecoveryMixin
from repro.pbft.viewchange import ViewChangeMixin
from repro.statemgr.checkpoints import Checkpoint, CheckpointStore
from repro.statemgr.pages import PagedState
from repro.crypto.mac import MacKey

# The reply to an ordered operation whose bytes no executor could decode.
REPLY_MALFORMED_OP = b"\x00ERR malformed op"


class Application:
    """The up-call interface an application implements (paper section 3.2)."""

    def bind_state(self, state: PagedState, app_offset: int) -> None:
        """Receive the shared state region; the application owns
        ``[app_offset, state.size)`` and must not touch the library pages."""

    def execute(self, op: bytes, client_id: int, nondet_ts: int, readonly: bool) -> bytes:
        """Execute one operation deterministically and return the reply."""
        raise NotImplementedError

    def attach_obs(self, obs, track: str) -> None:
        """Receive the deployment's observability handle (metrics registry
        plus tracer) and the host track name to record under.  Optional;
        applications that emit no metrics or trace events ignore it."""

    def execute_cost_ns(self, op: bytes, readonly: bool) -> int:
        """Simulated CPU cost of executing ``op``, known up front."""
        return 0

    def take_accumulated_cost(self) -> int:
        """Simulated CPU/disk cost accrued *during* the last execution
        (returned once, then reset).  Used by applications whose cost
        depends on what the operation actually did (e.g. SQL)."""
        return 0

    def authorize_join(self, idbuf: bytes) -> Optional[int]:
        """Dynamic membership: authorize a join and return a principal id
        (e.g. a user id), or None to refuse (paper section 3.1)."""
        return None

    def on_state_installed(self) -> None:
        """Called after state transfer or rollback replaced the pages."""


class NullApplication(Application):
    """The paper's benchmark application: null requests, sized replies.

    To keep checkpoints meaningful it still dirties one state page per
    request (a rolling execution counter), like the no-op service the
    original benchmarks shipped.
    """

    def __init__(self, reply_size: int = 1024, execute_cost_ns: int = 2_000) -> None:
        self.reply_size = reply_size
        # One immutable buffer for every reply: bytes cannot be changed by
        # whoever receives them, so there is nothing to copy per execution.
        self._reply = bytes(reply_size)
        self._execute_cost_ns = execute_cost_ns
        self.state: Optional[PagedState] = None
        self.app_offset = 0
        self.executed = 0

    def bind_state(self, state: PagedState, app_offset: int) -> None:
        self.state = state
        self.app_offset = app_offset

    def authorize_join(self, idbuf: bytes) -> Optional[int]:
        # The benchmark service admits any non-empty identification buffer;
        # the principal is a digest of it (one session per buffer).
        if not idbuf:
            return None
        return int.from_bytes(md5_digest(idbuf)[:6], "big")

    def execute(self, op: bytes, client_id: int, nondet_ts: int, readonly: bool) -> bytes:
        if not readonly and self.state is not None:
            # The execution counter lives in the replicated state itself
            # (first 8 bytes of the application partition), so a replica
            # that catches up via state transfer continues exactly where
            # the group is — a local attribute would diverge the roots.
            counter = int.from_bytes(self.state.read(self.app_offset, 8), "big") + 1
            self.executed = counter
            self.state.modify(self.app_offset, 8)
            self.state.write(self.app_offset, counter.to_bytes(8, "big"))
            slot_space = self.state.size - self.app_offset - 16
            offset = self.app_offset + 8 + (counter * 8) % max(8, slot_space)
            self.state.modify(offset, 8)
            self.state.write(offset, counter.to_bytes(8, "big"))
        return self._reply

    def execute_cost_ns(self, op: bytes, readonly: bool) -> int:
        return self._execute_cost_ns


class Replica(ViewChangeMixin, RecoveryMixin, Node):
    """One member of the replica group."""

    def __init__(
        self,
        replica_id: int,
        config: PbftConfig,
        host: Host,
        keys: KeyDirectory,
        app: Application,
        nondet_provider=None,
        nondet_validator=None,
        real_crypto: bool = True,
        obs=None,
    ) -> None:
        super().__init__(
            config, host, REPLICA_PORT, keys, "replica", replica_id, real_crypto,
            obs=obs,
        )
        self.app = app
        self.nondet_provider = nondet_provider or TimestampProvider()
        self.nondet_validator = nondet_validator or AcceptAllValidator()

        self.view = 0
        self.pending_new_view = 0
        self.last_exec = 0
        self.committed_upto = 0
        self.next_seq = 0

        self.state = PagedState(config.state_pages, config.page_size)
        # The batching queue; _reset_volatile() below sets the rest of the
        # transient state (paper section 2.3).
        self.pending_requests: list[Request] = []
        self.client_addr: dict[int, Address] = {}
        # Highest view each peer has demonstrably installed (from status,
        # agreement traffic, retransmits, new-views).  Drives view
        # synchronization after restart; views only grow, so the map
        # survives crash/restart cycles.
        self.view_evidence: dict[int, int] = {}
        # Rate limit for stale-view status nudges, per peer.
        self._view_nudges: dict[int, int] = {}

        self.crashed = False
        # Fault injection: an equivocating primary assigns conflicting
        # pre-prepares for the same sequence number (see
        # :meth:`_issue_pre_prepare`).  Harmless on a backup.
        self.equivocate = False
        # Fault injection: answer every request digest-only, the designated
        # ones and retransmissions included — a Byzantine replica sitting
        # on the reply bodies it owes (see :meth:`_send_reply`).
        self.withhold_full_replies = False
        self.recovering = False
        self.recovery_started_at: Optional[int] = None
        self.recovery_completed_at: Optional[int] = None
        self.recovery_target = 0

        self._vc_timer = None
        self._vc_timeout_current = config.view_change_timeout_ns
        self._status_timer = None
        self._gossip_timer = self.host.sim.schedule(
            config.status_interval_ns, self._status_gossip
        )

        self.membership = None  # installed by repro.membership when enabled
        # Typed counters in the shared registry; reads of unset keys are 0
        # and ``inc`` registers the counter on first use.
        self.stats = self.obs.registry.view(
            f"{config.group_prefix}replica{replica_id}."
        )
        # Overload admission pipeline (see repro.pbft.admission): per-client
        # in-flight caps, queue shedding policy, and the penalty box.
        self.admission = AdmissionControl(config)
        self.penalty = self.admission.penalty
        self._depth_gauge = self.obs.registry.gauge(
            f"{config.group_prefix}replica{replica_id}.pending_depth"
        )
        # Dynamic replica membership: epoch state, ordered reconfiguration
        # ops, and the stale-incarnation gate (repro.pbft.reconfig).
        self.reconfig = ReconfigManager(self)

        app.bind_state(self.state, config.library_pages * config.page_size)
        app.attach_obs(self.obs, host.name)
        # The post-bind state is stable checkpoint 0: the durable image a
        # restart or a rollback returns to before any checkpoint is taken.
        self.checkpoints = CheckpointStore(config.quorum, Checkpoint(
            seq=0, root=self.state.root, pages=self.state.snapshot_pages(),
            tree_nodes=self.state.tree.snapshot_nodes(),
        ))
        self._reset_volatile()

        # message class -> (handler, subject to the configuration-epoch gate)
        self._handlers = {
            Request: (self.on_request, False),
            PrePrepare: (self.on_pre_prepare, True),
            Prepare: (self.on_prepare, True),
            Commit: (self.on_commit, True),
            CheckpointMsg: (self.on_checkpoint, False),
            StatusMsg: (self.on_status, False),
            BatchRetransmit: (self.on_batch_retransmit, False),
            FetchDigestsMsg: (self.on_fetch_digests, False),
            FetchPagesMsg: (self.on_fetch_pages, False),
            DigestsMsg: (self.on_digests, False),
            PagesMsg: (self.on_pages, False),
            ViewChangeMsg: (lambda m, e=None: self.on_view_change(m), True),
            NewViewMsg: (lambda m, e=None: self.on_new_view(m), True),
            AuthenticatorRefresh: (self.on_authenticator_refresh, False),
        }

    # -- identity helpers ---------------------------------------------------------

    def primary_of(self, view: int) -> int:
        return view % self.n

    def _status_gossip(self) -> None:
        """Periodic status while work is outstanding: peers respond with
        missing batches/checkpoints, healing losses without view changes."""
        self._gossip_timer = self.host.sim.schedule(
            self.config.status_interval_ns, self._status_gossip
        )
        if self.crashed:
            return
        if self.log.unexecuted or self.wedged or self.waiting_requests:
            # A wedge that outlives a full status interval means the
            # certificate-only retransmits cannot help: the missing piece
            # is a big-request body (section 2.4), and if f+1 replicas are
            # wedged alike the next checkpoint never stabilizes either.
            # Escalate to a recovery-style status — peers then replay full
            # bodies, which the commit certificate already authorizes.
            stuck = (
                self.wedged
                and self.wedged_since is not None
                and self.host.sim.now - self.wedged_since
                >= 2 * self.config.status_interval_ns
            )
            if stuck:
                self.stats.inc("wedge_escalations")
            self._send_status(recovering=self.recovering or stuck)
        if self.transfer is not None and not self.transfer_is_stale():
            self.transfer.retry()

    @property
    def is_primary(self) -> bool:
        return self.view % self.n == self.node_id

    def register_client(self, client_id: int, addr: Address, session_key=None) -> None:
        """Static-membership setup: record a client's address and session key."""
        self.client_addr[client_id] = addr
        if session_key is not None:
            self.install_session_key("client", client_id, session_key)

    def send_to_replica(self, rid: int, msg) -> None:
        if self.config.use_macs:
            self.send_mac(replica_address(rid, self.group_prefix), "replica", rid, msg)
        else:
            self.send_signed(replica_address(rid, self.group_prefix), msg)

    def _state_installed(self) -> None:
        """The state pages were replaced wholesale (transfer, rollback,
        restart): let the application and the membership layer rebuild any
        caches derived from them."""
        if self.membership is not None:
            self.membership.reload_from_state()
        self.reconfig.reload_from_state()
        self.app.on_state_installed()

    def lookup_client_public(self, client_id: int):
        public = self.keys.client_public(client_id)
        if public is None and self.membership is not None:
            public = self.membership.client_public(client_id)
        return public

    def _public_key_of(self, kind: str, node_id: int):
        # Route client public-key lookups through the membership table so
        # dynamically joined clients can be verified.
        if kind == "client":
            return self.lookup_client_public(node_id)
        return super()._public_key_of(kind, node_id)

    # -- dispatch ------------------------------------------------------------------

    def dispatch(self, env: Envelope) -> None:
        if self.crashed:
            return
        msg = env.msg
        handler, epoch_gated = self._handlers.get(msg.__class__, (None, False))
        # The gate covers exactly the agreement/view-change family from
        # replica senders: a stale incarnation must not contribute votes,
        # but the recovery family (status, retransmit, state transfer)
        # stays epoch-neutral — it is all a bootstrapping replica sends.
        if epoch_gated and env.sender_kind == "replica":
            if not self.reconfig.admit_sender(env.sender_id, env.sender_epoch):
                # A reconfigured-away incarnation (or a vacated slot) is
                # still talking: reject loudly.  Recovery-family messages
                # (status, retransmits, state transfer) stay epoch-neutral
                # so a bootstrapping replica can catch up.
                self.stats.inc("stale_epoch_rejected")
                if self.tracer.enabled:
                    self.tracer.event(
                        self.host.name, "stale-epoch-rejected",
                        cat="pbft.reconfig",
                        args={
                            "sender": env.sender_id,
                            "sender_epoch": env.sender_epoch,
                            "epoch": self.current_epoch,
                        },
                    )
                return
            if env.sender_epoch > self.current_epoch:
                # A correct peer is ahead of us across an epoch boundary;
                # harmless (we will cross it at the same seq), but worth
                # counting for the campaign's forensics.
                self.stats.inc("newer_epoch_observed")
        if handler is None:
            if self.membership is not None:
                self.membership.dispatch(env)
            return
        handler(msg, env)

    def _penalized(self, env: Envelope) -> bool:
        # Penalty box: packets from muted senders are dropped for the cost
        # of a header peek, before the MAC/signature check — the whole
        # point of the box is to shed a garbage flood's verification cost.
        # (Node._on_packet only asks while the box has entries.)
        if self.crashed or not self.penalty.muted(env.sender, self.host.sim.now):
            return False
        self.host.charge_cpu(self.costs.msg_recv_ns)
        self.stats.inc("penalty_box_drops")
        return True

    def on_auth_failure(self, env: Envelope) -> None:
        self.stats.inc("auth_failures")
        if env.sender_kind != "client":
            # Muting a replica could silence a correct peer and cut into
            # the quorum; replica misbehaviour is the protocol's job.
            return
        registered = env.sender_id in self.client_addr or (
            self.membership is not None
            and self.membership.client_address(env.sender_id) is not None
        )
        if registered and self._session_key_for("client", env.sender_id) is None:
            # Indistinguishable from the restarted-replica condition of
            # paper section 2.3: we may simply have lost this registered
            # client's session key.  Never penalize it.
            return
        if self.admission.penalty.strike(("client", env.sender_id), self.host.sim.now):
            self.stats.inc("penalty_boxed")
            if self.tracer.enabled:
                self.tracer.event(
                    self.host.name, "penalty-box", cat="pbft.admission",
                    args={"sender": env.sender_id},
                )

    # -- client requests ---------------------------------------------------------------

    def on_request(self, req: Request, env: Envelope = None) -> None:
        if self.membership is not None:
            self.host.charge_cpu(self.costs.redirection_lookup_ns)
            if not self.membership.admit_request(req):
                self.stats.inc("requests_rejected")
                return
        elif req.client not in self.client_addr and not self._is_system_op(req):
            self.stats.inc("requests_rejected")
            return

        max_bytes = self.config.max_request_bytes
        if (
            max_bytes is not None
            and len(req.op) > max_bytes
            and not self._is_system_op(req)
        ):
            self.stats.inc("oversized_rejected")
            self._send_busy(req, BUSY_OVERSIZED, 0)
            return

        if self.tracer.enabled and self.is_primary and not req.readonly:
            self.tracer.mark((req.client, req.req_id), "primary-recv", self.host.name)

        if req.readonly and self.config.read_only_optimization:
            self._execute_readonly(req)
            return

        if self.reqstore.already_executed(req):
            self.admission.release(req.client, req.req_id)
            self._resend_cached_reply(req)
            return

        if self.is_primary and not self.in_view_change:
            self._admit_at_primary(req)
        else:
            # A backup holding an unexecuted request starts the clock on
            # the primary.  The waiting set doubles as the body store for
            # digest-only ("big") pre-prepares, so a global budget here
            # would starve execution of honest work; instead it is bounded
            # per client — the single-outstanding-op rule.  Only bodies no
            # accepted pre-prepare references count toward the bound: a
            # lagging backup legitimately holds many ordered-but-unexecuted
            # bodies for one correct client, and refusing the next body
            # would wedge it until a checkpoint transfer (the §2.4 failure
            # this tree exists to avoid).  A flood's surplus is exactly the
            # unordered part, so the defense is unchanged.
            cap = self.config.max_client_inflight
            if (
                cap > 0
                and req.digest not in self.waiting_requests
                and not self._is_system_op(req)
                and self._waiting_held_by(req.client) >= cap
            ):
                self.stats.inc("waiting_shed")
                return
            self.reqstore.add(req)
            self.waiting_requests.add(req.digest)
            self._arm_vc_timer()

    def _waiting_held_by(self, client: int) -> int:
        """Unordered request bodies this backup already holds for a client.

        Bodies referenced by an accepted pre-prepare are excluded: they are
        ordered work this replica must keep to execute, however far behind
        it is running.  The log scan is skipped entirely in the common case
        of a caught-up backup holding nothing for the client.
        """
        held = self.reqstore.held_for(client, self.waiting_requests)
        if not held:
            return 0
        ordered = self.log.live_request_digests()
        return sum(1 for digest in held if digest not in ordered)

    def _admit_at_primary(self, req: Request) -> None:
        """The primary's bounded admission pipeline.

        Order matters: a retransmission of something already queued or in
        ordering is absorbed first (it must not consume more queue space —
        the per-client single-outstanding-request rule), then the global
        queue budget is enforced by shedding the newest request of the
        heaviest client with an explicit BUSY reply.
        """
        if req.digest in self.queued_digests:
            self.stats.inc("duplicate_inflight")
            return
        verdict = self.admission.inflight_verdict(req)
        if verdict != ADMIT and self._is_system_op(req):
            # Membership system ops ride outside the client cap.
            verdict = ADMIT
        if verdict == DUPLICATE:
            # Same (client, req_id) already admitted under a *different*
            # digest — a client mutating an op it already submitted.  The
            # first version keeps its slot.
            self.stats.inc("duplicate_inflight")
            return
        if verdict == CAPPED:
            self.stats.inc("inflight_capped")
            self._send_busy(
                req, BUSY_INFLIGHT,
                self.admission.retry_hint_ns(
                    len(self.pending_requests), self.config.pending_queue_budget
                ),
            )
            return
        self.reqstore.add(req)
        self.admission.note_inflight(req)
        budget = self.config.pending_queue_budget
        if budget is not None and len(self.pending_requests) >= budget:
            victim = pick_shed_victim(self.pending_requests, req)
            self._shed(victim)
            if victim is req:
                return
        self.queued_digests.add(req.digest)
        self.pending_requests.append(req)
        self._depth_gauge.set(len(self.pending_requests))
        self._try_issue_batches()

    def _shed(self, req: Request) -> None:
        """Drop a queued (or arriving) request, with an explicit BUSY reply."""
        if req.digest in self.queued_digests:
            self.queued_digests.discard(req.digest)
            self.pending_requests.remove(req)
        self.admission.release(req.client, req.req_id)
        # Shed requests were never assigned a sequence number, so their
        # bodies can be dropped from the store too.
        self.reqstore.by_digest.pop(req.digest, None)
        self.stats.inc("requests_shed")
        self._depth_gauge.set(len(self.pending_requests))
        if self.tracer.enabled:
            self.tracer.mark((req.client, req.req_id), "shed", self.host.name)
        self._send_busy(
            req, BUSY_SHED,
            self.admission.retry_hint_ns(
                len(self.pending_requests), self.config.pending_queue_budget
            ),
        )

    def _drop_queue(self) -> list[Request]:
        """Empty the batching queue and its admission bookkeeping; return
        the requests it held."""
        dropped = self.pending_requests
        self.pending_requests = []
        self.queued_digests: set[bytes] = set()
        self.admission.reset_inflight()
        self._depth_gauge.set(0)
        return dropped

    def _send_busy(self, req: Request, reason: int, retry_after_ns: int) -> None:
        addr = self.client_addr.get(req.client)
        if addr is None and self.membership is not None:
            addr = self.membership.client_address(req.client)
        if addr is None:
            return
        msg = BusyReply(
            view=self.view,
            req_id=req.req_id,
            client=req.client,
            sender=self.node_id,
            reason=reason,
            retry_after_ns=retry_after_ns,
            queue_depth=len(self.pending_requests),
        )
        self.stats.inc("busy_sent")
        if self.tracer.enabled:
            self.tracer.event(
                self.host.name, "busy-reply", cat="pbft.admission",
                args={"client": req.client, "req_id": req.req_id, "reason": reason},
            )
        if self.config.use_macs and ("client", req.client) in self.session_keys:
            self.send_mac(addr, "client", req.client, msg)
        else:
            self.send_signed(addr, msg)

    @staticmethod
    def _is_system_op(req: Request) -> bool:
        return bool(req.op) and req.op[0] == SYSTEM_OP_PREFIX

    @staticmethod
    def _is_reconfig_op(req: Request) -> bool:
        return (
            len(req.op) >= 2
            and req.op[0] == SYSTEM_OP_PREFIX
            and req.op[1] == SYS_RECONFIG
        )

    def _execute_system_op(self, req: Request, nondet_ts: int) -> bytes:
        if self._is_reconfig_op(req):
            return self.reconfig.execute_system(req, nondet_ts)
        return self.membership.execute_system(req, nondet_ts)

    def _answer(self, req: Request, nondet_ts: int, tentative: bool = False,
                readonly: bool = False, system: bool = False) -> Reply:
        """Execute ``req`` and wrap the result for the client — the one place
        an executor is called from.

        Nothing decodes an op before the request is ordered (or, read-only,
        admitted), so a ``ProtocolError`` from an executor must not leave
        the event loop — every correct replica would die on the same
        sequence number.  The op is answered with one fixed error instead,
        identically everywhere; executors decode before their first state
        write, so nothing was applied.
        """
        try:
            if system:
                result = self._execute_system_op(req, nondet_ts)
            else:
                result = self.app.execute(req.op, req.client, nondet_ts, readonly)
        except ProtocolError:
            self.stats.inc("malformed_ops")
            result = REPLY_MALFORMED_OP
        return Reply(
            view=self.view,
            req_id=req.req_id,
            client=req.client,
            sender=self.node_id,
            result=result,
            tentative=tentative,
        )

    def _execute_readonly(self, req: Request) -> None:
        """Read-only fast path: execute immediately, sequencing permitting."""
        self.host.charge_cpu(self.app.execute_cost_ns(req.op, True))
        reply = self._answer(req, self.host.local_time(), readonly=True)
        self.host.charge_cpu(self.app.take_accumulated_cost())
        self.stats.inc("readonly_executed")
        if self.tracer.enabled:
            self.tracer.mark((req.client, req.req_id), "executed", self.host.name)
        # Asked a second time, the client is missing the body (it
        # retransmitted, or is fetching what the designated replier owes
        # it): answer in full, as _resend_cached_reply does for ordered
        # requests.
        marks = self.reqstore.last_readonly
        repeat = marks.get(req.client) == req.req_id
        marks[req.client] = req.req_id
        self._send_reply(reply, req, force_full=repeat)

    # -- primary batching ----------------------------------------------------------------

    def _try_issue_batches(self) -> None:
        """Issue pre-prepares while the congestion window allows.

        The window counts sequence numbers assigned but not yet executed
        (paper section 2.1); when it is full, arriving requests pool up and
        later leave in one batch — that pooling is the entire batching
        optimization.
        """
        if not self.is_primary or self.in_view_change or self.crashed:
            return
        while self.pending_requests:
            # The window is measured against *committed* execution: a batch
            # only leaves the window once its commit certificate completed,
            # even if tentative execution already ran it.
            if self.next_seq - self.committed_upto >= self.config.congestion_window:
                return
            if self.next_seq + 1 > self.log.high_watermark:
                return  # wait for a checkpoint to advance the window
            size = self.config.max_batch if self.config.batching else 1
            batch = self.pending_requests[:size]
            del self.pending_requests[:size]
            self._depth_gauge.set(len(self.pending_requests))
            self._issue_pre_prepare(batch)

    def _issue_pre_prepare(self, batch: list[Request]) -> None:
        self.next_seq += 1
        seq = self.next_seq
        nondet = self.nondet_provider.generate(self.host)
        inline = tuple(r for r in batch if not r.big)
        pp = PrePrepare(
            view=self.view,
            seq=seq,
            request_digests=tuple(r.digest for r in batch),
            nondet=nondet,
            inline_requests=inline,
            sender=self.node_id,
        )
        slot = self.log.slot(seq)
        vs = slot.view_slot(self.view)
        vs.accept(pp)
        for req in batch:
            self.queued_digests.discard(req.digest)
            # The in-flight cap guards the *unordered* queue.  Release at
            # pre-prepare issuance, not execution: a correct client only
            # sends its next operation after f+1 replies to the last one,
            # and those replies exist only if this primary already ordered
            # it — but our own execution may lag our pre-prepare (e.g.
            # reordered commits), and holding the slot until then would
            # make the primary refuse valid work and get itself deposed.
            self.admission.release(req.client, req.req_id)
        self.stats.inc("batches_issued")
        self.stats.inc("batched_requests", len(batch))
        if self.tracer.enabled:
            for req in batch:
                self.tracer.mark((req.client, req.req_id), "pre-prepare", self.host.name)
            self.tracer.event(
                self.host.name, "pre-prepare", cat="pbft",
                args={"seq": seq, "view": self.view, "batch": len(batch)},
            )
        if inline:
            # Forwarding full request bodies inside the pre-prepare is the
            # cost the "all requests big" optimization avoids: the primary
            # re-marshals and re-digests every body once per backup, on the
            # critical path of the agreement round.
            inline_bytes = sum(r.body_size() for r in inline)
            self.host.charge_cpu(
                (self.config.n - 1)
                * (inline_bytes * self.costs.inline_body_ns_x100) // 100
            )
        if self.equivocate and self.config.n > 2:
            # Byzantine behaviour: f backups see the genuine assignment,
            # the rest see a twin whose non-determinism data is perturbed
            # (still validator-acceptable, but a different batch digest).
            # Neither variant can gather a commit quorum, so the group
            # stalls until client retransmissions trigger a view change.
            twin = PrePrepare(
                view=pp.view,
                seq=seq,
                request_digests=pp.request_digests,
                nondet=pp.nondet + b"\x00",
                inline_requests=pp.inline_requests,
                sender=self.node_id,
            )
            backups = [rid for rid in range(self.config.n) if rid != self.node_id]
            self.stats.inc("equivocations")
            self.broadcast_to_replicas(pp, only=backups[: self.config.f])
            self.broadcast_to_replicas(twin, only=backups[self.config.f :])
        else:
            self.broadcast_to_replicas(pp, exclude=self.node_id)
        self._maybe_prepared(slot, vs, self.view)

    # -- agreement ------------------------------------------------------------------------
    #
    # Each handler resolves its (Slot, ViewSlot) once through MessageLog.open
    # and hands both down: _maybe_prepared / _maybe_committed read the vote
    # counts off the ViewSlot directly instead of looking the slot up again.

    def on_pre_prepare(self, pp: PrePrepare, env: Envelope = None) -> None:
        view = pp.view
        if view and env is not None and env.sender_kind == "replica":
            self._note_view_evidence(env.sender_id, view)
        if self.in_view_change or view != self.view:
            return
        if env is not None and (
            env.sender_kind != "replica" or env.sender_id != self.primary_of(view)
        ):
            return
        entry = self.log.open(pp.seq, view)
        if entry is None:
            return
        slot, vs = entry
        if vs.pre_prepare is not None:
            if vs.pre_prepare.batch_digest != pp.batch_digest:
                # Two conflicting assignments from the primary: Byzantine.
                self.stats.inc("conflicting_pre_prepares")
                self.start_view_change(self.view + 1)
            return
        if not self.nondet_validator.validate(pp.nondet, self.host, replaying=False):
            self.stats.inc("nondet_rejections")
            self.start_view_change(self.view + 1)
            return
        vs.accept(pp)
        if pp.inline_requests:
            # A backup must re-digest every inline body to check it against
            # the pre-prepare's request digests before accepting.
            inline_bytes = sum(r.body_size() for r in pp.inline_requests)
            self.host.charge_cpu(
                (inline_bytes * self.costs.inline_body_ns_x100) // 100
            )
        for req in pp.inline_requests:
            self.reqstore.add(req)
        self._send_prepare(pp, vs)
        self._arm_vc_timer()
        self._maybe_prepared(slot, vs, view)

    def _send_prepare(self, pp: PrePrepare, vs: ViewSlot) -> None:
        prepare = Prepare(
            view=pp.view, seq=pp.seq, batch_digest=pp.batch_digest, sender=self.node_id
        )
        vs.add_prepare(self.node_id, pp.batch_digest)
        self.broadcast_to_replicas(prepare, exclude=self.node_id)

    def on_prepare(self, msg: Prepare, env: Envelope = None) -> None:
        view = msg.view
        if view:
            self._note_view_evidence(msg.sender, view)
        if view != self.view or self.in_view_change:
            return
        entry = self.log.open(msg.seq, view)
        if entry is None:
            return
        slot, vs = entry
        vs.add_prepare(msg.sender, msg.batch_digest)
        if not slot.executed:
            # Peer activity on an operation we have not executed is
            # evidence of outstanding work: start the clock on the primary
            # (we may be missing its pre-prepare entirely).
            self._arm_vc_timer()
        self._maybe_prepared(slot, vs, view)

    def _maybe_prepared(self, slot: Slot, vs: ViewSlot, view: int) -> None:
        # Slot.prepared: the pre-prepare plus 2f matching prepares.
        pp = vs.pre_prepare
        if pp is None or vs.matching_prepares < 2 * self.config.f:
            return
        if self.node_id not in vs.commits:
            commit = Commit(
                view=view, seq=slot.seq, batch_digest=pp.batch_digest, sender=self.node_id
            )
            vs.add_commit(self.node_id, pp.batch_digest)
            self.broadcast_to_replicas(commit, exclude=self.node_id)
            if self.tracer.enabled and self.is_primary:
                self._mark_batch(pp, "prepared")
            # Tentative execution: run the request as soon as it is
            # prepared; the client compensates by demanding 2f+1 replies.
            if self.config.tentative_execution:
                self._execute_ready(allow_tentative=True)
        self._maybe_committed(slot, vs, view)

    def on_commit(self, msg: Commit, env: Envelope = None) -> None:
        view = msg.view
        if view:
            self._note_view_evidence(msg.sender, view)
        if view != self.view or self.in_view_change:
            return
        entry = self.log.open(msg.seq, view)
        if entry is None:
            return
        slot, vs = entry
        vs.add_commit(msg.sender, msg.batch_digest)
        self._maybe_committed(slot, vs, view)

    def _maybe_committed(self, slot: Slot, vs: ViewSlot, view: int) -> None:
        # A slot at or below the low watermark was garbage collected by a
        # checkpoint that stabilized while it executed (_maybe_prepared).
        if slot.committed or slot.seq <= self.log.low_watermark:
            return
        # Slot.committed_local: prepared plus 2f+1 matching commits.
        f = self.config.f
        if (
            vs.pre_prepare is None
            or vs.matching_prepares < 2 * f
            or vs.matching_commits < 2 * f + 1
        ):
            return
        slot.committed = True
        slot.committed_view = view
        if self.tracer.enabled and self.is_primary:
            self._mark_batch(vs.pre_prepare, "committed")
        self._advance_committed()
        self._execute_ready(allow_tentative=self.config.tentative_execution)

    def _advance_committed(self) -> None:
        slots = self.log.slots
        seq = self.committed_upto + 1
        while True:
            slot = slots.get(seq)
            if slot is None or not slot.committed:
                break
            if slot.executed and slot.tentative:
                # A tentative execution just became final: retransmissions
                # of its replies get stable answers from now on.
                self._finalize_tentative(slot)
            self.committed_upto = seq
            seq += 1
        # Commits freed congestion-window space: issue pooled requests.
        if self.is_primary:
            self._try_issue_batches()

    def _finalize_tentative(self, slot: Slot) -> None:
        slot.tentative = False
        entry = self.exec_journal.get(slot.seq)
        if entry is not None:
            self.reqstore.prove(entry[1])

    # -- execution -----------------------------------------------------------------------

    def _execute_ready(self, allow_tentative: bool = False) -> None:
        """Execute slots in order; stop at gaps, missing bodies, or
        uncommitted (non-tentative-eligible) batches."""
        executed_any = False
        while True:
            seq = self.last_exec + 1
            slot = self.log.slots.get(seq)
            if slot is None or slot.executed:
                if slot is None:
                    break
                if slot.executed:
                    self.last_exec = seq
                    continue
            committed = slot.committed
            tentative_ok = (
                allow_tentative
                and not committed
                and not self.in_view_change
                and slot.prepared(self.view, self.config.f)
            )
            if not committed and not tentative_ok:
                break
            view = slot.committed_view if committed else self.view
            pp = slot.pre_prepare_in(view)
            if pp is None:
                # Commit certificate without the pre-prepare (lost
                # datagram): cannot execute; wait for the checkpoint.
                self._mark_wedged()
                break
            requests = [self.reqstore.get(d) for d in pp.request_digests]
            if any(r is None for r in requests):
                # Missing request body — the big-request wedge of paper
                # section 2.4.
                self._mark_wedged()
                break
            self._clear_wedge()
            self._execute_batch(pp, requests, tentative=not committed, slot=slot)
            executed_any = True
        if executed_any:
            # Progress resets the clock on the primary: the view-change
            # timer measures time since the *oldest outstanding* request
            # stopped moving, not time since the first request ever.
            self._disarm_vc_timer()
        if self._has_outstanding_work():
            self._arm_vc_timer()
        elif not executed_any:
            self._disarm_vc_timer()

    def _mark_wedged(self) -> None:
        if not self.wedged:
            self.wedged = True
            self.wedged_since = self.host.sim.now
            self.stats.inc("wedged_events")
            if self.tracer.enabled:
                self.tracer.event(self.host.name, "wedged", cat="pbft.fault")

    def _clear_wedge(self) -> None:
        if self.wedged and self.wedged_since is not None:
            self.stats.inc("wedge_duration_ns", self.host.sim.now - self.wedged_since)
        self.wedged = False
        self.wedged_since = None

    def _execute_batch(
        self,
        pp: PrePrepare,
        requests: list[Optional[Request]],
        tentative: bool,
        slot: Optional[Slot],
        silent: bool = False,
    ) -> None:
        nondet_ts = decode_timestamp(pp.nondet)
        for req in requests:
            if req is None:
                continue
            if self.reqstore.already_executed(req):
                # A committed replay of something we executed tentatively
                # is its commit proof: the resend below then counts toward
                # the client's stable quorum.
                if not tentative:
                    self.reqstore.prove((req,))
                if not silent:
                    self._resend_cached_reply(req)
                continue
            traced = self.tracer.enabled
            system = self._is_system_op(req) and (
                self.membership is not None or self._is_reconfig_op(req)
            )
            cpu_start, _ = self.host.charge_cpu(
                0 if system else self.app.execute_cost_ns(req.op, False)
            )
            reply = self._answer(req, nondet_ts, tentative, system=system)
            cpu_end = cpu_start
            if not system:
                _, cpu_end = self.host.charge_cpu(self.app.take_accumulated_cost())
            if traced:
                self.tracer.complete(
                    self.host.name, "execute", cpu_start, max(cpu_start, cpu_end),
                    cat="pbft.exec", corr=(req.client, req.req_id),
                    args={"seq": pp.seq, "tentative": tentative},
                )
            self.reqstore.record_execution(req, reply, nondet_ts)
            self.admission.release(req.client, req.req_id)
            if self.membership is not None:
                self.membership.touch(req.client, nondet_ts)
            self.waiting_requests.discard(req.digest)
            self.stats.inc("requests_executed")
            if traced and self.is_primary:
                self.tracer.mark((req.client, req.req_id), "executed", self.host.name)
            if not silent:
                self._send_reply(reply, req)
        if pp.seq % self.config.checkpoint_interval == 0:
            # Checkpoint boundary: whatever reconfiguration is pending —
            # including one accepted in this very batch — takes effect for
            # seqs beyond the boundary.  Before end_of_execution, so the
            # updated epoch record is inside the checkpoint taken below.
            self.reconfig.apply_pending(pp.seq)
        self.exec_journal[pp.seq] = (pp, [r for r in requests if r is not None])
        self.state.end_of_execution()
        # Execution is strictly in-order, so this batch is exactly the slot
        # any wedge was blocking on.  Clearing here (the single funnel for
        # every execution path) keeps the flag from outliving its cause when
        # progress comes via batch replay rather than _execute_ready — a
        # stale wedge permanently disables the view-change timer and can
        # deadlock the group when this replica's vote is later needed.
        self._clear_wedge()
        self.last_exec = pp.seq
        if slot is not None:
            self.log.set_executed(slot, True)
            slot.tentative = tentative
        if not tentative:
            self.committed_upto = max(self.committed_upto, pp.seq)
        if pp.seq % self.config.checkpoint_interval == 0:
            self._install_own_checkpoint(pp.seq)
        if self.is_primary:
            self._try_issue_batches()

    def _mark_batch(self, pp: PrePrepare, boundary: str) -> None:
        """Phase-mark every request of a batch (primary's common-clock log)."""
        for digest in pp.request_digests:
            req = self.reqstore.get(digest)
            if req is not None:
                self.tracer.mark((req.client, req.req_id), boundary, self.host.name)

    def _send_reply(self, reply: Reply, req: Request, force_full: bool = False) -> None:
        addr = self.client_addr.get(req.client)
        if addr is None and self.membership is not None:
            addr = self.membership.client_address(req.client)
        if addr is None:
            return
        if (
            self.withhold_full_replies
            or (
                not force_full
                and self.config.reply_digest_optimization
                and designated_replier(req, self.n) != self.node_id
            )
        ) and len(reply.result) > DIGEST_SIZE:
            reply = Reply(
                view=reply.view,
                req_id=reply.req_id,
                client=reply.client,
                sender=reply.sender,
                result=reply.result_digest,
                tentative=reply.tentative,
                digest_only=True,
            )
        self.stats.inc("replies_sent")
        if self.config.use_macs and ("client", req.client) in self.session_keys:
            self.send_mac(addr, "client", req.client, reply)
        else:
            # No session with this client (e.g. a denied join): fall back
            # to a signature the client can verify from public keys alone.
            self.send_signed(addr, reply)

    def _resend_cached_reply(self, req: Request) -> None:
        cached = self.reqstore.cached_reply(req.client)
        if cached is None or cached.req_id != req.req_id:
            return
        self.stats.inc("replies_resent")
        # A retransmitting client may have missed the designated replier's
        # full reply (e.g. that replica is wedged or crashed), so resends
        # always carry the full result.
        self._send_reply(cached, req, force_full=True)

    # -- checkpoints --------------------------------------------------------------------

    def _install_own_checkpoint(self, seq: int) -> None:
        self.host.charge_cpu(self.costs.crypto.digest_cost(self.config.page_size))
        root = self.state.refresh_tree()
        # The snapshot keeps each client's last reply as answered now, stable
        # wherever a quorum proof has already arrived (paper section 2.1).
        self.reqstore.stabilize_proven()
        stable = self.checkpoints.add(Checkpoint(
            seq=seq,
            root=root,
            pages=self.state.snapshot_pages(),
            tree_nodes=self.state.tree.snapshot_nodes(),
            client_marks=dict(self.reqstore.last_executed_req),
            client_replies=dict(self.reqstore.last_reply),
        ), self.node_id)
        self.stats.inc("checkpoints_taken")
        if self.tracer.enabled:
            self.tracer.event(
                self.host.name, "checkpoint", cat="pbft.checkpoint", args={"seq": seq}
            )
        if stable:
            self._on_checkpoint_stable(seq)
        self.broadcast_to_replicas(
            CheckpointMsg(seq=seq, root=root, sender=self.node_id),
            exclude=self.node_id,
        )

    def on_checkpoint(self, msg: CheckpointMsg, env: Envelope = None) -> None:
        if self.checkpoints.record_vote(msg.seq, msg.sender, msg.root):
            self._on_checkpoint_stable(msg.seq)
            return
        if msg.seq <= self.last_exec:
            return
        # A checkpoint we have not reached: if enough correct replicas
        # vouch for it and we are stuck or far behind, fetch the state.
        root = self.checkpoints.vouched_root(msg.seq, self.config.f + 1)
        behind = msg.seq >= self.last_exec + self.config.checkpoint_interval
        if root is not None and (self.wedged or behind):
            self.maybe_start_state_transfer(msg.seq, root)

    def _on_checkpoint_stable(self, seq: int) -> None:
        # A stable checkpoint proves every batch up to ``seq`` committed
        # globally (2f+1 replicas executed it), even if our own commit
        # certificates for the tail are still in flight.  (We only get here
        # with a local checkpoint at ``seq``, so last_exec >= seq already.)
        # That same proof finalizes any tentative execution at or below
        # ``seq``: prove its cached replies before committed_upto jumps over
        # the slots, or clients keep receiving tentative-flagged replies
        # for operations that are in fact durable and can never assemble
        # the f+1 stable votes they are waiting for.
        for slot in self.log.slots.values():
            if slot.seq <= seq and slot.executed and slot.tentative:
                self._finalize_tentative(slot)
        self.committed_upto = max(self.committed_upto, seq)
        self.log.advance_stable(seq)
        self.reqstore.gc_digests(self.log.live_request_digests())
        # Anything GC'd was executed (directly or proven by transferred
        # client marks): it is no longer outstanding.
        self.waiting_requests &= set(self.reqstore.by_digest)
        for old in [s for s in self.exec_journal if s <= seq]:
            del self.exec_journal[old]
        self.stats.inc("checkpoints_stabilized")
        if self.tracer.enabled:
            self.tracer.event(
                self.host.name, "checkpoint-stable", cat="pbft.checkpoint",
                args={"seq": seq},
            )
        if self.is_primary:
            self._try_issue_batches()

    # -- state transfer plumbing (tasks live in recovery.py) --------------------------------

    def on_digests(self, msg: DigestsMsg, env: Envelope = None) -> None:
        if self.transfer is not None and not self.transfer_is_stale():
            self.transfer.on_digests(msg)

    def on_pages(self, msg: PagesMsg, env: Envelope = None) -> None:
        if self.transfer is not None and not self.transfer_is_stale():
            self.transfer.on_pages(msg)

    # -- session keys (section 2.3) ----------------------------------------------------------

    def on_authenticator_refresh(self, msg: AuthenticatorRefresh, env: Envelope = None) -> None:
        for rid, key_bytes in msg.keys:
            if rid == self.node_id:
                self.install_session_key("client", msg.client, MacKey(key_bytes))
                self.stats.inc("authenticators_refreshed")
        if self.stalled_batches:
            self._retry_stalled_batches()

    # -- rollback (used by view changes) --------------------------------------------------------

    def _rollback_uncommitted(self) -> None:
        """Undo tentative executions beyond the committed prefix by
        restoring the stable checkpoint and replaying committed batches."""
        if self.last_exec <= self.committed_upto:
            return
        stable_seq = self.checkpoints.stable_seq
        self.stats.inc("rollbacks")
        self._restore_stable()
        replay = [
            self.exec_journal[seq]
            for seq in range(stable_seq + 1, self.committed_upto + 1)
            if seq in self.exec_journal
        ]
        self.exec_journal = {}
        self.last_exec = stable_seq
        for pp, requests in replay:
            self._execute_batch(pp, requests, tentative=False, slot=None, silent=True)
        self.last_exec = self.committed_upto
        # Discard any checkpoints taken on tentative state.
        self.checkpoints.discard_after(self.committed_upto)
        for slot in self.log.slots.values():
            if slot.seq > self.committed_upto and slot.executed:
                self.log.set_executed(slot, False)
                slot.tentative = False
