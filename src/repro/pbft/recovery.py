"""Replica recovery: restart, log replay, and checkpoint state transfer.

Mixin methods for :class:`repro.pbft.replica.Replica` covering three paper
observations:

* **section 2.3** — a restarted replica re-synchronizes to the latest
  checkpoint but cannot validate the requests remaining in the log: its
  client session keys are transient and gone, so authenticators fail until
  the clients' periodic blind rebroadcast re-delivers them.  With
  signatures instead of MACs, replay works immediately.
* **section 2.4** — a replica that missed a *big* request body commits the
  digest but wedges at execution; it is only rescued by the next
  checkpoint's state transfer.
* **section 2.5** — non-determinism validation re-runs on replayed
  requests, where the time delta is now large; unless the validator is
  recovery-aware, replay stalls.

State transfer is :class:`StateTransferTask`: the section 2.1 walk down
the Merkle tree from the root, over Fetch/Digests/Pages messages, into only
the subtrees whose digests differ.
"""

from __future__ import annotations

import dataclasses

from repro.common.errors import StateError
from repro.pbft.messages import (
    BatchRetransmit,
    CheckpointMsg,
    DigestsMsg,
    DurableImage,
    FetchDigestsMsg,
    FetchPagesMsg,
    PagesMsg,
    Reply,
    StatusMsg,
)
from repro.pbft.wire import decode_exact
from repro.statemgr.checkpoints import Checkpoint
from repro.statemgr.merkle import MerkleTree

_FETCH_NODE_BATCH = 64
_FETCH_PAGE_BATCH = 8
_RETRANSMIT_LIMIT = 64


class StateTransferTask:
    """One in-progress checkpoint fetch: tree walk, then page download."""

    def __init__(self, replica, target_seq: int, target_root: bytes, source: int) -> None:
        self.replica = replica
        self.target_seq = target_seq
        self.target_root = target_root
        self.source = source
        self.pending_nodes: list[int] = [1]
        self.outstanding_nodes: set[int] = set()
        self.diff_pages: set[int] = set()
        self.outstanding_pages: set[int] = set()
        self.walk_done = False
        self.digests_fetched = 0
        self.pages_fetched = 0
        self._progress_marker = (0, 0)
        self._marks: dict[int, int] = {}
        self._replies: dict[int, bytes] = {}

    def start(self) -> None:
        self._request_nodes()

    def retry(self) -> None:
        """Re-issue outstanding fetches if nothing arrived since the last
        check (lost datagrams would otherwise hang the transfer forever)."""
        marker = (self.digests_fetched, self.pages_fetched)
        if marker != self._progress_marker:
            self._progress_marker = marker
            return
        if not self.walk_done:
            self.pending_nodes = sorted(set(self.pending_nodes) | self.outstanding_nodes)
            self.outstanding_nodes.clear()
            self._request_nodes()
        elif self.diff_pages:
            self.outstanding_pages.clear()
            self._request_pages()

    def _request_nodes(self) -> None:
        batch = tuple(self.pending_nodes[:_FETCH_NODE_BATCH])
        del self.pending_nodes[: len(batch)]
        if not batch:
            if not self.outstanding_nodes:
                self._finish_walk()
            return
        self.outstanding_nodes.update(batch)
        self.replica.send_to_replica(
            self.source,
            FetchDigestsMsg(
                checkpoint_seq=self.target_seq,
                node_indices=batch,
                sender=self.replica.node_id,
            ),
        )

    def on_digests(self, msg: DigestsMsg) -> None:
        if msg.checkpoint_seq != self.target_seq or self.walk_done:
            return
        local_tree = self.replica.state.tree
        for node, remote_digest in msg.entries:
            self.outstanding_nodes.discard(node)
            self.digests_fetched += 1
            if remote_digest == local_tree.node(node):
                continue
            if node >= local_tree.leaf_base:
                leaf = node - local_tree.leaf_base
                if leaf < local_tree.num_leaves:
                    self.diff_pages.add(leaf)
                continue
            self.pending_nodes.append(2 * node)
            self.pending_nodes.append(2 * node + 1)
        self._request_nodes()

    def _finish_walk(self) -> None:
        self.walk_done = True
        if not self.diff_pages:
            self.replica.finish_state_transfer(self, (), ())
            return
        self._request_pages()

    def _request_pages(self) -> None:
        want = sorted(self.diff_pages - self.outstanding_pages)
        batch = tuple(want[:_FETCH_PAGE_BATCH])
        if not batch:
            return
        self.outstanding_pages.update(batch)
        self.replica.send_to_replica(
            self.source,
            FetchPagesMsg(
                checkpoint_seq=self.target_seq,
                page_indices=batch,
                sender=self.replica.node_id,
            ),
        )

    def on_pages(self, msg: PagesMsg) -> None:
        if msg.checkpoint_seq != self.target_seq:
            return
        for index, data in msg.pages:
            if index in self.diff_pages:
                self.replica.state.install_page(index, data)
                self.replica.host.charge_cpu(self.replica.costs.page_transfer_ns)
                self.diff_pages.discard(index)
                self.outstanding_pages.discard(index)
                self.pages_fetched += 1
        if msg.client_marks:
            self._marks = dict(msg.client_marks)
        if msg.client_replies:
            self._replies = dict(msg.client_replies)
        if self.diff_pages:
            self._request_pages()
            return
        self.replica.finish_state_transfer(
            self, tuple(self._marks.items()), tuple(self._replies.items())
        )


class RecoveryMixin:
    """Crash/restart, status gossip, replay and state transfer handling."""

    # -- crash & restart ------------------------------------------------------------

    def crash(self) -> None:
        """Stop for good: close the socket and cancel every timer.
        ``Cluster.restart`` builds a successor from :meth:`durable_image`."""
        self.socket.close()
        for timer in (self._vc_timer, self._status_timer, self._gossip_timer):
            if timer is not None:
                timer.cancel()
        self.stats.inc("crashes")
        if self.tracer.enabled:
            self.tracer.event(self.host.name, "crash", cat="pbft.fault")

    @property
    def crashed(self) -> bool:
        return self.socket.closed

    def durable_image(self) -> DurableImage:
        """What survives a crash: the latest stable checkpoint (the original
        treats memory as stable storage via UPS; the SQL backend adds true
        disk durability) and the view-sync fields.  Lost: the message log,
        the request store and, crucially, the client MAC session keys."""
        stable = self.checkpoints.latest_stable()
        return DurableImage(
            view=self.view, view_evidence=tuple(sorted(self.view_evidence.items())),
            next_seq=max(self.next_seq, stable.seq), stable_seq=stable.seq,
            root=stable.root, proof=tuple(sorted(stable.proof.items())),
            pages=tuple(stable.pages), client_marks=tuple(sorted(stable.client_marks.items())),
            client_replies=tuple(sorted(stable.client_replies.items())),
        )

    def _load_image(self, image: DurableImage) -> Checkpoint:
        """Install an image's pages and durable fields; return its stable
        checkpoint.  Pages whose recomputed Merkle root is not the image's
        root are refused."""
        page_size = self.state.page_size
        if any(len(page) != page_size for page in image.pages):
            raise StateError(f"durable image pages must be {page_size} bytes")
        self.state.restore(image.pages)
        if self.state.root != image.root:
            raise StateError("durable image root does not match its pages")
        self.view = image.view
        self.view_evidence = dict(image.view_evidence)
        self.next_seq = image.next_seq
        return Checkpoint(
            seq=image.stable_seq, root=image.root, pages=list(image.pages),
            tree_nodes=self.state.tree.snapshot_nodes(), proof=dict(image.proof),
            client_marks=dict(image.client_marks), client_replies=dict(image.client_replies),
        )

    def _announce_restart(self) -> None:
        """Come up recovering: ask the group for the log tail past our
        stable checkpoint.  Replica-replica keys re-derive from static
        configuration; client keys are gone until AuthenticatorRefresh."""
        self.recovering = True
        self.recovery_started_at = self.host.sim.now
        self.recovery_target = self.last_exec
        self.stats.inc("restarts")
        if self.tracer.enabled:
            self.tracer.event(self.host.name, "restart", cat="pbft.fault")
        self._ask_for_the_tail()

    def _ask_for_the_tail(self) -> None:
        """A recovering status now and every ``status_retry_ns`` until
        :meth:`_finish_recovery` cancels the timer."""
        self._send_status(recovering=True)
        self._status_timer = self.host.sim.schedule(
            self.config.status_retry_ns, self._status_retry
        )

    def _status_retry(self) -> None:
        self._retry_stalled_batches()
        if self.recovering:
            self._ask_for_the_tail()

    def _send_status(self, recovering: bool, peer: int | None = None) -> None:
        msg = StatusMsg(
            view=self.view,
            last_exec_seq=self.last_exec,
            stable_seq=self.checkpoints.stable_seq,
            sender=self.node_id,
            recovering=recovering,
        )
        if peer is None:
            self.broadcast_to_replicas(msg, exclude=self.node_id)
        else:
            self.send_to_replica(peer, msg)

    def _nudge_stale_view(self, peer: int) -> None:
        """Targeted status to a peer stuck in an older view (rate-limited)."""
        now = self.host.sim.now
        last = self._view_nudges.get(peer)
        if last is not None and now - last < self.config.status_interval_ns:
            return
        self._view_nudges[peer] = now
        self.stats.inc("view_nudges_sent")
        self._send_status(self.recovering, peer)

    # -- serving peers ------------------------------------------------------------

    def on_status(self, msg: StatusMsg, env=None) -> None:
        peer = msg.sender
        self._note_view_evidence(peer, msg.view)
        if msg.view < self.view:
            # The peer is operating in a view the group already left.  The
            # NEW-VIEW it missed is a one-shot nobody repeats, and if the
            # group's tail is only tentatively executed there is no
            # committed traffic to leak the view either — the seed=320
            # wedge.  Answer with our own status so the peer accumulates
            # f+1 attestations and view-syncs.
            self._nudge_stale_view(peer)
        if msg.last_exec_seq >= self.last_exec and not msg.recovering:
            return
        stable_seq = self.checkpoints.stable_seq
        if msg.last_exec_seq < stable_seq:
            # Peer is behind our log horizon: it needs state transfer.
            stable = self.checkpoints.latest_stable()
            self.send_to_replica(
                peer, CheckpointMsg(seq=stable.seq, root=stable.root, sender=self.node_id)
            )
            return
        sent = 0
        seq = msg.last_exec_seq + 1
        # Only *committed* batches may be exported: a tentatively executed
        # batch could still be undone by a view change, and shipping it as
        # committed would launder speculation into fact.
        while seq <= self.committed_upto and sent < _RETRANSMIT_LIMIT:
            entry = self.exec_journal.get(seq)
            if entry is None:
                break
            pp, requests = entry
            # Request bodies belong to clients: peers replay them only for
            # a *recovering* replica rebuilding its log (section 2.3).  A
            # merely lagging replica gets the certificate and must already
            # hold the bodies — if a big-request body is what it lost, it
            # stays wedged until the next checkpoint (section 2.4).
            bodies = tuple(requests) if msg.recovering else tuple(
                r for r in requests if not r.big
            )
            self.send_to_replica(
                peer,
                BatchRetransmit(pre_prepare=pp, requests=bodies, sender=self.node_id),
            )
            sent += 1
            seq += 1
        # View state is handled above: a stale-view peer got a status
        # nudge before the retransmit loop ran.

    # -- replaying batches ------------------------------------------------------------

    def on_batch_retransmit(self, msg: BatchRetransmit, env=None) -> None:
        # The journalled pre-prepare carries the view the batch executed
        # in: the exact signal a restarted replica needs to re-synchronize
        # its view (the NEW-VIEW itself was a one-shot it missed).
        pp = msg.pre_prepare
        self._note_view_evidence(msg.sender, pp.view)
        seq = pp.seq
        if seq <= self.last_exec:
            return
        # One replica's word is no commit certificate: replay only a batch
        # f+1 replicas sent, so a correct one committed it, or one we hold
        # a commit certificate for ourselves (a wedge: only bodies were
        # missing).  Agreement is on the content; the batch digest also
        # covers the view and the sender, which differ between honest copies.
        votes = self.retransmits.setdefault(seq, {})
        votes[msg.sender] = msg
        content = (pp.request_digests, pp.nondet)
        vouching = [
            m for m in votes.values()
            if (m.pre_prepare.request_digests, m.pre_prepare.nondet) == content
        ]
        own = self.log.peek(seq)
        mine = None
        if own is not None and own.committed:
            mine = own.pre_prepare_in(own.committed_view)
        if len(vouching) < self.config.weak_quorum and (
            mine is None or (mine.request_digests, mine.nondet) != content
        ):
            return
        listed = set(pp.request_digests)
        bodies = {r.digest: r for m in vouching for r in m.requests if r.digest in listed}
        self.recovery_target = max(self.recovery_target, seq)
        self.stalled_batches[seq] = (pp, tuple(bodies.values()))
        self._retry_stalled_batches()

    def _retry_stalled_batches(self) -> None:
        """Replay contiguous stalled batches whose requests now validate."""
        for seq in [s for s in self.retransmits if s <= self.last_exec]:
            del self.retransmits[seq]
            self.stalled_batches.pop(seq, None)
        while self.last_exec + 1 in self.stalled_batches:
            seq = self.last_exec + 1
            if not self._replay_batch(*self.stalled_batches[seq]):
                break
            del self.stalled_batches[seq]
        if self.recovering and self.last_exec >= self.recovery_target:
            self._finish_recovery()

    def _replay_batch(self, pp, bodies) -> bool:
        """Validate and execute one replayed batch; False if it must stall."""
        # Re-validate each client request, exactly as the original replays
        # the log.  This is where section 2.3 bites: in MAC mode a missing
        # session key fails authentication.
        for request in bodies:
            if not self._validate_replayed_request(request):
                self.stats.inc("replay_auth_failures")
                return False
        # Section 2.5: non-determinism data is re-validated with no replay
        # awareness in the original implementation.
        if not self.nondet_validator.validate(pp.nondet, self.host, replaying=True):
            self.stats.inc("replay_nondet_failures")
            return False
        for request in bodies:
            self.reqstore.add(request)
        # The retransmits need not carry every body (big-request bodies
        # come from clients); the rest must already be in the request store.
        requests = [self.reqstore.get(d) for d in pp.request_digests]
        if any(r is None for r in requests):
            self._mark_wedged()
            return False
        slot = self.log.slot(pp.seq) if self.log.in_window(pp.seq) else None
        self._execute_batch(pp, requests, tentative=False, slot=slot)
        return True

    def _validate_replayed_request(self, request) -> bool:
        # Join system requests are self-certifying: the payload carries the
        # public key, and the challenge response proves address ownership.
        if request.op and request.op[0] == 0xFF:
            self.host.charge_cpu(self.costs.crypto.verify_ns)
            return True
        if self.config.use_macs:
            key = self.session_keys.get(("client", request.client))
            if key is None:
                return False
            self.host.charge_cpu(self.costs.crypto.mac_ns)
            return True
        if self.lookup_client_public(request.client) is None:
            return False
        self.host.charge_cpu(self.costs.crypto.verify_ns)
        return True

    def _finish_recovery(self) -> None:
        self.recovering = False
        self.recovery_completed_at = self.host.sim.now
        self.stats.inc("recoveries_completed")
        if self._status_timer is not None:
            self._status_timer.cancel()
            self._status_timer = None

    # -- state transfer ------------------------------------------------------------

    def maybe_start_state_transfer(self, target_seq: int, target_root: bytes) -> None:
        """Jump forward to a stable checkpoint we missed (section 2.4)."""
        if self.transfer is not None and self.transfer.target_seq >= target_seq:
            return
        if target_seq <= self.last_exec:
            return
        # Prefer a replica that voted for this checkpoint root.
        voters = self.checkpoints.voters(target_seq, target_root)
        source = next(r for r in voters + list(range(self.config.n)) if r != self.node_id)
        self.transfer = StateTransferTask(self, target_seq, target_root, source)
        self.stats.inc("state_transfers_started")
        if self.tracer.enabled:
            self.tracer.event(
                self.host.name, "state-transfer-start", cat="pbft.transfer",
                args={"target_seq": target_seq, "source": source},
            )
        self.transfer.start()

    def transfer_is_stale(self) -> bool:
        """Drop an in-flight transfer whose target we have executed past.

        A view change can roll this replica back to its stable checkpoint
        and replay the log forward while a state transfer is still
        fetching pages.  Once ``last_exec`` reaches the transfer target
        the fetched checkpoint is *older* than the live state: installing
        its pages would rewind the pages while leaving ``last_exec`` and
        the per-client watermarks at their newer values, so re-executions
        after the next rollback are suppressed as duplicates and the
        replica forks from the quorum permanently.  The state the
        transfer was fetching is already materialized — abandon it.
        """
        if self.transfer is None or self.transfer.target_seq > self.last_exec:
            return False
        task = self.transfer
        self.transfer = None
        self.stats.inc("state_transfers_abandoned")
        if self.tracer.enabled:
            self.tracer.event(
                self.host.name, "state-transfer-abandoned", cat="pbft.transfer",
                args={"target_seq": task.target_seq, "last_exec": self.last_exec},
            )
        return True

    def finish_state_transfer(
        self, task: StateTransferTask, client_marks, client_replies=()
    ) -> None:
        """Install the fetched checkpoint and resume from it."""
        if task.target_seq <= self.last_exec:
            # Reachable only via the no-diff walk (page installs are
            # guarded at dispatch): nothing was mutated, just drop it.
            self.transfer = None
            self.stats.inc("state_transfers_abandoned")
            return
        root = self.state.refresh_tree()
        if root != task.target_root:
            # Wrong or stale data from the peer: retry with another source.
            self.stats.inc("state_transfer_failures")
            self.transfer = None
            alt = (task.source + 1) % self.config.n
            if alt == self.node_id:
                alt = (alt + 1) % self.config.n
            retry = StateTransferTask(self, task.target_seq, task.target_root, alt)
            self.transfer = retry
            retry.start()
            return
        for client, req_id in client_marks:
            if self.reqstore.last_executed_req.get(client, -1) < req_id:
                self.reqstore.last_executed_req[client] = req_id
        # Adopting a client's watermark obliges us to answer its
        # retransmissions: install the checkpoint's last reply wherever it
        # is at least as recent as what we hold.  The transferred
        # checkpoint is stable, so its replies count as stable too.
        for client, data in client_replies:
            reply = decode_exact(Reply, data).stabilized()
            if reply.sender != self.node_id:
                # Resent under our name: a client drops a reply whose
                # sender field is not its envelope's.
                reply = dataclasses.replace(reply, sender=self.node_id)
            cached = self.reqstore.last_reply.get(client)
            if cached is None or cached.req_id <= reply.req_id:
                self.reqstore.last_reply[client] = reply
        self.last_exec = max(self.last_exec, task.target_seq)
        self.committed_upto = max(self.committed_upto, task.target_seq)
        self.next_seq = max(self.next_seq, task.target_seq)
        self._clear_wedge()
        self.transfer = None
        self._state_installed()
        self._install_own_checkpoint(task.target_seq)
        self.stats.inc("state_transfers_completed")
        self.stats.inc("state_transfer_pages", task.pages_fetched)
        if self.tracer.enabled:
            self.tracer.event(
                self.host.name, "state-transfer-complete", cat="pbft.transfer",
                args={"target_seq": task.target_seq, "pages": task.pages_fetched},
            )
        self._execute_ready()

    # -- answering fetches ------------------------------------------------------------

    def on_fetch_digests(self, msg: FetchDigestsMsg, env=None) -> None:
        checkpoint = self.checkpoints.get(msg.checkpoint_seq)
        if checkpoint is None:
            return
        tree = MerkleTree.from_snapshot(self.state.num_pages, checkpoint.tree_nodes)
        entries = tuple(
            (node, tree.node(node))
            for node in msg.node_indices
            if 1 <= node < 2 * tree.capacity
        )
        self.send_to_replica(
            msg.sender,
            DigestsMsg(
                checkpoint_seq=msg.checkpoint_seq, entries=entries, sender=self.node_id
            ),
        )

    def on_fetch_pages(self, msg: FetchPagesMsg, env=None) -> None:
        checkpoint = self.checkpoints.get(msg.checkpoint_seq)
        if checkpoint is None:
            return
        pages = tuple(
            (index, checkpoint.pages[index])
            for index in msg.page_indices
            if 0 <= index < len(checkpoint.pages)
        )
        marks = tuple(checkpoint.client_marks.items())
        replies = tuple(
            (client, reply.wire) for client, reply in checkpoint.client_replies.items()
        )
        self.send_to_replica(
            msg.sender,
            PagesMsg(
                checkpoint_seq=msg.checkpoint_seq,
                root=checkpoint.root,
                pages=pages,
                sender=self.node_id,
                client_marks=marks,
                client_replies=replies,
            ),
        )
