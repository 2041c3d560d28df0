"""View changes: deposing a faulty primary and electing the next.

Mixin methods for :class:`repro.pbft.replica.Replica`.  The mechanics
follow the paper's section 2.1 description of the Castro-Liskov protocol:
backups monitor the primary with a timer armed whenever a known request is
outstanding; on expiry they broadcast a view-change message carrying their
stable-checkpoint proof and the set of prepared batches; the new primary
(``new_view mod n``) collects 2f+1 and installs the view with a new-view
message that re-proposes every batch that might have committed.
"""

from __future__ import annotations

from repro.pbft.messages import (
    NewViewMsg,
    PrePrepare,
    PreparedProof,
    ViewChangeMsg,
)


class ViewChangeMixin:
    """View-change behaviour, mixed into Replica."""

    # -- timer management --------------------------------------------------------

    def _arm_vc_timer(self) -> None:
        if self.in_view_change:
            return
        if self.wedged or self.transfer is not None:
            # A wedged or transferring replica is missing data *itself*;
            # the primary is not the suspect, and deposing it would not
            # recover the missing request bodies (paper section 2.4: the
            # replica simply waits for the next checkpoint).
            return
        if self._vc_timer is not None and self._vc_timer.pending:
            return
        self._vc_timer = self.host.sim.schedule(
            self._vc_timeout_current, self._on_vc_timeout
        )

    def _disarm_vc_timer(self) -> None:
        if self._vc_timer is not None:
            self._vc_timer.cancel()
            self._vc_timer = None
        self._vc_timeout_current = self.config.view_change_timeout_ns

    def _on_vc_timeout(self) -> None:
        self._vc_timer = None
        if not self._has_outstanding_work():
            return
        # Exponential backoff: each failed view change doubles the patience
        # granted to the next primary.
        self._vc_timeout_current *= 2
        self.start_view_change(self.view + 1)

    def _has_outstanding_work(self) -> bool:
        if self.log.unexecuted:
            return True
        if self.is_primary and self.pending_requests:
            return True
        # Prune waiting requests that got executed through another path.
        self.waiting_requests -= self.reqstore.executed_among(self.waiting_requests)
        return bool(self.waiting_requests)

    # -- initiating ---------------------------------------------------------------

    def start_view_change(self, new_view: int) -> None:
        """Vote to move to ``new_view`` and stop participating in the old."""
        if new_view <= self.view:
            return
        self.in_view_change = True
        self.pending_new_view = new_view
        if self._vc_timer is not None:
            self._vc_timer.cancel()
            self._vc_timer = None
        self._rollback_uncommitted()
        stable = self.checkpoints.latest_stable()
        prepared = tuple(
            PreparedProof(
                seq=seq,
                view=view,
                batch_digest=pp.batch_digest,
                request_digests=pp.request_digests,
                nondet=pp.nondet,
            )
            for seq, view, pp in self.log.prepared_proofs(self.config.f)
            if seq > stable.seq
        )
        msg = ViewChangeMsg(
            new_view=new_view,
            stable_seq=stable.seq,
            stable_root=stable.root,
            checkpoint_proof=tuple(sorted(stable.proof.items())),
            prepared=prepared,
            sender=self.node_id,
        )
        self.view_changes.setdefault(new_view, {})[self.node_id] = msg
        self.stats.inc("view_changes_started")
        if self.tracer.enabled:
            self.tracer.event(
                self.host.name, "view-change", cat="pbft.viewchange",
                args={"new_view": new_view},
            )
        self.broadcast_to_replicas(msg, exclude=self.node_id)
        self._maybe_install_new_view(new_view)
        # If the new primary never shows up, move on to the next view.
        self._vc_timer = self.host.sim.schedule(
            self._vc_timeout_current, self._on_vc_timeout_during_change
        )

    def _on_vc_timeout_during_change(self) -> None:
        if not self.in_view_change:
            return
        supporters = len(self.view_changes.get(self.pending_new_view, {}))
        if supporters <= self.config.f:
            # Nobody shares our suspicion: we are the confused party, not
            # the primary.  Abandon the view change, rejoin the current
            # view, and ask peers to retransmit whatever we missed.
            self.in_view_change = False
            self._vc_timeout_current = self.config.view_change_timeout_ns
            self.stats.inc("view_changes_abandoned")
            self._send_status(recovering=False)
            self._execute_ready()
            if self._has_outstanding_work():
                self._arm_vc_timer()
            return
        self._vc_timeout_current *= 2
        self.in_view_change = False  # allow re-entry for the next view
        self.start_view_change(self.pending_new_view + 1)

    # -- receiving ------------------------------------------------------------------

    def on_view_change(self, msg: ViewChangeMsg) -> None:
        if msg.new_view <= self.view:
            return
        self.view_changes.setdefault(msg.new_view, {})[msg.sender] = msg
        # Liveness rule: if f+1 replicas are already asking for a higher
        # view, join the earliest such view even without a local timeout.
        if not self.in_view_change:
            for view in sorted(self.view_changes):
                if view <= self.view:
                    continue
                voters = set(self.view_changes[view])
                voters.discard(self.node_id)
                if len(voters) >= self.config.f + 1:
                    self.start_view_change(view)
                    break
        self._maybe_install_new_view(msg.new_view)

    @staticmethod
    def _compute_new_view_proposal(
        votes: dict[int, ViewChangeMsg],
    ) -> tuple[int, tuple[PreparedProof, ...]]:
        """min-s and the re-proposed O set implied by a V set of votes.

        Deterministic in the *contents* of ``votes``: iteration is sorted
        by sender and ties are broken strictly by higher view, so any
        replica holding the same view-change messages derives the same
        proposal — the basis for validating a NEW-VIEW against its
        embedded V set.
        """
        min_s = max(vc.stable_seq for vc in votes.values())
        chosen: dict[int, PreparedProof] = {}  # seq -> highest-view proof
        max_s = min_s
        for _rid, vc in sorted(votes.items()):
            for proof in vc.prepared:
                if proof.seq <= min_s:
                    continue
                best = chosen.get(proof.seq)
                if best is None or proof.view > best.view:
                    chosen[proof.seq] = proof
                max_s = max(max_s, proof.seq)
        pre_prepares = tuple(
            chosen.get(
                seq,
                PreparedProof(
                    seq=seq, view=0, batch_digest=bytes(16), noop=True
                ),
            )
            for seq in range(min_s + 1, max_s + 1)
        )
        return min_s, pre_prepares

    def _maybe_install_new_view(self, new_view: int) -> None:
        """If we are the would-be primary and have a quorum, send NEW-VIEW."""
        if self.primary_of(new_view) != self.node_id:
            return
        votes = self.view_changes.get(new_view, {})
        if len(votes) < self.config.quorum:
            return
        if self.view >= new_view:
            return
        min_s, pre_prepares = self._compute_new_view_proposal(votes)
        nv = NewViewMsg(
            view=new_view,
            view_changes=tuple(vc for _rid, vc in sorted(votes.items())),
            pre_prepares=pre_prepares,
            stable_seq=min_s,
            sender=self.node_id,
        )
        self.broadcast_to_replicas(nv, exclude=self.node_id)
        self._enter_view(new_view, nv)

    def _validate_new_view(self, msg: NewViewMsg) -> bool:
        """Check a NEW-VIEW against its embedded V set before installing.

        A correct NEW-VIEW must (a) carry quorum view-change votes for
        this exact view from distinct senders, (b) agree with any
        first-hand vote we hold from those senders, and (c) re-propose
        exactly the min-s and O set implied by the votes — otherwise a
        faulty new primary could smuggle an arbitrary batch into the new
        view or silently drop a prepared one.
        """
        votes: dict[int, ViewChangeMsg] = {}
        for vc in msg.view_changes:
            if vc.new_view != msg.view or vc.sender in votes:
                return False
            votes[vc.sender] = vc
        if len(votes) < self.config.quorum:
            return False
        first_hand = self.view_changes.get(msg.view, {})
        for rid, vc in votes.items():
            known = first_hand.get(rid)
            if known is not None and known.digest != vc.digest:
                return False  # forged or altered vote
        min_s, expected = self._compute_new_view_proposal(votes)
        return msg.stable_seq == min_s and msg.pre_prepares == expected

    def on_new_view(self, msg: NewViewMsg) -> None:
        self._note_view_evidence(msg.sender, msg.view)
        if msg.view <= self.view:
            return
        if msg.sender != self.primary_of(msg.view):
            return
        if not self._validate_new_view(msg):
            self.stats.inc("new_views_rejected")
            if self.tracer.enabled:
                self.tracer.event(
                    self.host.name, "new-view-rejected", cat="pbft.viewchange",
                    args={"view": msg.view, "sender": msg.sender},
                )
            # The would-be primary proved itself faulty: move past it.
            self.start_view_change(msg.view + 1)
            return
        self._enter_view(msg.view, msg)

    # -- view synchronization (restart liveness) ---------------------------------------

    def _note_view_evidence(self, rid: int, view: int) -> None:
        """Track the highest view each peer has demonstrably installed.

        A restarted (or long-partitioned) replica can come back into a
        group that moved past its view while it was down.  The ordinary
        paths to learn the new view — the NEW-VIEW broadcast, or f+1
        view-change votes — are one-shot messages it already missed, and
        peers never repeat them.  Evidence of *installed* views instead
        leaks continuously: status gossip, agreement traffic, and batch
        retransmissions all carry the sender's view.  Once f+1 distinct
        peers attest to views above ours, at least one correct replica
        installed such a view, so adopting it is safe (the NEW-VIEW
        certificate already convinced a quorum; we only need the number).
        """
        if rid == self.node_id or view <= 0:
            return
        if view > self.view_evidence.get(rid, 0):
            self.view_evidence[rid] = view
        # Re-evaluate even when the evidence is not news: the threshold may
        # have been reached while we were mid-view-change (sync is deferred
        # then), and peers keep repeating the same attested view via status
        # gossip rather than ever sending a fresh, higher one.
        self._maybe_sync_view()

    def _maybe_sync_view(self) -> None:
        if self.in_view_change:
            return
        ahead = sorted(
            (v for v in self.view_evidence.values() if v > self.view),
            reverse=True,
        )
        if len(ahead) <= self.config.f:
            return
        # The f+1'th highest attested view: at least one attester is
        # correct, so a quorum really certified some view >= target.
        target = ahead[self.config.f]
        if target <= self.view:
            return
        if self.primary_of(target) == self.node_id:
            # We would be the primary of the target view, but we hold no
            # NEW-VIEW certificate to justify proposing in it.  Blindly
            # adopting primaryship could equivocate against the O set the
            # real certificate fixed.  Stay put: the group's view-change
            # protocol will move past us to a view we can safely follow.
            return
        self._sync_to_view(target)

    def _sync_to_view(self, view: int) -> None:
        """Adopt ``view`` without a first-hand NEW-VIEW certificate.

        Equivalent to arriving in ``view`` as a backup with an empty O set:
        roll back tentative work, reset the batching queue, and let status
        gossip plus client retransmissions rebuild the log in the new view.
        """
        self._rollback_uncommitted()
        self._adopt_view(view, "view_syncs", "view-sync")
        # Same queue handoff as a deposed primary entering a view as
        # backup: clients retransmit, the new primary orders.
        self.waiting_requests.update(req.digest for req in self._drop_queue())
        self._send_status(recovering=self.recovering)
        if self._has_outstanding_work():
            self._arm_vc_timer()

    # -- installation ------------------------------------------------------------------

    def _adopt_view(self, view: int, counter: str, event: str) -> None:
        self.view = view
        self.in_view_change = False
        self.view_changes = {v: m for v, m in self.view_changes.items() if v > view}
        self._disarm_vc_timer()
        self.stats.inc(counter)
        if self.tracer.enabled:
            self.tracer.event(
                self.host.name, event, cat="pbft.viewchange", args={"view": view}
            )

    def _enter_view(self, view: int, nv: NewViewMsg) -> None:
        """Install ``view``, re-running agreement for the re-proposed set."""
        self._adopt_view(view, "views_installed", "new-view")
        is_primary = self.primary_of(view) == self.node_id
        highest = nv.stable_seq
        for proof in nv.pre_prepares:
            seq = proof.seq
            highest = max(highest, seq)
            if seq <= self.log.low_watermark:
                continue
            if seq > self.log.high_watermark:
                # We are behind the quorum's stable checkpoint: this slot
                # lies outside our log window.  Skip it — checkpoint and
                # status gossip will bring us up to date via state
                # transfer rather than an out-of-window log write.
                continue
            if proof.noop:
                # Explicit gap filler: no batch prepared at this number,
                # so the new view orders an empty batch there to let the
                # numbers after it execute in order.
                rebuilt = PrePrepare(
                    view=view,
                    seq=seq,
                    request_digests=(),
                    nondet=b"",
                    sender=nv.sender,
                )
            else:
                # The proof carries the batch contents, so every replica
                # can re-propose it in the new view — even one that never
                # saw the original pre-prepare.
                rebuilt = PrePrepare(
                    view=view,
                    seq=seq,
                    request_digests=proof.request_digests,
                    nondet=proof.nondet,
                    sender=nv.sender,
                )
            slot = self.log.slot(seq)
            vs = slot.view_slot(view)
            vs.accept(rebuilt)
            if not slot.executed:
                if not is_primary:
                    self._send_prepare(rebuilt, vs)
                self._maybe_prepared(slot, vs, view)
        if is_primary:
            self.next_seq = max(self.next_seq, highest)
            # Rebuild the batching queue from scratch: a queued digest the
            # new view re-proposed or executed would block that request's
            # re-submission for good (admission skips queued digests).
            reproposed: set[bytes] = set()
            for proof in nv.pre_prepares:
                reproposed.update(proof.request_digests)
            # The waiting set is requeued only when we have executed up
            # to the quorum's stable checkpoint.  A new primary that lags
            # behind it may hold waiting bodies whose operations already
            # executed cluster-wide; its stale execution marks cannot
            # filter them, and re-proposing one wedges the group: the
            # batch commits (no body needed to prepare), but caught-up
            # replicas GC'd the executed bodies and in-order execution
            # halts forever at the slot.  At or past the stable
            # checkpoint the marks are trustworthy — anything executed
            # elsewhere beyond them sits in a prepared slot the new view
            # carries, so the reproposed filter below catches it.  A
            # lagging primary instead waits for client retransmissions,
            # which re-check already_executed at arrival, after catch-up.
            carried = self._drop_queue()
            if self.last_exec >= nv.stable_seq:
                carried += [
                    self.reqstore.get(digest)
                    for digest in sorted(self.waiting_requests)
                ]
            for req in carried:
                if req is None or self.reqstore.already_executed(req):
                    continue
                if req.digest in reproposed or req.digest in self.queued_digests:
                    continue
                self.queued_digests.add(req.digest)
                self.pending_requests.append(req)
                self.admission.note_inflight(req)
            self.waiting_requests.clear()
            self._depth_gauge.set(len(self.pending_requests))
            self._try_issue_batches()
        else:
            # A deposed primary hands its queue back to the waiting set;
            # clients retransmit and the new primary orders them.
            self.waiting_requests.update(req.digest for req in self._drop_queue())
        if self._has_outstanding_work():
            self._arm_vc_timer()
