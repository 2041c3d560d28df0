"""PBFT middleware configuration.

One :class:`PbftConfig` instance describes a complete library build the way
the paper's Table 1 rows do: which optimizations are compiled in, the
protocol constants, and the simulated cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.common.errors import ConfigError
from repro.common.units import MICROSECOND, MILLISECOND, SECOND
from repro.crypto.costs import CryptoCosts


# Pages reserved at the front of the state region for the middleware itself
# (membership tables live here, mirroring the original layout).
LIBRARY_PAGES = 8


@dataclass(frozen=True)
class CostModel:
    """Simulated CPU costs of non-crypto middleware work.

    Calibrated together with :class:`~repro.crypto.costs.CryptoCosts` so
    the harness reproduces the paper's Table 1 ratios (see EXPERIMENTS.md).
    """

    crypto: CryptoCosts = field(default_factory=CryptoCosts)
    # Fixed cost of receiving/dispatching any message (syscall, demux,
    # header parse) and of marshalling a send.
    msg_recv_ns: int = 7 * MICROSECOND
    msg_send_ns: int = 7 * MICROSECOND
    # Per-byte marshalling/copy cost, in hundredths of a ns per byte.
    per_byte_ns_x100: int = 350
    # Per-byte cost (hundredths of ns/byte) of carrying full request bodies
    # inside a pre-prepare: the primary re-marshals/digests per backup and
    # each backup re-digests to validate, all on the agreement critical
    # path.  This is what the "all requests treated as big" optimization
    # eliminates (paper sections 2.1 and 4.1).
    inline_body_ns_x100: int = 9000  # 90 ns/byte
    # Page digest + install cost during state transfer, per page.
    page_transfer_ns: int = 20 * MICROSECOND
    # Redirection-table lookup for dynamic client management (section 3.1):
    # "the cost of accessing the redirection table" — deliberately tiny.
    redirection_lookup_ns: int = 300

    def bytes_cost(self, size: int) -> int:
        return (size * self.per_byte_ns_x100) // 100


@dataclass(frozen=True)
class PbftConfig:
    """A complete middleware build configuration."""

    f: int = 1
    num_clients: int = 12

    # -- sharded deployments ---------------------------------------------------
    # Prefix applied to every host name and metric key owned by this group
    # ("s0-", "s1-", ...).  Multiple groups can then share one simulator,
    # network fabric, and metrics registry without host-name or metric-key
    # collisions; "" (the default) preserves the single-group layout.
    group_prefix: str = ""

    # -- Table 1 toggles -----------------------------------------------------
    use_macs: bool = True
    # Requests with bodies >= this many bytes are "big" (multicast by the
    # client; digest-only in the pre-prepare).  The library default is 0:
    # *every* request is big.  ``None`` disables big handling entirely.
    big_request_threshold: int | None = 0
    batching: bool = True
    dynamic_clients: bool = False

    # -- protocol constants ---------------------------------------------------
    checkpoint_interval: int = 128
    # High watermark = low watermark + log_window.
    log_window: int = 256
    # Batching congestion window: max sequence numbers assigned but not yet
    # executed at the primary before pre-prepares are postponed (paper
    # section 2.1).  While the window is full, arriving requests pool up
    # and later leave in a single batched pre-prepare — the pooling *is*
    # the batching optimization ("batched requests capture parallelism
    # from different clients").
    #
    # 1 is the measured knee (examples/batching_sweep.py, BENCH_batching
    # .json): with batching on, a window of 1 maximizes pooling and wins
    # the whole grid (26.0k op/s vs 23.2k at 2 and 13.0k at 8 with 24
    # clients); wider windows only help when batching is off (max_batch
    # = 1), where 2-4 roughly doubles throughput over 1.
    congestion_window: int = 1
    max_batch: int = 64
    tentative_execution: bool = True

    # -- timers ----------------------------------------------------------------
    client_retransmit_ns: int = 150 * MILLISECOND
    # Ceiling for the client's exponential retransmission backoff (the
    # interval doubles on every retransmission and resets on completion).
    client_retransmit_cap_ns: int = 2 * SECOND
    # Client backoff after a BUSY reply: a separate, jittered exponential
    # schedule (doubles per consecutive BUSY, +/-25% deterministic jitter)
    # so shed clients spread their retries instead of thundering back in
    # lock-step with the loss-retransmit timer.
    client_busy_backoff_ns: int = 20 * MILLISECOND
    client_busy_backoff_cap_ns: int = 1 * SECOND
    view_change_timeout_ns: int = 500 * MILLISECOND
    # Blind periodic rebroadcast of client session keys (section 2.3): the
    # only way a restarted replica re-learns authenticators.
    authenticator_rebroadcast_ns: int = 1 * SECOND
    status_retry_ns: int = 100 * MILLISECOND
    # Periodic status gossip while work is outstanding: lets lagging
    # replicas pull missing batches from peers (the original's STATUS
    # message retransmission backbone).
    status_interval_ns: int = 150 * MILLISECOND
    # Proactive recovery (repro.pbft.reconfig): each replica is key-
    # refreshed and restarted roughly once per interval, staggered so the
    # group never loses its quorum to recovery itself.  None disables it.
    proactive_recovery_interval_ns: int | None = None

    # -- overload robustness (admission pipeline) -------------------------------
    # Per-client in-flight cap at the primary: the protocol's "each client
    # waits for one request to complete before sending the next" rule
    # (Castro-Liskov section 4.1), previously unenforced.  A client's
    # retransmission of an already-admitted request is absorbed (replied
    # from the cache or dropped with a stat); a *different* request while
    # one is outstanding is dropped.  0 disables enforcement.
    max_client_inflight: int = 1
    # Global budget for the primary's batching queue (``pending_requests``).
    # When an arrival would exceed it, the newest request of the heaviest
    # client is shed with an explicit BUSY reply.  ``None`` = unbounded
    # (the legacy behaviour).  Backups bound ``waiting_requests`` by the
    # same budget.
    pending_queue_budget: int | None = 1024
    # Requests whose operation bodies exceed this many bytes are rejected
    # outright with a BUSY/oversized reply.  ``None`` disables the check.
    max_request_bytes: int | None = 1 << 20
    # Invalid-MAC / garbage-flood penalty box: a sender accumulating this
    # many authentication failures within one ``penalty_box_ns`` window is
    # muted (packets dropped before verification) for ``penalty_box_ns``.
    penalty_box_threshold: int = 8
    penalty_box_ns: int = 2 * SECOND
    # Base retry-after hint carried in BUSY replies (scaled by queue
    # pressure at the replica).
    busy_retry_hint_ns: int = 50 * MILLISECOND

    # -- dynamic membership (section 3.1) ---------------------------------------
    max_node_entries: int = 64

    # -- state ---------------------------------------------------------------
    state_pages: int = 256
    page_size: int = 4096

    # -- simulation ------------------------------------------------------------
    costs: CostModel = field(default_factory=CostModel)
    signature_key_bits: int = 256

    @property
    def n(self) -> int:
        """Replica group size: 3f + 1."""
        return 3 * self.f + 1

    @property
    def quorum(self) -> int:
        """Agreement quorum: 2f + 1."""
        return 2 * self.f + 1

    @property
    def weak_quorum(self) -> int:
        """Reply quorum for stable replies: f + 1."""
        return self.f + 1

    def is_big(self, body_size: int) -> bool:
        if self.big_request_threshold is None:
            return False
        return body_size >= self.big_request_threshold

    def validate(self) -> None:
        if self.f < 1:
            raise ConfigError("f must be at least 1")
        if self.checkpoint_interval <= 0:
            raise ConfigError("checkpoint interval must be positive")
        if self.log_window < 2 * self.checkpoint_interval:
            raise ConfigError(
                "log window must cover at least two checkpoint intervals"
            )
        if self.max_batch <= 0 or self.congestion_window <= 0:
            raise ConfigError("batching parameters must be positive")
        if self.client_retransmit_cap_ns < self.client_retransmit_ns:
            raise ConfigError(
                "client retransmit cap must be at least the base interval"
            )
        if LIBRARY_PAGES >= self.state_pages:
            raise ConfigError("library partition must leave room for the application")
        if self.max_client_inflight < 0:
            raise ConfigError("per-client in-flight cap cannot be negative")
        if self.pending_queue_budget is not None and self.pending_queue_budget < 1:
            raise ConfigError("pending queue budget must be positive (or None)")
        if self.max_request_bytes is not None and self.max_request_bytes < 1:
            raise ConfigError("max request size must be positive (or None)")
        if self.penalty_box_threshold < 1:
            raise ConfigError("penalty box threshold must be positive")
        if self.penalty_box_ns < 0 or self.busy_retry_hint_ns < 0:
            raise ConfigError("penalty box / busy hint durations cannot be negative")
        if self.client_busy_backoff_cap_ns < self.client_busy_backoff_ns:
            raise ConfigError(
                "client busy-backoff cap must be at least the base interval"
            )
        if (
            self.proactive_recovery_interval_ns is not None
            and self.proactive_recovery_interval_ns <= 0
        ):
            raise ConfigError("proactive recovery interval must be positive (or None)")

    def with_options(self, **overrides) -> "PbftConfig":
        """A copy with some fields replaced (dataclass ``replace`` helper)."""
        return replace(self, **overrides)
