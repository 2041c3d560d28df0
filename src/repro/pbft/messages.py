"""Protocol messages.

Every message knows how to encode itself canonically (for authentication
and for wire sizing) and how to decode back; ``decode(encode(m)) == m`` is
property-tested.  The set mirrors the original PBFT implementation: the
three-phase agreement messages, replies, checkpointing, view changes,
status/retransmission, state-transfer fetches, and the periodic
authenticator refresh of paper section 2.3.
"""

from __future__ import annotations

import inspect
import sys
from dataclasses import MISSING, Field, dataclass, fields
from functools import partial
from reprlib import recursive_repr

from repro.crypto.digests import DIGEST_SIZE, md5_digest, memo_digest
from repro.pbft.wire import blob, boolean, boxed, decode_exact, derive, layout, raw, seq, tagged
from repro.pbft.wire import u8, u16, u32, u64

# Sequence number used before any request is assigned one.
NO_SEQ = 0

DIGEST = raw(DIGEST_SIZE)

# The protocol messages' family: leading byte -> class, for every class with a ``TAG``.
MESSAGES = tagged("message")


class _lazy:
    """Compute-once attribute for frozen messages.

    A non-data descriptor: the first access runs ``fn`` and stores the
    value in the instance ``__dict__`` under the same name, which shadows
    the descriptor from then on — later reads are plain attribute loads
    with no call at all (``functools.cached_property`` minus the per-access
    lock it takes on Python 3.11).  Storing once is safe because messages
    are frozen dataclasses: every ``fn`` is a pure function of fields that
    cannot change after construction.
    """

    def __init__(self, fn) -> None:
        self.fn = fn
        self.__doc__ = fn.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


def message(cls=None, *, family: tagged | None = None):
    """``@dataclass(frozen=True)`` with a constructor that stores once and a
    codec compiled from the class's ``LAYOUT``, all compiled in one go.

    The constructor binds every field with a single store of the instance
    ``__dict__`` where the stock one makes an ``object.__setattr__`` call
    per field (DESIGN.md section 7, "The message constructor").  Safe
    because the class is frozen — nothing rebinds the dict afterwards,
    ``_lazy`` memos are added *to* it — and the stock constructor only
    assigns.  A class whose construction does more (``__post_init__``, a
    ``default_factory``, ``init=False`` or ``kw_only`` fields) keeps it.

    ``__repr__``, ``__eq__`` and ``__hash__`` are the stock ones, written
    here rather than by ``dataclass`` (which would compile each of them
    separately); each honours the fields' ``repr``/``compare``/``hash``
    flags, and one the class body defines itself is kept.  A class that
    declares ``LAYOUT`` (:class:`repro.pbft.wire.layout`) also gets
    ``encode``, ``decode(cls, dec)`` and ``body_size`` from
    :func:`repro.pbft.wire.derive`, and joins ``family`` — what decodes "one
    of these" by its leading bytes (DESIGN.md section 7).  A class with a
    ``TAG`` is a protocol message: :func:`decode_message`'s family.

    All of a class's methods are one source, compiled once against the
    defining module's file with the constructor first, at the decorator's
    line, so profilers — which key rows by ``(co_filename,
    co_firstlineno, co_name)`` — keep one row per class.
    """
    if cls is None:
        return partial(message, family=family)  # no Python frame of its own
    stock_init = hasattr(cls, "__post_init__") or any(
        isinstance(value, Field)
        and (not value.init or value.kw_only is True or value.default_factory is not MISSING)
        for value in vars(cls).values()
    )
    documented = cls.__doc__
    cls.__doc__ = documented or cls.__name__  # else dataclass signs a constructor not yet made
    cls = dataclass(frozen=True, init=stock_init, repr=False, eq=False)(cls)
    flds = fields(cls)
    names = [f.name for f in flds]
    if not stock_init and any(f.kw_only or not f.init or f.default_factory is not MISSING
                              for f in flds):  # a KW_ONLY marker, or an inherited field
        raise TypeError(f"@message {cls.__name__}: declare such fields with field() in its body")

    def row(obj: str, keep=lambda f: f.compare) -> str:
        return "(" + "".join(f"{obj}.{f.name}," for f in flds if keep(f)) + ")"

    shown = ", ".join(f"{f.name}={{self.{f.name}!r}}" for f in flds if f.repr)
    methods = {} if stock_init else {
        "__init__": f"def __init__(self, {', '.join(names)}):\n"
                    f"    _store(self, '__dict__', {{{', '.join(f'{n!r}: {n}' for n in names)}}})",
    }
    methods["__repr__"] = f'def __repr__(self): return self.__class__.__qualname__ + f"({shown})"'
    methods["__eq__"] = (
        "def __eq__(self, other):\n"
        f"    if other.__class__ is self.__class__: return {row('self')} == {row('other')}\n"
        "    return NotImplemented"
    )
    hashed = row("self", lambda f: f.compare if f.hash is None else f.hash)
    methods["__hash__"] = f"def __hash__(self): return hash({hashed})"
    methods = {name: source for name, source in methods.items() if name not in vars(cls)}
    namespace = {}
    spec = vars(cls).get("LAYOUT")
    if spec is not None:
        if sorted(spec.fields) != sorted(names):
            raise TypeError(f"{cls.__name__}.LAYOUT must name each field once: {names}")
        codec, namespace = derive(cls.__name__, spec)
        methods.update(codec)
    namespace.update(_store=object.__setattr__, __name__=cls.__module__)
    padding = "\n" * (sys._getframe(1).f_lineno - 1)
    source = padding + "\n".join(methods.values())
    exec(compile(source, sys.modules[cls.__module__].__file__, "exec"), namespace)
    for name in methods:
        function = namespace[name]
        function.__qualname__ = f"{cls.__qualname__}.{name}"
        if name == "__init__":
            # Defaulted fields are trailing ones (dataclass enforces it),
            # which is exactly what __defaults__ describes.
            function.__defaults__ = tuple(f.default for f in flds if f.default is not MISSING)
            function.__annotations__ = {**{f.name: f.type for f in flds}, "return": None}
        elif name == "__repr__":
            function = recursive_repr()(function)
        elif name == "decode":
            function = classmethod(function)
        setattr(cls, name, function)
    if not documented:  # the stock docstring: the name and the constructor's signature
        cls.__doc__ = cls.__name__ + str(inspect.signature(cls)).replace(" -> None", "")
    if family is None and "TAG" in vars(cls):
        family = MESSAGES
    if family is not None:
        family.add(cls)
    return cls


class WireMemo:
    """Memoized canonical bytes for a frozen message.

    Messages are immutable, so their canonical encoding and wire size are
    fixed at construction; ``wire`` and ``wire_size`` compute them once
    (see :class:`_lazy`) however many times a message is authenticated or
    sent.  ``encode()``/``body_size()`` stay memo-free so tests can always
    compare a fresh encoding against the memoised one.
    """

    __slots__ = ()

    #: Datagram kind label for traces and drop rules: the class name.
    KIND = ""

    #: The principal a message speaks for: the envelope sender kind it
    #: must arrive under and the field naming that sender's id.  A
    #: receiver drops a message whose envelope was sealed by anyone else
    #: (:meth:`repro.pbft.node.Node.verify_envelope`).
    SENDER_KIND = "replica"
    SENDER_FIELD = "sender"
    #: Whether it may travel unauthenticated: only the join handshake.
    PLAIN = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.KIND = cls.__name__

    #: Canonical encoding, computed at most once per object.
    wire = _lazy(lambda self: self.encode())

    #: Accounted wire size, computed at most once per object: ``body_size()``,
    #: *not* ``len(self.wire)`` — a layout may charge more than it encodes.
    wire_size = _lazy(lambda self: self.body_size())

    def auth_bytes(self) -> bytes:
        return self.wire


@message
class Request(WireMemo):
    """A client operation submitted for total ordering.

    ``req_id`` is the client-local timestamp: monotonically increasing per
    client, used for at-most-once execution and reply matching.  ``big``
    requests were multicast by the client and circulate by digest only.
    """

    TAG = 1
    SENDER_KIND = SENDER_FIELD = "client"

    client: int
    req_id: int
    op: bytes
    readonly: bool = False
    big: bool = False

    LAYOUT = layout(TAG, client=u32, req_id=u64, op=blob, readonly=boolean, big=boolean)

    @_lazy
    def digest(self) -> bytes:
        return md5_digest(self.wire)


def designated_replier(req: Request, n: int) -> int:
    """The one replica of ``n`` that answers ``req`` with the full result
    under the reply-digest optimization; the others send the digest.  The
    replicas decide with it who sends the body, the client who withheld it.
    """
    return (req.req_id + req.client) % n


@message
class PrePrepare(WireMemo):
    """Primary's sequence-number assignment for a batch of requests.

    ``request_digests`` identifies the batch; ``inline_requests`` carries
    full bodies only when big-request handling did **not** divert them
    (i.e. the client sent the body to the primary alone, so the primary
    must forward it — the bandwidth/CPU cost the all-big optimization
    avoids).  ``nondet`` is the primary's non-determinism data (section
    2.5).
    """

    TAG = 2

    view: int
    seq: int
    request_digests: tuple[bytes, ...]
    nondet: bytes = b""
    inline_requests: tuple[Request, ...] = ()
    sender: int = 0

    LAYOUT = layout(
        TAG, sender=u16, view=u64, seq=u64, nondet=blob, request_digests=seq(DIGEST),
        inline_requests=seq(boxed(Request)), header_through="request_digests",
    )

    #: Memoized header encoding (the authenticated portion).
    header_wire = _lazy(lambda self: self.encode_header())

    @_lazy
    def batch_digest(self) -> bytes:
        """Digest identifying (view, seq, batch, nondet) for prepare/commit."""
        return md5_digest(self.header_wire)

    def auth_bytes(self) -> bytes:
        # Inline bodies are covered transitively by their digests.
        return self.header_wire


@message
class Prepare(WireMemo):
    """A backup's agreement to the primary's sequence assignment."""

    TAG = 3

    view: int
    seq: int
    batch_digest: bytes
    sender: int

    LAYOUT = layout(TAG, sender=u16, view=u64, seq=u64, batch_digest=DIGEST)


@message
class Commit(WireMemo):
    """Second-round vote guaranteeing total order across views."""

    TAG = 4

    view: int
    seq: int
    batch_digest: bytes
    sender: int

    LAYOUT = layout(TAG, sender=u16, view=u64, seq=u64, batch_digest=DIGEST)


@message
class Reply(WireMemo):
    """A replica's reply, sent directly to the client.

    With the reply-digest optimization only the designated replica sends
    the full ``result``; the rest send its digest (``digest_only=True``).
    ``tentative`` replies were produced by execution before commit; the
    client needs 2f+1 of them (vs f+1 stable).
    """

    TAG = 5

    view: int
    req_id: int
    client: int
    sender: int
    result: bytes
    tentative: bool = False
    digest_only: bool = False

    LAYOUT = layout(
        TAG, sender=u16, view=u64, req_id=u64, client=u32,
        tentative=boolean, digest_only=boolean, result=blob,
    )

    @_lazy
    def result_digest(self) -> bytes:
        """Digest used to match full and digest-only replies."""
        if self.digest_only:
            return self.result
        return memo_digest(self.result)

    def stabilized(self) -> "Reply":
        """This reply with the tentative flag cleared.

        Used when a later quorum proof (commit certificate, stable
        checkpoint) shows the execution that produced it is final; a
        no-op for replies that were stable to begin with.
        """
        if not self.tentative:
            return self
        return Reply(
            view=self.view,
            req_id=self.req_id,
            client=self.client,
            sender=self.sender,
            result=self.result,
            tentative=False,
            digest_only=self.digest_only,
        )


@message
class CheckpointMsg(WireMemo):
    """Proof-of-state message broadcast every K executions."""

    TAG = 6

    seq: int
    root: bytes
    sender: int

    LAYOUT = layout(TAG, sender=u16, seq=u64, root=DIGEST)


@message
class PreparedProof:
    """One entry of a view-change message's P set: a prepared batch.

    Carries the pre-prepare's *contents* (request digests + agreed
    non-determinism data), not merely its digest: the new primary and the
    backups must be able to re-propose the batch in the new view even if
    they never received the original pre-prepare.

    ``noop`` marks a sequence-number gap filler in a NEW-VIEW: no batch
    prepared at that number, so the new view orders an empty batch there.
    The flag is explicit because a *genuine* proof for an empty batch in
    view 0 would otherwise be indistinguishable from the placeholder.
    """

    seq: int
    view: int
    batch_digest: bytes
    request_digests: tuple[bytes, ...] = ()
    nondet: bytes = b""
    noop: bool = False

    LAYOUT = layout(
        seq=u64, view=u64, batch_digest=DIGEST, noop=boolean, nondet=blob,
        request_digests=seq(DIGEST),
    )


@message
class ViewChangeMsg(WireMemo):
    """A replica's vote to depose the primary and move to ``new_view``."""

    TAG = 7

    new_view: int
    stable_seq: int
    stable_root: bytes
    checkpoint_proof: tuple[tuple[int, bytes], ...]  # (replica, root) votes
    prepared: tuple[PreparedProof, ...]
    sender: int

    LAYOUT = layout(
        TAG, sender=u16, new_view=u64, stable_seq=u64, stable_root=DIGEST,
        checkpoint_proof=seq(u16, DIGEST), prepared=seq(PreparedProof),
    )

    @_lazy
    def digest(self) -> bytes:
        return md5_digest(self.wire)


@message
class NewViewMsg(WireMemo):
    """The new primary's installation message.

    ``view_changes`` is the full V set — the 2f+1 VIEW-CHANGE messages the
    new primary acted on.  Carrying the messages themselves (not merely
    their digests) lets every backup independently recompute min-s and the
    re-proposed ``pre_prepares`` and reject a NEW-VIEW whose O set was
    fabricated.  ``pre_prepares`` re-propose (as :class:`PreparedProof`
    contents) every batch that might have committed in earlier views; a
    ``noop`` entry fills a sequence-number gap.
    """

    TAG = 8

    view: int
    view_changes: tuple[ViewChangeMsg, ...]
    pre_prepares: tuple[PreparedProof, ...]
    stable_seq: int
    sender: int

    LAYOUT = layout(
        TAG, sender=u16, view=u64, stable_seq=u64,
        view_changes=seq(boxed(ViewChangeMsg)), pre_prepares=seq(PreparedProof),
    )


@message
class StatusMsg(WireMemo):
    """Periodic/recovery gossip of a replica's progress.

    Peers respond with whatever the sender is missing (committed batches,
    checkpoint messages) — the retransmission backbone for recovery.
    """

    TAG = 9

    view: int
    last_exec_seq: int
    stable_seq: int
    sender: int
    recovering: bool = False

    LAYOUT = layout(
        TAG, sender=u16, view=u64, last_exec_seq=u64, stable_seq=u64, recovering=boolean
    )


@message
class BatchRetransmit(WireMemo):
    """A committed batch replayed to a lagging/recovering replica.

    Carries the original pre-prepare and the request bodies the receiver
    may lack.  One replica's word is no commit certificate: the receiver
    replays the batch only once f+1 replicas sent the same one, or it
    committed that batch itself.  It still authenticates the *client
    requests* inside — which is exactly where the restarted replica of
    paper section 2.3 stalls: its session keys are gone, so the
    authenticators fail until the clients' periodic refresh re-arrives.
    """

    TAG = 10

    pre_prepare: PrePrepare
    requests: tuple[Request, ...]
    sender: int

    LAYOUT = layout(
        TAG, sender=u16, pre_prepare=boxed(PrePrepare), requests=seq(boxed(Request)),
    )


@message
class FetchDigestsMsg(WireMemo):
    """State transfer: ask a peer for Merkle nodes of its stable checkpoint."""

    TAG = 11

    checkpoint_seq: int
    node_indices: tuple[int, ...]
    sender: int

    LAYOUT = layout(TAG, sender=u16, checkpoint_seq=u64, node_indices=seq(u32))


@message
class DigestsMsg(WireMemo):
    """State transfer: Merkle node digests from a stable checkpoint."""

    TAG = 12

    checkpoint_seq: int
    entries: tuple[tuple[int, bytes], ...]
    sender: int

    LAYOUT = layout(TAG, sender=u16, checkpoint_seq=u64, entries=seq(u32, DIGEST))


@message
class FetchPagesMsg(WireMemo):
    """State transfer: ask for the data of specific differing pages."""

    TAG = 13

    checkpoint_seq: int
    page_indices: tuple[int, ...]
    sender: int

    LAYOUT = layout(TAG, sender=u16, checkpoint_seq=u64, page_indices=seq(u32))


@message
class PagesMsg(WireMemo):
    """State transfer: page payloads for a stable checkpoint."""

    TAG = 14

    checkpoint_seq: int
    root: bytes
    pages: tuple[tuple[int, bytes], ...]
    sender: int
    # Per-client execution watermarks from the checkpoint's library
    # partition (the restarted replica needs them for at-most-once
    # semantics after jumping forward).
    client_marks: tuple[tuple[int, int], ...] = ()
    # The encoded last reply per client from the same partition.  Without
    # them a replica that learns a client's watermark by state transfer
    # treats the client's retransmissions as already executed but has
    # nothing cached to resend — a reply black hole.
    client_replies: tuple[tuple[int, bytes], ...] = ()

    LAYOUT = layout(
        TAG, sender=u16, checkpoint_seq=u64, root=DIGEST, pages=seq(u32, blob),
        client_marks=seq(u32, u64), client_replies=seq(u32, blob),
    )


@message
class DurableImage:
    """Everything a replica keeps across a crash (paper section 2.3): its
    latest stable checkpoint (pages, library pages included, client marks
    and replies) and what view-synchronised restart reads.  ``next_seq``
    (at least ``stable_seq``) is kept so a primary restarting into its own
    view never assigns a number twice.  No pages: a new machine's empty
    disk, which starts from genesis."""

    pages: tuple[bytes, ...]
    view: int = 0
    view_evidence: tuple[tuple[int, int], ...] = ()  # (replica, view it installed)
    next_seq: int = 0
    stable_seq: int = 0
    root: bytes = bytes(DIGEST_SIZE)
    proof: tuple[tuple[int, bytes], ...] = ()  # (replica, root) checkpoint votes
    client_marks: tuple[tuple[int, int], ...] = ()
    client_replies: tuple[tuple[int, Reply], ...] = ()

    LAYOUT = layout(
        view=u64, view_evidence=seq(u16, u64), next_seq=u64, stable_seq=u64, root=DIGEST,
        proof=seq(u16, DIGEST), pages=seq(blob), client_marks=seq(u32, u64),
        client_replies=seq(u32, boxed(Reply)),
    )


@message
class AuthenticatorRefresh(WireMemo):
    """A client's blind periodic rebroadcast of its session keys.

    Paper section 2.3: "the blind retransmission of the authenticators from
    each node to all replicas, based on a timer" is the only way a
    restarted replica re-learns the keys it needs to validate client
    requests.  Keys are conceptually encrypted under each replica's public
    key; the simulator charges the corresponding sizes and costs.
    """

    TAG = 15
    SENDER_KIND = SENDER_FIELD = "client"

    client: int
    keys: tuple[tuple[int, bytes], ...]  # (replica, 16-byte key material)

    # Each key ships as a public-key encrypted block (~64 bytes for the
    # small simulated Rabin moduli); the encoding carries the 16 key bytes.
    LAYOUT = layout(TAG, client=u32, keys=seq(u16, raw(16, charged=64)))


# Operations whose first byte is this prefix are middleware system
# requests (Join phase 2, Leave, replica Reconfig) — ordered like client
# requests but executed by the middleware, invisible to the application.
# The second byte says which (payload codecs: repro.membership.messages).
SYSTEM_OP_PREFIX = 0xFF
SYS_JOIN2 = 1
SYS_LEAVE = 2
SYS_RECONFIG = 3

# BUSY reply reason codes (admission pipeline, see DESIGN.md overload
# section): the request was shed from a full queue, rejected because the
# client already has an operation in flight, or rejected for size.
BUSY_SHED = 0
BUSY_INFLIGHT = 1
BUSY_OVERSIZED = 2


@message
class BusyReply(WireMemo):
    """Explicit backpressure: the replica refused to queue a request.

    Sent instead of silently dropping when the admission pipeline sheds
    a request (queue budget exceeded) or rejects it (oversized).  Carries
    a retry-after hint and the queue depth observed at rejection time so
    clients can back off proportionally.  Advisory for timing only — a
    forged BUSY merely delays one retransmission — except for
    ``BUSY_OVERSIZED``, where the client requires f+1 matching replies
    from distinct replicas before failing the operation permanently.
    """

    TAG = 16

    view: int
    req_id: int
    client: int
    sender: int
    reason: int
    retry_after_ns: int
    queue_depth: int

    LAYOUT = layout(
        TAG, sender=u16, view=u64, req_id=u64, client=u32,
        reason=u8, retry_after_ns=u64, queue_depth=u32,
    )


def decode_message(data: bytes):
    """Decode any tagged message from its canonical bytes."""
    return decode_exact(MESSAGES, data)
