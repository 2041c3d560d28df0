"""Protocol messages.

Every message knows how to encode itself canonically (for authentication
and for wire sizing) and how to decode back; ``decode(encode(m)) == m`` is
property-tested.  The set mirrors the original PBFT implementation: the
three-phase agreement messages, replies, checkpointing, view changes,
status/retransmission, state-transfer fetches, and the periodic
authenticator refresh of paper section 2.3.
"""

from __future__ import annotations

import struct
import sys
from dataclasses import MISSING, dataclass, fields

from repro.common.errors import ProtocolError
from repro.crypto.digests import DIGEST_SIZE, md5_digest, memo_digest
from repro.pbft.wire import Decoder, Encoder

# Sequence number used before any request is assigned one.
NO_SEQ = 0


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


def message(cls):
    """``@dataclass(frozen=True)`` with a constructor that stores once.

    The stock generated ``__init__`` of a frozen dataclass makes one
    ``object.__setattr__`` call per field; a run builds over a dozen
    messages per operation, which made it the largest single leaf of the
    null workload.  This one binds every field with a single store of the
    instance ``__dict__``.  That is safe because the class is frozen —
    ``__setattr__``/``__delattr__`` raise, so nothing rebinds the dict
    afterwards (``_lazy`` memos are added *to* it) — and because the stock
    constructor validates nothing that could be skipped: it only assigns.
    Everything else (``fields``, ``eq``/``hash``/``repr``, ``replace()``)
    is the dataclass's own.  A class whose construction does more than
    assign positional-or-keyword arguments — ``__post_init__``, a
    ``default_factory``, ``init=False`` or ``kw_only`` fields — keeps the
    stock constructor.

    The constructor is compiled against the defining module's file at the
    decorator's line, so each has its own ``(co_filename,
    co_firstlineno)``: profilers key rows by that pair, and the stock
    ones all share ``('<string>', 2)``, where ``pstats`` keeps one class's
    time and drops the rest.
    """
    cls = dataclass(frozen=True)(cls)
    flds = fields(cls)
    if hasattr(cls, "__post_init__") or any(
        not f.init or f.kw_only or f.default_factory is not MISSING for f in flds
    ):
        return cls
    names = [f.name for f in flds]
    source = (
        "\n" * (sys._getframe(1).f_lineno - 1)
        + f"def __init__(self, {', '.join(names)}):\n"
        + f"    _store(self, '__dict__', {{{', '.join(f'{n!r}: {n}' for n in names)}}})\n"
    )
    namespace = {"__name__": cls.__module__, "_store": object.__setattr__}
    exec(compile(source, sys.modules[cls.__module__].__file__, "exec"), namespace)
    init = namespace["__init__"]
    # Defaulted fields are trailing ones (dataclass enforces it), which is
    # exactly what __defaults__ describes.
    init.__defaults__ = tuple(f.default for f in flds if f.default is not MISSING)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {**{f.name: f.type for f in flds}, "return": None}
    cls.__init__ = init
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

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.KIND = cls.__name__

    #: Canonical encoding, computed at most once per object.
    wire = _lazy(lambda self: self.encode())

    #: Accounted wire size, computed at most once per object.  Derived from
    #: ``body_size()``, *not* ``len(self.wire)``: the two intentionally
    #: differ for messages whose simulated wire cost covers material the
    #: in-memory encoding elides (``AuthenticatorRefresh`` charges
    #: public-key-encrypted blocks per key entry).
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

    client: int
    req_id: int
    op: bytes
    readonly: bool = False
    big: bool = False

    _HEAD = struct.Struct(">BIQI")  # tag, client, req_id, len(op)
    _FLAGS = struct.Struct(">??")  # readonly, big

    def encode(self) -> bytes:
        return (
            self._HEAD.pack(self.TAG, self.client, self.req_id, len(self.op))
            + self.op
            + self._FLAGS.pack(self.readonly, self.big)
        )

    @classmethod
    def decode(cls, dec: Decoder) -> "Request":
        tag, client, req_id, op_len = dec.unpack(cls._HEAD)
        if tag != cls.TAG:
            raise ProtocolError("not a Request")
        op = dec.raw(op_len)
        readonly, big = dec.unpack(cls._FLAGS)
        return cls(client=client, req_id=req_id, op=op, readonly=readonly, big=big)

    @_lazy
    def digest(self) -> bytes:
        return md5_digest(self.wire)

    def body_size(self) -> int:
        return 1 + 4 + 8 + (4 + len(self.op)) + 1 + 1


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

    def encode_header(self) -> bytes:
        enc = (
            Encoder()
            .u8(self.TAG)
            .u16(self.sender)
            .u64(self.view)
            .u64(self.seq)
            .blob(self.nondet)
        )
        enc.sequence(self.request_digests, lambda e, d: e.raw(d))
        return enc.finish()

    def encode(self) -> bytes:
        enc = Encoder().raw(self.encode_header())
        enc.sequence(self.inline_requests, lambda e, r: e.blob(r.encode()))
        return enc.finish()

    @classmethod
    def decode(cls, dec: Decoder) -> "PrePrepare":
        if dec.u8() != cls.TAG:
            raise ProtocolError("not a PrePrepare")
        sender = dec.u16()
        view = dec.u64()
        seq = dec.u64()
        nondet = dec.blob()
        digests = tuple(dec.sequence(lambda d: d.raw(DIGEST_SIZE)))
        inline = tuple(
            dec.sequence(lambda d: Request.decode(Decoder(d.blob())))
        )
        return cls(
            view=view,
            seq=seq,
            request_digests=digests,
            nondet=nondet,
            inline_requests=inline,
            sender=sender,
        )

    #: Memoized header encoding (the authenticated portion).
    header_wire = _lazy(encode_header)

    @_lazy
    def batch_digest(self) -> bytes:
        """Digest identifying (view, seq, batch, nondet) for prepare/commit."""
        return md5_digest(self.header_wire)

    def body_size(self) -> int:
        size = 1 + 2 + 8 + 8 + (4 + len(self.nondet))
        size += 4 + DIGEST_SIZE * len(self.request_digests)
        size += 4 + sum(4 + r.body_size() for r in self.inline_requests)
        return size

    def auth_bytes(self) -> bytes:
        # Inline bodies are covered transitively by their digests.
        return self.header_wire


class _Vote(WireMemo):
    """Shared codec of the two agreement votes (identical layout)."""

    _HEAD = struct.Struct(">BHQQ")  # tag, sender, view, seq; then the digest

    def encode(self) -> bytes:
        return self._HEAD.pack(self.TAG, self.sender, self.view, self.seq) + self.batch_digest

    @classmethod
    def decode(cls, dec: Decoder):
        tag, sender, view, seq = dec.unpack(cls._HEAD)
        if tag != cls.TAG:
            raise ProtocolError(f"not a {cls.__name__}")
        return cls(view=view, seq=seq, batch_digest=dec.raw(DIGEST_SIZE), sender=sender)

    def body_size(self) -> int:
        return 1 + 2 + 8 + 8 + DIGEST_SIZE


@message
class Prepare(_Vote):
    """A backup's agreement to the primary's sequence assignment."""

    TAG = 3

    view: int
    seq: int
    batch_digest: bytes
    sender: int


@message
class Commit(_Vote):
    """Second-round vote guaranteeing total order across views."""

    TAG = 4

    view: int
    seq: int
    batch_digest: bytes
    sender: int


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

    # tag, sender, view, req_id, client, tentative, digest_only, len(result)
    _HEAD = struct.Struct(">BHQQI??I")

    def encode(self) -> bytes:
        return self._HEAD.pack(
            self.TAG, self.sender, self.view, self.req_id, self.client,
            self.tentative, self.digest_only, len(self.result),
        ) + self.result

    @classmethod
    def decode(cls, dec: Decoder) -> "Reply":
        tag, sender, view, req_id, client, tentative, digest_only, size = dec.unpack(
            cls._HEAD
        )
        if tag != cls.TAG:
            raise ProtocolError("not a Reply")
        return cls(
            view=view, req_id=req_id, client=client, sender=sender,
            result=dec.raw(size), tentative=tentative, digest_only=digest_only,
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

    def body_size(self) -> int:
        return 1 + 2 + 8 + 8 + 4 + 1 + 1 + (4 + len(self.result))


@message
class CheckpointMsg(WireMemo):
    """Proof-of-state message broadcast every K executions."""

    TAG = 6

    seq: int
    root: bytes
    sender: int

    _HEAD = struct.Struct(">BHQ")  # tag, sender, seq; then the root

    def encode(self) -> bytes:
        return self._HEAD.pack(self.TAG, self.sender, self.seq) + self.root

    @classmethod
    def decode(cls, dec: Decoder) -> "CheckpointMsg":
        tag, sender, seq = dec.unpack(cls._HEAD)
        if tag != cls.TAG:
            raise ProtocolError("not a CheckpointMsg")
        return cls(sender=sender, seq=seq, root=dec.raw(DIGEST_SIZE))

    def body_size(self) -> int:
        return 1 + 2 + 8 + DIGEST_SIZE


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

    def encode_into(self, enc: Encoder) -> None:
        enc.u64(self.seq).u64(self.view).raw(self.batch_digest)
        enc.boolean(self.noop)
        enc.blob(self.nondet)
        enc.sequence(self.request_digests, lambda e, d: e.raw(d))

    @classmethod
    def decode_from(cls, dec: Decoder) -> "PreparedProof":
        seq = dec.u64()
        view = dec.u64()
        batch_digest = dec.raw(DIGEST_SIZE)
        noop = dec.boolean()
        nondet = dec.blob()
        digests = tuple(dec.sequence(lambda d: d.raw(DIGEST_SIZE)))
        return cls(
            seq=seq,
            view=view,
            batch_digest=batch_digest,
            request_digests=digests,
            nondet=nondet,
            noop=noop,
        )

    def size(self) -> int:
        return (
            8 + 8 + DIGEST_SIZE + 1 + (4 + len(self.nondet))
            + 4 + DIGEST_SIZE * len(self.request_digests)
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

    def encode(self) -> bytes:
        enc = (
            Encoder()
            .u8(self.TAG)
            .u16(self.sender)
            .u64(self.new_view)
            .u64(self.stable_seq)
            .raw(self.stable_root)
        )
        enc.sequence(
            self.checkpoint_proof, lambda e, rv: e.u16(rv[0]).raw(rv[1])
        )
        enc.sequence(self.prepared, lambda e, p: p.encode_into(e))
        return enc.finish()

    @classmethod
    def decode(cls, dec: Decoder) -> "ViewChangeMsg":
        if dec.u8() != cls.TAG:
            raise ProtocolError("not a ViewChangeMsg")
        sender = dec.u16()
        new_view = dec.u64()
        stable_seq = dec.u64()
        stable_root = dec.raw(DIGEST_SIZE)
        proof = tuple(
            dec.sequence(lambda d: (d.u16(), d.raw(DIGEST_SIZE)))
        )
        prepared = tuple(dec.sequence(PreparedProof.decode_from))
        return cls(
            new_view=new_view,
            stable_seq=stable_seq,
            stable_root=stable_root,
            checkpoint_proof=proof,
            prepared=prepared,
            sender=sender,
        )

    @_lazy
    def digest(self) -> bytes:
        return md5_digest(self.wire)

    def body_size(self) -> int:
        return (
            1 + 2 + 8 + 8 + DIGEST_SIZE
            + 4 + len(self.checkpoint_proof) * (2 + DIGEST_SIZE)
            + 4 + sum(p.size() for p in self.prepared)
        )


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

    def encode(self) -> bytes:
        enc = (
            Encoder()
            .u8(self.TAG)
            .u16(self.sender)
            .u64(self.view)
            .u64(self.stable_seq)
        )
        enc.sequence(self.view_changes, lambda e, vc: e.blob(vc.encode()))
        enc.sequence(self.pre_prepares, lambda e, p: p.encode_into(e))
        return enc.finish()

    @classmethod
    def decode(cls, dec: Decoder) -> "NewViewMsg":
        if dec.u8() != cls.TAG:
            raise ProtocolError("not a NewViewMsg")
        sender = dec.u16()
        view = dec.u64()
        stable_seq = dec.u64()
        vcs = tuple(
            dec.sequence(lambda d: ViewChangeMsg.decode(Decoder(d.blob())))
        )
        pps = tuple(dec.sequence(PreparedProof.decode_from))
        return cls(
            view=view,
            view_changes=vcs,
            pre_prepares=pps,
            stable_seq=stable_seq,
            sender=sender,
        )

    @property
    def view_change_digests(self) -> tuple[tuple[int, bytes], ...]:
        return tuple((vc.sender, vc.digest) for vc in self.view_changes)

    def body_size(self) -> int:
        return (
            1 + 2 + 8 + 8
            + 4 + sum(4 + vc.body_size() for vc in self.view_changes)
            + 4 + sum(p.size() for p in self.pre_prepares)
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

    # tag, sender, view, last_exec_seq, stable_seq, recovering
    _LAYOUT = struct.Struct(">BHQQQ?")

    def encode(self) -> bytes:
        return self._LAYOUT.pack(
            self.TAG, self.sender, self.view, self.last_exec_seq,
            self.stable_seq, self.recovering,
        )

    @classmethod
    def decode(cls, dec: Decoder) -> "StatusMsg":
        tag, sender, view, last_exec_seq, stable_seq, recovering = dec.unpack(cls._LAYOUT)
        if tag != cls.TAG:
            raise ProtocolError("not a StatusMsg")
        return cls(
            view=view, last_exec_seq=last_exec_seq, stable_seq=stable_seq,
            sender=sender, recovering=recovering,
        )

    def body_size(self) -> int:
        return 1 + 2 + 8 + 8 + 8 + 1


@message
class BatchRetransmit(WireMemo):
    """A committed batch replayed to a lagging/recovering replica.

    Carries the original pre-prepare (with full request bodies) plus the
    commit certificate.  The receiver still authenticates the *client
    requests* inside — which is exactly where the restarted replica of
    paper section 2.3 stalls: its session keys are gone, so the
    authenticators fail until the clients' periodic refresh re-arrives.
    """

    TAG = 10

    pre_prepare: PrePrepare
    commit_proof: tuple[int, ...]  # replicas whose commits certify the batch
    requests: tuple[Request, ...]
    sender: int

    def encode(self) -> bytes:
        enc = Encoder().u8(self.TAG).u16(self.sender)
        enc.blob(self.pre_prepare.encode())
        enc.sequence(self.commit_proof, lambda e, r: e.u16(r))
        enc.sequence(self.requests, lambda e, r: e.blob(r.encode()))
        return enc.finish()

    @classmethod
    def decode(cls, dec: Decoder) -> "BatchRetransmit":
        if dec.u8() != cls.TAG:
            raise ProtocolError("not a BatchRetransmit")
        sender = dec.u16()
        pp = PrePrepare.decode(Decoder(dec.blob()))
        proof = tuple(dec.sequence(lambda d: d.u16()))
        reqs = tuple(dec.sequence(lambda d: Request.decode(Decoder(d.blob()))))
        return cls(pre_prepare=pp, commit_proof=proof, requests=reqs, sender=sender)

    def body_size(self) -> int:
        return (
            1 + 2 + (4 + self.pre_prepare.body_size())
            + 4 + 2 * len(self.commit_proof)
            + 4 + sum(4 + r.body_size() for r in self.requests)
        )


@message
class FetchDigestsMsg(WireMemo):
    """State transfer: ask a peer for Merkle nodes of its stable checkpoint."""

    TAG = 11

    checkpoint_seq: int
    node_indices: tuple[int, ...]
    sender: int

    def encode(self) -> bytes:
        enc = Encoder().u8(self.TAG).u16(self.sender).u64(self.checkpoint_seq)
        enc.sequence(self.node_indices, lambda e, i: e.u32(i))
        return enc.finish()

    @classmethod
    def decode(cls, dec: Decoder) -> "FetchDigestsMsg":
        if dec.u8() != cls.TAG:
            raise ProtocolError("not a FetchDigestsMsg")
        sender = dec.u16()
        seq = dec.u64()
        idx = tuple(dec.sequence(lambda d: d.u32()))
        return cls(checkpoint_seq=seq, node_indices=idx, sender=sender)

    def body_size(self) -> int:
        return 1 + 2 + 8 + 4 + 4 * len(self.node_indices)


@message
class DigestsMsg(WireMemo):
    """State transfer: Merkle node digests from a stable checkpoint."""

    TAG = 12

    checkpoint_seq: int
    entries: tuple[tuple[int, bytes], ...]
    sender: int

    def encode(self) -> bytes:
        enc = Encoder().u8(self.TAG).u16(self.sender).u64(self.checkpoint_seq)
        enc.sequence(self.entries, lambda e, nd: e.u32(nd[0]).raw(nd[1]))
        return enc.finish()

    @classmethod
    def decode(cls, dec: Decoder) -> "DigestsMsg":
        if dec.u8() != cls.TAG:
            raise ProtocolError("not a DigestsMsg")
        sender = dec.u16()
        seq = dec.u64()
        entries = tuple(dec.sequence(lambda d: (d.u32(), d.raw(DIGEST_SIZE))))
        return cls(checkpoint_seq=seq, entries=entries, sender=sender)

    def body_size(self) -> int:
        return 1 + 2 + 8 + 4 + len(self.entries) * (4 + DIGEST_SIZE)


@message
class FetchPagesMsg(WireMemo):
    """State transfer: ask for the data of specific differing pages."""

    TAG = 13

    checkpoint_seq: int
    page_indices: tuple[int, ...]
    sender: int

    def encode(self) -> bytes:
        enc = Encoder().u8(self.TAG).u16(self.sender).u64(self.checkpoint_seq)
        enc.sequence(self.page_indices, lambda e, i: e.u32(i))
        return enc.finish()

    @classmethod
    def decode(cls, dec: Decoder) -> "FetchPagesMsg":
        if dec.u8() != cls.TAG:
            raise ProtocolError("not a FetchPagesMsg")
        sender = dec.u16()
        seq = dec.u64()
        idx = tuple(dec.sequence(lambda d: d.u32()))
        return cls(checkpoint_seq=seq, page_indices=idx, sender=sender)

    def body_size(self) -> int:
        return 1 + 2 + 8 + 4 + 4 * len(self.page_indices)


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

    def encode(self) -> bytes:
        enc = Encoder().u8(self.TAG).u16(self.sender).u64(self.checkpoint_seq)
        enc.raw(self.root)
        enc.sequence(self.pages, lambda e, ip: e.u32(ip[0]).blob(ip[1]))
        enc.sequence(self.client_marks, lambda e, cm: e.u32(cm[0]).u64(cm[1]))
        enc.sequence(self.client_replies, lambda e, cr: e.u32(cr[0]).blob(cr[1]))
        return enc.finish()

    @classmethod
    def decode(cls, dec: Decoder) -> "PagesMsg":
        if dec.u8() != cls.TAG:
            raise ProtocolError("not a PagesMsg")
        sender = dec.u16()
        seq = dec.u64()
        root = dec.raw(DIGEST_SIZE)
        pages = tuple(dec.sequence(lambda d: (d.u32(), d.blob())))
        marks = tuple(dec.sequence(lambda d: (d.u32(), d.u64())))
        replies = tuple(dec.sequence(lambda d: (d.u32(), d.blob())))
        return cls(
            checkpoint_seq=seq,
            root=root,
            pages=pages,
            sender=sender,
            client_marks=marks,
            client_replies=replies,
        )

    def body_size(self) -> int:
        return (
            1 + 2 + 8 + DIGEST_SIZE
            + 4 + sum(4 + 4 + len(data) for _, data in self.pages)
            + 4 + len(self.client_marks) * 12
            + 4 + sum(4 + 4 + len(data) for _, data in self.client_replies)
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

    client: int
    keys: tuple[tuple[int, bytes], ...]  # (replica, 16-byte key material)

    def encode(self) -> bytes:
        enc = Encoder().u8(self.TAG).u32(self.client)
        enc.sequence(self.keys, lambda e, rk: e.u16(rk[0]).raw(rk[1]))
        return enc.finish()

    @classmethod
    def decode(cls, dec: Decoder) -> "AuthenticatorRefresh":
        if dec.u8() != cls.TAG:
            raise ProtocolError("not an AuthenticatorRefresh")
        client = dec.u32()
        keys = tuple(dec.sequence(lambda d: (d.u16(), d.raw(16))))
        return cls(client=client, keys=keys)

    def body_size(self) -> int:
        # Each key entry ships as a public-key encrypted block (~64 bytes
        # for the small simulated Rabin moduli).
        return 1 + 4 + 4 + len(self.keys) * (2 + 64)


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

    # tag, sender, view, req_id, client, reason, retry_after_ns, queue_depth
    _LAYOUT = struct.Struct(">BHQQIBQI")

    def encode(self) -> bytes:
        return self._LAYOUT.pack(
            self.TAG, self.sender, self.view, self.req_id, self.client,
            self.reason, self.retry_after_ns, self.queue_depth,
        )

    @classmethod
    def decode(cls, dec: Decoder) -> "BusyReply":
        tag, sender, view, req_id, client, reason, retry_after_ns, queue_depth = (
            dec.unpack(cls._LAYOUT)
        )
        if tag != cls.TAG:
            raise ProtocolError("not a BusyReply")
        return cls(
            view=view, req_id=req_id, client=client, sender=sender,
            reason=reason, retry_after_ns=retry_after_ns, queue_depth=queue_depth,
        )

    def body_size(self) -> int:
        return 1 + 2 + 8 + 8 + 4 + 1 + 8 + 4


_TAG_TO_CLASS = {
    cls.TAG: cls
    for cls in (
        Request,
        PrePrepare,
        Prepare,
        Commit,
        Reply,
        CheckpointMsg,
        ViewChangeMsg,
        NewViewMsg,
        StatusMsg,
        BatchRetransmit,
        FetchDigestsMsg,
        DigestsMsg,
        FetchPagesMsg,
        PagesMsg,
        AuthenticatorRefresh,
        BusyReply,
    )
}


def decode_message(data: bytes):
    """Decode any protocol message from its canonical bytes."""
    if not data:
        raise ProtocolError("empty message")
    cls = _TAG_TO_CLASS.get(data[0])
    if cls is None:
        raise ProtocolError(f"unknown message tag {data[0]}")
    dec = Decoder(data)
    msg = cls.decode(dec)
    dec.expect_end()
    return msg
