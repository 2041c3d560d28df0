"""The paper's section 2.2 summaries of the common-clock message log.

The fabric puts every datagram on the tracer's ``net`` track.  These
functions read it from Chrome ``traceEvents`` dicts: in process from
:func:`repro.obs.export.chrome_trace_events`, or from any trace file
``repro.obs`` wrote.

Run:  python -m repro.obs.report TRACE {traffic,timeline,quadratic N}
"""

from __future__ import annotations

import argparse
import json
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

AGREEMENT_KINDS = ("Request", "PrePrepare", "Prepare", "Commit", "Reply")


class PacketEvent(NamedTuple):
    """One traced datagram, stamped with its send time in ns."""

    time: int
    src: str  # host names
    dst: str
    kind: str
    size: int
    reason: str  # why it was dropped; "" if it flew


def packets(events: list[dict]) -> list[PacketEvent]:
    """Every datagram in send order: the one reader of the event shape
    ``NetworkFabric._trace_packet`` writes."""
    out = []
    for e in events:
        if e.get("cat") in ("net", "net.drop"):
            a = e["args"]
            src, dst = a["src"].rsplit(":", 1)[0], a["dst"].rsplit(":", 1)[0]
            kind = a.get("kind", e["name"])  # a drop's name has a suffix
            out.append(PacketEvent(round(e["ts"] * 1000), src, dst, kind, a["size"],
                                   a.get("reason", "")))
    return out


@dataclass
class Traffic:
    """Datagrams and bytes by kind, datagrams per link and per drop reason."""

    messages_by_kind: Counter
    bytes_by_kind: Counter
    messages_by_link: Counter
    drops_by_reason: Counter

    def format(self) -> str:
        rule = "-" * 40
        lines = [f"{'Message kind':16s} {'count':>8s} {'bytes':>12s}", rule]
        for kind, count in self.messages_by_kind.most_common():
            lines.append(f"{kind:16s} {count:8d} {self.bytes_by_kind[kind]:12d}")
        lines += [rule, f"{'total':16s} {self.messages_by_kind.total():8d} "
                  f"{self.bytes_by_kind.total():12d}"]
        if self.drops_by_reason:
            lines.append(f"drops: {dict(self.drops_by_reason)}")
        return "\n".join(lines)


def traffic(events: list[dict]) -> Traffic:
    sent = packets(events)
    kind_bytes: Counter = Counter()
    for p in sent:
        kind_bytes[p.kind] += p.size
    links = Counter((p.src, p.dst) for p in sent)
    drops = Counter(p.reason for p in sent if p.reason)
    return Traffic(Counter(p.kind for p in sent), kind_bytes, links, drops)


def messages_per_request(events: list[dict], completed_requests: int) -> float:
    """Protocol overhead: agreement datagrams per completed request."""
    if completed_requests <= 0:
        return float("inf")
    return sum(p.kind in AGREEMENT_KINDS for p in packets(events)) / completed_requests


def quadratic_rounds(events: list[dict], n_replicas: int) -> dict[str, float]:
    """The paper's WAN worry: each of the n-1 backups multicasts a prepare
    and every replica a commit to its n-1 peers, so both are Θ(n²)."""
    kinds = Counter(p.kind for p in packets(events))
    rounds = max(1, kinds["PrePrepare"] // max(1, n_replicas - 1))
    return {
        "rounds": rounds,
        "prepares_per_round": kinds["Prepare"] / rounds,
        "commits_per_round": kinds["Commit"] / rounds,
        "expected_prepares_per_round": (n_replicas - 1) ** 2,
        "expected_commits_per_round": n_replicas * (n_replicas - 1),
    }


def timeline(events: list[dict], start: int = 0) -> list[str]:
    """The first datagram of each agreement kind sent from ``start`` ns."""
    first: dict[str, str] = {}
    for p in packets(events):
        if p.time >= start and p.kind in AGREEMENT_KINDS and p.kind not in first:
            first[p.kind] = f"t={p.time / 1e6:.3f}ms first {p.kind} ({p.src} -> {p.dst})"
    return list(first.values())


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser("python -m repro.obs.report")
    parser.add_argument("trace", help="a Chrome trace file written by repro.obs")
    views = parser.add_subparsers(dest="view", required=True)
    for view in ("traffic", "timeline"):
        views.add_parser(view)
    views.add_parser("quadratic").add_argument("n", type=int, help="replicas")
    args = parser.parse_args(argv)
    with open(args.trace, encoding="utf-8") as fh:
        events = json.load(fh)["traceEvents"]
    if args.view == "traffic":
        print(traffic(events).format())
    elif args.view == "timeline":
        print("\n".join(timeline(events)))
    else:
        for key, value in quadratic_rounds(events, args.n).items():
            print(f"{key:28s} {value:g}")


if __name__ == "__main__":
    main()
