"""Membership campaign: measured availability vs the analytic Markov model.

Two experiment families, both riding the fault-campaign machinery:

* **Markov churn scenarios** — every replica independently alternates
  exponentially distributed up/down periods (the two-state fail/repair
  chain of "Dynamic Practical BFT", arXiv:2210.14003, and "Repairable
  Voting Nodes", arXiv:2306.10960).  With per-replica steady-state
  availability ``a = mean_up / (mean_up + mean_down)``, the group can
  order requests whenever at least 2f+1 replicas are up, so the analytic
  service availability is the binomial tail

      A = sum_{k=2f+1}^{n} C(n,k) a^k (1-a)^(n-k).

  The runner measures the fraction of sampled instants with >= 2f+1 live
  replicas inside the churn window and reports it against A; beside it,
  ``service_availability`` is the share of 10 ms bins of that window in
  which the group actually completed an operation.

* **Live replica replace** — a RECONFIG_REPLACE ordered through the
  protocol followed by the physical machine swap, under packet loss; the
  runner reports goodput before / during / after the bootstrap window and
  requires zero committed-op loss plus membership safety (invariant #7).

``run_membership_bench`` composes both into the BENCH_membership.json
artifact the CI smoke job gates against.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, comb

from repro.common.units import MILLISECOND, SECOND
from repro.faults.campaign import campaign_config, execute
from repro.faults.schedule import (
    FaultSchedule,
    LinkDisturbance,
    MarkovChurn,
    ReplicaReplace,
    Trigger,
)
from repro.pbft.cluster import Cluster


@dataclass(frozen=True)
class MembershipScenario:
    """One Markov fail/repair regime applied to every replica."""

    name: str
    mean_up_ns: int
    mean_down_ns: int
    churn_ns: int = 2000 * MILLISECOND

    @property
    def replica_availability(self) -> float:
        return self.mean_up_ns / (self.mean_up_ns + self.mean_down_ns)


#: The standard sweep: a healthy fleet, the steady-churn regime, and a
#: fragile one whose analytic availability drops below one half.
MEMBERSHIP_SCENARIOS: tuple[MembershipScenario, ...] = (
    MembershipScenario("healthy", 900 * MILLISECOND, 100 * MILLISECOND),
    MembershipScenario("steady", 400 * MILLISECOND, 100 * MILLISECOND),
    MembershipScenario("fragile", 250 * MILLISECOND, 250 * MILLISECOND),
)


def analytic_availability(f: int, mean_up_ns: int, mean_down_ns: int) -> float:
    """Quorum availability of n=3f+1 independently churning replicas."""
    a = mean_up_ns / (mean_up_ns + mean_down_ns)
    n = 3 * f + 1
    quorum = 2 * f + 1
    return sum(
        comb(n, k) * a**k * (1.0 - a) ** (n - k) for k in range(quorum, n + 1)
    )


def _quorum_sampler(start: int, end: int, samples: list[bool]):
    """An ``execute`` observer: append ">= 2f+1 replicas live" to
    ``samples`` every 2 ms of simulated time inside [start, end]."""

    def install(cluster: Cluster) -> None:
        quorum = cluster.config.quorum

        def sample() -> None:
            now = cluster.sim.now
            if now > end:
                return
            if now >= start:
                live = sum(1 for r in cluster.replicas if not r.crashed)
                samples.append(live >= quorum)
            cluster.sim.schedule(2 * MILLISECOND, sample)

        cluster.sim.schedule(start, sample)

    return install


def _service_availability(completed_at_ns: list[int], start: int, end: int) -> float:
    """Share of 10 ms bins of [start, end) with at least one completion."""
    bin_ns = 10 * MILLISECOND
    served = {(t - start) // bin_ns for t in completed_at_ns if start <= t < end}
    return len(served) / ceil((end - start) / bin_ns)


def run_markov_scenario(
    scenario: MembershipScenario, seed: int = 1, churn_ns: int | None = None
) -> dict:
    """Churn every replica per ``scenario``; measure quorum availability."""
    churn_ns = churn_ns if churn_ns is not None else scenario.churn_ns
    start_ns = 200 * MILLISECOND
    schedule = FaultSchedule(
        name=f"markov-{scenario.name}",
        description=f"independent Markov churn on every replica "
        f"(up~Exp({scenario.mean_up_ns / MILLISECOND:.0f}ms), "
        f"down~Exp({scenario.mean_down_ns / MILLISECOND:.0f}ms))",
        faults=tuple(
            MarkovChurn(
                replica=rid,
                mean_up_ns=scenario.mean_up_ns,
                mean_down_ns=scenario.mean_down_ns,
                duration_ns=churn_ns,
                start=Trigger(at_ns=start_ns),
            )
            for rid in range(campaign_config().n)
        ),
    )
    end_ns = start_ns + churn_ns
    samples: list[bool] = []
    result, cluster, ledger = execute(
        schedule,
        seed,
        run_ns=end_ns,
        before_faults=_quorum_sampler(start_ns, end_ns, samples),
    )
    predicted = analytic_availability(
        cluster.config.f, scenario.mean_up_ns, scenario.mean_down_ns
    )
    measured = (sum(samples) / len(samples)) if samples else 0.0
    in_window = sum(1 for t in ledger.completed_at_ns if start_ns <= t <= end_ns)
    return {
        "scenario": scenario.name,
        "seed": seed,
        "mean_up_ms": scenario.mean_up_ns / MILLISECOND,
        "mean_down_ms": scenario.mean_down_ns / MILLISECOND,
        "churn_ms": churn_ns / MILLISECOND,
        "replica_availability": scenario.replica_availability,
        "predicted_availability": predicted,
        "measured_availability": measured,
        "availability_ratio": (measured / predicted) if predicted else 0.0,
        "service_availability": _service_availability(
            ledger.completed_at_ns, start_ns, end_ns
        ),
        "goodput_in_window_ops_per_s": in_window / (churn_ns / SECOND),
        "completed_ops": result.completed_ops,
        "violations": [str(v) for v in result.violations],
    }


def run_replace_scenario(seed: int = 1, loss: float = 0.0) -> dict:
    """Live replica replace: goodput dip profile and zero committed loss.

    Defaults to a clean network so the before/during/after windows
    isolate the *replace* dip — under even 1% ambient loss the campaign
    config's goodput collapses for the whole loss window (stalled
    congestion window healed by 100-150 ms backstops), swamping the
    signal.  The replace-under-loss *correctness* claim is covered by
    the ``replace-replica-under-loss`` campaign schedule instead.
    """
    warmup_ns = 400 * MILLISECOND
    window_ns = 400 * MILLISECOND
    faults: tuple = (
        ReplicaReplace(slot=2, start=Trigger(at_ns=warmup_ns, at_seq=16)),
    )
    if loss:
        faults = (
            LinkDisturbance(
                start=Trigger(at_ns=100 * MILLISECOND),
                duration_ns=1900 * MILLISECOND,
                drop_probability=loss,
            ),
        ) + faults
    schedule = FaultSchedule(
        name="bench-replace",
        description="ordered replica replace mid-workload",
        faults=faults,
    )
    result, cluster, ledger = execute(schedule, seed, run_ns=2000 * MILLISECOND)

    def goodput(lo: int, hi: int) -> float:
        if hi <= lo:
            return 0.0
        ops = sum(1 for t in ledger.completed_at_ns if lo <= t < hi)
        return ops / ((hi - lo) / SECOND)

    before = goodput(0, warmup_ns)
    during = goodput(warmup_ns, warmup_ns + window_ns)
    after_start = warmup_ns + 2 * window_ns
    after = goodput(after_start, after_start + window_ns)
    new_replica = cluster.replicas[2]
    return {
        "scenario": "replace",
        "seed": seed,
        "loss": loss,
        "goodput_before_ops_per_s": before,
        "goodput_during_ops_per_s": during,
        "goodput_after_ops_per_s": after,
        "completed_ops": result.completed_ops,
        "replaced_replica_last_exec": new_replica.last_exec,
        "replaced_replica_epoch": new_replica.reconfig.epoch,
        "epochs": [r.reconfig.epoch for r in cluster.replicas],
        "violations": [str(v) for v in result.violations],
    }


#: Smoke-mode parameters: one seed, short churn.  The simulation is
#: deterministic, so CI can regenerate these rows and diff them against
#: the committed artifact.
SMOKE_SEED = 1
SMOKE_CHURN_NS = 800 * MILLISECOND


def _summarize_scenario(scenario: MembershipScenario, runs: list[dict]) -> dict:
    measured = sum(r["measured_availability"] for r in runs) / len(runs)
    predicted = runs[0]["predicted_availability"]
    ratio = (measured / predicted) if predicted else 0.0
    return {
        "scenario": scenario.name,
        "mean_up_ms": scenario.mean_up_ns / MILLISECOND,
        "mean_down_ms": scenario.mean_down_ns / MILLISECOND,
        "replica_availability": scenario.replica_availability,
        "predicted_availability": predicted,
        "measured_availability": measured,
        "availability_ratio": ratio,
        "service_availability": sum(r["service_availability"] for r in runs)
        / len(runs),
        "within_20pct": abs(ratio - 1.0) <= 0.20,
        "violations": sorted({v for r in runs for v in r["violations"]}),
        "per_seed": runs,
    }


def run_membership_bench(seeds: tuple[int, ...] = (1, 2, 3), smoke: bool = False) -> dict:
    """The membership benchmark: BENCH_membership.json's content.

    Full mode produces (a) the analytic-vs-measured availability table
    averaged over ``seeds`` at 2 s churn windows, (b) deterministic
    smoke-mode rows (seed 1, 800 ms churn) that the CI job regenerates
    and gates against, and (c) the live-replace goodput profile.  Smoke
    mode produces only (b) and (c).
    """
    smoke_rows = [
        run_markov_scenario(s, seed=SMOKE_SEED, churn_ns=SMOKE_CHURN_NS)
        for s in MEMBERSHIP_SCENARIOS
    ]
    replace = run_replace_scenario(seed=SMOKE_SEED)
    result = {
        "bench": "membership",
        "smoke_seed": SMOKE_SEED,
        "smoke_churn_ms": SMOKE_CHURN_NS / MILLISECOND,
        "smoke_scenarios": smoke_rows,
        "replace": replace,
    }
    if not smoke:
        result["seeds"] = list(seeds)
        result["scenarios"] = [
            _summarize_scenario(
                s, [run_markov_scenario(s, seed=seed) for seed in seeds]
            )
            for s in MEMBERSHIP_SCENARIOS
        ]
    return result


def format_membership(results: dict) -> str:
    lines = []
    if "scenarios" in results:
        lines += [
            "Membership campaign: measured vs analytic Markov availability "
            f"(seeds {results['seeds']}, 2000ms windows)",
            f"{'scenario':<10} {'a(replica)':>10} {'A(pred)':>8} "
            f"{'A(meas)':>8} {'A(serv)':>8} {'ratio':>6}  20%?  violations",
        ]
        for row in results["scenarios"]:
            lines.append(
                f"{row['scenario']:<10} {row['replica_availability']:>10.3f} "
                f"{row['predicted_availability']:>8.4f} "
                f"{row['measured_availability']:>8.4f} "
                f"{row['service_availability']:>8.4f} "
                f"{row['availability_ratio']:>6.2f}  "
                f"{'yes' if row['within_20pct'] else 'NO ':<4} "
                f"{len(row['violations'])}"
            )
    lines.append(
        f"smoke rows (seed {results['smoke_seed']}, "
        f"{results['smoke_churn_ms']:.0f}ms windows):"
    )
    for row in results["smoke_scenarios"]:
        lines.append(
            f"  {row['scenario']:<10} A(meas) {row['measured_availability']:.4f} "
            f"A(serv) {row['service_availability']:.4f} "
            f"goodput {row['goodput_in_window_ops_per_s']:.1f} op/s "
            f"{len(row['violations'])} violations"
        )
    rep = results["replace"]
    lines.append(
        f"replace: goodput {rep['goodput_before_ops_per_s']:.0f} -> "
        f"{rep['goodput_during_ops_per_s']:.0f} -> "
        f"{rep['goodput_after_ops_per_s']:.0f} op/s "
        f"(before/during/after), epochs {rep['epochs']}, "
        f"{len(rep['violations'])} violations"
    )
    return "\n".join(lines)
