"""WAN deployment scenarios (paper section 3.3.3).

"We aim to have the replicas located in different physical locations ...
This requirement dictates operation in a Wide Area Network environment,
where the quadratic message complexity of PBFT will most probably prove
costly regarding request latency.  Although we tried to simulate a WAN
deployment scenario using BFTsim, the simulator could not scale..."

Our simulator scales fine, so the experiment the authors could not run is
provided here: the same middleware over LAN / metro / WAN latency
profiles, measuring what geography does to throughput and latency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.units import MICROSECOND, MILLISECOND
from repro.harness.measure import Measurement, run_null_workload
from repro.net.fabric import LinkSpec, NetworkConfig
from repro.pbft.config import PbftConfig


@dataclass(frozen=True)
class WanProfile:
    name: str
    one_way_latency_ns: int
    jitter_ns: int
    bandwidth_bps: int


LAN = WanProfile("lan-1gbe", 70 * MICROSECOND, 10 * MICROSECOND, 938_000_000)
METRO = WanProfile("metro", 2 * MILLISECOND, 200 * MICROSECOND, 500_000_000)
CONTINENTAL = WanProfile("continental-wan", 20 * MILLISECOND, 2 * MILLISECOND, 100_000_000)
INTERCONTINENTAL = WanProfile(
    "intercontinental-wan", 75 * MILLISECOND, 8 * MILLISECOND, 50_000_000
)

PROFILES = (LAN, METRO, CONTINENTAL, INTERCONTINENTAL)


def net_config_for(profile: WanProfile) -> NetworkConfig:
    return NetworkConfig(
        default_link=LinkSpec(
            latency_ns=profile.one_way_latency_ns,
            jitter_ns=profile.jitter_ns,
            bandwidth_bps=profile.bandwidth_bps,
        )
    )


def tuned_config(profile: WanProfile, base: PbftConfig | None = None) -> PbftConfig:
    """``base`` with its timeouts scaled to the profile's round trip, so
    the protocol is measured rather than spurious retransmissions.  The
    backoff cap grows by the factor its base interval grew by."""
    base = base or PbftConfig()
    rtt = 2 * profile.one_way_latency_ns
    retransmit_ns = max(base.client_retransmit_ns, 20 * rtt)
    tuned = base.with_options(
        client_retransmit_ns=retransmit_ns,
        client_retransmit_cap_ns=(
            base.client_retransmit_cap_ns * retransmit_ns // base.client_retransmit_ns
        ),
        view_change_timeout_ns=max(base.view_change_timeout_ns, 60 * rtt),
    )
    tuned.validate()
    return tuned


def run_wan_sweep(
    profiles: tuple[WanProfile, ...] = PROFILES,
    measure_s: float = 0.8,
    seed: int = 3,
    config: PbftConfig | None = None,
) -> list[tuple[WanProfile, Measurement]]:
    """Run the default null workload across latency profiles."""
    results = []
    for profile in profiles:
        measurement = run_null_workload(
            tuned_config(profile, config),
            name=profile.name,
            measure_s=measure_s,
            warmup_s=max(0.2, 80 * profile.one_way_latency_ns / 1e9),  # 40 round trips
            seed=seed,
            net_config=net_config_for(profile),
        )
        results.append((profile, measurement))
    return results


def format_wan(results: list[tuple[WanProfile, Measurement]]) -> str:
    from repro.common.units import format_duration

    header = f"{'Profile':24s} {'one-way':>10s} {'TPS':>8s} {'p50 latency':>12s}"
    lines = [header, "-" * len(header)]
    for profile, m in results:
        lines.append(
            f"{profile.name:24s} {format_duration(profile.one_way_latency_ns):>10s} "
            f"{m.tps:8.0f} {format_duration(m.p50_latency_ns):>12s}"
        )
    return "\n".join(lines)
