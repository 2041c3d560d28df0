"""WAN profile plumbing (the sweep itself runs in benchmarks)."""

from repro.harness.wan import (
    CONTINENTAL,
    INTERCONTINENTAL,
    LAN,
    METRO,
    PROFILES,
    format_wan,
    net_config_for,
    run_wan_sweep,
    tuned_config,
)
from repro.pbft.config import PbftConfig


def test_profiles_ordered_by_distance():
    latencies = [p.one_way_latency_ns for p in PROFILES]
    assert latencies == sorted(latencies)


def test_net_config_carries_profile():
    config = net_config_for(METRO)
    assert config.default_link.latency_ns == METRO.one_way_latency_ns
    assert config.default_link.bandwidth_bps == METRO.bandwidth_bps


def test_every_profile_yields_a_valid_tuned_config():
    """Built, not simulated: the intercontinental profile's 3 s retransmit
    interval used to exceed the untouched 2 s backoff cap, so the sweep
    raised ConfigError on its own profile list."""
    base = PbftConfig()
    for profile in PROFILES:
        tuned = tuned_config(profile)
        tuned.validate()
        rtt = 2 * profile.one_way_latency_ns
        assert tuned.client_retransmit_ns == max(base.client_retransmit_ns, 20 * rtt)
        assert tuned.view_change_timeout_ns == max(base.view_change_timeout_ns, 60 * rtt)
        # The cap keeps its ratio to the interval it caps.
        assert (
            tuned.client_retransmit_cap_ns // tuned.client_retransmit_ns
            == base.client_retransmit_cap_ns // base.client_retransmit_ns
        )
    assert tuned_config(LAN) == base
    assert tuned_config(INTERCONTINENTAL).client_retransmit_ns > base.client_retransmit_cap_ns


def test_tuned_config_scales_a_callers_base():
    base = PbftConfig(client_retransmit_ns=10_000_000, client_retransmit_cap_ns=10_000_000)
    tuned = tuned_config(CONTINENTAL, base)
    assert tuned.client_retransmit_ns == tuned.client_retransmit_cap_ns == 800_000_000


def test_sweep_single_profile_smoke():
    results = run_wan_sweep(profiles=(LAN,), measure_s=0.1)
    assert len(results) == 1
    profile, measurement = results[0]
    assert profile is LAN
    assert measurement.tps > 1000


def test_format_wan():
    results = run_wan_sweep(profiles=(LAN,), measure_s=0.1)
    text = format_wan(results)
    assert "lan-1gbe" in text and "TPS" in text
