"""Non-determinism providers and validators (paper section 2.5)."""

from repro.common.units import MILLISECOND, SECOND
from repro.net.fabric import NetworkFabric
from repro.pbft.nondet import (
    AcceptAllValidator,
    TimeDeltaValidator,
    decode_timestamp,
    encode_timestamp,
    primary_timestamp,
)
from repro.sim.rng import RngStreams
from repro.sim.simulator import Simulator


def make_host(skew=0):
    sim = Simulator()
    fabric = NetworkFabric(sim, RngStreams(1))
    return sim, fabric.add_host("h", clock_skew_ns=skew)


def test_timestamp_roundtrip():
    assert decode_timestamp(encode_timestamp(123456789)) == 123456789
    assert decode_timestamp(encode_timestamp(-5)) == -5


def test_decode_of_short_data_is_zero():
    assert decode_timestamp(b"\x01") == 0


def test_provider_uses_host_clock():
    sim, host = make_host(skew=500)
    sim.run_until(1000)
    assert decode_timestamp(primary_timestamp(host)) == 1500


def test_fresh_timestamp_validates():
    sim, host = make_host()
    sim.run_until(SECOND)
    validator = TimeDeltaValidator(delta_ns=250 * MILLISECOND)
    nondet = encode_timestamp(host.local_time() - 100 * MILLISECOND)
    assert validator.validate(nondet, host)
    assert validator.rejections == 0


def test_stale_timestamp_rejected():
    sim, host = make_host()
    sim.run_until(10 * SECOND)
    validator = TimeDeltaValidator(delta_ns=250 * MILLISECOND)
    nondet = encode_timestamp(host.local_time() - 2 * SECOND)
    assert not validator.validate(nondet, host)
    assert validator.rejections == 1


def test_replay_fails_with_naive_validator():
    """Section 2.5's subtle issue: 'when a request is replayed from the log
    during recovery, the time drift can be quite large and validating using
    a time delta will fail and impede the recovery process.'"""
    sim, host = make_host()
    validator = TimeDeltaValidator(delta_ns=250 * MILLISECOND, recovery_aware=False)
    nondet = encode_timestamp(host.local_time())
    assert validator.validate(nondet, host, replaying=False)
    sim.run_until(30 * SECOND)  # the log is replayed much later
    assert not validator.validate(nondet, host, replaying=True)
    assert validator.replay_rejections == 1


def test_recovery_aware_validator_skips_replay_check():
    """The paper's proposed fix: 'differentiate message processing for the
    recovery process and completely skip non-deterministic data validation
    during recovery.'"""
    sim, host = make_host()
    validator = TimeDeltaValidator(delta_ns=250 * MILLISECOND, recovery_aware=True)
    nondet = encode_timestamp(host.local_time())
    sim.run_until(30 * SECOND)
    assert validator.validate(nondet, host, replaying=True)
    assert not validator.validate(nondet, host, replaying=False)


def test_accept_all():
    _sim, host = make_host()
    assert AcceptAllValidator().validate(b"anything", host, replaying=True)
