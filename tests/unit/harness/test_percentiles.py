"""Regression tests for the shared nearest-rank percentile.

``overload.py`` used to carry its own ``_percentile`` reimplementation,
which had quietly drifted from the harness's nearest-rank definition —
these tests pin every percentile consumer to the single shared
implementation in :mod:`repro.obs`.
"""

import pytest

import repro.harness.overload as overload_module
import repro.harness.shardbench as shardbench_module
from repro.common.errors import ConfigError
from repro.harness.measure import Measurement
from repro.obs import nearest_rank_percentile


class _StubCluster:
    """Just enough of a Cluster for Measurement.from_cluster."""

    clients = ()
    replicas = ()


class TestNearestRank:
    def test_odd_length_list(self):
        # The regression case: an odd-length latency list.  Nearest rank
        # at p50 of 5 sorted values is the 3rd (ceil(0.5 * 5) = 3), and
        # p99 is the last — not an interpolated value.
        values = sorted([5, 1, 9, 3, 7])  # -> [1, 3, 5, 7, 9]
        assert nearest_rank_percentile(values, 0.50) == 5
        assert nearest_rank_percentile(values, 0.99) == 9
        assert nearest_rank_percentile(values, 1.00) == 9
        assert nearest_rank_percentile(values, 0.20) == 1
        assert nearest_rank_percentile(values, 0.21) == 3

    def test_single_and_empty(self):
        assert nearest_rank_percentile([], 0.5) == 0
        assert nearest_rank_percentile([42], 0.01) == 42
        assert nearest_rank_percentile([42], 1.0) == 42

    def test_rejects_out_of_range_p(self):
        with pytest.raises(ConfigError):
            nearest_rank_percentile([1, 2, 3], 0.0)
        with pytest.raises(ConfigError):
            nearest_rank_percentile([1, 2, 3], 1.5)


class TestSingleImplementation:
    def test_overload_duplicate_is_gone(self):
        # The drifted private copy must not come back.
        assert not hasattr(overload_module, "_percentile")

    def test_shardbench_routes_through_shared(self):
        assert (
            shardbench_module.nearest_rank_percentile is nearest_rank_percentile
        )
        p50, p99 = shardbench_module._percentiles([5, 1, 9, 3, 7])
        assert (p50, p99) == (5, 9)

    def test_measurement_uses_shared(self):
        m = Measurement.from_cluster(
            "stub", _StubCluster(), completed=5,
            latencies=[5, 1, 9, 3, 7], duration_s=1.0,
        )
        assert m.p50_latency_ns == 5
        assert m.p99_latency_ns == 9
