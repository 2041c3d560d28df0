"""Registry semantics: typed instruments and the StatsView facade."""

import pytest

from repro.common.errors import ConfigError
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_NS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


def test_counter_and_gauge_basics():
    reg = MetricsRegistry()
    c = reg.counter("ops")
    c.inc()
    c.inc(4)
    assert c.value == 5
    g = reg.gauge("depth")
    g.set(7)
    g.add(-2)
    assert g.value == 5


def test_registry_returns_same_instrument_for_same_name():
    reg = MetricsRegistry()
    assert reg.counter("x") is reg.counter("x")
    assert reg.gauge("y") is reg.gauge("y")
    assert reg.histogram("z") is reg.histogram("z")


def test_registry_rejects_type_conflicts():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(ConfigError):
        reg.gauge("x")
    with pytest.raises(ConfigError):
        reg.histogram("x")


def test_histogram_bounds_must_be_sorted_and_unique():
    with pytest.raises(ConfigError):
        Histogram("h", bounds=[3, 1, 2])
    with pytest.raises(ConfigError):
        Histogram("h", bounds=[1, 1, 2])
    with pytest.raises(ConfigError):
        Histogram("h", bounds=[])


def test_histogram_observation_and_stats():
    h = Histogram("h", bounds=[10, 100, 1000])
    for v in (5, 50, 50, 500, 5000):
        h.observe(v)
    assert h.count == 5
    assert h.sum == 5605
    assert h.min == 5 and h.max == 5000
    assert h.counts == [1, 2, 1, 1]  # last is the overflow bucket
    assert h.mean == pytest.approx(1121.0)


def test_histogram_percentile_nearest_rank():
    h = Histogram("h", bounds=[10, 100, 1000])
    for v in (5, 50, 50, 500):
        h.observe(v)
    assert h.percentile(0.25) == 10    # rank 1 falls in the <=10 bucket
    assert h.percentile(0.50) == 100
    assert h.percentile(0.75) == 100
    assert h.percentile(1.00) == 1000
    # Overflow values report the observed max.
    h.observe(9999)
    assert h.percentile(1.00) == 9999
    with pytest.raises(ConfigError):
        h.percentile(0.0)
    with pytest.raises(ConfigError):
        h.percentile(1.5)


def test_histogram_empty_percentile_is_zero():
    assert Histogram("h").percentile(0.5) == 0


def test_default_latency_buckets_span_10us_to_10s():
    assert DEFAULT_LATENCY_BUCKETS_NS[0] == 10_000
    assert DEFAULT_LATENCY_BUCKETS_NS[-1] == 10_000_000_000
    assert list(DEFAULT_LATENCY_BUCKETS_NS) == sorted(set(DEFAULT_LATENCY_BUCKETS_NS))


def test_stats_view_behaves_like_defaultdict_int():
    reg = MetricsRegistry()
    stats = reg.view("replica0.")
    # Reading an absent key is 0 and registers nothing.
    assert stats["requests_executed"] == 0
    assert "requests_executed" not in stats
    assert len(stats) == 0
    # The += idiom registers and updates a prefixed counter.
    stats["requests_executed"] += 1
    stats["requests_executed"] += 2
    assert stats["requests_executed"] == 3
    assert reg.counter("replica0.requests_executed").value == 3
    assert "requests_executed" in stats
    assert dict(stats) == {"requests_executed": 3}


def test_stats_view_inc_is_plus_equals():
    reg = MetricsRegistry()
    stats = reg.view("replica0.")
    stats.inc("replies_sent")
    stats.inc("replies_sent", 4)
    stats["replies_sent"] += 1
    assert stats["replies_sent"] == 6
    assert reg.counter("replica0.replies_sent").value == 6
    assert list(stats) == ["replies_sent"]
    # A name taken by another instrument is refused exactly as += would.
    reg.gauge("replica0.depth")
    with pytest.raises(ConfigError):
        stats.inc("depth")


def test_stats_views_share_one_registry_but_not_keys():
    reg = MetricsRegistry()
    a, b = reg.view("a."), reg.view("b.")
    a["hits"] += 1
    assert b["hits"] == 0
    b["hits"] += 5
    assert a["hits"] == 1
    assert reg.counter("a.hits").value == 1
    assert reg.counter("b.hits").value == 5


def test_snapshot_is_json_friendly():
    import json

    reg = MetricsRegistry()
    reg.counter("ops").inc(3)
    reg.gauge("depth").set(2)
    h = reg.histogram("lat", bounds=[10, 100])
    h.observe(7)
    snap = reg.snapshot()
    assert snap["ops"] == 3
    assert snap["depth"] == 2
    assert snap["lat"]["count"] == 1
    assert snap["lat"]["buckets"] == {10: 1, 100: 0}
    json.dumps({str(k): v for k, v in snap["lat"]["buckets"].items()})


def test_stats_view_memo_reads_and_writes_same_counter():
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    view = registry.view("r0.")
    view["ops"] += 1          # registers r0.ops and memoizes it
    view["ops"] += 2          # memo hit
    assert view["ops"] == 3
    # The memo writes the same Counter object the registry holds.
    assert registry.counter("r0.ops").value == 3
    registry.counter("r0.ops").value += 1   # around the memo, same counter
    assert view["ops"] == 4
    # A second view on the same prefix starts with an empty memo and
    # resolves to that same counter.
    assert registry.view("r0.")["ops"] == 4


def test_stats_view_delete_evicts_memo():
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    view = registry.view("r0.")
    view["x"] = 7
    del view["x"]
    assert view["x"] == 0      # absent again, not a stale memo read
    assert "x" not in view
    view["x"] = 1              # re-registering works after eviction
    assert registry.counter("r0.x").value == 1
