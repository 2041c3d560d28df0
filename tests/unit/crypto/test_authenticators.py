"""Authenticators: per-replica MAC vectors."""

from repro.crypto.authenticators import (
    make_authenticator,
    verify_authenticator,
)
from repro.crypto.mac import MacKey
from repro.sim.rng import RngStreams


def keys_for(n=4, seed=3):
    rng = RngStreams(seed).stream("auth")
    return {rid: MacKey.generate(rng) for rid in range(n)}


def test_each_replica_verifies_its_own_entry():
    keys = keys_for()
    auth = make_authenticator(keys, b"message")
    for rid, k in keys.items():
        assert verify_authenticator(k, rid, b"message", auth)


def test_wrong_replica_entry_fails():
    keys = keys_for()
    auth = make_authenticator(keys, b"message")
    # Replica 0's key cannot validate replica 1's entry.
    assert not verify_authenticator(keys[0], 1, b"message", auth)


def test_missing_entry_fails():
    keys = keys_for(2)
    auth = make_authenticator(keys, b"m")
    outsider = MacKey.generate(RngStreams(99).stream("x"))
    assert not verify_authenticator(outsider, 7, b"m", auth)


def test_tampered_message_fails_for_everyone():
    keys = keys_for()
    auth = make_authenticator(keys, b"original")
    assert not any(
        verify_authenticator(k, rid, b"tampered", auth) for rid, k in keys.items()
    )


def test_wire_size_is_six_bytes_per_entry():
    auth = make_authenticator(keys_for(4), b"m")
    assert auth.size == 4 * 6
    assert len(auth) == 4


def test_mac_cache_hits_and_misses():
    from repro.crypto.authenticators import MacCache
    from repro.crypto.mac import compute_mac

    cache = MacCache()
    k = MacKey.generate(RngStreams(5).stream("c"))
    tag = cache.tag(k, b"data")
    assert tag == compute_mac(k, b"data")
    assert (cache.hits, cache.misses, len(cache)) == (0, 1, 1)
    assert cache.tag(k, b"data") == tag
    assert (cache.hits, cache.misses) == (1, 1)
    assert cache.verify(k, b"data", tag)
    assert not cache.verify(k, b"data", b"\x00" * 4 if tag != b"\x00" * 4 else b"\x01" * 4)
    assert cache.stats() == {"hits": cache.hits, "misses": cache.misses, "entries": 1}


def test_mac_cache_evicts_oldest_first_and_stays_bounded():
    from repro.crypto.authenticators import MacCache

    cache = MacCache(max_entries=4)
    k = MacKey.generate(RngStreams(6).stream("c"))
    for i in range(10):
        cache.tag(k, bytes([i]))
        assert len(cache) <= 4
    # The newest four survive; the oldest were evicted (re-tagging
    # one of them is a miss, a recent one is a hit).
    hits = cache.hits
    cache.tag(k, bytes([9]))
    assert cache.hits == hits + 1
    misses = cache.misses
    cache.tag(k, bytes([0]))
    assert cache.misses == misses + 1


def test_mac_cache_default_bound_evicts_fifo():
    from repro.crypto.authenticators import MacCache

    cache = MacCache()
    bound = cache.max_entries
    assert bound == 256
    k = MacKey.generate(RngStreams(8).stream("c"))
    for i in range(bound):
        cache.tag(k, i.to_bytes(4, "big"))
    assert len(cache) == bound and cache.misses == bound
    # A hit does not refresh an entry's position (FIFO, not LRU) ...
    cache.tag(k, (0).to_bytes(4, "big"))
    assert cache.hits == 1
    # ... so one insertion past the bound evicts entry 0, and only it.
    cache.tag(k, bound.to_bytes(4, "big"))
    assert len(cache) == bound
    cache.tag(k, (1).to_bytes(4, "big"))
    assert cache.hits == 2
    cache.tag(k, (0).to_bytes(4, "big"))
    assert cache.misses == bound + 2
    assert len(cache) == bound


def test_mac_cache_bound_covers_the_twelve_client_working_set():
    """Sender miss, receiver hit: with the in-flight tags all resident the
    steady-state hit ratio is 0.5.  It reads 0.4987 at a bound of 96 and
    0.435 at 64, so shrinking the default below the working set of the
    ledger's MAC workloads fails here rather than showing up as wall time."""
    from repro.common.units import MILLISECOND
    from repro.pbft.cluster import build_cluster
    from repro.pbft.config import PbftConfig
    from repro.pbft.replica import NullApplication

    cluster = build_cluster(
        PbftConfig(), seed=3, real_crypto=True,
        app_factory=lambda: NullApplication(reply_size=1024),
    )
    assert len(cluster.clients) == 12
    payload = bytes(1024)

    def loop(client):
        def done(_result, _latency):
            client.invoke(payload, callback=done)

        client.invoke(payload, callback=done)

    for client in cluster.clients:
        loop(client)
    cache = cluster.keys.mac_cache
    cluster.run_for(20 * MILLISECOND)  # past the start-up misses
    hits, misses = cache.hits, cache.misses
    cluster.run_for(80 * MILLISECOND)
    hits, misses = cache.hits - hits, cache.misses - misses
    cluster.stop_clients()
    assert misses > 10_000
    assert abs(hits / (hits + misses) - 0.5) <= 0.001
    assert len(cache) <= cache.max_entries


def test_mac_cache_authenticator_matches_uncached():
    from repro.crypto.authenticators import MacCache

    keys = keys_for()
    direct = make_authenticator(keys, b"msg")
    cache = MacCache()
    cached = cache.authenticator(keys, b"msg")
    for rid, k in keys.items():
        assert cached.tag_for(rid) == direct.tag_for(rid)
        assert cache.verify_authenticator(k, rid, b"msg", cached)
    assert not cache.verify_authenticator(keys[0], 99, b"msg", cached)
