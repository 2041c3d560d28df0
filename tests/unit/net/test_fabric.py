"""The simulated datagram fabric."""

import pytest

from repro.common.errors import ConfigError, NetworkError
from repro.common.units import MICROSECOND
from repro.net.fabric import DropRule, LinkFault, LinkSpec, NetworkConfig, NetworkFabric
from repro.obs import Tracer, chrome_trace_events
from repro.obs.report import packets
from repro.sim.rng import RngStreams
from repro.sim.simulator import Simulator


def make_fabric(loss=0.0, jitter=0, trace=False, seed=1):
    sim = Simulator()
    config = NetworkConfig(
        default_link=LinkSpec(
            latency_ns=70 * MICROSECOND,
            jitter_ns=jitter,
            loss_probability=loss,
        )
    )
    tracer = Tracer(lambda: sim.now, enabled=trace)
    fabric = NetworkFabric(sim, RngStreams(seed), config=config, tracer=tracer)
    fabric.add_host("a")
    fabric.add_host("b")
    return sim, fabric


def test_basic_delivery():
    sim, fabric = make_fabric()
    sa = fabric.bind("a", 1)
    sb = fabric.bind("b", 1)
    got = []
    sb.on_receive(lambda p: got.append(p.payload))
    sa.send(("b", 1), "hello", 100)
    sim.run()
    assert got == ["hello"]


def test_delivery_takes_latency_plus_tx_time():
    sim, fabric = make_fabric()
    sa = fabric.bind("a", 1)
    sb = fabric.bind("b", 1)
    times = []
    sb.on_receive(lambda p: times.append(sim.now))
    sa.send(("b", 1), "x", 1000)
    sim.run()
    assert len(times) == 1
    # At least the 70us base latency; plus serialization of ~1KB at 938Mb/s.
    assert times[0] >= 70 * MICROSECOND
    assert times[0] < 200 * MICROSECOND


def test_nic_serialization_orders_back_to_back_sends():
    sim, fabric = make_fabric()
    sa = fabric.bind("a", 1)
    sb = fabric.bind("b", 1)
    arrivals = []
    sb.on_receive(lambda p: arrivals.append((p.payload, sim.now)))
    sa.send(("b", 1), 1, 60_000)  # large datagram occupies the NIC
    sa.send(("b", 1), 2, 100)
    sim.run()
    assert [p for p, _t in arrivals] == [1, 2]
    # The second packet had to wait behind the first's serialization.
    assert arrivals[1][1] > arrivals[0][1] - 70 * MICROSECOND


def test_unbound_port_swallows_datagrams():
    sim, fabric = make_fabric()
    sa = fabric.bind("a", 1)
    sa.send(("b", 99), "void", 10)
    sim.run()  # no exception, nothing delivered


def test_closed_socket_drops_and_cannot_send():
    sim, fabric = make_fabric()
    sa = fabric.bind("a", 1)
    sb = fabric.bind("b", 1)
    got = []
    sb.on_receive(lambda p: got.append(p))
    sb.close()
    sa.send(("b", 1), "late", 10)
    sim.run()
    assert got == []
    with pytest.raises(NetworkError):
        sb.send(("a", 1), "x", 1)


def test_duplicate_bind_rejected():
    _sim, fabric = make_fabric()
    fabric.bind("a", 5)
    with pytest.raises(NetworkError):
        fabric.bind("a", 5)


def test_duplicate_host_rejected():
    _sim, fabric = make_fabric()
    with pytest.raises(ConfigError):
        fabric.add_host("a")


def test_random_loss_drops_roughly_the_configured_fraction():
    sim, fabric = make_fabric(loss=0.3)
    sa = fabric.bind("a", 1)
    sb = fabric.bind("b", 1)
    got = []
    sb.on_receive(lambda p: got.append(p))
    for _ in range(1000):
        sa.send(("b", 1), "x", 10)
    sim.run()
    assert 550 < len(got) < 850


def test_drop_rule_hits_exactly_count_packets():
    sim, fabric = make_fabric(trace=True)
    sa = fabric.bind("a", 1)
    sb = fabric.bind("b", 1)
    got = []
    sb.on_receive(lambda p: got.append(p.payload))
    rule = fabric.add_drop_rule(
        DropRule(lambda p: p.kind == "victim", count=2, name="test-rule")
    )
    for i in range(5):
        sa.send(("b", 1), i, 10, kind="victim")
    sim.run()
    assert rule.matched == 2
    assert got == [2, 3, 4]
    dropped = [p for p in packets(chrome_trace_events(fabric.tracer)) if p.reason]
    assert len(dropped) == 2
    assert all(p.reason == "test-rule" and p.kind == "victim" for p in dropped)


def test_partition_blocks_both_directions_until_healed():
    sim, fabric = make_fabric()
    sa = fabric.bind("a", 1)
    sb = fabric.bind("b", 1)
    got_a, got_b = [], []
    sa.on_receive(lambda p: got_a.append(p.payload))
    sb.on_receive(lambda p: got_b.append(p.payload))
    fabric.partition({"a"}, {"b"})
    sa.send(("b", 1), "x", 10)
    sb.send(("a", 1), "y", 10)
    sim.run()
    assert got_a == [] and got_b == []
    fabric.heal_partition()
    sa.send(("b", 1), "x2", 10)
    sim.run()
    assert got_b == ["x2"]


def test_drop_rule_predicate_sees_full_packet():
    """Predicates can match on src/dst/kind/size, not just kind."""
    sim, fabric = make_fabric()
    fabric.add_host("c")
    sa = fabric.bind("a", 1)
    sb = fabric.bind("b", 1)
    sc = fabric.bind("c", 1)
    got_b, got_c = [], []
    sb.on_receive(lambda p: got_b.append(p.payload))
    sc.on_receive(lambda p: got_c.append(p.payload))
    rule = fabric.add_drop_rule(
        DropRule(lambda p: p.dst[0] == "b" and p.size > 50, name="big-to-b")
    )
    sa.send(("b", 1), "small", 10)
    sa.send(("b", 1), "big", 100)
    sa.send(("c", 1), "big-to-c", 100)  # different destination: untouched
    sim.run()
    assert got_b == ["small"]
    assert got_c == ["big-to-c"]
    assert rule.matched == 1


def test_unlimited_drop_rule_keeps_matching():
    sim, fabric = make_fabric()
    sa = fabric.bind("a", 1)
    sb = fabric.bind("b", 1)
    got = []
    sb.on_receive(lambda p: got.append(p.payload))
    rule = fabric.add_drop_rule(DropRule(lambda p: True, count=None))
    for i in range(7):
        sa.send(("b", 1), i, 10)
    sim.run()
    assert got == []
    assert rule.matched == 7


def test_packets_dropped_counts_rule_and_partition_drops():
    sim, fabric = make_fabric()
    sa = fabric.bind("a", 1)
    sb = fabric.bind("b", 1)
    got = []
    sb.on_receive(lambda p: got.append(p.payload))
    fabric.add_drop_rule(DropRule(lambda p: p.kind == "victim", count=1))
    sa.send(("b", 1), "rule-dropped", 10, kind="victim")
    sim.run()
    assert fabric.packets_dropped == 1
    fabric.partition({"a"}, {"b"})
    sa.send(("b", 1), "partition-dropped", 10)
    sim.run()
    assert fabric.packets_dropped == 2
    fabric.heal_partition()
    sa.send(("b", 1), "delivered", 10)
    sim.run()
    assert fabric.packets_dropped == 2
    assert fabric.packets_sent == 3
    assert got == ["delivered"]


def test_partition_only_cuts_named_pairs():
    sim, fabric = make_fabric()
    fabric.add_host("c")
    sa = fabric.bind("a", 1)
    sb = fabric.bind("b", 1)
    sc = fabric.bind("c", 1)
    got_b, got_c = [], []
    sb.on_receive(lambda p: got_b.append(p.payload))
    sc.on_receive(lambda p: got_c.append(p.payload))
    fabric.partition({"a"}, {"b"})
    sa.send(("b", 1), "cut", 10)
    sa.send(("c", 1), "open", 10)
    sim.run()
    assert got_b == []
    assert got_c == ["open"]


def test_multicast_reaches_all_destinations():
    sim, fabric = make_fabric()
    fabric.add_host("c")
    sa = fabric.bind("a", 1)
    sb = fabric.bind("b", 1)
    sc = fabric.bind("c", 1)
    got = []
    sb.on_receive(lambda p: got.append("b"))
    sc.on_receive(lambda p: got.append("c"))
    sa.multicast([("b", 1), ("c", 1)], "m", 10)
    sim.run()
    assert sorted(got) == ["b", "c"]


def test_trace_records_all_packets():
    sim, fabric = make_fabric(trace=True)
    sa = fabric.bind("a", 1)
    fabric.bind("b", 1)
    sa.send(("b", 1), "x", 42, kind="Test")
    sim.run()
    [record] = packets(chrome_trace_events(fabric.tracer))
    assert record.kind == "Test" and record.size == 42 and not record.reason
    assert (record.time, record.src, record.dst) == (0, "a", "b")


def test_host_cpu_serializes_work():
    sim, fabric = make_fabric()
    host = fabric.host("a")
    done = []
    host.execute(100, lambda tag: done.append((tag, sim.now)), "first")
    host.execute(100, lambda tag: done.append((tag, sim.now)), "second")
    sim.run()
    assert done == [("first", 100), ("second", 200)]
    assert host.cpu_busy_ns == 200


def test_charge_cpu_pushes_later_work_back():
    sim, fabric = make_fabric()
    host = fabric.host("a")
    host.charge_cpu(500)
    done = []
    host.execute(100, lambda _arg: done.append(sim.now), None)
    sim.run()
    assert done == [600]


def test_clock_skew_offsets_local_time():
    sim = Simulator()
    fabric = NetworkFabric(sim, RngStreams(1))
    host = fabric.add_host("skewed", clock_skew_ns=5000)
    sim.run_until(100)
    assert host.local_time() == 5100


def test_jitter_varies_arrival_times():
    sim, fabric = make_fabric(jitter=50 * MICROSECOND)
    sa = fabric.bind("a", 1)
    sb = fabric.bind("b", 1)
    arrivals = []
    sb.on_receive(lambda p: arrivals.append(sim.now))
    previous = 0
    gaps = []
    for _ in range(20):
        sa.send(("b", 1), "x", 10)
        sim.run()
        gaps.append(arrivals[-1] - previous)
        previous = arrivals[-1]
    assert len(set(gaps)) > 1  # not perfectly regular


def test_link_spec_validation():
    with pytest.raises(ConfigError):
        LinkSpec(latency_ns=-1).validate()
    with pytest.raises(ConfigError):
        LinkSpec(bandwidth_bps=0).validate()
    with pytest.raises(ConfigError):
        LinkSpec(loss_probability=1.5).validate()


def test_link_fault_drops_matching_packets():
    sim, fabric = make_fabric()
    sa = fabric.bind("a", 1)
    sb = fabric.bind("b", 1)
    got = []
    sb.on_receive(lambda p: got.append(p.payload))
    fault = fabric.add_link_fault(LinkFault(drop_probability=1.0, name="blackout"))
    for i in range(4):
        sa.send(("b", 1), i, 10)
    sim.run()
    assert got == []
    assert fault.dropped == 4
    assert fabric.packets_dropped == 4


def test_link_fault_extra_delay_shifts_arrival():
    sim, fabric = make_fabric()
    sa = fabric.bind("a", 1)
    sb = fabric.bind("b", 1)
    times = []
    sb.on_receive(lambda p: times.append(sim.now))
    fault = fabric.add_link_fault(LinkFault(extra_delay_ns=5_000_000))
    sa.send(("b", 1), "x", 10)
    sim.run()
    assert times[0] >= 5_000_000 + 70 * MICROSECOND
    assert fault.delayed == 1


def test_link_fault_duplicates_deliver_twice():
    sim, fabric = make_fabric()
    sa = fabric.bind("a", 1)
    sb = fabric.bind("b", 1)
    got = []
    sb.on_receive(lambda p: got.append(p.payload))
    fault = fabric.add_link_fault(LinkFault(duplicate_probability=1.0))
    sa.send(("b", 1), "twin", 10)
    sim.run()
    assert got == ["twin", "twin"]
    assert fault.duplicated == 1


def test_duplicated_packet_is_traced_as_its_own_flight():
    sim, fabric = make_fabric(trace=True)
    sa = fabric.bind("a", 1)
    sb = fabric.bind("b", 1)
    arrivals = []
    sb.on_receive(lambda p: arrivals.append(sim.now))
    fabric.add_link_fault(LinkFault(duplicate_probability=1.0))
    sa.send(("b", 1), "twin", 10, kind="Twin")
    sim.run()
    flights = [e for e in fabric.tracer.spans() if e.track == "net"]
    assert len(arrivals) == 2 and len(flights) == 2
    assert sorted(e.end for e in flights) == arrivals
    assert [e.name for e in flights] == ["Twin", "Twin"]


def test_link_fault_reorder_pushes_packet_behind_later_traffic():
    sim, fabric = make_fabric()
    sa = fabric.bind("a", 1)
    sb = fabric.bind("b", 1)
    got = []
    sb.on_receive(lambda p: got.append(p.payload))
    fault = fabric.add_link_fault(
        LinkFault(reorder_probability=1.0, reorder_delay_ns=10_000_000)
    )
    sa.send(("b", 1), "first-sent", 10)
    fault.active = False
    sa.send(("b", 1), "second-sent", 10)
    sim.run()
    assert got == ["second-sent", "first-sent"]
    assert fault.reordered == 1


def test_link_fault_patterns_scope_src_and_dst():
    sim, fabric = make_fabric()
    fabric.add_host("c")
    sa = fabric.bind("a", 1)
    sb = fabric.bind("b", 1)
    sc = fabric.bind("c", 1)
    got_b, got_c = [], []
    sb.on_receive(lambda p: got_b.append(p.payload))
    sc.on_receive(lambda p: got_c.append(p.payload))
    fault = fabric.add_link_fault(
        LinkFault(src="a", dst="b", drop_probability=1.0)
    )
    sa.send(("b", 1), "cut", 10)
    sa.send(("c", 1), "open", 10)
    sim.run()
    assert got_b == [] and got_c == ["open"]
    assert fault.dropped == 1


def test_link_fault_inactive_and_removed_do_not_bite():
    sim, fabric = make_fabric()
    sa = fabric.bind("a", 1)
    sb = fabric.bind("b", 1)
    got = []
    sb.on_receive(lambda p: got.append(p.payload))
    fault = fabric.add_link_fault(LinkFault(drop_probability=1.0))
    fault.active = False
    sa.send(("b", 1), "window-closed", 10)
    sim.run()
    fault.active = True
    fabric.remove_link_fault(fault)
    sa.send(("b", 1), "removed", 10)
    sim.run()
    assert got == ["window-closed", "removed"]
    assert fault.dropped == 0


def test_link_fault_validates_probabilities_and_delays():
    with pytest.raises(ConfigError):
        LinkFault(drop_probability=1.5)
    with pytest.raises(ConfigError):
        LinkFault(duplicate_probability=-0.1)
    with pytest.raises(ConfigError):
        LinkFault(extra_delay_ns=-1)


# -- the per-datagram lane ------------------------------------------------------


def test_packet_is_slotted_with_keyword_constructor():
    from repro.net.fabric import Packet

    packet = Packet(src=("a", 1), dst=("b", 2), payload="p", size=42, kind="Test")
    assert (packet.src, packet.dst, packet.payload, packet.size, packet.kind) == (
        ("a", 1), ("b", 2), "p", 42, "Test",
    )
    assert Packet(("a", 1), ("b", 2), "p", 42).kind == ""
    assert not hasattr(packet, "__dict__")
    with pytest.raises(AttributeError):
        packet.extra = 1
    assert "Test" in repr(packet) and "42" in repr(packet)


def test_socket_address_is_a_stable_attribute():
    _sim, fabric = make_fabric()
    sock = fabric.bind("a", 7)
    assert sock.address == ("a", 7)
    assert sock.address is sock.address


def test_jitter_draws_match_randrange_on_the_same_stream():
    # The fast lane inlines randrange's rejection loop over getrandbits;
    # arrivals must be exactly what randrange(jitter + 1) would have given.
    jitter = 10 * MICROSECOND
    sim, fabric = make_fabric(jitter=jitter, seed=9)
    twin = RngStreams(9).stream("net.jitter")
    sa = fabric.bind("a", 1)
    sb = fabric.bind("b", 1)
    arrivals = []
    sb.on_receive(lambda p: arrivals.append(sim.now))
    sent_at = []
    for i in range(200):
        sim.run_until(i * 1000 * MICROSECOND)  # idle NIC for every send
        sent_at.append(sim.now)
        sa.send(("b", 1), i, 100)
    sim.run()
    tx_ns = fabric._tx_time(100, fabric.config.default_link)
    expected = [
        t + tx_ns + 70 * MICROSECOND + twin.randrange(jitter + 1) for t in sent_at
    ]
    assert arrivals == expected


def test_quiet_and_faulty_paths_arrive_at_the_same_instant():
    # An inert drop rule forces every packet down the general path; with
    # nothing actually dropped the arrival times (and jitter draws) must
    # match the fast path's exactly.
    def arrivals(with_rule):
        sim, fabric = make_fabric(jitter=5 * MICROSECOND, seed=4)
        if with_rule:
            fabric.add_drop_rule(DropRule(lambda p: False))
        sa = fabric.bind("a", 1)
        sb = fabric.bind("b", 1)
        seen = []
        sb.on_receive(lambda p: seen.append((p.payload, sim.now)))
        for i in range(50):
            sa.send(("b", 1), i, 100 + 37 * i)
        sa.multicast([("b", 1), ("b", 1)], "twice", 3000)
        sim.run()
        return seen, fabric.packets_sent, fabric.bytes_sent, sa.sent

    assert arrivals(False) == arrivals(True)


def test_multicast_counts_every_copy():
    sim, fabric = make_fabric()
    fabric.add_host("c")
    sa = fabric.bind("a", 1)
    got = []
    for name in ("b", "c"):
        fabric.bind(name, 1).on_receive(lambda p, name=name: got.append((name, p.kind)))
    sa.multicast([("b", 1), ("c", 1), ("nowhere", 1)], "x", 200, kind="K")
    sim.run()
    assert sorted(got) == [("b", "K"), ("c", "K")]
    assert sa.sent == 3
    assert fabric.packets_sent == 3 and fabric.bytes_sent == 600
