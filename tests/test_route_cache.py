"""Route-table/cache invalidation coverage.

The topology memoizes paths, broadcast trees, and distance tables; every
link-state change must invalidate all of them.  These tests compare the
cached answers against a *cold* topology — a freshly constructed one
with the same links down, which cannot have stale state — through full
down/up cycles, including watchdog-driven mid-run rerouting and
restoration after an outage window.
"""

import pytest

from repro.errors import LinkFailure
from repro.interconnect.network import PacketNetwork
from repro.interconnect.topology import Topology
from repro.sim import Simulator, StatRegistry


def cold_topology(name, n, down_edges):
    """A fresh topology with ``down_edges`` down: no cache can be stale."""
    topo = Topology(name, n)
    for a, b in down_edges:
        topo.set_link_state(a, b, False)
    return topo


def assert_matches_cold(topo, down_edges):
    """Every pair's path/hops/tree must equal the cold computation."""
    cold = cold_topology(topo.name, topo.n, down_edges)
    for a in range(topo.n):
        for b in range(topo.n):
            if a == b:
                continue
            assert topo.reachable(a, b) == cold.reachable(a, b), (a, b)
            if topo.reachable(a, b):
                assert topo.path(a, b) == cold.path(a, b), (a, b)
                assert topo.hops(a, b) == cold.hops(a, b), (a, b)
        assert topo.broadcast_tree(a, require_all=False) == cold.broadcast_tree(
            a, require_all=False
        )


@pytest.mark.parametrize("name,n", [("mesh", 16), ("ring", 8), ("half_ring", 6)])
def test_cached_routes_match_cold_through_downs_and_ups(name, n):
    topo = Topology(name, n)
    # warm every cache
    assert_matches_cold(topo, [])
    transitions = [
        (topo.edges[0], False),
        (topo.edges[len(topo.edges) // 2], False),
        (topo.edges[0], True),
        (topo.edges[-1], False),
        (topo.edges[len(topo.edges) // 2], True),
        (topo.edges[-1], True),
    ]
    down = set()
    for (a, b), up in transitions:
        topo.set_link_state(a, b, up)
        down.discard((a, b)) if up else down.add((a, b))
        assert_matches_cold(topo, sorted(down))
    # fully restored: identical to a brand-new topology again
    assert down == set()
    assert_matches_cold(topo, [])


def test_returned_path_and_tree_are_private_copies():
    topo = Topology("mesh", 16)
    path = topo.path(0, 15)
    expected = list(path)
    path.append(999)
    path[0] = -7
    assert topo.path(0, 15) == expected

    tree = topo.broadcast_tree(0)
    expected_tree = list(tree)
    tree.clear()
    assert topo.broadcast_tree(0) == expected_tree


class _Forbidden:
    """Stands in for a routing input that a cache hit must never touch."""

    def __init__(self, what):
        self.what = what

    def __call__(self, *args):
        raise AssertionError(f"{self.what} consulted: lookup was recomputed")

    __getitem__ = __call__


def _forbid_recompute(patch, topo):
    # path() walks next_hop on a miss; broadcast_tree() walks _adjacency
    patch.setattr(topo, "next_hop", _Forbidden("next_hop"))
    patch.setattr(topo, "_adjacency", _Forbidden("_adjacency"))


def _assert_served_from_cache(topo, paths, trees):
    for (a, b), expected in paths.items():
        first, second = topo.path(a, b), topo.path(a, b)
        assert first == second == expected
        assert first is not second
    for root, expected in trees.items():
        first, second = topo.broadcast_tree(root), topo.broadcast_tree(root)
        assert first == second == expected
        assert first is not second


def test_path_and_tree_lookups_are_memoised_until_a_link_flip(monkeypatch):
    """Repeat lookups never recompute; a link-state flip drops both caches
    and the rebuilt answers are memoised again."""
    topo = Topology("mesh", 16)
    pairs = [(a, b) for a in range(16) for b in range(16) if a != b]
    paths = {pair: topo.path(*pair) for pair in pairs}
    trees = {root: topo.broadcast_tree(root) for root in range(16)}
    with monkeypatch.context() as patch:
        _forbid_recompute(patch, topo)
        _assert_served_from_cache(topo, paths, trees)

    recomputes = topo.route_recomputes
    assert topo.set_link_state(0, 1, False)
    assert topo.route_recomputes == recomputes + 1
    with monkeypatch.context() as patch:
        _forbid_recompute(patch, topo)
        with pytest.raises(AssertionError, match="next_hop"):
            topo.path(0, 1)
        with pytest.raises(AssertionError, match="_adjacency"):
            topo.broadcast_tree(0)

    cold = cold_topology("mesh", 16, [(0, 1)])
    paths = {pair: topo.path(*pair) for pair in pairs}
    trees = {root: topo.broadcast_tree(root) for root in range(16)}
    assert paths == {pair: cold.path(*pair) for pair in pairs}
    assert trees == {root: cold.broadcast_tree(root) for root in range(16)}
    assert paths[(0, 1)] == [0, 4, 5, 1]
    with monkeypatch.context() as patch:
        _forbid_recompute(patch, topo)
        _assert_served_from_cache(topo, paths, trees)

def test_hops_uses_distance_table_and_errors_on_partition():
    topo = Topology("half_ring", 4)  # chain 0-1-2-3
    assert topo.hops(0, 3) == 3
    topo.set_link_state(1, 2, False)
    assert topo.hops(0, 1) == 1
    from repro.errors import RoutingError

    with pytest.raises(RoutingError):
        topo.hops(0, 3)
    topo.set_link_state(1, 2, True)
    assert topo.hops(0, 3) == 3


def _network(sim, topo):
    return PacketNetwork(
        sim,
        topo,
        bandwidth_gbps=25.0,
        hop_latency_ps=10_000,
        wire_latency_ps=5_000,
        stats=StatRegistry(),
        name="t",
        watchdog_threshold=2,
        retry_penalty_ps=1_000,
        max_retries=4,
    )


def test_watchdog_link_down_mid_run_reroutes_like_cold():
    """A mid-run LinkDown: once the watchdog flips the routing tables,
    cached routes must equal a cold topology with that link down."""
    sim = Simulator()
    topo = Topology("ring", 6)
    net = _network(sim, topo)
    log = {"failures": 0, "delivered": 0}

    def driver():
        # warm the route caches while everything is up
        yield net.stream(0, 3, 4096)
        assert topo.path(0, 3) == [0, 1, 2, 3]
        net.fail_link(1, 2)  # physical failure only: routes still stale
        # senders hammer the dead link until the watchdog marks it down
        for _ in range(4):
            try:
                yield net.send(1, 2, 256)
                log["delivered"] += 1
            except LinkFailure:
                log["failures"] += 1
        assert topo.link_up(1, 2) is False

    sim.process(driver(), name="driver")
    sim.run()
    assert log["failures"] + log["delivered"] >= 1
    assert topo.route_recomputes == 1
    assert_matches_cold(topo, [(1, 2)])
    # traffic now takes the long way around, matching the cold route
    assert topo.path(1, 2) == [1, 0, 5, 4, 3, 2]


def test_outage_restoration_mid_run_restores_cold_routes():
    """Down-then-restore (LinkOutage shape): after restoration every
    cached route must match a brand-new topology again."""
    sim = Simulator()
    topo = Topology("ring", 6)
    net = _network(sim, topo)
    pristine = [topo.path(a, b) for a in range(6) for b in range(6) if a != b]

    def driver():
        net.fail_link(2, 3)
        for _ in range(3):  # accumulate watchdog timeouts -> mark down
            try:
                yield net.send(2, 3, 128)
            except LinkFailure:
                pass
        assert not topo.link_up(2, 3)
        assert_matches_cold(topo, [(2, 3)])
        yield 50_000  # outage window passes
        net.restore_link(2, 3)
        assert topo.link_up(2, 3)
        # restored: bit-identical to the never-failed route set
        current = [topo.path(a, b) for a in range(6) for b in range(6) if a != b]
        assert current == pristine
        yield net.send(2, 3, 128)  # and the direct link carries traffic again

    sim.process(driver(), name="driver")
    sim.run()
    assert topo.route_recomputes == 2
    assert_matches_cold(topo, [])


def test_stream_reroutes_after_watchdog_flip():
    """stream() resolves its path per attempt: a path cached before the
    failure must not leak into the post-flip attempt."""
    sim = Simulator()
    topo = Topology("ring", 6)
    net = _network(sim, topo)
    outcome = {}

    def driver():
        yield net.stream(0, 2, 2048)  # warms path(0,2) = [0, 1, 2]
        net.fail_link(0, 1)
        for _ in range(3):
            try:
                yield net.send(0, 1, 64)
            except LinkFailure:
                pass
        assert not topo.link_up(0, 1)
        yield net.stream(0, 2, 2048)  # must take [0, 5, 4, 3, 2]
        outcome["path"] = topo.path(0, 2)

    sim.process(driver(), name="driver")
    sim.run()
    assert outcome["path"] == [0, 5, 4, 3, 2]
    assert_matches_cold(topo, [(0, 1)])
