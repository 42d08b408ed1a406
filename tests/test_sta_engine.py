"""Compiled STA engine: parity, caching and incremental re-timing.

The compiled backend's contract is *bit-identical* results against the
dict-based reference oracle -- not approximate equality.  These tests
pin that down on randomized netlists with and without combinational
loops (hypothesis), on region views, on wildcard disables, on a
desynchronized circuit's controller loops, and on the incremental
wire-annotation path, plus the cache behaviours the engine layers on
top (net loads, compiled graphs, characterised ladders).
"""

import gc
import weakref
from collections.abc import Mapping

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.designs import dlx_core, figure22_circuit, pipeline3
from repro.desync import desynchronize
from repro.desync.delays import (
    _LADDER_MEMO,
    characterize_ladder,
)
from repro.desync.network import region_delays
from repro.desync.regions import RegionMap
from repro.liberty import core9_hs
from repro.liberty.model import OperatingCorner
from repro.netlist import Module, PortDirection
from repro.sta import (
    CompiledTimingGraph,
    analyze,
    annotate_wires,
    build_timing_graph,
    compiled_graph,
    compute_net_loads,
    invalidate_module,
    min_clock_period,
    propagate,
    region_critical_path,
    ssta_analyze,
    ssta_propagate,
)
from repro.sta.graph import NET_NODE, _is_disabled

LIB = core9_hs()

#: (cell, input pins, output pin) palette for random netlists
GATES = [
    ("INVX1", ("A",), "Z"),
    ("BUFX1", ("A",), "Z"),
    ("AND2X1", ("A", "B"), "Z"),
    ("NAND2X1", ("A", "B"), "Z"),
    ("XOR2X1", ("A", "B"), "Z"),
    ("AOI21X1", ("A", "B", "C"), "Z"),
    ("NAND3X1", ("A", "B", "C"), "Z"),
]


def _assert_reports_identical(a, b):
    assert a.critical_delay == b.critical_delay
    assert a.critical_endpoint == b.critical_endpoint
    assert a.arrivals == b.arrivals
    assert [(p.node, p.arrival) for p in a.path] == [
        (p.node, p.arrival) for p in b.path
    ]
    assert a.endpoint_slacks == b.endpoint_slacks
    assert a.broken_edge_count == b.broken_edge_count


def _assert_ssta_identical(a, b):
    assert a.worst_endpoint == b.worst_endpoint
    assert (a.worst.mean, a.worst.global_sens, a.worst.local_var) == (
        b.worst.mean,
        b.worst.global_sens,
        b.worst.local_var,
    )
    assert a.arrivals == b.arrivals


@st.composite
def random_netlists(draw, feedback=False):
    """A random gate-level module.

    Inputs and flip-flop outputs seed the net pool; every gate draws its
    inputs from earlier nets, so the module is a DAG -- unless
    ``feedback``, when a gate input may also draw its own or a later
    gate's output net and close a combinational loop.  Some nets get
    wire-cap/delay annotations so both delay sources are exercised.
    """
    module = Module("rand")
    nets = []
    for i in range(draw(st.integers(1, 3))):
        module.add_port(f"in{i}", PortDirection.INPUT)
        nets.append(f"in{i}")
    module.add_port("clk", PortDirection.INPUT)
    n_ffs = draw(st.integers(0, 3))
    for i in range(n_ffs):
        nets.append(f"ffq{i}")
    n_gates = draw(st.integers(1, 24))
    for g in range(n_gates):
        cell, ins, out = draw(st.sampled_from(GATES))
        pins = {out: f"n{g}"}
        later = n_gates - g if feedback else 0
        for pin in ins:
            pick = draw(st.integers(0, len(nets) - 1 + later))
            pins[pin] = (
                nets[pick] if pick < len(nets) else f"n{g + pick - len(nets)}"
            )
        module.add_instance(f"g{g}", cell, pins)
        nets.append(f"n{g}")
    for i in range(n_ffs):
        module.add_instance(
            f"ff{i}",
            "DFFX1",
            {
                "D": nets[draw(st.integers(0, len(nets) - 1))],
                "CK": "clk",
                "Q": f"ffq{i}",
            },
        )
    module.add_port("out", PortDirection.OUTPUT)
    module.add_instance("gout", "BUFX1", {"A": nets[-1], "Z": "out"})

    annotated = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(nets) - 1),
                st.floats(0.0, 0.05),
                st.floats(0.0, 0.4),
            ),
            max_size=6,
        )
    )
    caps = {nets[i]: cap for i, cap, _ in annotated}
    delays = {nets[i]: delay for i, _, delay in annotated}
    if caps:
        module.attributes["net_wire_cap"] = caps
        module.attributes["net_wire_delay"] = delays
    return module


@given(random_netlists())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_compiled_matches_reference_on_random_dags(module):
    for corner in ("best", "worst"):
        ref = analyze(module, LIB, corner, clock_period=4.0,
                      backend="reference")
        cmp_ = analyze(module, LIB, corner, clock_period=4.0,
                       backend="compiled")
        _assert_reports_identical(ref, cmp_)
        _assert_ssta_identical(
            ssta_analyze(module, LIB, corner, backend="reference"),
            ssta_analyze(module, LIB, corner, backend="compiled"),
        )


@given(random_netlists(), st.floats(0.0, 2.0))
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_propagate_backends_identical_on_one_graph(module, input_arrival):
    graph = build_timing_graph(module, LIB, "worst")
    compiled = CompiledTimingGraph(module, LIB)
    derate = LIB.corner("worst").derate
    _assert_reports_identical(
        propagate(graph, input_arrival, 3.0),
        compiled.propagate(derate, input_arrival, 3.0),
    )
    _assert_ssta_identical(ssta_propagate(graph), compiled.ssta(derate))


def _reference_edges(graph):
    """(src, dst, delay, net, arc) of every edge, in node then list order."""
    return [
        (edge.src, edge.dst, edge.delay, edge.net, edge.arc)
        for node in graph.nodes()
        for edge in graph.adjacency.get(node, ())
    ]


def _compiled_edges(compiled):
    nodes = compiled.nodes
    edge_nets = {
        ei: net
        for net, ids in compiled._arc_edges_by_net.items()
        for ei in ids
    }
    edge_nets.update(
        (ei, net)
        for net, ids in compiled._net_edges_by_net.items()
        for ei in ids
    )
    return [
        (
            nodes[nid],
            nodes[compiled._adj_dst[ei]],
            compiled._delay[ei],
            edge_nets.get(ei),
            compiled._edge_arc[ei],
        )
        for nid in range(compiled.node_count)
        for ei in range(compiled._adj_start[nid], compiled._adj_start[nid + 1])
    ]


@given(random_netlists(feedback=True), st.floats(0.0, 2.0))
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_cyclic_netlists_cut_and_time_identically(module, input_arrival):
    """Both backends cut the same loop edges and report the same path."""
    graph = build_timing_graph(module, LIB, derate=1.0)
    compiled = CompiledTimingGraph(module, LIB)
    assert compiled.nodes == graph.nodes()
    assert _compiled_edges(compiled) == _reference_edges(graph)
    assert compiled.broken_edge_count == len(graph.broken_edges)
    for corner in ("best", "worst"):
        derate = LIB.corner(corner).derate
        graph = build_timing_graph(module, LIB, corner)
        _assert_reports_identical(
            propagate(graph, input_arrival, 3.0),
            compiled.propagate(derate, input_arrival, 3.0),
        )
        _assert_ssta_identical(ssta_propagate(graph), compiled.ssta(derate))
        _assert_reports_identical(
            analyze(module, LIB, corner, clock_period=3.0,
                    backend="reference"),
            analyze(module, LIB, corner, clock_period=3.0),
        )


def test_loop_cut_parity_on_a_latch_loop():
    module = Module("loopy")
    module.add_port("a", PortDirection.INPUT)
    module.add_port("y", PortDirection.OUTPUT)
    module.add_instance("u1", "NAND2X1", {"A": "a", "B": "n2", "Z": "n1"})
    module.add_instance("u2", "NAND2X1", {"A": "n1", "B": "a", "Z": "n2"})
    module.add_instance("u3", "BUFX1", {"A": "n1", "Z": "y"})
    compiled = CompiledTimingGraph(module, LIB)
    graph = build_timing_graph(module, LIB, derate=1.0)
    assert compiled.broken_edge_count == len(graph.broken_edges) == 1
    assert _compiled_edges(compiled) == _reference_edges(graph)
    _assert_reports_identical(
        analyze(module, LIB, clock_period=2.0, backend="reference"),
        analyze(module, LIB, clock_period=2.0),
    )


def test_desynchronized_figure22_parity():
    """The controller network's loops, cut by search or by the flow's
    disables, time the same under both backends."""
    result = desynchronize(figure22_circuit(LIB), LIB)
    module = result.module
    cut = analyze(module, LIB, backend="reference").broken_edge_count
    assert cut > 0
    for disables in (None, result.sta_disables()):
        for corner in ("best", "worst"):
            _assert_reports_identical(
                analyze(module, LIB, corner, clock_period=5.0,
                        disables=disables, backend="reference"),
                analyze(module, LIB, corner, clock_period=5.0,
                        disables=disables),
            )


@given(random_netlists(feedback=True), st.data())
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_region_views_match_reference(module, data):
    region = data.draw(st.sets(st.sampled_from(sorted(module.instances))))
    for corner in ("best", "worst"):
        assert region_critical_path(module, LIB, region, corner) == (
            region_critical_path(module, LIB, region, corner,
                                 backend="reference")
        )
        _assert_reports_identical(
            propagate(build_timing_graph(module, LIB, corner,
                                         instance_filter=region)),
            compiled_graph(module, LIB, instance_filter=region).propagate(
                LIB.corner(corner).derate
            ),
        )


def test_compiled_graph_builds_no_dict_graph(monkeypatch):
    from repro.sta import graph as graph_mod

    module = dlx_core(LIB, registers=8, multiplier=False, width=16)
    built = []
    for cls in (graph_mod.TimingEdge, graph_mod.TimingGraph):
        def spy(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", spy)
    compiled = compiled_graph(module, LIB)
    assert compiled.edge_count > 1000
    assert built == []
    build_timing_graph(module, LIB)  # the reference oracle still does
    assert {"TimingEdge", "TimingGraph"} <= set(built)


def test_compiled_arrivals_are_a_read_only_snapshot():
    module = _ladder_module()
    compiled = compiled_graph(module, LIB)
    report = compiled.propagate(1.0)
    arrivals = report.arrivals
    assert isinstance(arrivals, Mapping) and not isinstance(arrivals, dict)
    with pytest.raises(TypeError):
        arrivals[("u0", "Z")] = 0.0
    before = dict(arrivals)
    assert arrivals == before == propagate(
        build_timing_graph(module, LIB, derate=1.0)
    ).arrivals
    assert len(arrivals) == len(before) and list(arrivals) == list(before)
    assert ("u0", "Z") in arrivals and ("nowhere", "Z") not in arrivals
    assert arrivals.get(("nowhere", "Z"), -1.0) == -1.0

    annotate_wires(module, {"n3": 0.05}, {"n3": 0.3})
    assert compiled_graph(module, LIB) is compiled
    after = compiled.propagate(1.0)
    assert after.arrivals[("u11", "Z")] > before[("u11", "Z")]
    assert dict(arrivals) == before, "a later update showed through"


def test_unknown_backend_rejected():
    module = Module("m")
    module.add_port("a", PortDirection.INPUT)
    with pytest.raises(ValueError, match="unknown STA backend"):
        analyze(module, LIB, backend="fast")
    with pytest.raises(ValueError, match="unknown STA backend"):
        region_delays(module, LIB, RegionMap(), backend="fast")
    # checked before the in-process memo answers
    characterize_ladder(LIB, "worst", max_length=10)
    with pytest.raises(ValueError, match="unknown STA backend"):
        characterize_ladder(LIB, "worst", max_length=10, backend="fast")


# ----------------------------------------------------------------------
# _is_disabled wildcard precedence
# ----------------------------------------------------------------------

def test_is_disabled_wildcards():
    exact = {("u1", "A", "Z")}
    assert _is_disabled(exact, "u1", "A", "Z")
    assert not _is_disabled(exact, "u1", "B", "Z")
    assert not _is_disabled(exact, "u2", "A", "Z")

    to_any = {("u1", None, "Z")}
    assert _is_disabled(to_any, "u1", "A", "Z")
    assert _is_disabled(to_any, "u1", "B", "Z")
    assert not _is_disabled(to_any, "u1", "A", "Y")

    from_any = {("u1", "A", None)}
    assert _is_disabled(from_any, "u1", "A", "Z")
    assert _is_disabled(from_any, "u1", "A", "Y")
    assert not _is_disabled(from_any, "u1", "B", "Z")

    all_arcs = {("u1", None, None)}
    assert _is_disabled(all_arcs, "u1", "A", "Z")
    assert _is_disabled(all_arcs, "u1", "B", "Y")
    assert not _is_disabled(all_arcs, "u2", "A", "Z")


@given(random_netlists(), st.integers(0, 5))
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_disable_parity(module, pick):
    instances = sorted(module.instances)
    name = instances[pick % len(instances)]
    disables = [(name, None, None)]
    _assert_reports_identical(
        analyze(module, LIB, disables=disables, backend="reference"),
        analyze(module, LIB, disables=disables, backend="compiled"),
    )


# ----------------------------------------------------------------------
# incremental re-timing
# ----------------------------------------------------------------------

def _ladder_module(n=12):
    module = Module("ladder")
    module.add_port("a", PortDirection.INPUT)
    module.add_port("z", PortDirection.OUTPUT)
    previous = "a"
    for i in range(n):
        out = "z" if i == n - 1 else f"n{i}"
        module.add_instance(
            f"u{i}", "AND2X1", {"A": previous, "B": "a", "Z": out}
        )
        previous = out
    return module


def test_incremental_retiming_matches_rebuild_and_reference():
    module = _ladder_module()
    compiled = compiled_graph(module, LIB)
    before = {
        corner: compiled.propagate(LIB.corner(corner).derate)
        for corner in ("best", "worst")
    }

    annotate_wires(
        module,
        {"n3": 0.02, "n7": 0.05},
        {"n3": 0.3, "n7": 0.1},
    )
    assert compiled_graph(module, LIB) is compiled, (
        "wire annotation must re-time in place, not rebuild"
    )

    for corner in ("best", "worst"):
        derate = LIB.corner(corner).derate
        incremental = compiled.propagate(derate)
        assert incremental.critical_delay > before[corner].critical_delay
        reference = analyze(module, LIB, corner, backend="reference")
        _assert_reports_identical(incremental, reference)

    # from-scratch compiled rebuild agrees too
    invalidate_module(module)
    for corner in ("best", "worst"):
        _assert_reports_identical(
            analyze(module, LIB, corner, backend="compiled"),
            analyze(module, LIB, corner, backend="reference"),
        )


def test_direct_attribute_write_still_detected():
    # writing the attributes without annotate_wires forfeits the
    # incremental path but must still invalidate via the fingerprint
    module = _ladder_module()
    first = analyze(module, LIB, "worst", backend="compiled")
    module.attributes["net_wire_delay"] = {"n1": 0.7}
    second = analyze(module, LIB, "worst", backend="compiled")
    assert second.critical_delay > first.critical_delay
    _assert_reports_identical(
        second, analyze(module, LIB, "worst", backend="reference")
    )


@given(
    random_netlists(),
    st.lists(
        st.tuples(st.integers(0, 30), st.floats(0.0, 0.04),
                  st.floats(0.0, 0.5)),
        min_size=1,
        max_size=5,
    ),
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_incremental_retiming_parity_random(module, edits):
    compiled = compiled_graph(module, LIB)
    for corner in ("best", "worst"):
        compiled.propagate(LIB.corner(corner).derate)
    nets = sorted(module.nets)
    annotate_wires(
        module,
        {nets[i % len(nets)]: cap for i, cap, _ in edits},
        {nets[i % len(nets)]: delay for i, _, delay in edits},
    )
    for corner in ("best", "worst"):
        _assert_reports_identical(
            compiled.propagate(LIB.corner(corner).derate),
            analyze(module, LIB, corner, backend="reference"),
        )


# ----------------------------------------------------------------------
# net-node sharing for high-fanout multi-driver nets
# ----------------------------------------------------------------------

def _fanout_module(drivers=2, sinks=3):
    module = Module("fan")
    for d in range(drivers):
        module.add_port(f"a{d}", PortDirection.INPUT)
        module.add_instance(f"d{d}", "BUFX1", {"A": f"a{d}", "Z": "shared"})
    for s in range(sinks):
        module.add_port(f"o{s}", PortDirection.OUTPUT)
        module.add_instance(f"s{s}", "INVX1", {"A": "shared", "Z": f"o{s}"})
    return module


def test_net_node_sharing_reduces_edges():
    module = _fanout_module(drivers=2, sinks=3)
    graph = build_timing_graph(module, LIB)
    shared = (NET_NODE, "shared")
    assert shared in graph.adjacency
    legs = [
        e for edges in graph.adjacency.values() for e in edges
        if e.kind == "net" and (e.dst == shared or e.src == shared)
    ]
    assert len(legs) == 2 + 3  # vs 2 * 3 direct edges
    _assert_reports_identical(
        propagate(graph),
        CompiledTimingGraph(module, LIB).propagate(
            LIB.corner("worst").derate
        ),
    )


def test_net_node_sharing_preserves_delays_and_wire_annotation():
    module = _fanout_module(drivers=2, sinks=3)
    plain = analyze(module, LIB, "worst", backend="reference")
    module.attributes["net_wire_delay"] = {"shared": 0.25}
    annotated = analyze(module, LIB, "worst", backend="reference")
    # the wire delay rides the driver legs exactly once per path
    derate = LIB.corner("worst").derate
    assert annotated.critical_delay == pytest.approx(
        plain.critical_delay + 0.25 * derate
    )
    _assert_reports_identical(
        annotated, analyze(module, LIB, "worst", backend="compiled")
    )


def test_single_driver_nets_not_shared():
    graph = build_timing_graph(_ladder_module(4), LIB)
    assert not any(node[0] == NET_NODE for node in graph.nodes())


# ----------------------------------------------------------------------
# caches: net loads, compiled graphs, ladders
# ----------------------------------------------------------------------

def test_net_loads_cached_until_mutation():
    module = _ladder_module()
    first = compute_net_loads(module, LIB)
    assert compute_net_loads(module, LIB) is first
    module.add_instance("extra", "INVX1", {"A": "n0", "Z": "x0"})
    second = compute_net_loads(module, LIB)
    assert second is not first
    assert second["n0"] > first["n0"]  # the new sink's pin cap


def test_net_loads_cache_sees_wire_cap_annotation():
    module = _ladder_module()
    first = compute_net_loads(module, LIB)
    module.attributes["net_wire_cap"] = {"n0": 0.5}
    second = compute_net_loads(module, LIB)
    assert second is not first
    assert second["n0"] == pytest.approx(
        first["n0"] - LIB.default_wire_cap + 0.5
    )


def test_compiled_graph_cached_and_invalidated():
    module = _ladder_module()
    compiled = compiled_graph(module, LIB)
    assert compiled_graph(module, LIB) is compiled
    # distinct views cache separately
    view = compiled_graph(module, LIB, instance_filter=frozenset(["u0"]))
    assert view is not compiled
    assert compiled_graph(module, LIB) is compiled
    module.add_instance("extra", "INVX1", {"A": "n0", "Z": "x0"})
    assert compiled_graph(module, LIB) is not compiled


def test_compiled_graph_cache_frees_timed_modules():
    module = pipeline3(LIB)
    min_clock_period(module, LIB)
    timed = weakref.ref(module)
    del module
    gc.collect()
    assert timed() is None, "the compiled-graph cache kept a timed module"

    module = pipeline3(LIB)
    result = desynchronize(module, LIB)
    source, desynced = weakref.ref(module), weakref.ref(result.module)
    del module, result
    gc.collect()
    assert source() is None and desynced() is None


def test_ladder_memoized_in_process():
    _LADDER_MEMO.clear()
    first = characterize_ladder(LIB, "worst", max_length=10)
    second = characterize_ladder(LIB, "worst", max_length=10)
    assert first.rise_delays == second.rise_delays
    # defensive copies: callers cannot corrupt the memo
    second.rise_delays[0] = -1.0
    assert characterize_ladder(LIB, "worst", max_length=10).rise_delays[0] \
        == first.rise_delays[0]
    # a different corner is a different entry with rescaled delays
    best = characterize_ladder(LIB, "best", max_length=10)
    assert best.rise_delays[0] < first.rise_delays[0]


def test_ladder_matches_reference_backend():
    _LADDER_MEMO.clear()
    for corner in ("best", "worst"):
        compiled = characterize_ladder(LIB, corner, max_length=20)
        reference = characterize_ladder(
            LIB, corner, max_length=20, backend="reference", memoize=False
        )
        assert compiled.rise_delays == reference.rise_delays


# ----------------------------------------------------------------------
# multi-corner: every corner rescales one compiled graph
# ----------------------------------------------------------------------

def _four_corner_library():
    library = core9_hs()
    library.corners["typical"] = OperatingCorner("typical", 1.00, 1.00, 25.0)
    library.corners["cold"] = OperatingCorner("cold", 0.85, 1.05, -40.0)
    return library


def test_analyze_every_corner_matches_reference():
    library = _four_corner_library()
    module = _ladder_module()
    for corner in sorted(library.corners):
        _assert_reports_identical(
            analyze(module, library, corner, clock_period=6.0),
            analyze(module, library, corner, clock_period=6.0,
                    backend="reference"),
        )


def test_ssta_every_corner_matches_reference():
    library = _four_corner_library()
    module = _ladder_module()
    for corner in sorted(library.corners):
        _assert_ssta_identical(
            ssta_analyze(module, library, corner),
            ssta_analyze(module, library, corner, backend="reference"),
        )
