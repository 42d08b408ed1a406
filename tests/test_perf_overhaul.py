"""Tests for the hot-path performance overhaul.

Covers the three rebuilt layers plus Monte-Carlo chip seeding:

- compiled / LUT liberty evaluators vs the AST ``evaluate()`` oracle,
  property-based over random expressions and exhaustive over every
  3-valued input combination;
- the incremental simulator kernel: observational parity (captures,
  toggle counts, event counts) with the reference kernel, single
  clock evaluation per flip-flop update, and no per-event env
  rebuilds;
- ``ConnectivityIndex`` invalidation across every ``Module`` mutator;
- per-chip seeds: a die does not depend on how many dies are sampled.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.designs import figure22_circuit
from repro.liberty import core9_hs
from repro.liberty.functions import (
    LUT_MAX_INPUTS,
    Const,
    Not,
    Op,
    Var,
    compile_function,
    compile_function_indexed,
    encode_value,
    evaluate,
    expr_inputs,
    expr_to_text,
    parse_function,
    reference_function,
)
from repro.netlist import (
    ConnectivityIndex,
    Module,
    PortDirection,
    driver_of,
    sinks_of,
)
from repro.sim import Simulator
from repro.sim.testbench import SyncTestbench, initialize_registers
from repro.variability import VariabilityModel

LIB = core9_hs()


# ----------------------------------------------------------------------
# compiled evaluators vs the AST oracle
# ----------------------------------------------------------------------

_NAMES = ("a", "b", "c", "d")


def _exprs(depth):
    if depth == 0:
        return st.one_of(
            st.sampled_from([Var(n) for n in _NAMES]),
            st.sampled_from([Const(0), Const(1)]),
        )
    sub = _exprs(depth - 1)
    return st.one_of(
        sub,
        st.builds(Not, sub),
        st.builds(
            lambda kind, args: Op(kind, tuple(args)),
            st.sampled_from(["and", "or", "xor"]),
            st.lists(sub, min_size=2, max_size=3),
        ),
    )


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(expr=_exprs(3))
def test_compiled_evaluators_match_ast_oracle(expr):
    """Dict-env LUT/codegen tier == oracle on ALL 3-valued combos."""
    text = expr_to_text(expr)
    parsed = parse_function(text)
    names = tuple(sorted(expr_inputs(parsed)))
    compiled = compile_function(text)
    oracle = reference_function(text)
    for combo in itertools.product((0, 1, None), repeat=len(names)):
        values = dict(zip(names, combo))
        expected = evaluate(parsed, values)
        assert compiled(values) == expected
        assert oracle(values) == expected


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(expr=_exprs(3))
def test_indexed_evaluators_match_ast_oracle(expr):
    """Slot-list LUT/codegen tier == oracle, including missing slots."""
    text = expr_to_text(expr)
    parsed = parse_function(text)
    names = tuple(sorted(expr_inputs(parsed)))
    # slot layout with an extra unused slot, shuffled order
    slots = ("zz",) + names
    fn = compile_function_indexed(text, slots)
    for combo in itertools.product((0, 1, None), repeat=len(names)):
        env = [2] * len(slots)
        for name, value in zip(names, combo):
            env[slots.index(name)] = encode_value(value)
        assert fn(env) == evaluate(parsed, dict(zip(names, combo)))


def test_codegen_path_beyond_lut_width():
    """>LUT_MAX_INPUTS inputs takes the codegen path; spot-check it."""
    width = LUT_MAX_INPUTS + 1
    names = [f"i{k}" for k in range(width)]
    text = " * ".join(names)  # wide AND
    compiled = compile_function(text)
    assert compiled.kind == "codegen"
    indexed = compile_function_indexed(text, tuple(names))
    assert indexed.kind == "codegen"
    parsed = parse_function(text)
    cases = [
        dict.fromkeys(names, 1),
        dict.fromkeys(names, 0),
        {**dict.fromkeys(names, 1), names[3]: 0},
        {**dict.fromkeys(names, 1), names[5]: None},
        {**dict.fromkeys(names, None), names[0]: 0},
    ]
    for values in cases:
        expected = evaluate(parsed, values)
        assert compiled(values) == expected
        env = [encode_value(values[n]) for n in names]
        assert indexed(env) == expected


def test_unconnected_slot_reads_as_x():
    """A pin absent from the slot layout is permanently unknown."""
    fn = compile_function_indexed("a * b", ("a",))
    assert fn([1]) is None  # b unconnected: 1 * X = X
    assert fn([0]) == 0  # 0 * X = 0


# ----------------------------------------------------------------------
# ConnectivityIndex invalidation across every Module mutator
# ----------------------------------------------------------------------


class DictCellInfo:
    def __init__(self, table):
        self._table = table

    def pin_direction(self, cell, pin):
        return self._table[cell][pin]


INFO = DictCellInfo(
    {
        "AND2": {
            "A": PortDirection.INPUT,
            "B": PortDirection.INPUT,
            "Z": PortDirection.OUTPUT,
        },
        "INV": {"A": PortDirection.INPUT, "Z": PortDirection.OUTPUT},
    }
)


def _chain_module():
    mod = Module("m")
    mod.add_port("a", PortDirection.INPUT)
    mod.add_port("b", PortDirection.INPUT)
    mod.add_port("y", PortDirection.OUTPUT)
    mod.add_instance("u1", "AND2", {"A": "a", "B": "b", "Z": "n1"})
    mod.add_instance("u2", "INV", {"A": "n1", "Z": "y"})
    return mod


def _assert_index_fresh(index, mod, nets):
    """Every cached answer must equal a from-scratch core scan."""
    for net in nets:
        assert index.driver_of(net) == driver_of(mod, net, INFO)
        assert index.sinks_of(net) == sinks_of(mod, net, INFO)


def test_index_matches_core_functions_and_caches():
    mod = _chain_module()
    index = ConnectivityIndex(mod, INFO)
    _assert_index_fresh(index, mod, ["a", "b", "n1", "y", "missing"])
    before = index.misses
    _assert_index_fresh(index, mod, ["a", "b", "n1", "y", "missing"])
    assert index.misses == before  # second pass is all cache hits
    assert index.hits > 0


def test_index_invalidation_connect():
    mod = _chain_module()
    index = ConnectivityIndex(mod, INFO)
    assert index.sinks_of("a") == sinks_of(mod, "a", INFO)
    mod.add_instance("u3", "INV", {"A": "a", "Z": "n2"})
    _assert_index_fresh(index, mod, ["a", "n2"])


def test_index_invalidation_disconnect():
    mod = _chain_module()
    index = ConnectivityIndex(mod, INFO)
    assert index.driver_of("n1") is not None
    mod.disconnect("u1", "Z")
    assert index.driver_of("n1") is None
    _assert_index_fresh(index, mod, ["n1"])


def test_index_invalidation_remove_instance():
    mod = _chain_module()
    index = ConnectivityIndex(mod, INFO)
    assert index.sinks_of("n1") != []
    mod.remove_instance("u2")
    assert index.sinks_of("n1") == []
    _assert_index_fresh(index, mod, ["a", "b", "n1", "y"])


def test_index_invalidation_merge_nets():
    mod = _chain_module()
    index = ConnectivityIndex(mod, INFO)
    index.connections_of("n1")
    mod.add_instance("u3", "INV", {"A": "n2", "Z": "n3"})
    mod.merge_nets("n1", "n2")
    assert index.sinks_of("n1") == sinks_of(mod, "n1", INFO)
    assert {ref.instance for ref in index.sinks_of("n1")} == {"u2", "u3"}
    assert index.driver_of("n2") is None  # net gone
    _assert_index_fresh(index, mod, ["n1", "n3"])


def test_index_invalidation_rename_net():
    mod = _chain_module()
    index = ConnectivityIndex(mod, INFO)
    assert index.driver_of("n1") is not None
    mod.rename_net("n1", "renamed")
    assert index.driver_of("n1") is None
    assert index.driver_of("renamed") == driver_of(mod, "renamed", INFO)
    _assert_index_fresh(index, mod, ["renamed", "a", "y"])


def test_index_invalidation_remove_net_and_manual():
    mod = _chain_module()
    index = ConnectivityIndex(mod, INFO)
    mod.add_net("dangling")
    index.connections_of("dangling")
    mod.remove_net("dangling")
    assert index.driver_of("dangling") is None
    # manual Net.connections rewrites must be announced explicitly
    stamp = mod.mutation_count
    mod.invalidate_indexes()
    assert mod.mutation_count == stamp + 1
    _assert_index_fresh(index, mod, ["n1"])


def test_index_invalidation_add_port():
    mod = _chain_module()
    index = ConnectivityIndex(mod, INFO)
    index.connections_of("a")
    mod.add_port("extra", PortDirection.INPUT)
    assert index.driver_of("extra") == driver_of(mod, "extra", INFO)


def test_simplify_names_invalidates_index():
    from repro.netlist import simplify_names

    mod = Module("m")
    mod.add_port("a", PortDirection.INPUT)
    mod.add_instance("\\weird.name ", "INV", {"A": "a", "Z": "n1"})
    index = ConnectivityIndex(mod, INFO)
    assert index.driver_of("n1").instance == "\\weird.name "
    assert simplify_names(mod) >= 1
    fresh = driver_of(mod, "n1", INFO)
    assert index.driver_of("n1") == fresh
    assert fresh.instance != "\\weird.name "


# ----------------------------------------------------------------------
# simulator kernel parity and the hot-path fixes
# ----------------------------------------------------------------------


def _run_figure22(kernel):
    module = figure22_circuit(LIB)
    sim = Simulator(module, LIB, kernel=kernel)
    initialize_registers(sim, 0)
    bench = SyncTestbench(sim, clock="clk", period=10.0)
    bench.run_cycles(
        12,
        lambda k: {f"din[{i}]": ((k * 7 + 3) >> i) & 1 for i in range(4)},
    )
    return sim


def test_kernel_parity_on_figure22():
    """Compiled kernel is observationally identical to the reference."""
    ref = _run_figure22("reference")
    cmp_ = _run_figure22("compiled")
    assert [(e.instance, e.value) for e in ref.captures] == [
        (e.instance, e.value) for e in cmp_.captures
    ]
    assert dict(ref.toggle_counts) == dict(cmp_.toggle_counts)
    assert ref.event_count == cmp_.event_count
    assert ref.net_values == cmp_.net_values


def test_unknown_kernel_rejected():
    from repro.sim.simulator import SimulationError

    with pytest.raises(SimulationError):
        Simulator(figure22_circuit(LIB), LIB, kernel="turbo")


def test_ff_clock_evaluated_once_per_update():
    """Regression: the FF machine used to call seq_clock up to 3x."""
    module = figure22_circuit(LIB)
    sim = Simulator(module, LIB, kernel="compiled")
    model = next(m for m in sim._models.values() if m.is_ff)
    calls = {"n": 0}
    original = model.seq_clock

    def counting_clock(env):
        calls["n"] += 1
        return original(env)

    model.seq_clock = counting_clock
    model.seq_clock_s = None  # force the function path
    sim._evaluate(model)
    assert calls["n"] == 1


def test_compiled_kernel_never_rebuilds_pin_env(monkeypatch):
    """Regression: _evaluate + _drive_outputs each rebuilt the env."""
    calls = {"n": 0}
    original = Simulator._pin_env

    def counting_pin_env(self, model):
        calls["n"] += 1
        return original(self, model)

    monkeypatch.setattr(Simulator, "_pin_env", counting_pin_env)
    _run_figure22("compiled")
    assert calls["n"] == 0
    _run_figure22("reference")
    assert calls["n"] > 0  # the reference path still rebuilds dicts


def test_force_net_applies_to_compiled_kernel():
    module = figure22_circuit(LIB)
    sim = Simulator(module, LIB, kernel="compiled")
    initialize_registers(sim, 0)
    # pin an FF output net high while the circuit keeps running
    model = next(m for m in sim._models.values() if m.is_ff)
    net = model.pin_nets["Q"]
    sim.force_net(net, 1)
    assert sim.value(net) == 1
    bench = SyncTestbench(sim, clock="clk", period=10.0)
    bench.run_cycles(4, lambda k: {f"din[{i}]": k & 1 for i in range(4)})
    assert sim.value(net) == 1  # still pinned after clocked activity


# ----------------------------------------------------------------------
# Monte-Carlo chip seeding
# ----------------------------------------------------------------------


def test_chip_samples_independent_of_population_size():
    """Per-chip seeds: chip i is the same die in a 10- or 100-chip run."""
    model = VariabilityModel()
    small = model.sample_chips(10, seed=42)
    large = model.sample_chips(100, seed=42)
    assert [c.inter_die for c in small] == [
        c.inter_die for c in large[:10]
    ]
