"""Property-based tests (hypothesis) on the core data structures.

These pin down invariants rather than examples: netlist consistency
under random edit sequences, boolean-function evaluation against a
brute-force reference, Quine-McCluskey cover correctness on random
truth tables, C-element rendezvous behaviour under random input walks,
protocol safety under random firing orders, and the delay-ladder /
selection monotonicity the flow relies on.
"""

import itertools

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.desync import build_cmuller, choose_length, mux_selection_delay
from repro.desync.delays import DelayElementError, DelayLadder
from repro.liberty import GateChooser, core9_hs
from repro.liberty.functions import (
    Const,
    Not,
    Op,
    Var,
    evaluate,
    expr_to_text,
    parse_function,
)
from repro.netlist import (
    Module,
    PinRef,
    PortDirection,
    parse_verilog,
    write_verilog,
)
from repro.sim import Simulator
from repro.stg import (
    NON_OVERLAPPING,
    SEMI_DECOUPLED,
    SIMPLE,
    Stg,
    StgError,
)
from repro.stg.synthesis import cubes_to_expr, minimal_cover

LIB = core9_hs()

# ----------------------------------------------------------------------
# netlist invariants
# ----------------------------------------------------------------------

edit_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["connect", "disconnect", "add", "remove", "merge", "rename"]
        ),
        st.integers(0, 7),
        st.integers(0, 7),
    ),
    min_size=1,
    max_size=30,
)


@given(edit_ops)
# always run: a merge into a net that already has pins, then a rename
@example([("add", 1, 2), ("add", 3, 4), ("merge", 2, 3), ("rename", 2, 5)])
@settings(max_examples=60, deadline=None)
def test_netlist_stays_consistent_under_edits(ops):
    """Edits keep both directions consistent and every net's pins in
    the order of a plain-list model: append on connect, filter on
    disconnect.  Byte-identical outputs rest on that order."""
    module = Module("m")
    module.add_port("p0", PortDirection.INPUT)
    model = {"p0": [PinRef(None, "p0")]}

    def attach(inst, pin, net):
        model.setdefault(net, []).append(PinRef(inst, pin))

    def detach(inst, pin):
        net = module.instances[inst].pins.get(pin)
        if net is not None:
            model[net] = [ref for ref in model[net] if ref != (inst, pin)]

    for op, a, b in ops:
        inst_name = f"u{a}"
        if op == "add" and inst_name not in module.instances:
            module.add_instance(inst_name, "INVX1", {"A": f"n{a}", "Z": f"n{b}"})
            attach(inst_name, "A", f"n{a}")
            attach(inst_name, "Z", f"n{b}")
        elif op == "remove":
            if inst_name in module.instances:
                for pin in list(module.instances[inst_name].pins):
                    detach(inst_name, pin)
            module.remove_instance(inst_name)
        elif op == "connect" and inst_name in module.instances:
            detach(inst_name, "A")
            module.connect(inst_name, "A", f"n{b}")
            attach(inst_name, "A", f"n{b}")
        elif op == "disconnect" and inst_name in module.instances:
            detach(inst_name, "A")
            module.disconnect(inst_name, "A")
        elif op == "merge" and f"n{b}" in module.nets:
            module.merge_nets(f"n{a}", f"n{b}")
            if a != b:
                model.setdefault(f"n{a}", []).extend(model.pop(f"n{b}"))
        elif op == "rename" and f"n{a}" in module.nets and (
            f"n{b}" not in module.nets
        ):
            module.rename_net(f"n{a}", f"n{b}")
            model[f"n{b}"] = model.pop(f"n{a}")
        assert module.check() == []
        assert {
            name: list(net.connections) for name, net in module.nets.items()
        } == model


@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=40, deadline=None)
def test_verilog_round_trip_random_netlists(gates):
    module = Module("m")
    module.add_port("a", PortDirection.INPUT, msb=5, lsb=0)
    module.add_port("y", PortDirection.OUTPUT)
    for index, (x, y, z) in enumerate(gates):
        module.add_instance(
            f"g{index}",
            "NAND2X1",
            {"A": f"a[{x}]", "B": f"w{y}", "Z": f"w{index}_{z}"},
        )
    from repro.netlist import Netlist

    netlist = Netlist()
    netlist.add_module(module)
    again = parse_verilog(write_verilog(netlist)).top
    assert set(again.instances) == set(module.instances)
    for name, inst in module.instances.items():
        assert again.instances[name].pins == inst.pins
    assert again.check() == []


# ----------------------------------------------------------------------
# boolean functions
# ----------------------------------------------------------------------

VARS = ["A", "B", "C", "D"]


def expr_strategy():
    leaves = st.sampled_from(
        [Var(v) for v in VARS] + [Const(0), Const(1)]
    )

    def extend(children):
        return st.one_of(
            st.builds(Not, children),
            st.builds(
                lambda kind, args: Op(kind, tuple(args)),
                st.sampled_from(["and", "or", "xor"]),
                st.lists(children, min_size=2, max_size=3),
            ),
        )

    return st.recursive(leaves, extend, max_leaves=12)


def reference_eval(expr, env):
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        return env[expr.name]
    if isinstance(expr, Not):
        return 1 - reference_eval(expr.arg, env)
    values = [reference_eval(arg, env) for arg in expr.args]
    if expr.kind == "and":
        return int(all(values))
    if expr.kind == "or":
        return int(any(values))
    acc = 0
    for value in values:
        acc ^= value
    return acc


@given(expr_strategy())
@settings(max_examples=150, deadline=None)
def test_function_text_round_trip_preserves_semantics(expr):
    text = expr_to_text(expr)
    parsed = parse_function(text)
    for bits in itertools.product((0, 1), repeat=len(VARS)):
        env = dict(zip(VARS, bits))
        assert evaluate(parsed, env) == reference_eval(expr, env)


@given(expr_strategy())
@settings(max_examples=100, deadline=None)
def test_three_valued_eval_is_conservative(expr):
    """If the 3-valued result is known, it matches every completion."""
    env = {"A": 1, "B": None, "C": 0, "D": None}
    result = evaluate(expr, env)
    if result is None:
        return
    for b_val in (0, 1):
        for d_val in (0, 1):
            complete = {"A": 1, "B": b_val, "C": 0, "D": d_val}
            assert reference_eval(expr, complete) == result


# ----------------------------------------------------------------------
# Quine-McCluskey
# ----------------------------------------------------------------------

@given(
    st.integers(2, 4),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_minimal_cover_matches_truth_table(width, data):
    universe = list(range(1 << width))
    on_set = set(data.draw(st.sets(st.sampled_from(universe))))
    dc_candidates = [m for m in universe if m not in on_set]
    dc_set = set(
        data.draw(st.sets(st.sampled_from(dc_candidates)))
        if dc_candidates
        else set()
    )
    cover = minimal_cover(on_set, dc_set, width)
    variables = [f"x{i}" for i in range(width)]
    expr = cubes_to_expr(cover, variables)
    for minterm in universe:
        env = {
            variables[i]: (minterm >> (width - 1 - i)) & 1
            for i in range(width)
        }
        value = evaluate(expr, env)
        if minterm in on_set:
            assert value == 1
        elif minterm not in dc_set:
            assert value == 0


# ----------------------------------------------------------------------
# C-element rendezvous invariant
# ----------------------------------------------------------------------

@given(
    st.integers(2, 5),
    st.lists(st.tuples(st.integers(0, 4), st.booleans()), max_size=25),
)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cmuller_rendezvous_invariant(n_inputs, walk):
    module = Module("cm")
    inputs = []
    for index in range(n_inputs):
        module.add_port(f"i{index}", PortDirection.INPUT)
        inputs.append(f"i{index}")
    module.add_port("z", PortDirection.OUTPUT)
    build_cmuller(module, inputs, "z", GateChooser(LIB))
    simulator = Simulator(module, LIB)
    state = [0] * n_inputs
    for name in inputs:
        simulator.set_input(name, 0)
    simulator.settle(max_time=100)
    expected = 0
    for index, value in walk:
        state[index % n_inputs] = int(value)
        simulator.set_input(inputs[index % n_inputs], int(value))
        simulator.settle(max_time=100)
        if all(state):
            expected = 1
        elif not any(state):
            expected = 0
        assert simulator.value("z") == expected


# ----------------------------------------------------------------------
# protocols: random firing walks never break safety/consistency
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "protocol", [NON_OVERLAPPING, SIMPLE, SEMI_DECOUPLED], ids=lambda p: p.name
)
@given(choices=st.lists(st.integers(0, 10), max_size=40))
@settings(max_examples=40, deadline=None)
def test_protocol_random_walks_stay_safe(protocol, choices):
    stg = protocol.pairwise_stg()
    state = stg.initial_state()
    signals = stg.signals
    for choice in choices:
        enabled = stg.enabled(state)
        assert enabled, "good protocols never deadlock"
        transition_index = enabled[choice % len(enabled)]
        transition = stg.transitions[transition_index]
        _, values = state
        position = signals.index(transition.signal)
        # consistency: a rising edge only from 0, a falling only from 1
        assert values[position] == (0 if transition.polarity else 1)
        state = stg.fire(state, transition_index)  # raises if unsafe


# ----------------------------------------------------------------------
# delay ladders and selections
# ----------------------------------------------------------------------

@given(
    st.lists(
        st.floats(min_value=0.01, max_value=0.2, allow_nan=False),
        min_size=3,
        max_size=60,
    ),
    st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_choose_length_is_minimal_and_sufficient(steps, target, margin):
    delays = list(itertools.accumulate(steps))
    ladder = DelayLadder("lib", "worst", delays)
    try:
        length = choose_length(ladder, target, margin)
    except DelayElementError:
        assert delays[-1] < target * (1 + margin)
        return
    assert ladder.delay_of(length) >= target * (1 + margin)
    if length > 1:
        assert ladder.delay_of(length - 1) < target * (1 + margin)


@given(
    st.integers(2, 120),
    st.integers(2, 8),
)
@settings(max_examples=100, deadline=None)
def test_mux_selection_delay_monotone(length, taps):
    delays = [0.05 * (i + 1) for i in range(length)]
    ladder = DelayLadder("lib", "worst", delays)
    series = [
        mux_selection_delay(ladder, length, taps, sel)
        for sel in range(taps)
    ]
    assert all(b >= a for a, b in zip(series, series[1:]))
    assert series[-1] == ladder.delay_of(length)
