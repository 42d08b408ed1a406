"""Complex-gate synthesis of speed-independent controllers from STGs.

The paper's latch controllers "have been designed from a Signal
Transition Graph specification in the petrify tool" (section 3.1.3) and
mapped by hand *without decomposing the gates* so they stay hazard-free.
This module is the petrify-lite equivalent:

1. explore the STG's reachability graph,
2. verify Complete State Coding (CSC),
3. extract, for every output/internal signal, the *next-state function*
   over the signal vector (unreachable vectors become don't-cares),
4. minimise it with Quine-McCluskey + greedy prime-implicant cover.

Each resulting function is a single complex gate with the signal itself
among its inputs whenever it must hold state (a generalized C-element).
The mapped controller is hazard-free by construction under the
speed-independence assumption because each excitation function is
implemented atomically, never decomposed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..liberty.functions import Const, Expr, Not, Op, Var
from .petri import ReachabilityGraph, Stg, StgError, csc_conflicts, explore


class SynthesisError(Exception):
    """Raised when an STG cannot be implemented as complex gates."""


# ----------------------------------------------------------------------
# Quine-McCluskey
# ----------------------------------------------------------------------

def _combine(a: str, b: str) -> Optional[str]:
    """Combine two implicant cubes differing in exactly one literal."""
    diff = 0
    out = []
    for bit_a, bit_b in zip(a, b):
        if bit_a == bit_b:
            out.append(bit_a)
        elif "-" in (bit_a, bit_b):
            return None
        else:
            diff += 1
            out.append("-")
    if diff != 1:
        return None
    return "".join(out)


def _covers(cube: str, minterm: int, width: int) -> bool:
    for position, bit in enumerate(cube):
        value = (minterm >> (width - 1 - position)) & 1
        if bit != "-" and int(bit) != value:
            return False
    return True


def prime_implicants(
    on_set: Set[int], dc_set: Set[int], width: int
) -> List[str]:
    """All prime implicants of on_set over on+dc minterms."""
    current = {
        format(m, f"0{width}b") for m in on_set | dc_set
    }
    primes: Set[str] = set()
    while current:
        combined: Set[str] = set()
        used: Set[str] = set()
        current_list = sorted(current)
        for a, b in itertools.combinations(current_list, 2):
            merged = _combine(a, b)
            if merged is not None:
                combined.add(merged)
                used.add(a)
                used.add(b)
        primes.update(current - used)
        current = combined
    return sorted(primes)


def minimal_cover(
    on_set: Set[int], dc_set: Set[int], width: int
) -> List[str]:
    """Greedy prime-implicant cover of the ON-set (essential PIs first)."""
    if not on_set:
        return []
    primes = prime_implicants(on_set, dc_set, width)
    coverage = {
        cube: {m for m in on_set if _covers(cube, m, width)} for cube in primes
    }
    chosen: List[str] = []
    remaining = set(on_set)
    # essential primes
    for minterm in sorted(on_set):
        covering = [cube for cube in primes if minterm in coverage[cube]]
        if len(covering) == 1 and covering[0] not in chosen:
            chosen.append(covering[0])
            remaining -= coverage[covering[0]]
    # greedy for the rest
    while remaining:
        best = max(
            primes,
            key=lambda cube: (len(coverage[cube] & remaining), -cube.count("-")),
        )
        if not coverage[best] & remaining:
            raise SynthesisError("cover construction failed")
        chosen.append(best)
        remaining -= coverage[best]
    return chosen


def cubes_to_expr(cubes: Sequence[str], variables: Sequence[str]) -> Expr:
    """Render a cube cover as a liberty-style expression AST."""
    if not cubes:
        return Const(0)
    terms: List[Expr] = []
    for cube in cubes:
        literals: List[Expr] = []
        for position, bit in enumerate(cube):
            if bit == "1":
                literals.append(Var(variables[position]))
            elif bit == "0":
                literals.append(Not(Var(variables[position])))
        if not literals:
            return Const(1)
        terms.append(literals[0] if len(literals) == 1 else Op("and", tuple(literals)))
    if len(terms) == 1:
        return terms[0]
    return Op("or", tuple(terms))


# ----------------------------------------------------------------------
# next-state function extraction
# ----------------------------------------------------------------------

@dataclass
class ControllerImplementation:
    """Complex-gate implementation: one next-state function per signal."""

    stg: Stg
    #: output/internal signal -> expression over all STG signals
    functions: Dict[str, Expr]
    #: reachable signal vectors (for verification)
    reachable_codes: Set[Tuple[int, ...]]


def synthesize(stg: Stg, graph: Optional[ReachabilityGraph] = None) -> ControllerImplementation:
    """Derive minimised next-state functions for every non-input signal."""
    if graph is None:
        graph = explore(stg)
    conflicts = csc_conflicts(graph)
    if conflicts:
        ia, ib = conflicts[0]
        raise SynthesisError(
            f"STG violates CSC: states {ia} and {ib} share a signal code "
            "but enable different outputs"
        )
    signals = stg.signals
    width = len(signals)
    non_input = stg.non_input_signals()

    # per signal: ON/OFF sets over signal vectors
    next_value: Dict[str, Dict[Tuple[int, ...], int]] = {
        s: {} for s in non_input
    }
    for state_index, (marking, values) in enumerate(graph.states):
        enabled = {
            graph.stg.transitions[ti]
            for ti, _ in graph.edges.get(state_index, [])
        }
        for signal in non_input:
            position = signals.index(signal)
            value = values[position]
            nxt = value
            for transition in enabled:
                if transition.signal == signal:
                    nxt = 1 if transition.polarity else 0
            previous = next_value[signal].get(values)
            if previous is not None and previous != nxt:
                raise SynthesisError(
                    f"inconsistent next-state for {signal!r} at code {values}"
                )
            next_value[signal][values] = nxt

    reachable = {values for _, values in graph.states}
    all_codes = set(itertools.product((0, 1), repeat=width))
    dc_codes = all_codes - reachable

    def code_to_int(code: Tuple[int, ...]) -> int:
        out = 0
        for bit in code:
            out = (out << 1) | bit
        return out

    functions: Dict[str, Expr] = {}
    for signal in non_input:
        on_set = {
            code_to_int(code)
            for code, value in next_value[signal].items()
            if value == 1
        }
        dc_set = {code_to_int(code) for code in dc_codes}
        cover = minimal_cover(on_set, dc_set, width)
        functions[signal] = cubes_to_expr(cover, signals)
    return ControllerImplementation(stg, functions, reachable)


def verify_implementation(impl: ControllerImplementation) -> bool:
    """Closed-loop check: gate feedback reproduces exactly the STG's
    reachable transitions for the non-input signals.

    For every reachable code, each output's function value must equal
    the extracted next-state value (1-step correctness); speed-
    independence then follows from CSC + atomic complex gates.
    """
    from ..liberty.functions import evaluate

    stg = impl.stg
    graph = explore(stg)
    signals = stg.signals
    for state_index, (marking, values) in enumerate(graph.states):
        env = dict(zip(signals, values))
        enabled = {
            graph.stg.transitions[ti]
            for ti, _ in graph.edges.get(state_index, [])
        }
        for signal, expr in impl.functions.items():
            expected = env[signal]
            for transition in enabled:
                if transition.signal == signal:
                    expected = 1 if transition.polarity else 0
            if evaluate(expr, env) != expected:
                return False
    return True
