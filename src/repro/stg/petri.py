"""Signal Transition Graphs (STGs) and their state-space analysis.

STGs are interpreted Petri nets whose transitions are signal edges
(``a+`` / ``a-``).  They specify handshake protocols and controllers
(Figure 2.4, section 3.1.3).  This module provides:

- an STG builder (places created implicitly for causal arcs),
- reachability-graph exploration over (marking, signal-vector) states,
- the standard sanity properties: *consistency* (edges of each signal
  alternate), *boundedness* (places hold at most one token here),
  *deadlock-freedom* and *liveness* (every transition can always
  eventually fire again),
- *Complete State Coding* (CSC) detection, the prerequisite for the
  complex-gate synthesis in :mod:`repro.stg.synthesis`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple


@dataclass(frozen=True)
class Transition:
    """A signal edge: ``signal`` rising (+) or falling (-).

    ``tag`` distinguishes multiple occurrences of the same edge in one
    specification (rare; unused by the shipped protocols).
    """

    signal: str
    polarity: bool  # True = +, False = -
    tag: int = 0

    @property
    def name(self) -> str:
        suffix = "+" if self.polarity else "-"
        base = f"{self.signal}{suffix}"
        if self.tag:
            base += f"/{self.tag}"
        return base

    def __repr__(self) -> str:
        return self.name


def t(spec: str) -> Transition:
    """Parse ``"a+"`` / ``"b-"`` / ``"a+/1"`` shorthand."""
    if "/" in spec:
        edge, tag_text = spec.split("/")
        tag = int(tag_text)
    else:
        edge, tag = spec, 0
    signal, suffix = edge[:-1], edge[-1]
    if suffix not in "+-":
        raise ValueError(f"bad transition spec {spec!r}")
    return Transition(signal, suffix == "+", tag)


class StgError(Exception):
    """Raised on malformed STGs or exploration failures."""


#: state: (frozenset of marked place indices, tuple of signal values)
State = Tuple[FrozenSet[int], Tuple[int, ...]]


class Stg:
    """A signal transition graph with single-token implicit places."""

    def __init__(
        self,
        inputs: Iterable[str] = (),
        outputs: Iterable[str] = (),
        internal: Iterable[str] = (),
    ):
        self.inputs: List[str] = list(inputs)
        self.outputs: List[str] = list(outputs)
        self.internal: List[str] = list(internal)
        self.transitions: List[Transition] = []
        #: each place: (source transition index, target transition index)
        self.places: List[Tuple[int, int]] = []
        self.initial_marking: Set[int] = set()
        self.initial_values: Dict[str, int] = {}

    # ------------------------------------------------------------------
    @property
    def signals(self) -> List[str]:
        return self.inputs + self.outputs + self.internal

    def non_input_signals(self) -> List[str]:
        return self.outputs + self.internal

    def _transition_index(self, transition: Transition) -> int:
        try:
            return self.transitions.index(transition)
        except ValueError:
            if transition.signal not in self.signals:
                raise StgError(f"unknown signal {transition.signal!r}")
            self.transitions.append(transition)
            return len(self.transitions) - 1

    def arc(self, src: str, dst: str, marked: bool = False) -> None:
        """Add a causal arc ``src -> dst`` with an implicit place."""
        src_idx = self._transition_index(t(src))
        dst_idx = self._transition_index(t(dst))
        self.places.append((src_idx, dst_idx))
        if marked:
            self.initial_marking.add(len(self.places) - 1)

    def arcs(self, *specs: Tuple[str, str], marked: Sequence[Tuple[str, str]] = ()) -> None:
        for src, dst in specs:
            self.arc(src, dst)
        for src, dst in marked:
            self.arc(src, dst, marked=True)

    # ------------------------------------------------------------------
    def initial_state(self) -> State:
        values = tuple(self.initial_values.get(s, 0) for s in self.signals)
        return frozenset(self.initial_marking), values

    def enabled(self, state: State) -> List[int]:
        """Indices of transitions enabled in ``state``."""
        marking, values = state
        preset: Dict[int, List[int]] = {}
        for place, (src, dst) in enumerate(self.places):
            preset.setdefault(dst, []).append(place)
        out: List[int] = []
        signal_pos = {s: i for i, s in enumerate(self.signals)}
        for index, transition in enumerate(self.transitions):
            places = preset.get(index, [])
            if not all(p in marking for p in places):
                continue
            current = values[signal_pos[transition.signal]]
            # consistency: a+ only enabled when a=0, a- when a=1
            if transition.polarity == bool(current):
                continue
            out.append(index)
        return out

    def fire(self, state: State, transition_index: int) -> State:
        marking, values = state
        new_marking = set(marking)
        for place, (src, dst) in enumerate(self.places):
            if dst == transition_index:
                new_marking.discard(place)
        for place, (src, dst) in enumerate(self.places):
            if src == transition_index:
                if place in new_marking:
                    raise StgError(
                        f"unsafe net: place {place} receives a second token "
                        f"firing {self.transitions[transition_index]}"
                    )
                new_marking.add(place)
        transition = self.transitions[transition_index]
        signal_pos = self.signals.index(transition.signal)
        new_values = list(values)
        new_values[signal_pos] = 1 if transition.polarity else 0
        return frozenset(new_marking), tuple(new_values)


@dataclass
class ReachabilityGraph:
    """Explicit state space of an STG."""

    stg: Stg
    states: List[State] = field(default_factory=list)
    #: edges: state index -> list of (transition index, successor state index)
    edges: Dict[int, List[Tuple[int, int]]] = field(default_factory=dict)
    index: Dict[State, int] = field(default_factory=dict)

    @property
    def state_count(self) -> int:
        return len(self.states)

    def deadlocks(self) -> List[int]:
        return [i for i in range(len(self.states)) if not self.edges.get(i)]


def explore(stg: Stg, max_states: int = 100000) -> ReachabilityGraph:
    """Breadth-first reachability exploration."""
    graph = ReachabilityGraph(stg)
    initial = stg.initial_state()
    graph.states.append(initial)
    graph.index[initial] = 0
    frontier = [0]
    while frontier:
        next_frontier: List[int] = []
        for state_index in frontier:
            state = graph.states[state_index]
            successors: List[Tuple[int, int]] = []
            for transition_index in stg.enabled(state):
                new_state = stg.fire(state, transition_index)
                target = graph.index.get(new_state)
                if target is None:
                    target = len(graph.states)
                    graph.states.append(new_state)
                    graph.index[new_state] = target
                    next_frontier.append(target)
                    if target >= max_states:
                        raise StgError("state explosion during exploration")
                successors.append((transition_index, target))
            graph.edges[state_index] = successors
        frontier = next_frontier
    return graph


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------

def check_consistency(graph: ReachabilityGraph) -> bool:
    """Signal edges alternate by construction; verify every transition
    of the STG is actually fireable somewhere (no dead spec parts)."""
    fired: Set[int] = set()
    for successors in graph.edges.values():
        fired.update(transition for transition, _ in successors)
    return fired == set(range(len(graph.stg.transitions)))


def is_deadlock_free(graph: ReachabilityGraph) -> bool:
    return not graph.deadlocks()


def is_live(graph: ReachabilityGraph) -> bool:
    """Liveness: from every state, every transition can eventually fire."""
    if not is_deadlock_free(graph):
        return False
    n = len(graph.states)
    # reverse reachability per transition: states from which t is eventually
    # fireable = backward closure of states where t fires
    reverse: Dict[int, List[int]] = {i: [] for i in range(n)}
    for src, successors in graph.edges.items():
        for _, dst in successors:
            reverse[dst].append(src)
    for transition_index in range(len(graph.stg.transitions)):
        seeds = [
            src
            for src, successors in graph.edges.items()
            if any(ti == transition_index for ti, _ in successors)
        ]
        if not seeds:
            return False
        seen = set(seeds)
        stack = list(seeds)
        while stack:
            node = stack.pop()
            for prev in reverse[node]:
                if prev not in seen:
                    seen.add(prev)
                    stack.append(prev)
        if len(seen) != n:
            return False
    return True


def csc_conflicts(graph: ReachabilityGraph) -> List[Tuple[int, int]]:
    """Pairs of states violating Complete State Coding.

    Two states conflict when they share the same signal vector but the
    set of *enabled non-input transitions* differs -- the next-state
    function of some output would be ambiguous.
    """
    stg = graph.stg
    non_input = set(stg.non_input_signals())
    by_code: Dict[Tuple[int, ...], List[int]] = {}
    for index, (marking, values) in enumerate(graph.states):
        by_code.setdefault(values, []).append(index)
    conflicts: List[Tuple[int, int]] = []
    for code, state_indices in by_code.items():
        if len(state_indices) < 2:
            continue
        signatures = []
        for state_index in state_indices:
            enabled_out = frozenset(
                graph.stg.transitions[ti].name
                for ti, _ in graph.edges.get(state_index, [])
                if graph.stg.transitions[ti].signal in non_input
            )
            signatures.append((state_index, enabled_out))
        for (ia, sig_a), (ib, sig_b) in itertools.combinations(signatures, 2):
            if sig_a != sig_b:
                conflicts.append((ia, ib))
    return conflicts


def has_csc(graph: ReachabilityGraph) -> bool:
    return not csc_conflicts(graph)
