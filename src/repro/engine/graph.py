"""Stage graph: the flow as a DAG of artifact-producing stages.

A :class:`Stage` declares the artifact keys it consumes and produces
plus the parameters that determine its result; a :class:`FlowGraph`
collects stages and derives the execution DAG from those declarations
(producer-of -> consumer-of edges, plus explicit ``after`` ordering
edges for stages that mutate a shared netlist without exchanging an
artifact).  The graph itself never executes anything -- that is the
:class:`repro.engine.executor.FlowEngine`'s job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple


class FlowGraphError(ValueError):
    """Raised on malformed graphs: cycles, duplicate producers, ..."""


@dataclass
class Stage:
    """One unit of flow work.

    ``func`` receives a dict of the declared ``inputs`` and returns a
    dict of the declared ``outputs`` (or a bare value when exactly one
    output is declared).  ``params`` are the option values the stage
    result depends on -- they are hashed into the stage's cache key, so
    two stages differing only in params never share a cache entry.
    ``after`` adds ordering-only edges (no artifact exchanged), needed
    when a stage mutates a module another stage reads.
    """

    name: str
    func: Callable[[Dict[str, Any]], Any]
    inputs: Tuple[str, ...] = ()
    outputs: Tuple[str, ...] = ()
    params: Dict[str, Any] = field(default_factory=dict)
    after: Tuple[str, ...] = ()
    version: str = "1"

    def call(self, artifacts: Dict[str, Any]) -> Dict[str, Any]:
        """Run the stage function and normalise its return value."""
        inputs = {key: artifacts[key] for key in self.inputs}
        result = self.func(inputs)
        if not self.outputs:
            return {}
        if isinstance(result, dict) and set(result) == set(self.outputs):
            return result
        if len(self.outputs) == 1:
            return {self.outputs[0]: result}
        raise FlowGraphError(
            f"stage {self.name!r} returned {type(result).__name__}, "
            f"expected a dict with keys {sorted(self.outputs)}"
        )


class FlowGraph:
    """An ordered collection of stages forming a DAG."""

    def __init__(self, name: str = "flow"):
        self.name = name
        self.stages: Dict[str, Stage] = {}
        self._producer: Dict[str, str] = {}  # artifact -> stage name

    # ------------------------------------------------------------------
    def add(self, stage: Stage) -> Stage:
        if stage.name in self.stages:
            raise FlowGraphError(f"duplicate stage {stage.name!r}")
        for artifact in stage.outputs:
            owner = self._producer.get(artifact)
            if owner is not None:
                raise FlowGraphError(
                    f"artifact {artifact!r} produced by both {owner!r} "
                    f"and {stage.name!r}"
                )
        self.stages[stage.name] = stage
        for artifact in stage.outputs:
            self._producer[artifact] = stage.name
        return stage

    def add_stages(self, stages) -> None:
        for stage in stages:
            self.add(stage)

    # ------------------------------------------------------------------
    def producer_of(self, artifact: str) -> Optional[str]:
        return self._producer.get(artifact)

    def initial_inputs(self) -> Set[str]:
        """Artifact keys that must be supplied by the caller."""
        needed: Set[str] = set()
        for stage in self.stages.values():
            for artifact in stage.inputs:
                if artifact not in self._producer:
                    needed.add(artifact)
        return needed

    def dependencies(self, stage: Stage) -> Set[str]:
        """Names of the stages that must complete before ``stage``."""
        deps: Set[str] = set()
        for artifact in stage.inputs:
            owner = self._producer.get(artifact)
            if owner is not None:
                deps.add(owner)
        for name in stage.after:
            if name not in self.stages:
                raise FlowGraphError(
                    f"stage {stage.name!r} ordered after unknown "
                    f"stage {name!r}"
                )
            deps.add(name)
        return deps

    def topological_order(self) -> List[Stage]:
        """Kahn's algorithm, insertion order as the deterministic
        tie-break -- the order the engine runs stages in."""
        deps = {s.name: self.dependencies(s) for s in self.stages.values()}
        done: Set[str] = set()
        order: List[Stage] = []
        remaining = list(self.stages.values())
        while remaining:
            progress = False
            still: List[Stage] = []
            for stage in remaining:
                if deps[stage.name] <= done:
                    order.append(stage)
                    done.add(stage.name)
                    progress = True
                else:
                    still.append(stage)
            if not progress:
                cyclic = sorted(s.name for s in still)
                raise FlowGraphError(f"cycle among stages {cyclic}")
            remaining = still
        return order

    def validate(self, initial: Dict[str, Any]) -> None:
        """Check the caller supplied every non-produced input."""
        missing = self.initial_inputs() - set(initial)
        if missing:
            raise FlowGraphError(
                f"graph {self.name!r} missing initial artifacts: "
                f"{sorted(missing)}"
            )
        self.topological_order()  # raises on cycles

    def __len__(self) -> int:
        return len(self.stages)

    def __repr__(self) -> str:
        return f"FlowGraph({self.name!r}, {len(self.stages)} stages)"
