"""Shared fixtures for the benchmark harness.

Each ``bench_*`` file regenerates one table or figure of the paper's
evaluation.  The pytest-benchmark fixture times the headline
computation once (``pedantic(rounds=1)``) -- these are experiments, not
micro-benchmarks -- and each bench *prints* the reproduced rows/series
(run with ``pytest benchmarks/ --benchmark-only -s`` to see them) and
appends them to ``benchmarks/results/`` for EXPERIMENTS.md.

The harness runs on the :mod:`repro.engine` flow engine: design
generation and the flow stages cache content-addressed under the
repo-level ``.repro_cache/`` directory (override with the
``REPRO_CACHE_DIR`` environment variable), so a second benchmark run
resumes from cached artifacts instead of regenerating the netlists and
re-characterising the delay ladders.
"""

import json
import os

import pytest

from repro.designs import dlx_core
from repro.desync import ensure_controller_cells
from repro.obs import bench as obs_bench
from repro.engine import (
    ArtifactCache,
    FlowEngine,
    FlowGraph,
    RunJournal,
    generation_stage,
    library_fingerprint,
)
from repro.liberty import core9_hs, core9_ll

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
CACHE_DIR = os.environ.get(
    "REPRO_CACHE_DIR",
    os.path.join(os.path.dirname(__file__), os.pardir, ".repro_cache"),
)


def emit(name: str, text: str) -> None:
    """Print a reproduced table and persist it under benchmarks/results."""
    print()
    print(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as handle:
        handle.write(text + "\n")


def stamp_result(payload: dict, name: str, metrics: dict) -> dict:
    """Upgrade a benchmark payload to the unified ``repro-bench/v1``
    schema in place: machine/python/CPU metadata, git revision and a
    UTC timestamp next to the gated ``metrics`` block."""
    return obs_bench.stamp(
        payload, name, metrics, cwd=os.path.dirname(__file__)
    )


def emit_json(name: str, payload: dict) -> str:
    """Write a stamped benchmark payload under ``benchmarks/results``."""
    if "metrics" not in payload:
        raise ValueError(f"{name}: stamp_result() the payload first")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def _shared_library(library):
    """Add the controller cells before anything fingerprints the
    library, as ``drdesync`` and the daemon do: the first flow would
    otherwise add them mid-session and move every stage key taken
    after it (a warm re-run would miss ``generate.dlx``)."""
    ensure_controller_cells(library)
    return library


@pytest.fixture(scope="session")
def hs_library():
    return _shared_library(core9_hs())


@pytest.fixture(scope="session")
def ll_library():
    return _shared_library(core9_ll())


@pytest.fixture(scope="session")
def engine_cache():
    """The persistent artifact cache every benchmark engine shares."""
    return ArtifactCache(CACHE_DIR)


@pytest.fixture
def make_engine(engine_cache):
    """Factory for per-benchmark engines sharing the session cache."""

    def make(journal_path=None, cache=True):
        journal = None
        if journal_path is not None:
            os.makedirs(RESULTS_DIR, exist_ok=True)
            journal = RunJournal(journal_path)
        return FlowEngine(
            cache=engine_cache if cache else None,
            journal=journal,
        )

    return make


@pytest.fixture
def dlx_factory(engine_cache, hs_library):
    """Build a DLX netlist through the engine cache.

    The shared "generate DLX on the HS library" setup every benchmark
    used to repeat now runs as one cached generation stage: the first
    call per parameter set builds the netlist, later calls (including
    later pytest invocations) load the cached artifact.  Each call
    returns an independent module object.
    """

    def make(engine=None, journal=None, **kwargs):
        params = {
            "generator": "dlx_core",
            "library": library_fingerprint(hs_library),
            **kwargs,
        }
        graph = FlowGraph("generate-dlx")
        graph.add(
            generation_stage(
                "generate.dlx",
                lambda: dlx_core(hs_library, **kwargs),
                params,
            )
        )
        engine = engine or FlowEngine(cache=engine_cache, journal=journal)
        result = engine.run(graph, label="generate:dlx")
        result.raise_first_failure()
        # cache hits hand out a private unpickled copy, and the cold
        # path snapshots the artifact before returning it, so callers
        # may freely mutate the module
        return result.artifacts["module"]

    return make


def run_once(benchmark, fn):
    """Time ``fn`` exactly once through pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
