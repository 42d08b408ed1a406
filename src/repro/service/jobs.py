"""Job specs, results and content-addressed job keys.

A job is one desynchronization request: a design (a named generator
with parameters, or raw Verilog source), a library variant and the
``DesyncOptions`` the flow should use.  :func:`job_key` fingerprints
exactly that triple with :func:`repro.engine.cache.stable_hash` plus
:func:`~repro.engine.cache.library_fingerprint`, so

- two identical submissions map to the same key and the daemon can
  serve the second from the first's completed record (dedupe), and
- even when a re-run is forced, both jobs generate identical stage
  keys and share every artifact through the daemon's one
  :class:`~repro.engine.cache.ArtifactCache`.

Specs travel over HTTP as plain JSON dicts
(:meth:`JobSpec.to_dict` / :meth:`JobSpec.from_dict`); results are
flattened into a JSON-safe payload (:func:`result_payload`) so the
server never pickles netlists across the wire.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from ..desync.tool import DesyncOptions, DesyncResult, Drdesync
from ..engine.cache import library_fingerprint, stable_hash
from ..engine.executor import FlowEngine
from ..netlist.core import Module
from ..netlist.verilog import parse_verilog, write_module


class JobError(ValueError):
    """A submission that cannot be turned into a runnable flow."""


#: named design generators the service can build on demand.  Each entry
#: maps keyword parameters straight onto the generator signature; the
#: parameters are part of the job key, so "dlx registers=8" and
#: "dlx registers=32" never collide.
def _design_builders() -> Dict[str, Callable[..., Module]]:
    from ..designs import (
        arm9_core,
        counter,
        dlx_core,
        figure22_circuit,
        gated_counter,
        pipeline3,
        scan_pipeline,
        shift_register,
    )

    return {
        "dlx": dlx_core,
        "arm9": arm9_core,
        "counter": counter,
        "gated_counter": gated_counter,
        "pipeline3": pipeline3,
        "scan_pipeline": scan_pipeline,
        "shift_register": shift_register,
        "figure22": figure22_circuit,
    }


def known_designs() -> tuple:
    """The design names :func:`resolve_module` accepts."""
    return tuple(sorted(_design_builders()))


@dataclass
class JobSpec:
    """One desynchronization request, JSON-serialisable end to end."""

    #: a name from :func:`known_designs` (with ``params``), or ``None``
    #: when ``verilog`` carries the netlist source instead
    design: Optional[str] = None
    #: generator keyword arguments (``registers``, ``width``, ...)
    params: Dict[str, Any] = field(default_factory=dict)
    #: raw gate-level Verilog source (alternative to ``design``)
    verilog: Optional[str] = None
    #: top module name when ``verilog`` holds several modules
    top: Optional[str] = None
    #: built-in library variant: "hs" or "ll"
    library: str = "hs"
    options: DesyncOptions = field(default_factory=DesyncOptions)
    #: larger runs first among queued jobs
    priority: int = 0
    #: capture a per-stage profile for this run (cProfile + tracemalloc,
    #: served over ``GET /jobs/<id>/profile``); excluded from the job
    #: key like priority -- observability never splits the cache
    profile: bool = False
    #: eco job: ID of the completed job whose result the edits patch
    #: (design, library and options are inherited from that job)
    parent: Optional[str] = None
    #: eco job: the netlist edits to re-flow incrementally, as
    #: :meth:`repro.flow.incremental.NetlistEdit.to_dict` records
    edits: list = field(default_factory=list)

    def validate(self) -> None:
        if self.parent is not None:
            if not self.edits:
                raise JobError("an eco job needs at least one edit")
            if self.design is not None or self.verilog is not None:
                raise JobError(
                    "an eco job inherits its design from 'parent'; "
                    "drop 'design'/'verilog'"
                )
            return
        if self.edits:
            raise JobError("'edits' requires 'parent' (an eco job)")
        if (self.design is None) == (self.verilog is None):
            raise JobError(
                "a job needs exactly one of 'design' or 'verilog'"
            )
        if self.design is not None and self.design not in _design_builders():
            raise JobError(
                f"unknown design {self.design!r}; "
                f"known: {', '.join(known_designs())}"
            )
        if self.library not in ("hs", "ll"):
            raise JobError(f"unknown library {self.library!r} (hs or ll)")

    def to_dict(self) -> Dict[str, Any]:
        payload = {
            "design": self.design,
            "params": dict(self.params),
            "verilog": self.verilog,
            "top": self.top,
            "library": self.library,
            "options": options_to_dict(self.options),
            "priority": self.priority,
            "profile": self.profile or None,
            "parent": self.parent,
            "edits": [dict(edit) for edit in self.edits],
        }
        return {
            k: v for k, v in payload.items() if v not in (None, {}, [])
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "JobSpec":
        if not isinstance(payload, dict):
            raise JobError("job spec must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise JobError(f"unknown job spec fields: {sorted(unknown)}")
        kwargs = dict(payload)
        kwargs["options"] = options_from_dict(kwargs.get("options") or {})
        kwargs.setdefault("params", {})
        return cls(**kwargs)


def options_to_dict(options: DesyncOptions) -> Dict[str, Any]:
    """Non-default ``DesyncOptions`` fields as a JSON dict."""
    defaults = DesyncOptions()
    out: Dict[str, Any] = {}
    for fld in dataclasses.fields(DesyncOptions):
        value = getattr(options, fld.name)
        if value != getattr(defaults, fld.name):
            out[fld.name] = list(value) if isinstance(value, tuple) else value
    return out


def options_from_dict(payload: Dict[str, Any]) -> DesyncOptions:
    if isinstance(payload, DesyncOptions):
        return payload
    if not isinstance(payload, dict):
        raise JobError("options must be a JSON object")
    known = {f.name for f in dataclasses.fields(DesyncOptions)}
    unknown = set(payload) - known
    if unknown:
        raise JobError(f"unknown option fields: {sorted(unknown)}")
    kwargs = dict(payload)
    if "false_path_nets" in kwargs:
        kwargs["false_path_nets"] = tuple(kwargs["false_path_nets"])
    return DesyncOptions(**kwargs)


def job_key(spec: JobSpec, library) -> str:
    """Content-addressed identity of a submission.

    Everything that determines the flow's output -- and nothing that
    does not (priority, profile) -- feeds the key, so scheduling and
    observability knobs never split the cache.
    """
    return stable_hash(
        {
            "schema": 2,
            "design": spec.design,
            "params": spec.params,
            "verilog": spec.verilog,
            "top": spec.top,
            "library": library_fingerprint(library),
            "options": spec.options,
            "parent": spec.parent,
            "edits": spec.edits,
        }
    )


def resolve_module(spec: JobSpec, library) -> Module:
    """Materialise the job's synchronous input netlist."""
    spec.validate()
    if spec.verilog is not None:
        netlist = parse_verilog(spec.verilog)
        if spec.top:
            netlist.set_top(spec.top)
        return netlist.top
    builder = _design_builders()[spec.design]
    try:
        return builder(library, **dict(spec.params))
    except TypeError as exc:
        raise JobError(
            f"bad parameters for design {spec.design!r}: {exc}"
        ) from exc


def execute_job(
    spec: JobSpec, library, engine: FlowEngine
) -> DesyncResult:
    """Run one desynchronization flow for ``spec`` on ``engine``.

    This is the callable flow entry point the daemon workers invoke;
    the engine carries the daemon's shared cache and the per-job
    journal, which is all the cross-job state there is.
    """
    module = resolve_module(spec, library)
    tool = Drdesync(library, corner=spec.options.corner, engine=engine)
    return tool.run(module, spec.options)


def result_payload(
    result: DesyncResult,
    include_verilog: bool = False,
    include_sdc: bool = True,
) -> Dict[str, Any]:
    """Flatten a :class:`DesyncResult` into a JSON-safe result body."""
    network = result.network
    payload: Dict[str, Any] = {
        "summary": result.summary(),
        "import_stats": dict(result.import_stats),
        "region_delays": {
            region: round(delay, 6)
            for region, delay in sorted(network.region_delays.items())
        },
        "delay_elements": {
            region: element.length
            for region, element in sorted(network.delay_elements.items())
        },
    }
    if include_sdc:
        payload["sdc"] = result.export_sdc()
    if include_verilog:
        payload["verilog"] = write_module(result.module)
    return payload
