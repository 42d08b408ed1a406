"""Monte-Carlo PVT variability model (chapter 1, sections 2.5, 5.2.2).

Each fabricated chip gets an *inter-die* delay factor (process corner
plus operating voltage/temperature) and per-instance *intra-die*
factors.  The crucial desynchronization property is built into the
model the same way it is built into silicon:

- the synchronous design must be clocked at the **worst-case** period:
  the externally imposed clock cannot know which chip it landed on;
- the desynchronized design's delay elements sit on the same die,
  made of the same gates, so their delay scales with the *same*
  inter-die factor as the logic they match -- the effective period
  tracks each chip's actual speed (plus a residual mismatch term for
  intra-die variation the margin must absorb).
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..obs import metrics, trace


def _chip_seed(seed: int, index: int) -> int:
    """Deterministic per-chip RNG seed, independent of chip order.

    Derived by hashing ``(study seed, chip index)`` so chip ``i`` draws
    the same values no matter how many chips are sampled or in what
    order: the first ten dies of a 100-die study are the dies of a
    10-die study.
    """
    digest = hashlib.sha256(f"repro-mc:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class ChipSample:
    """One fabricated die."""

    inter_die: float  # global delay factor (1.0 = typical)
    #: residual delay-element-vs-logic mismatch for this die (around 1.0)
    tracking_mismatch: float = 1.0
    #: optional per-instance factors (for instance-level simulation/STA)
    instance_factors: Dict[str, float] = field(default_factory=dict)


@dataclass
class VariabilityModel:
    """Distribution parameters for 90nm-class variation."""

    #: sigma of the inter-die (D2D) delay factor
    sigma_inter: float = 0.12
    #: sigma of per-instance intra-die (WID) variation
    sigma_intra: float = 0.04
    #: how much of the intra-die variation the delay element fails to
    #: track (0 = perfect tracking, 1 = fully uncorrelated)
    tracking_residual: float = 0.5
    #: hard truncation so samples stay physical
    truncate_sigma: float = 3.0

    def sample_chips(
        self,
        n: int,
        seed: int = 2006,
        instances: Optional[Sequence[str]] = None,
    ) -> List[ChipSample]:
        """Sample ``n`` dies.  Each chip draws from its own RNG seeded
        by :func:`_chip_seed`, so chip ``i`` does not depend on ``n``.
        """
        chips: List[ChipSample] = []
        for index in range(n):
            rng = random.Random(_chip_seed(seed, index))
            inter = self._gauss(rng, 1.0, self.sigma_inter)
            mismatch = self._gauss(
                rng, 1.0, self.sigma_intra * self.tracking_residual
            )
            chip = ChipSample(inter_die=inter, tracking_mismatch=mismatch)
            if instances:
                chip.instance_factors = {
                    name: self._gauss(rng, 1.0, self.sigma_intra)
                    for name in instances
                }
            chips.append(chip)
        metrics.counter("variability.chips_sampled").inc(n)
        return chips

    def _gauss(self, rng: random.Random, mu: float, sigma: float) -> float:
        value = rng.gauss(mu, sigma)
        low = mu - self.truncate_sigma * sigma
        high = mu + self.truncate_sigma * sigma
        return min(max(value, low), high)

    def worst_case_factor(self) -> float:
        """The factor the synchronous clock must be signed off at."""
        return 1.0 + self.truncate_sigma * self.sigma_inter


def synchronous_period(nominal_period: float, model: VariabilityModel) -> float:
    """Clock period a synchronous chip ships with: worst case, always."""
    return nominal_period * model.worst_case_factor()


def desynchronized_period(
    nominal_period: float, chip: ChipSample, margin: float = 0.0
) -> float:
    """Effective period of the desynchronized chip: tracks the die.

    ``margin`` is the delay-element safety margin (uncorrelated
    variability headroom, section 2.5).
    """
    return (
        nominal_period
        * chip.inter_die
        * chip.tracking_mismatch
        * (1.0 + margin)
    )


def lane_batches(
    chips: Sequence[ChipSample], lanes: int
) -> List[List[ChipSample]]:
    """Split chips into lane-sized batches (the last may be short).

    One batch maps onto one :class:`~repro.sim.batch.BatchSimulator`
    pass: chip ``j`` of a batch rides bit lane ``j``.
    """
    if lanes < 1:
        raise ValueError("lane count must be >= 1")
    return [list(chips[i : i + lanes]) for i in range(0, len(chips), lanes)]


@dataclass
class SimBackendConfig:
    """What ``run_study(backend="sim")`` needs to run gate-level batches.

    ``regions`` maps a region name to ``(nominal delay, member
    instances)`` -- typically derived from a ``DesyncResult`` region
    map with per-region STA periods; without it the whole design is one
    region at the study's nominal period.  ``oracle_chips`` solo-runs
    that many chips of the first batch on the per-chip compiled kernel
    and insists on bit-identical captures (the lane-parity oracle).
    """

    module: object
    library: object
    stimulus_factory: Optional[Callable] = None
    cycles: int = 24
    clock: str = "clk"
    corner: str = "worst"
    regions: Optional[Dict[str, Tuple[float, Sequence[str]]]] = None
    oracle_chips: int = 0
    #: clock period for the solo oracle runs (default: roomy multiple
    #: of the nominal period so derated chips still settle)
    period: Optional[float] = None


@dataclass
class VariabilityStudy:
    """Result of a sync-vs-desync Monte-Carlo comparison (Figure 5.4)."""

    sync_period: float
    desync_periods: List[float]
    #: delay-element safety margin the periods were computed with
    margin: float = 0.0
    #: "model" (analytic) or "sim" (lane-batched gate-level simulation)
    backend: str = "model"
    #: batch-simulation counters when ``backend == "sim"``
    sim_stats: Optional[Dict[str, float]] = None

    @property
    def fraction_desync_faster(self) -> float:
        faster = sum(1 for p in self.desync_periods if p < self.sync_period)
        return faster / max(len(self.desync_periods), 1)

    @property
    def mean_desync_period(self) -> float:
        return sum(self.desync_periods) / max(len(self.desync_periods), 1)

    def percentile(self, p: float) -> float:
        """Linearly interpolated percentile of the desync distribution.

        ``p`` in percent: ``percentile(50)`` is the median effective
        period, ``percentile(95)`` the near-worst die.
        """
        if not self.desync_periods:
            raise ValueError("percentile of an empty study")
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile {p!r} outside [0, 100]")
        data = sorted(self.desync_periods)
        if len(data) == 1:
            return data[0]
        rank = (p / 100.0) * (len(data) - 1)
        lower = int(math.floor(rank))
        upper = min(lower + 1, len(data) - 1)
        fraction = rank - lower
        return data[lower] + (data[upper] - data[lower]) * fraction

    def yield_vs_margin(
        self, margins: Sequence[float]
    ) -> List[Dict[str, float]]:
        """Desync-beats-sync yield as a function of the safety margin.

        Rebases each die's period by the margin this study was run with
        and re-applies each candidate margin -- the margin is a pure
        multiplicative factor (section 2.5), so no re-simulation is
        needed to sweep it.
        """
        base = [p / (1.0 + self.margin) for p in self.desync_periods]
        total = max(len(base), 1)
        out = []
        for margin in margins:
            faster = sum(
                1 for b in base if b * (1.0 + margin) < self.sync_period
            )
            out.append({"margin": margin, "yield": faster / total})
        return out

    def histogram(self, bins: int = 20) -> List[Dict[str, float]]:
        if not self.desync_periods:
            return []
        low = min(self.desync_periods)
        high = max(self.desync_periods)
        if high <= low:
            high = low + 1e-9
        width = (high - low) / bins
        counts = [0] * bins
        for period in self.desync_periods:
            index = min(int((period - low) / width), bins - 1)
            counts[index] += 1
        total = len(self.desync_periods)
        return [
            {
                "low": low + i * width,
                "high": low + (i + 1) * width,
                "probability": counts[i] / total,
            }
            for i in range(bins)
        ]


def _seq_instances(module, library) -> List[str]:
    """Sequential instances of a module (the default region members)."""
    from ..liberty.model import CellKind

    out = []
    for inst in module.instances.values():
        cell = library.cells.get(inst.cell)
        if cell is not None and cell.kind in (
            CellKind.FLIP_FLOP,
            CellKind.LATCH,
        ):
            out.append(inst.name)
    return out


def _region_activity(
    batch, regions: Dict[str, Tuple[float, Sequence[str]]], mask: int
) -> Dict[str, List[int]]:
    """Per-region, per-edge lane planes of "this region computed".

    A region is *active* at edge ``k`` in a lane when any member
    flip-flop captured a different value (or x-ness) than at edge
    ``k - 1`` -- its handshake cycle did real work, so that edge costs
    the region's full delay.  Edge 0 is conservatively all-active.
    """
    planes = batch.capture_planes()
    activity: Dict[str, List[int]] = {}
    for name, (_, members) in regions.items():
        sequences = [planes[m] for m in members if m in planes]
        edges = min((len(s) for s in sequences), default=0)
        lane_changes: List[int] = []
        for k in range(edges):
            if k == 0:
                lane_changes.append(mask)
                continue
            changed = 0
            for sequence in sequences:
                _, prev_v, prev_x = sequence[k - 1]
                _, cur_v, cur_x = sequence[k]
                changed |= (prev_v ^ cur_v) | (prev_x ^ cur_x)
            lane_changes.append(changed)
        activity[name] = lane_changes
    return activity


def _chip_effective_period(
    chip: ChipSample,
    lane: int,
    regions: Dict[str, Tuple[float, Sequence[str]]],
    activity: Dict[str, List[int]],
    margin: float,
) -> float:
    """One die's measured effective period from a lane-batched run.

    The chip's ``instance_factors`` scale each region's nominal delay
    (mean over member instances -- the matched delay element spans the
    region); each clock edge then costs the slowest *active* region, or
    the fastest region's delay when nothing computed (the handshake
    still turns around).  Inter-die and tracking factors apply on top,
    exactly as in :func:`desynchronized_period`.
    """
    scaled: Dict[str, float] = {}
    for name, (delay, members) in regions.items():
        factors = [chip.instance_factors.get(m, 1.0) for m in members]
        factor = sum(factors) / len(factors) if factors else 1.0
        scaled[name] = delay * factor
    floor_delay = min(scaled.values())
    bit = 1 << lane
    edges = max((len(a) for a in activity.values()), default=0)
    if edges == 0:
        base = max(scaled.values())
    else:
        total = 0.0
        for k in range(edges):
            worst = 0.0
            for name, lane_changes in activity.items():
                if k < len(lane_changes) and lane_changes[k] & bit:
                    if scaled[name] > worst:
                        worst = scaled[name]
            total += worst if worst > 0.0 else floor_delay
        base = total / edges
    return base * chip.inter_die * chip.tracking_mismatch * (1.0 + margin)


def _sim_backend_periods(
    nominal_period: float,
    model: VariabilityModel,
    chips: List[ChipSample],
    margin: float,
    sim: SimBackendConfig,
    lanes: int,
    regions: Dict[str, Tuple[float, Sequence[str]]],
) -> Tuple[List[float], Dict[str, float]]:
    """Measure every chip's effective period on the lane-batch kernel."""
    from ..sim.batch import (
        BatchSimulator,
        assert_lane_parity,
        solo_capture_sequences,
    )
    from ..sim.testbench import SyncTestbench, initialize_registers

    periods: List[float] = []
    stats = {
        "chips": float(len(chips)),
        "lanes": float(lanes),
        "batches": 0.0,
        "cycles": float(sim.cycles),
        "cell_evals": 0.0,
        "oracle_chips": float(sim.oracle_chips),
    }
    start = time.perf_counter()
    oracle_period = sim.period or nominal_period * 4.0
    for batch_index, batch_chips in enumerate(lane_batches(chips, lanes)):
        batch = BatchSimulator(sim.module, sim.library, lanes=len(batch_chips))
        initialize_registers(batch, 0)
        bench = SyncTestbench(batch, clock=sim.clock)
        stimulus = (
            sim.stimulus_factory(batch)
            if sim.stimulus_factory is not None
            else None
        )
        bench.run_cycles(sim.cycles, stimulus)
        activity = _region_activity(batch, regions, batch.mask)
        for lane, chip in enumerate(batch_chips):
            periods.append(
                _chip_effective_period(chip, lane, regions, activity, margin)
            )
        stats["batches"] += 1.0
        stats["cell_evals"] += float(batch.cell_evals)
        if batch_index == 0 and sim.oracle_chips:
            for lane, chip in enumerate(batch_chips[: sim.oracle_chips]):
                derate_map = {
                    name: chip.inter_die * factor
                    for name, factor in chip.instance_factors.items()
                }
                solo = solo_capture_sequences(
                    sim.module,
                    sim.library,
                    cycles=sim.cycles,
                    stimulus_factory=sim.stimulus_factory,
                    clock=sim.clock,
                    period=oracle_period,
                    corner=sim.corner,
                    derate_map=derate_map,
                )
                assert_lane_parity(batch, lane, solo)
    stats["sim_seconds"] = time.perf_counter() - start
    stats["chips_per_second"] = (
        len(chips) / stats["sim_seconds"] if stats["sim_seconds"] > 0 else 0.0
    )
    metrics.counter("variability.sim_batches").inc(int(stats["batches"]))
    return periods, stats


def run_study(
    nominal_period: float,
    model: Optional[VariabilityModel] = None,
    n_chips: int = 5000,
    margin: float = 0.10,
    seed: int = 2006,
    backend: str = "model",
    sim: Optional[SimBackendConfig] = None,
    lanes: int = 64,
) -> VariabilityStudy:
    """Monte-Carlo comparison of sync worst-case vs desync per-die period.

    ``backend="model"`` uses the analytic period model (the original
    behaviour).  ``backend="sim"`` runs the design gate-level on the
    bit-parallel :class:`~repro.sim.batch.BatchSimulator`, ``lanes``
    chips per pass: each chip's ``instance_factors`` scale its region
    delays and each clock edge costs the slowest region that actually
    computed, so the distribution reflects measured per-die activity
    rather than a closed-form factor.  Requires a
    :class:`SimBackendConfig` via ``sim``.
    """
    if backend not in ("model", "sim"):
        raise ValueError(f"unknown study backend {backend!r}")
    if backend == "sim" and sim is None:
        raise ValueError('backend="sim" requires a SimBackendConfig')
    with trace.span(
        "variability.run_study", chips=n_chips, backend=backend
    ) as span:
        model = model or VariabilityModel()
        sync = synchronous_period(nominal_period, model)
        sim_stats: Optional[Dict[str, float]] = None
        if backend == "model":
            chips = model.sample_chips(n_chips, seed=seed)
            desync = [
                desynchronized_period(nominal_period, chip, margin)
                for chip in chips
            ]
        else:
            regions = dict(sim.regions) if sim.regions else {
                "core": (
                    nominal_period,
                    _seq_instances(sim.module, sim.library),
                )
            }
            members = sorted(
                {name for _, names in regions.values() for name in names}
            )
            chips = model.sample_chips(n_chips, seed=seed, instances=members)
            desync, sim_stats = _sim_backend_periods(
                nominal_period, model, chips, margin, sim, lanes, regions
            )
        span.set("sync_period", sync)
    return VariabilityStudy(
        sync_period=sync,
        desync_periods=desync,
        margin=margin,
        backend=backend,
        sim_stats=sim_stats,
    )
