"""Statistical static timing analysis (the paper's future work, ch. 6).

"SSTA can be used to verify how well the delay elements match the logic
delay across the whole spectrum of operation conditions."  This module
implements a first-order canonical SSTA and exactly that verification.

Delay model per timing arc::

    D = mean * (1 + s_g * Xg  +  s_l * Xl)

where ``Xg ~ N(0,1)`` is the *global* (inter-die) variable shared by
every gate on the die and ``Xl ~ N(0,1)`` is an independent *local*
(intra-die) variable per arc.  Arrivals propagate in canonical form
``(mean, a_g, var_l)``:

- addition along a path: means add, global sensitivities add, local
  variances add;
- max of two arrivals: Clark's moment matching, with the correlation
  induced by the shared global term.

:func:`delay_element_matching` answers the paper's question: because a
delay element is built from the same gates on the same die, its global
sensitivity largely cancels against the logic's, and the probability
that the element still covers the cloud ("timing yield") stays high
across the whole spectrum -- unlike an uncorrelated margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..liberty.model import Library
from ..netlist.core import Module
from .analysis import _topological_order, check_backend
from .graph import Node, TimingGraph, build_timing_graph, node_sort_key

_SQRT2PI = math.sqrt(2.0 * math.pi)


def _phi(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT2PI


def _cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


@dataclass
class StatArrival:
    """Canonical first-order arrival: mean + global + local parts."""

    mean: float = 0.0
    global_sens: float = 0.0  # coefficient of the shared Xg
    local_var: float = 0.0  # variance of the independent part

    @property
    def variance(self) -> float:
        return self.global_sens * self.global_sens + self.local_var

    @property
    def sigma(self) -> float:
        return math.sqrt(max(self.variance, 0.0))

    def plus(self, mean: float, s_global: float, s_local: float
             ) -> "StatArrival":
        return StatArrival(
            self.mean + mean,
            self.global_sens + mean * s_global,
            self.local_var + (mean * s_local) ** 2,
        )

    def quantile(self, p: float) -> float:
        """Approximate p-quantile assuming normality."""
        # Acklam-lite: use erfinv via bisection-free approximation
        return self.mean + self.sigma * _normal_quantile(p)


def _normal_quantile(p: float) -> float:
    """Inverse standard-normal CDF (Beasley-Springer-Moro)."""
    if not 0.0 < p < 1.0:
        raise ValueError("quantile needs 0 < p < 1")
    a = [-3.969683028665376e01, 2.209460984245205e02,
         -2.759285104469687e02, 1.383577518672690e02,
         -3.066479806614716e01, 2.506628277459239e00]
    b = [-5.447609879822406e01, 1.615858368580409e02,
         -1.556989798598866e02, 6.680131188771972e01,
         -1.328068155288572e01]
    c = [-7.784894002430293e-03, -3.223964580411365e-01,
         -2.400758277161838e00, -2.549732539343734e00,
         4.374664141464968e00, 2.938163982698783e00]
    d = [7.784695709041462e-03, 3.224671290700398e-01,
         2.445134137142996e00, 3.754408661907416e00]
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q
                + c[5]) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    if p > 1 - p_low:
        q = math.sqrt(-2.0 * math.log(1 - p))
        return -((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q
                  + c[5]) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1))
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r
            + a[5]) * q / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r
                            + b[4]) * r + 1)


def statistical_max(a: StatArrival, b: StatArrival) -> StatArrival:
    """Clark's approximation of max(a, b) in canonical form."""
    var_a, var_b = a.variance, b.variance
    covariance = a.global_sens * b.global_sens
    theta_sq = var_a + var_b - 2.0 * covariance
    if theta_sq <= 1e-18:
        return a if a.mean >= b.mean else b
    theta = math.sqrt(theta_sq)
    alpha = (a.mean - b.mean) / theta
    t = _cdf(alpha)
    mean = a.mean * t + b.mean * (1 - t) + theta * _phi(alpha)
    second = (
        (var_a + a.mean * a.mean) * t
        + (var_b + b.mean * b.mean) * (1 - t)
        + (a.mean + b.mean) * theta * _phi(alpha)
    )
    variance = max(second - mean * mean, 0.0)
    global_sens = a.global_sens * t + b.global_sens * (1 - t)
    local_var = max(variance - global_sens * global_sens, 0.0)
    return StatArrival(mean, global_sens, local_var)


@dataclass
class SstaReport:
    arrivals: Dict[Node, StatArrival] = field(default_factory=dict)
    worst_endpoint: Optional[Node] = None
    worst: StatArrival = field(default_factory=StatArrival)


def ssta_propagate(
    graph: TimingGraph,
    sigma_global: float = 0.08,
    sigma_local: float = 0.04,
) -> SstaReport:
    """Statistical max-delay propagation over a timing graph.

    The reference dict walk: on the module ``graph`` was built from,
    ``CompiledTimingGraph(module, library).ssta(derate, ...)`` at the
    graph's derate replays the same ``plus``/Clark-max call sequence
    over flat arrays and is bit-identical.
    """
    arrivals: Dict[Node, StatArrival] = {}
    for node, clk_to_q in graph.launch_nodes.items():
        arrivals[node] = StatArrival(clk_to_q, clk_to_q * sigma_global,
                                     (clk_to_q * sigma_local) ** 2)
    for node in graph.input_nodes:
        arrivals.setdefault(node, StatArrival())

    report = SstaReport()
    for node in _topological_order(graph):
        arrival = arrivals.get(node)
        if arrival is None:
            continue
        for edge in graph.adjacency.get(node, ()):
            candidate = arrival.plus(edge.delay, sigma_global, sigma_local)
            existing = arrivals.get(edge.dst)
            arrivals[edge.dst] = (
                candidate
                if existing is None
                else statistical_max(existing, candidate)
            )

    endpoints = set(graph.capture_nodes) | graph.output_nodes
    # deterministic order, matching the compiled backend's tie-breaking
    for node in sorted(endpoints, key=node_sort_key):
        arrival = arrivals.get(node)
        if arrival is None:
            continue
        setup = graph.capture_nodes.get(node, 0.0)
        total = StatArrival(
            arrival.mean + setup, arrival.global_sens, arrival.local_var
        )
        if total.mean > report.worst.mean:
            report.worst = total
            report.worst_endpoint = node
    report.arrivals = arrivals
    return report


def ssta_analyze(
    module: Module,
    library: Library,
    corner: str = "worst",
    sigma_global: float = 0.08,
    sigma_local: float = 0.04,
    backend: str = "compiled",
) -> SstaReport:
    """SSTA at one corner; the compiled backend shares one base graph
    across corners via derate rescaling."""
    check_backend(backend)
    if backend == "compiled":
        from .compiled import compiled_graph

        return compiled_graph(module, library).ssta(
            library.corner(corner).derate, sigma_global, sigma_local
        )
    graph = build_timing_graph(module, library, corner)
    return ssta_propagate(graph, sigma_global, sigma_local)


# ----------------------------------------------------------------------
# the future-work verification: delay-element vs logic matching
# ----------------------------------------------------------------------

@dataclass
class MatchingRow:
    region: str
    cloud: StatArrival
    element: StatArrival
    #: P(element delay >= cloud delay) with the shared-die correlation
    yield_correlated: float
    #: the same probability if the element did NOT share the die
    yield_uncorrelated: float


def _difference_stats(element: StatArrival, cloud: StatArrival,
                      correlated: bool) -> Tuple[float, float]:
    mean = element.mean - cloud.mean
    if correlated:
        global_part = (element.global_sens - cloud.global_sens) ** 2
    else:
        global_part = element.global_sens ** 2 + cloud.global_sens ** 2
    variance = global_part + element.local_var + cloud.local_var
    return mean, math.sqrt(max(variance, 1e-18))


def delay_element_matching(
    desync_result,
    library: Library,
    corner: str = "worst",
    sigma_global: float = 0.08,
    sigma_local: float = 0.04,
) -> List[MatchingRow]:
    """Per region: does the delay element still cover the cloud, in
    distribution?  (Chapter 6: "verify how well the delay elements
    match the logic delay across the whole spectrum".)"""
    derate = library.corner(corner).derate
    ladder = desync_result.ladder
    ladder_derate = library.corner(ladder.corner).derate
    rows: List[MatchingRow] = []
    for region, element in sorted(desync_result.network.delay_elements.items()):
        cloud_mean = desync_result.network.region_delays.get(region, 0.0)
        if cloud_mean <= 0:
            continue
        element_mean = ladder.delay_of(element.length) / ladder_derate * derate
        # local sigma shrinks with chain length (averaging of independent
        # per-stage variations); the cloud's local part likewise reflects
        # its logic depth -- approximate depth from delay over an FO4
        fo4 = library.cell("INVX1").delay_arcs()[0].worst_delay(0.01) * derate
        cloud_depth = max(cloud_mean / max(fo4, 1e-9), 1.0)
        cloud = StatArrival(
            cloud_mean,
            cloud_mean * sigma_global,
            (cloud_mean * sigma_local) ** 2 / cloud_depth,
        )
        stat_element = StatArrival(
            element_mean,
            element_mean * sigma_global,
            (element_mean * sigma_local) ** 2 / max(element.length, 1),
        )
        mean_c, sigma_c = _difference_stats(stat_element, cloud, True)
        mean_u, sigma_u = _difference_stats(stat_element, cloud, False)
        rows.append(
            MatchingRow(
                region=region,
                cloud=cloud,
                element=stat_element,
                yield_correlated=_cdf(mean_c / sigma_c),
                yield_uncorrelated=_cdf(mean_u / sigma_u),
            )
        )
    return rows
