"""Power estimation, variability Monte-Carlo and performance analysis."""

import pytest

from repro.desync import Drdesync
from repro.designs import counter, pipeline3
from repro.liberty import core9_hs
from repro.perf import (
    control_overhead_delay,
    effective_period_model,
    max_cycle_ratio,
    measure_effective_period,
)
from repro.power import activity_from_simulation, estimate_power
from repro.sim import (
    HandshakeTestbench,
    Simulator,
    SyncTestbench,
    initialize_registers,
)
from repro.variability import (
    VariabilityModel,
    desynchronized_period,
    run_study,
    synchronous_period,
)


@pytest.fixture(scope="module")
def lib():
    return core9_hs()


# ----------------------------------------------------------------------
# power
# ----------------------------------------------------------------------

def _simulate_counter(lib, cycles, period):
    mod = counter(lib, width=8)
    sim = Simulator(mod, lib)
    initialize_registers(sim, 0)
    bench = SyncTestbench(sim, period=period)
    bench.run_cycles(cycles)
    return mod, sim


def test_power_report_units(lib):
    mod, sim = _simulate_counter(lib, 20, 4.0)
    activity = activity_from_simulation(sim)
    report = estimate_power(mod, lib, activity)
    assert report.switching_mw > 0
    assert report.internal_mw > 0
    assert report.leakage_mw > 0
    assert report.total_mw == pytest.approx(
        report.switching_mw + report.internal_mw + report.leakage_mw
    )


def test_power_grows_with_frequency(lib):
    mod_fast, sim_fast = _simulate_counter(lib, 20, 3.0)
    mod_slow, sim_slow = _simulate_counter(lib, 20, 9.0)
    fast = estimate_power(mod_fast, lib, activity_from_simulation(sim_fast))
    slow = estimate_power(mod_slow, lib, activity_from_simulation(sim_slow))
    assert fast.switching_mw > slow.switching_mw * 1.5


def test_leakage_voltage_sensitivity(lib):
    """Leakage grows with supply voltage: the fast (1.1 V) corner leaks
    more than the slow (0.9 V) one despite its lower temperature."""
    mod, sim = _simulate_counter(lib, 10, 4.0)
    activity = activity_from_simulation(sim)
    slow_corner = estimate_power(mod, lib, activity, corner="worst")
    fast_corner = estimate_power(mod, lib, activity, corner="best")
    assert fast_corner.leakage_mw > slow_corner.leakage_mw


def test_zero_duration_rejected(lib):
    mod, sim = _simulate_counter(lib, 5, 4.0)
    activity = activity_from_simulation(sim)
    activity.duration_ns = 0.0
    with pytest.raises(ValueError):
        estimate_power(mod, lib, activity)


# ----------------------------------------------------------------------
# variability
# ----------------------------------------------------------------------

def test_sampling_is_deterministic():
    model = VariabilityModel()
    a = model.sample_chips(50, seed=1)
    b = model.sample_chips(50, seed=1)
    assert [c.inter_die for c in a] == [c.inter_die for c in b]


def test_sync_period_is_worst_case():
    model = VariabilityModel(sigma_inter=0.10, truncate_sigma=3.0)
    assert synchronous_period(2.0, model) == pytest.approx(2.0 * 1.3)


def test_desync_tracks_the_die():
    model = VariabilityModel()
    chips = model.sample_chips(100, seed=3)
    fast = min(chips, key=lambda c: c.inter_die)
    slow = max(chips, key=lambda c: c.inter_die)
    assert desynchronized_period(2.0, fast) < desynchronized_period(2.0, slow)


def test_study_reproduces_90_percent_claim():
    """Figure 5.4: desync faster than sync worst case in ~90% of chips."""
    study = run_study(2.0, n_chips=4000, margin=0.10)
    assert 0.80 < study.fraction_desync_faster <= 1.0
    assert study.mean_desync_period < study.sync_period


def test_histogram_sums_to_one():
    study = run_study(2.0, n_chips=1000)
    histogram = study.histogram(bins=10)
    assert sum(b["probability"] for b in histogram) == pytest.approx(1.0)


def test_excessive_margin_erodes_the_win():
    tight = run_study(2.0, n_chips=2000, margin=0.05)
    fat = run_study(2.0, n_chips=2000, margin=0.60)
    assert fat.fraction_desync_faster < tight.fraction_desync_faster


# ----------------------------------------------------------------------
# performance
# ----------------------------------------------------------------------

def test_control_overhead_positive(lib):
    worst = control_overhead_delay(lib, "worst")
    best = control_overhead_delay(lib, "best")
    assert worst > best > 0


def test_effective_period_model(lib):
    mod = counter(lib, width=8)
    result = Drdesync(lib).run(mod)
    report = effective_period_model(result, lib, "worst")
    assert report.effective_period > 0
    assert report.critical_region in result.network.delay_elements
    assert report.per_region[report.critical_region] == report.effective_period
    # the self-looped counter region appears in the critical cycle
    assert report.critical_cycle


def test_effective_period_scales_with_corner(lib):
    mod = counter(lib, width=8)
    result = Drdesync(lib).run(mod)
    worst = effective_period_model(result, lib, "worst").effective_period
    best = effective_period_model(result, lib, "best").effective_period
    assert worst > best


def test_measured_period_close_to_model(lib):
    """The simulated free-running counter matches the analytic period."""
    mod = counter(lib, width=6)
    result = Drdesync(lib).run(mod)
    sim = Simulator(mod, lib, corner="worst")
    bench = HandshakeTestbench(
        sim, result.network.env_ports, result.network.reset_net
    )
    bench.apply_reset(0)
    bench.run_free(400.0)
    probe = next(
        name for name in sim._models if name.endswith("_ls")
    )
    measured = measure_effective_period(sim, probe)
    model = effective_period_model(result, lib, "worst").effective_period
    assert measured is not None
    assert measured == pytest.approx(model, rel=0.6)


def test_max_cycle_ratio():
    from repro.desync.ddg import DiGraph

    graph = DiGraph()
    graph.add_edge("a", "b", weight=2.0, tokens=1.0)
    graph.add_edge("b", "a", weight=4.0, tokens=1.0)
    graph.add_edge("b", "b", weight=5.0, tokens=1.0)
    assert max_cycle_ratio(graph) == pytest.approx(5.0)
