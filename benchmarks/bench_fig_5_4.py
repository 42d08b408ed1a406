"""Figure 5.4: real operating delay -- DDLX average case vs DLX worst case.

The synchronous chip must ship clocked at the worst corner; the
desynchronized chip's delay elements live on the same die and scale
with it, so its effective period follows each chip's actual speed.
The paper assumes a normal distribution between the corners (like
SSTA) and finds the desynchronized circuit faster than the synchronous
one on ~90% of dies (the shaded area of the figure).

Two backends reproduce the figure.  The analytic model sweeps 20000
dies through the closed-form period factors and reports the histogram
plus p50/p95 effective periods and the yield-vs-margin sweep.  The
simulation-backed mode (``run_study(backend="sim")``) additionally
runs the DLX gate-level on the bit-parallel lane simulator -- 64 chips
per pass, regions taken from the desynchronization result, each chip's
sampled ``instance_factors`` scaling its region delays against the
measured per-edge activity -- with one lane parity-checked against a
solo compiled-kernel run.
"""

from conftest import emit, run_once

from repro.desync import Drdesync
from repro.designs import DlxMemories, assemble, dlx_core
from repro.designs.dlx_env import dlx_respond
from repro.perf import effective_period_model
from repro.variability import SimBackendConfig, VariabilityModel, run_study

#: small register-file workout for the sim-backed study
_PROGRAM = assemble([
    ("addi", 1, 0, 5), ("addi", 2, 0, 7), ("nop",), ("nop",),
    ("add", 3, 1, 2), ("sub", 4, 2, 1), ("nop",), ("nop",),
])


def _sim_regions(result, golden, nominal):
    """Map desync regions back onto the synchronous module's flip-flops.

    The conversion renames every FF ``r`` into master/slave latches
    ``r_lm``/``r_ls``; stripping the suffix recovers the golden
    instance whose sampled variation factor scales that region.
    """
    regions = {}
    for name, region in result.region_map.regions.items():
        members = sorted({
            inst[:-3]
            for inst in region.instances
            if inst.endswith(("_lm", "_ls")) and inst[:-3] in golden.instances
        })
        if members:
            regions[name] = (nominal, members)
    return regions


def test_fig_5_4_variability_distribution(benchmark, hs_library):
    def run():
        module = dlx_core(hs_library, registers=8, multiplier=False, width=16)
        golden = module.clone()
        result = Drdesync(hs_library).run(module)
        # nominal (typical-die) effective period of the DDLX: midpoint
        # between the characterised corners, like the paper's assumption
        worst = effective_period_model(result, hs_library, "worst")
        best = effective_period_model(result, hs_library, "best")
        worst_derate = hs_library.corner("worst").derate
        nominal = worst.effective_period / worst_derate
        model = VariabilityModel(sigma_inter=0.12, sigma_intra=0.04)
        study = run_study(nominal, model=model, n_chips=20000, margin=0.10)

        # simulation-backed spot check: same distribution machinery,
        # but the per-die periods come from lane-batched gate-level
        # runs of the synchronous netlist with per-chip region factors
        bits = golden.port_bits()

        def stim_factory(sim):
            respond = dlx_respond(DlxMemories(_PROGRAM), width=16)

            def stimulus(cycle):
                return respond(
                    cycle, {b: sim.net_values.get(b) for b in bits}
                )

            return stimulus

        sim_config = SimBackendConfig(
            module=golden,
            library=hs_library,
            stimulus_factory=stim_factory,
            cycles=12,
            regions=_sim_regions(result, golden, nominal),
            oracle_chips=1,
        )
        sim_study = run_study(
            nominal, model=model, n_chips=128, margin=0.10,
            backend="sim", sim=sim_config, lanes=64,
        )
        return {
            "worst_period": worst.effective_period,
            "best_period": best.effective_period,
            "nominal": nominal,
            "study": study,
            "sim_study": sim_study,
        }

    data = run_once(benchmark, run)
    study = data["study"]
    sim_study = data["sim_study"]

    lines = [
        "Figure 5.4 -- real operation delay: DDLX distribution vs DLX worst",
        f"DDLX worst-case period : {data['worst_period']:8.3f} ns",
        f"DDLX best-case period  : {data['best_period']:8.3f} ns",
        f"DDLX nominal period    : {data['nominal']:8.3f} ns",
        f"DLX shipping period    : {study.sync_period:8.3f} ns (worst case)",
        f"DDLX mean period       : {study.mean_desync_period:8.3f} ns",
        "",
        "DDLX effective-period distribution (20000 Monte-Carlo dies):",
    ]
    for bucket in study.histogram(bins=14):
        bar = "#" * int(round(bucket["probability"] * 200))
        lines.append(
            f"  {bucket['low']:6.2f}-{bucket['high']:6.2f} ns "
            f"{bucket['probability']*100:5.1f}% {bar}"
        )
    lines.append("")
    lines.append(
        f"DDLX p50 period        : {study.percentile(50):8.3f} ns"
    )
    lines.append(
        f"DDLX p95 period        : {study.percentile(95):8.3f} ns"
    )
    lines.append("")
    lines.append("yield vs delay-element margin (desync beats sync clock):")
    for row in study.yield_vs_margin([0.0, 0.05, 0.10, 0.15, 0.20]):
        lines.append(
            f"  margin {row['margin']*100:4.0f}%: {row['yield']*100:5.1f}%"
        )
    lines.append("")
    lines.append(
        f"fraction of dies where DDLX beats the DLX worst-case clock: "
        f"{study.fraction_desync_faster*100:.1f}%  (paper: ~90%)"
    )
    lines.append("")
    lines.append(
        "simulation-backed study (64-lane batch kernel, "
        f"{int(sim_study.sim_stats['chips'])} dies gate-level):"
    )
    lines.append(
        f"  fraction faster {sim_study.fraction_desync_faster*100:5.1f}%, "
        f"p50 {sim_study.percentile(50):.3f} ns, "
        f"p95 {sim_study.percentile(95):.3f} ns (lane 0 parity-checked)"
    )
    emit("fig_5_4", "\n".join(lines))

    assert 0.80 < study.fraction_desync_faster <= 1.0
    assert study.mean_desync_period < study.sync_period
    assert data["best_period"] < data["nominal"] < data["worst_period"]
    assert study.percentile(50) < study.percentile(95)
    yields = study.yield_vs_margin([0.0, 0.10, 0.20])
    assert yields[0]["yield"] >= yields[1]["yield"] >= yields[2]["yield"]
    # the gate-level lane-batched study agrees with the analytic model
    # on the headline number
    assert 0.80 < sim_study.fraction_desync_faster <= 1.0
    assert sim_study.backend == "sim"
