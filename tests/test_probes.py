"""Difference quotients, seminorm closed forms, exponent fits, targets."""

import json
import tracemalloc

import numpy as np
import pytest

from plastprobe import evolution, probes
from plastprobe.cli import main as cli_main
from plastprobe.constitutive import SolverFailure
from plastprobe.evolution import FieldHistory
from plastprobe.fem import Geometry, build_grid, make_cutoff
from plastprobe.probes import (INTERPOLATION_FIELDS, ExponentTargets,
                               diff_quotient, fit_exponent,
                               interpolation_check, mu_sweep, seminorm_table,
                               target_exponents, target_for)
from plastprobe.scenario import SCHEMA, benchmark_path, load_benchmark


def _grid_and_cutoff(n=4, mode="mixed"):
    grid = build_grid(Geometry(d=2, mode=mode), n)
    cutoff = make_cutoff(grid, eps0=0.15, h0=0.1, side="neumann")
    return grid, cutoff


def _history(grid, sigma, times, xi=None, u=None, ep=None):
    shape = sigma.shape
    if xi is None:
        xi = np.zeros(shape)
    if ep is None:
        ep = np.zeros(shape)
    if u is None:
        u = np.zeros((shape[0], grid.nnodes, grid.d))
    return FieldHistory(times=times, u=u, sigma=sigma, xi=xi, ep=ep,
                        grid=grid, params=None)


def _normal_tables(hist, cutoff):
    """The normal tables of the interpolation check, built afresh."""
    return {("normal", f): seminorm_table(hist, "normal", f, cutoff)
            for f in INTERPOLATION_FIELDS}


def test_diff_quotient_constant_field_zero():
    grid, _ = _grid_and_cutoff()
    arr = np.ones((5,) + grid.cell_counts + (grid.nqp, 3))
    for axis in ("time", "tangential-1", "normal"):
        out = diff_quotient(arr, axis, 1, grid)
        assert np.abs(out).max() == 0.0


def test_diff_quotient_linear_time_field():
    grid, _ = _grid_and_cutoff()
    times = np.linspace(0, 1, 9)
    arr = np.broadcast_to(times[:, None, None, None],
                          (9, grid.ncells, grid.nqp, 1)).copy()
    out = diff_quotient(arr, "time", 2, grid)
    np.testing.assert_allclose(out, 2 / 8, atol=1e-15)


def test_diff_quotient_linear_normal_field():
    grid, _ = _grid_and_cutoff(n=4)
    slope = 3.0
    vals = slope * grid.qp_coords[..., 1]
    arr = vals.reshape(grid.cell_counts + (grid.nqp,))[None, ..., None]
    out = diff_quotient(arr, "normal", 2, grid)
    np.testing.assert_allclose(out, slope * 2 / 4, atol=1e-13)


def test_diff_quotient_telescoping():
    # Delta^{2h} = shift(Delta^h, h) + Delta^h, exactly on stored fields
    rng = np.random.default_rng(40)
    grid, _ = _grid_and_cutoff()
    arr = rng.standard_normal((6,) + grid.cell_counts + (grid.nqp, 3))
    d1 = diff_quotient(arr, "time", 1, grid)
    d2 = diff_quotient(arr, "time", 2, grid)
    np.testing.assert_allclose(d2, d1[1:] + d1[:-1], atol=1e-12)
    for axis in ("tangential-1", "normal"):
        ax = 1 + probes._space_axis(axis, 2)
        d1 = np.moveaxis(diff_quotient(arr, axis, 1, grid), ax, 1)
        d2 = np.moveaxis(diff_quotient(arr, axis, 2, grid), ax, 1)
        np.testing.assert_allclose(d2, d1[:, 1:] + d1[:, :-1], atol=1e-12)


def test_diff_quotient_shift_too_large():
    grid, _ = _grid_and_cutoff()
    arr = np.zeros((4,) + grid.cell_counts + (grid.nqp, 1))
    with pytest.raises(ValueError):
        diff_quotient(arr, "normal", grid.n, grid)
    with pytest.raises(ValueError):
        diff_quotient(arr, "time", 4, grid)


def test_seminorm_step_in_time_closed_form():
    # S(h) = m * h exactly for a jump at t = T/2 (integral mode)
    grid, cutoff = _grid_and_cutoff(n=4)
    N, T = 16, 1.0
    times = np.linspace(0, T, N + 1)
    V = np.array([0.7, -0.7, 0.3])
    sigma = np.zeros((N + 1, grid.ncells, grid.nqp, 3))
    sigma[times >= T / 2] = V
    hist = _history(grid, sigma, times)
    table = seminorm_table(hist, "time", "sigma", cutoff)
    m = grid.integrate_qp(cutoff.qp_values**2) * float(V @ V)
    for h, s in zip(table.h, table.values("integral")):
        if h <= T / 4:
            assert s == pytest.approx(m * h, rel=1e-12)


def test_seminorm_linear_in_time_closed_form():
    # S(h) = h^2 (T - h) m for f(t) = t
    grid, cutoff = _grid_and_cutoff(n=4)
    N, T = 16, 1.0
    times = np.linspace(0, T, N + 1)
    V = np.array([1.0, 0.5, -0.25])
    sigma = times[:, None, None, None] * V
    sigma = np.broadcast_to(sigma, (N + 1, grid.ncells, grid.nqp, 3)).copy()
    hist = _history(grid, sigma, times)
    table = seminorm_table(hist, "time", "sigma", cutoff)
    m = grid.integrate_qp(cutoff.qp_values**2) * float(V @ V)
    for h, s in zip(table.h, table.values("integral")):
        assert s == pytest.approx(h**2 * (T - h) * m, rel=1e-12)


def test_seminorm_constant_field_all_zero():
    grid, cutoff = _grid_and_cutoff()
    sigma = np.ones((9, grid.ncells, grid.nqp, 3))
    hist = _history(grid, sigma, np.linspace(0, 1, 9))
    for axis in ("time", "tangential-1", "normal"):
        table = seminorm_table(hist, axis, "sigma", cutoff)
        values = table.values("integral")
        assert np.all(values == 0.0)
        fit = fit_exponent(table.h, values, (table.h[0], table.h[-1]))
        assert fit.identically_regular


def test_seminorm_tangential_of_normal_only_field_zero():
    # shift consistency: tangential differences of an x_d-only field vanish
    grid, cutoff = _grid_and_cutoff(n=8)
    vals = np.sin(3.0 * grid.qp_coords[..., 1])
    sigma = np.broadcast_to(vals[None, ..., None],
                            (5, grid.ncells, grid.nqp, 1)).copy()
    hist = _history(grid, sigma.repeat(3, axis=-1), np.linspace(0, 1, 5))
    table = seminorm_table(hist, "tangential-1", "sigma", cutoff)
    assert np.all(table.values("sup") == 0.0)


def test_seminorm_nesting_integral_below_sup():
    rng = np.random.default_rng(41)
    grid, cutoff = _grid_and_cutoff()
    sigma = rng.standard_normal((9, grid.ncells, grid.nqp, 3))
    hist = _history(grid, sigma, np.linspace(0, 1, 9))
    T = 1.0
    for axis in ("time", "normal", "tangential-1"):
        table = seminorm_table(hist, axis, "sigma", cutoff)
        assert np.all(table.values("integral")
                      <= T * table.values("sup") + 1e-15)


def test_fit_exponent_power_law_self_test():
    h = np.array([1 / 64, 1 / 32, 1 / 16, 1 / 8, 1 / 4])
    for s in (0.2, 0.5, 0.6, 1.0):
        fit = fit_exponent(h, 3.7 * h ** (2 * s), (1 / 64, 1 / 4))
        assert fit.s_hat == pytest.approx(s, abs=0.02)
        assert fit.r2 >= 0.999


def test_fit_excludes_zero_rows():
    h = np.array([1 / 16, 1 / 8, 1 / 4, 1 / 2])
    vals = np.array([0.0, 1e-3, 4e-3, 1.6e-2])
    fit = fit_exponent(h, vals, (1 / 16, 1 / 2))
    assert fit.zero_rows == [1 / 16]
    assert fit.s_hat == pytest.approx(1.0, abs=0.02)


def test_target_exponents_kinematic():
    t = target_exponents(2, "kinematic", "mixed")
    assert (t.sigma_normal, t.sigdot_time, t.sigdot_tangential,
            t.sigdot_normal) == (0.6, 0.5, 0.5, 0.2)


def test_target_exponents_isotropic_neumann_d2():
    t = target_exponents(2, "isotropic", "neumann")
    expected = (-3 + np.sqrt(57)) / 8
    assert t.sigma_normal == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.56873, abs=1e-5)
    assert t.sigdot_normal == pytest.approx(expected / 3, abs=1e-12)


def test_target_exponents_isotropic_neumann_d3():
    t = target_exponents(3, "isotropic", "neumann")
    expected = (-1 + np.sqrt(97)) / 16
    assert t.sigma_normal == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.55306, abs=1e-5)


def test_target_exponents_isotropic_dirichlet_matches_kinematic():
    ti = target_exponents(2, "isotropic", "dirichlet")
    tk = target_exponents(2, "kinematic", "dirichlet")
    assert (ti.sigma_normal, ti.sigdot_normal) == (tk.sigma_normal,
                                                   tk.sigdot_normal)


def test_alpha_consistency_normal_rate_is_third():
    for d in (2, 3):
        t = target_exponents(d, "isotropic", "neumann")
        assert t.sigdot_normal == pytest.approx(t.alpha / 3, abs=1e-14)


# the target of each (axis, field), written out: an ExponentTargets
# field name or a constant (grad_u_dot has none for the isotropic model)
EXPECTED_TARGETS = {
    ("time", "sigma"): 1.0,
    ("time", "xi"): 1.0,
    ("time", "sigma_dot"): "sigdot_time",
    ("time", "xi_dot"): "sigdot_time",
    ("time", "grad_u_dot"): "sigdot_time",
    ("tangential-1", "sigma"): 1.0,
    ("tangential-1", "xi"): 1.0,
    ("tangential-1", "sigma_dot"): "sigdot_tangential",
    ("tangential-1", "xi_dot"): "sigdot_tangential",
    ("tangential-1", "grad_u_dot"): "sigdot_tangential",
    ("tangential-2", "sigma"): 1.0,
    ("tangential-2", "xi"): 1.0,
    ("tangential-2", "sigma_dot"): "sigdot_tangential",
    ("tangential-2", "xi_dot"): "sigdot_tangential",
    ("tangential-2", "grad_u_dot"): "sigdot_tangential",
    ("normal", "sigma"): "sigma_normal",
    ("normal", "xi"): "sigma_normal",
    ("normal", "sigma_dot"): "sigdot_normal",
    ("normal", "xi_dot"): "sigdot_normal",
    ("normal", "grad_u_dot"): "sigdot_normal",
}
PROBE_ENUMS = SCHEMA["properties"]["probes"]["items"]["properties"]


@pytest.mark.parametrize("model", ["kinematic", "isotropic"])
@pytest.mark.parametrize("field_name", PROBE_ENUMS["field"]["enum"])
@pytest.mark.parametrize("axis", PROBE_ENUMS["axis"]["enum"])
def test_target_for_every_probe_pair(axis, field_name, model):
    # distinct values, so each row must read the right field
    targets = ExponentTargets(model=model, boundary="neumann", d=3,
                              sigma_normal=0.11, sigdot_time=0.22,
                              sigdot_tangential=0.33, sigdot_normal=0.44,
                              alpha=0.55)
    expected = EXPECTED_TARGETS[axis, field_name]
    if field_name == "grad_u_dot" and model == "isotropic":
        expected = None
    elif isinstance(expected, str):
        expected = getattr(targets, expected)
    assert target_for(axis, field_name, targets, model) == expected


def test_interpolation_check_elastic_history_flagged():
    grid, cutoff = _grid_and_cutoff(n=4)
    N = 12
    sigma = np.ones((N + 1, grid.ncells, grid.nqp, 3))
    hist = _history(grid, sigma, np.linspace(0, 1, N + 1))
    rep = interpolation_check(_normal_tables(hist, cutoff), 0.05,
                              (0.25, 0.5))
    assert rep.degenerate
    assert rep.spread is None


def test_interpolation_check_requires_enough_steps(monkeypatch):
    # run_probes checks the ratio from N = 8 steps on; below that it
    # builds the probes' own tables only
    probe_list = [{"axis": "time", "field": "sigma_dot", "mode": "integral"},
                  {"axis": "tangential-1", "field": "sigma", "mode": "sup"}]
    real = probes.seminorm_table
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(probes, "seminorm_table", counting)
    for N, checked in ((7, False), (8, True)):
        scn = load_benchmark("mixed-boundary-kinematic", n=4, N=N, mu=0.05,
                             allow_coarse_dt=True, probes=probe_list)
        hist, _ = evolution.run(scn.grid(), scn.material(), scn.data,
                                scn.T, scn.N)
        calls.clear()
        report = probes.run_probes(scn, hist)
        assert (report.interpolation is not None) == checked
        expected = [(p["axis"], p["field"]) for p in probe_list]
        if checked:
            expected += [("normal", f) for f in INTERPOLATION_FIELDS]
        assert calls == expected


def test_mu_sweep_elastic_spreads_exactly_one():
    scn = load_benchmark("elastic-only", n=6, N=4, probes=[])
    rep = mu_sweep(scn)
    assert rep.failures == []
    for key, spread in rep.spreads.items():
        assert spread == pytest.approx(1.0, abs=1e-9), key
    assert rep.overshoot_l2_slope is None


def test_uniform_bound_spread_small_benchmark():
    # discrete (vztha7) analogue: bound varies < 50% over a mu decade
    scn = load_benchmark("mixed-boundary-kinematic", n=6, N=200,
                         mu=[1e-2, 1e-3], T=1.0, probes=[])
    rep = mu_sweep(scn)
    assert rep.failures == []
    assert rep.spreads["uniform_bound_lhs"] <= 1.5


def test_run_probes_smoke_with_targets():
    scn = load_benchmark("mixed-boundary-kinematic", n=8, N=40, mu=0.05,
                         allow_coarse_dt=True)
    grid = scn.grid()
    hist, _ = evolution.run(grid, scn.material(), scn.data, scn.T, scn.N)
    report = probes.run_probes(scn, hist)
    assert len(report.rows) == len(scn.probes)
    summary = report.summary()
    for row in summary:
        if row["field"] in ("sigma", "xi") or row["axis"] != "time":
            assert row["target"] is not None
    assert report.interpolation is not None


def test_run_probes_reuses_probe_tables_for_interpolation(monkeypatch):
    # the probe tables feed the ratio check; the result is bit for bit
    # that of tables built afresh
    scn = load_benchmark("mixed-boundary-kinematic", n=8, N=12, mu=0.05,
                         allow_coarse_dt=True)
    hist, _ = evolution.run(scn.grid(), scn.material(), scn.data, scn.T,
                            scn.N)
    fresh_tables = _normal_tables(hist, scn.cutoff())
    fresh = interpolation_check(fresh_tables, scn.delta,
                                scn.fit_window("space"))
    calls = []
    real = probes.seminorm_table

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(probes, "seminorm_table", counting)
    report = probes.run_probes(scn, hist)
    # one table per (axis, field): the ratio's normal sigma/xi integrals
    # come from the tables of the sup rows
    assert len(calls) == len(scn.probes)
    normal_rows = [row for row in report.rows if row.axis == "normal"]
    assert {row.field for row in normal_rows} == set(INTERPOLATION_FIELDS)
    for row in normal_rows:
        assert np.array_equal(
            row.values, fresh_tables["normal", row.field].values(row.mode))
    reused = report.interpolation
    for name in ("h", "lhs", "rhs", "ratio"):
        np.testing.assert_array_equal(getattr(reused, name),
                                      getattr(fresh, name))
    assert (reused.flagged, reused.degenerate, reused.spread) \
        == (fresh.flagged, fresh.degenerate, fresh.spread)


def test_interpolation_ratio_stable_under_time_refinement():
    # halving dt leaves R(h) within 2x per ladder rung
    reps = []
    for N in (50, 100):
        scn = load_benchmark("mixed-boundary-kinematic", n=8, N=N, mu=0.05,
                             allow_coarse_dt=True)
        hist, _ = evolution.run(scn.grid(), scn.material(), scn.data,
                                scn.T, scn.N)
        reps.append(interpolation_check(_normal_tables(hist, scn.cutoff()),
                                        0.05, scn.fit_window("space")))
    for r1, r2 in zip(reps[0].ratio, reps[1].ratio):
        if np.isfinite(r1) and np.isfinite(r2) and r1 > 0:
            assert 0.5 <= r2 / r1 <= 2.0


def test_mu_sweep_partial_report_on_failure(monkeypatch):
    scn = load_benchmark("elastic-only", n=4, N=2, probes=[], mu=[0.1, 0.001])
    real_run = evolution.run

    def failing_run(grid, params, data, T, N, **kw):
        if params.mu < 0.01:
            raise SolverFailure("forced failure", step_index=0)
        return real_run(grid, params, data, T, N, **kw)

    monkeypatch.setattr(evolution, "run", failing_run)
    rep = mu_sweep(scn)
    assert len(rep.failures) == 1
    assert rep.failures[0]["mu"] == 0.001
    oks = [e for e in rep.entries if e.failure is None]
    assert len(oks) == 1 and oks[0].mu == 0.1


@pytest.mark.parametrize("error", [("splu", None), ("cg", 1), ("local", 0)])
def test_mu_sweep_records_linear_and_local_failures(error, solver_fault,
                                                    monkeypatch, tmp_path,
                                                    capsys):
    # a CG or local solve made to fail where it arises, in the run at
    # mu = 0.001 only, leaves run() as a SolverFailure marked with its
    # step; the sweep records it and goes on.  The one factorization of
    # the sweep, before any run, fails every mu, with no step.  The
    # partial report gives a failed mu its failure and empty results,
    # and a run that did not fail the blocks of a lone run at its mu
    kind, step = error
    config = dict(n=4, N=2, probes=[], mu=[0.1, 0.001], allow_coarse_dt=True)
    scn = load_benchmark("mixed-boundary-kinematic", **config)
    real_run = evolution.run
    runs = []

    def tracked_run(grid, params, data, T, N, **kw):
        runs.append(params.mu)
        return real_run(grid, params, data, T, N, **kw)

    monkeypatch.setattr(evolution, "run", tracked_run)
    if kind == "splu":
        message = solver_fault(kind)
        failed = {0.1: message, 0.001: message}
    else:
        message = solver_fault(kind, armed=lambda: runs[-1] < 0.01)
        failed = {0.001: f"step {step}: {message}"}
    rep = mu_sweep(scn)
    assert rep.failures == [{"mu": mu, "error": failure}
                            for mu, failure in failed.items()]
    assert [(e.mu, e.failure, e.energy is None) for e in rep.entries] \
        == [(mu, failed.get(mu), mu in failed) for mu in (0.1, 0.001)]
    if kind == "splu":
        assert runs == []
    # sweep still writes its partial report and exits 3
    with open(benchmark_path("mixed-boundary-kinematic")) as fh:
        cfg = {**json.load(fh), **config}
    scn_file = tmp_path / "scn.json"
    scn_file.write_text(json.dumps(cfg))
    out = tmp_path / "sweep"
    assert cli_main(["sweep", str(scn_file), "--out", str(out)]) == 3
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert [e["failure"] for e in summary["entries"]] \
        == [failed.get(mu) for mu in (0.1, 0.001)]
    assert "partial" in capsys.readouterr().err
    monkeypatch.undo()
    for entry in summary["entries"]:
        mu = entry["mu"]
        if mu in failed:
            results = {"energy_summary": {}, "newton": None}
        else:
            _, alone = evolution.run(scn.grid(), scn.material(mu), scn.data,
                                     scn.T, scn.N, record=None)
            results = {"energy_summary": probes.energy_summary(alone),
                       "newton": probes.newton_summary(alone)}
        got = json.loads((out / entry["dir"] / "report.json").read_text())
        assert got == json.loads(json.dumps({
            "mu": mu, "failure": failed.get(mu), "exponents": None,
            "interpolation": None, **results}))


def test_mu_sweep_factors_once_and_runs_as_a_lone_run(monkeypatch):
    # a 2-mu sweep calls splu once and builds the band preconditioner
    # once, and each mu's run, handed that factor, has the bits of a
    # standalone run at that mu
    from dataclasses import fields

    from plastprobe import fem
    scn = load_benchmark("mixed-boundary-kinematic", n=4, N=4, probes=[],
                         mu=[0.1, 0.001], allow_coarse_dt=True)
    real_splu, real_run = fem.sparse_linalg.splu, evolution.run
    real_band = fem.Grid.band_cholesky
    factorizations, bands, reports = [], [], {}

    def counted_splu(*args, **kwargs):
        factorizations.append(args)
        return real_splu(*args, **kwargs)

    def counted_band(*args, **kwargs):
        bands.append(args)
        return real_band(*args, **kwargs)

    def kept_run(grid, params, data, T, N, **kw):
        out = real_run(grid, params, data, T, N, **kw)
        reports[params.mu] = out[1]
        return out

    monkeypatch.setattr(fem.sparse_linalg, "splu", counted_splu)
    monkeypatch.setattr(fem.Grid, "band_cholesky", counted_band)
    monkeypatch.setattr(evolution, "run", kept_run)
    rep = mu_sweep(scn)
    assert len(factorizations) == 1
    assert len(bands) == 1
    monkeypatch.undo()
    assert [e.mu for e in rep.entries] == [0.1, 0.001]
    for entry in rep.entries:
        swept = reports[entry.mu]
        assert swept.cg_iterations.sum() > 0          # plastic steps ran
        _, alone = evolution.run(scn.grid(), scn.material(entry.mu),
                                 scn.data, scn.T, scn.N, record=None)
        for f in fields(evolution.EnergyReport):
            got, ref = getattr(swept, f.name), getattr(alone, f.name)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        assert entry.energy is swept


@pytest.mark.parametrize("d, axis", [
    (2, "time"), (2, "tangential-1"), (2, "normal"),
    (3, "time"), (3, "tangential-1"), (3, "tangential-2"), (3, "normal")])
def test_seminorm_axes_are_weighted_diff_quotients(d, axis):
    # every row is the phi-weighted L2 norm of diff_quotient output,
    # phi taken at the unshifted point, aggregated as sup or left-rule
    grid = build_grid(Geometry(d=d, mode="mixed"), 4)
    cutoff = make_cutoff(grid, eps0=0.15, h0=0.1)
    rng = np.random.default_rng(42)
    sigma = rng.standard_normal((5, grid.ncells, grid.nqp, grid.m))
    cells = sigma.reshape((5,) + grid.cell_counts + sigma.shape[2:])
    hist = _history(grid, sigma, np.linspace(0, 1, 5))
    phi = cutoff.qp_values.reshape(grid.cell_counts + (grid.nqp,))
    table = seminorm_table(hist, axis, "sigma", cutoff)
    assert table.h[0] == pytest.approx(0.25)
    for mode in ("sup", "integral"):
        for h, value in zip(table.h, table.values(mode)):
            k = int(round(h / table.h[0]))
            dq = diff_quotient(cells, axis, k, grid)
            if axis == "time":
                w = phi
            else:
                ax = probes._space_axis(axis, d)
                w = np.take(phi, np.arange(grid.cell_counts[ax] - k), axis=ax)
            dq = dq.reshape(dq.shape[:1] + w.shape + dq.shape[-1:])
            per_t = ((w[None, ..., None] * dq) ** 2).reshape(
                dq.shape[0], -1).sum(axis=1) * grid.qp_weight
            expected = (per_t.max() if mode == "sup"
                        else per_t[:-1].sum() * hist.dt)
            assert value > 0.0
            assert value == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        seminorm_table(hist, f"tangential-{d}", "sigma", cutoff)


def _whole_array_values(hist, table, mode, cutoff):
    """Each rung by the whole-array formula: one field-sized weighted
    difference, its square and one sum per rung (the reference order),
    aggregated over t as mode."""
    grid = hist.grid
    u_dot = np.diff(hist.u, axis=0) / hist.dt
    arr = {"sigma": hist.sigma, "xi": hist.xi,
           "sigma_dot": np.diff(hist.sigma, axis=0) / hist.dt,
           "xi_dot": np.diff(hist.xi, axis=0) / hist.dt,
           "grad_u_dot": np.stack([grid.gradient(v) for v in u_dot]),
           }[table.field]
    arr = arr.reshape(arr.shape[:3] + (-1,))
    phi = cutoff.qp_values
    if table.axis == "time":
        arr = arr * phi[None, :, :, None]
    else:
        ax = probes._space_axis(table.axis, grid.d)
        phi_s = phi.reshape(grid.cell_counts + (grid.nqp,))
        shaped = arr.reshape((arr.shape[0],) + grid.cell_counts
                             + arr.shape[2:])
        moved = np.moveaxis(shaped, 1 + ax, 1)
    values = []
    for h in table.h:
        k = int(round(h / table.h[0]))
        if table.axis == "time":
            diff = arr[k:] - arr[:-k]
        else:
            diff = np.moveaxis(moved[:, k:] - moved[:, :-k], 1, 1 + ax)
            unshifted = (slice(None),) * ax + (slice(None, -k),)
            diff = diff * phi_s[unshifted][None, ..., None]
        per_t = ((diff**2).sum(axis=tuple(range(1, diff.ndim)))
                 * grid.qp_weight)
        values.append(per_t.max() if mode == "sup"
                      else per_t[:-1].sum() * hist.dt)
    return np.asarray(values)


# (boundary mode, cutoff side, eps0): on the grids below the support box
# is a strict sub-box on some axes and the whole extent on others
# (mixed), strict on every axis, or the whole grid
SUPPORT_CASES = [("mixed", "neumann", 0.15), ("mixed", "dirichlet", 0.1),
                 ("all-dirichlet", "neumann", 0.15),
                 ("all-neumann-bottom", "neumann", 0.2)]


def _support_case(d, mode, side, eps0):
    grid = build_grid(Geometry(d=d, mode=mode), 6 if d == 2 else 4)
    return grid, make_cutoff(grid, eps0=eps0, h0=0.1, side=side)


def test_cutoff_support_is_the_nonzero_box():
    kinds = set()
    for d in (2, 3):
        for case in SUPPORT_CASES:
            grid, cutoff = _support_case(d, *case)
            nonzero = (cutoff.qp_values != 0.0).any(axis=1).reshape(
                grid.cell_counts)
            inside = np.zeros_like(nonzero)
            inside[cutoff.support] = True
            assert not (nonzero & ~inside).any()
            for ax, span in enumerate(cutoff.support):
                ends = np.moveaxis(nonzero, ax, 0)[[span.start, span.stop - 1]]
                assert ends.reshape(2, -1).any(axis=1).all()
            whole = [span == slice(0, c) for span, c
                     in zip(cutoff.support, grid.cell_counts)]
            kinds.add((any(whole), all(whole)))
    # the cases below cover sub-boxes, mixed boxes and the whole grid
    assert kinds == {(False, False), (True, False), (True, True)}


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("levels_per_block", [3, None])
def test_seminorm_table_bitwise_equals_whole_array_formula(
        d, levels_per_block, monkeypatch):
    # blocked in-place kernel on the support box == whole-array formula,
    # bit for bit, for every kind of support box: 3 levels per block
    # leaves a partial last block on most rungs, None puts every level
    # in one block
    for case in SUPPORT_CASES:
        grid, cutoff = _support_case(d, *case)
        rng = np.random.default_rng(43)
        N = 9
        hist = _history(
            grid, rng.standard_normal((N + 1, grid.ncells, grid.nqp, grid.m)),
            np.linspace(0, 1, N + 1),
            xi=rng.standard_normal((N + 1, grid.ncells, grid.nqp)),
            u=rng.standard_normal((N + 1, grid.nnodes, d)))
        ncomp = {"sigma": grid.m, "xi": 1, "sigma_dot": grid.m, "xi_dot": 1,
                 "grad_u_dot": d * d}
        axes = ["time", "normal"] + [f"tangential-{j}" for j in range(1, d)]
        for field_name, k in ncomp.items():
            level_bytes = grid.ncells * grid.nqp * k * 8
            monkeypatch.setattr(probes, "BLOCK_BYTES", level_bytes * (
                levels_per_block or N + 1))
            for axis in axes:
                table = seminorm_table(hist, axis, field_name, cutoff)
                for mode in ("sup", "integral"):
                    where = (case, field_name, axis, mode)
                    expected = _whole_array_values(hist, table, mode, cutoff)
                    assert np.array_equal(table.values(mode), expected), \
                        where


@pytest.mark.parametrize("axis, field_name", [
    ("normal", "sigma"), ("tangential-1", "sigma"), ("time", "sigma"),
    ("time", "sigma_dot"), ("time", "grad_u_dot"), ("normal", "sigma_dot"),
    ("tangential-1", "grad_u_dot")])
def test_seminorm_table_peak_memory(axis, field_name):
    # a space-axis table holds a few blocks, a rate's included (formed
    # block by block); a time-axis table holds its weighted field on the
    # cutoff's support box and the block, where whole-array rungs hold
    # three to four field sizes
    grid = build_grid(Geometry(d=2, mode="mixed"), 16)
    cutoff = make_cutoff(grid, eps0=0.15, h0=0.1)
    N = 80
    rng = np.random.default_rng(44)
    hist = _history(
        grid, rng.standard_normal((N + 1, grid.ncells, grid.nqp, grid.m)),
        np.linspace(0, 1, N + 1),
        u=rng.standard_normal((N + 1, grid.nnodes, grid.d)))
    ncomp = grid.d**2 if field_name == "grad_u_dot" else grid.m
    field_bytes = (N + 1) * grid.ncells * grid.nqp * ncomp * 8
    assert field_bytes > 3 * probes.BLOCK_BYTES
    box = np.zeros(grid.cell_counts, dtype=bool)
    box[cutoff.support] = True
    support_share = box.mean()
    assert support_share < 0.5
    tracemalloc.start()
    try:
        seminorm_table(hist, axis, field_name, cutoff)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    if axis == "time":
        assert peak <= support_share * field_bytes + 1.5 * probes.BLOCK_BYTES
    else:
        # the block buffer, and for a rate its block of rate levels
        assert peak <= 2 * probes.BLOCK_BYTES
