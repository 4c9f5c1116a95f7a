"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Heavy solves are shared through module-scoped fixtures; the stated
runtime budgets are asserted alongside the numerical tolerances.
"""

import time

import numpy as np
import pytest

from plastprobe import evolution, probes, tensors
from plastprobe.constitutive import (ISOTROPIC, KINEMATIC, ConstitutiveState,
                                     MaterialParams, consistent_tangent,
                                     local_update)
from plastprobe.probes import SeminormTable, fit_exponent, seminorm_table
from plastprobe.scenario import BENCHMARKS, load_benchmark
from plastprobe.tensors import Tensor4Sym, penalty, penalty_energy

from oracles import (fd_gradient, fd_jacobian, integrate_pointwise_ode,
                     oracle_local_update, random_spd_tensor4)

pytestmark = pytest.mark.slow


def _report(k, name, ok, detail):
    print(f"\nACCEPTANCE {k:2d} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {k} ({name}): {detail}"


# -- shared heavy runs --------------------------------------------------------


def _probe_run(name):
    # the production path of `plastprobe probe`: the run records only
    # what the probe tables read (probes.record_plan)
    t0 = time.perf_counter()
    scn = load_benchmark(name, n=48, N=200, mu=0.01)
    hist, energy = evolution.run(scn.grid(), scn.material(), scn.data, scn.T,
                                 scn.N, record=probes.record_plan(scn))
    rep = probes.run_probes(scn, hist)
    return scn, hist, energy, rep, time.perf_counter() - t0


@pytest.fixture(scope="module")
def kinematic_probe_run():
    return _probe_run("mixed-boundary-kinematic")


@pytest.fixture(scope="module")
def isotropic_probe_run():
    return _probe_run("mixed-boundary-isotropic")


@pytest.fixture(scope="module")
def dirichlet_probe_run():
    return _probe_run("dirichlet-isotropic")


@pytest.fixture(scope="module")
def feasibility_sweep():
    t0 = time.perf_counter()
    # n=32, dt = mu_min/2; no probes, so no run keeps its history
    scn = load_benchmark("mixed-boundary-kinematic", probes=[])
    assert scn.n == 32 and scn.dt == pytest.approx(min(scn.mu_list) / 2)
    uni = probes.mu_sweep(scn)
    return scn, uni, time.perf_counter() - t0


# -- criterion 1: local-update oracle equivalence -----------------------------


def _random_params(rng, model, d, fast):
    mu = 10 ** rng.uniform(-4, -1)
    if fast:
        elastic = Tensor4Sym.isotropic(d, *rng.uniform(0.5, 2.0, 2))
        hard_t = Tensor4Sym.isotropic(d, *rng.uniform(0.5, 2.0, 2))
    else:
        elastic = random_spd_tensor4(rng, d)
        hard_t = random_spd_tensor4(rng, d)
    if model == KINEMATIC:
        return MaterialParams(elastic=elastic, model=model, kappa=1.0, mu=mu,
                              hardening_tensor=hard_t)
    return MaterialParams(elastic=elastic, model=model, kappa=1.0, mu=mu,
                          hardening_modulus=rng.uniform(0.5, 2.0))


def test_criterion_1_local_oracle_equivalence():
    rng = np.random.default_rng(100)
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for model in (KINEMATIC, ISOTROPIC):
        for d in (2, 3):
            m = tensors.num_components(d)
            for i in range(1000):
                params = _random_params(rng, model, d, fast=i % 2 == 0)
                state = ConstitutiveState.zeros(model, d)
                deps = rng.standard_normal(m) * rng.uniform(0.3, 3.0)
                dt = params.mu * rng.uniform(0.3, 3.0)
                new = local_update(state, deps, dt, params)
                sig_o, xi_o = oracle_local_update(state.sigma, state.xi,
                                                  deps, dt, params)
                err = max(np.abs(new.sigma - sig_o).max(),
                          np.abs(np.atleast_1d(new.xi)
                                 - np.atleast_1d(xi_o)).max())
                worst = max(worst, err)
                count += 1
    elapsed = time.perf_counter() - t0
    _report(1, "local oracle equivalence",
            worst <= 1e-9 and elapsed < 10.0,
            f"{count} problems, worst deviation {worst:.2e}, {elapsed:.1f}s")


# -- criterion 2: homogeneous-plastic ODE oracle ------------------------------


def _homogeneous_error(model, N):
    overrides = {"N": N}
    if model == ISOTROPIC:
        overrides.update({"model": "isotropic",
                          "hardening": {"type": "modulus", "H": 1.0}})
    scn = load_benchmark("homogeneous-plastic", **overrides)
    grid = scn.grid()
    params = scn.material()
    hist, _ = evolution.run(grid, params, scn.data, scn.T, scn.N)
    sig_T = hist.sigma[-1]
    constancy = np.abs(sig_T - sig_T[0, 0]).max()
    x0 = grid.qp_coords[:1, :1].reshape(1, 2)
    rate = lambda t: scn.data.strain0(t, x0, tder=1)[0]
    xi0 = np.zeros(3) if model == KINEMATIC else 0.0
    sol = integrate_pointwise_ode(params, rate, (0.0, scn.T), np.zeros(3), xi0)
    yT = sol.y[:, -1]
    err_sig = np.abs(sig_T[0, 0] - yT[:3]).max()
    if model == KINEMATIC:
        err_xi = np.abs(hist.xi[-1][0, 0] - yT[3:6]).max()
    else:
        err_xi = abs(float(hist.xi[-1][0, 0]) - yT[3])
    return max(err_sig, err_xi), constancy


def test_criterion_2_homogeneous_ode_oracle():
    t0 = time.perf_counter()
    details = []
    ok = True
    for model in (KINEMATIC, ISOTROPIC):
        e256, constancy = _homogeneous_error(model, 256)
        e512, _ = _homogeneous_error(model, 512)
        ratio = e256 / e512
        details.append(f"{model}: err256={e256:.2e} ratio={ratio:.2f}")
        ok &= e256 <= 1e-4 and 1.7 <= ratio <= 2.3 and constancy <= 1e-9
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    _report(2, "homogeneous ODE oracle", ok,
            "; ".join(details) + f", {elapsed:.1f}s")


# -- criterion 3: elastic consistency -----------------------------------------


def test_criterion_3_elastic_consistency():
    from test_fem import _elastic_solve
    t0 = time.perf_counter()
    scn = load_benchmark("elastic-only")      # n=16, d=2
    grid = scn.grid()
    params = scn.material()
    hist, energy = evolution.run(grid, params, scn.data, scn.T, scn.N)
    worst = 0.0
    for k in range(1, scn.N + 1):
        u_lin = _elastic_solve(grid, params.elastic, scn.data, hist.times[k])
        worst = max(worst, float(np.abs(hist.u[k] - u_lin).max()))
    xi_max = float(np.abs(hist.xi).max())
    pen_max = float(energy.e_pen.max())
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and xi_max == 0.0 and pen_max == 0.0 and elapsed < 10.0
    _report(3, "elastic consistency", ok,
            f"max |u - u_lin| = {worst:.2e}, max|xi| = {xi_max:g}, "
            f"max E_pen = {pen_max:g}, {elapsed:.1f}s")


# -- criteria 4 and 5: feasibility decay and uniformity in mu -----------------


def test_criterion_4_feasibility_decay(feasibility_sweep):
    scn, uni, elapsed = feasibility_sweep
    slope = uni.overshoot_l2_slope
    ok = (not uni.failures) and slope is not None and slope >= 0.45 \
        and elapsed < 600.0
    overshoots = [e.energy_summary.get("overshoot_l2_final") for e in uni.entries]
    _report(4, "feasibility decay rate", ok,
            f"slope {slope:.3f} (theory 0.5, floor 0.45), overshoots "
            f"{['%.2e' % o for o in overshoots]}, sweep {elapsed:.0f}s")


def test_criterion_5_uniformity_in_mu(feasibility_sweep):
    _, uni, _ = feasibility_sweep
    s1 = uni.spreads["sup_sigdot"]
    s2 = uni.spreads["sup_xidot"]
    ok = s1 <= 1.5 and s2 <= 1.5
    _report(5, "uniformity of rate suprema", ok,
            f"spread sup|sigma_dot| = {s1:.3f}, sup|xi_dot| = {s2:.3f} (<= 1.5)")


# -- criteria 6-8: fitted exponents -------------------------------------------


def _row(rep, axis, field_name):
    for r in rep.summary():
        if r["axis"] == axis and r["field"] == field_name:
            return r
    raise KeyError((axis, field_name))


def test_criterion_6_time_nikolskii_exponent(kinematic_probe_run):
    _, _, _, rep, _ = kinematic_probe_run
    row = _row(rep, "time", "sigma_dot")
    ok = row["s_hat"] is not None and row["s_hat"] >= 0.40 and row["r2"] >= 0.9
    _report(6, "time exponent of sigma_dot", ok,
            f"s_hat = {row['s_hat']:.3f} (floor 0.40, target 0.5), "
            f"r2 = {row['r2']:.3f}")


def test_criterion_7_tangential_w12_boundedness(kinematic_probe_run):
    scn, hist, _, rep, _ = kinematic_probe_run
    table = seminorm_table(hist, "tangential-1", "sigma", scn.cutoff(), "sup")
    lo, hi = scn.fit_window("space")
    mask = (table.h >= lo * (1 - 1e-9)) & (table.h <= hi * (1 + 1e-9))
    q = np.sqrt(table.values[mask]) / table.h[mask]
    spread = float(q.max() / q.min())
    row = _row(rep, "tangential-1", "sigma")
    ok = spread <= 2.0 and row["s_hat"] >= 0.9
    _report(7, "tangential W12 signature", ok,
            f"sup_t |phi D1^h sigma|/h spread = {spread:.3f} (<= 2), "
            f"tangential exponent = {row['s_hat']:.3f} (>= 0.9)")


def test_criterion_8_normal_exponents(kinematic_probe_run,
                                      isotropic_probe_run):
    _, _, _, rep_k, t_k = kinematic_probe_run
    _, _, _, rep_i, t_i = isotropic_probe_run
    s_sigma = _row(rep_k, "normal", "sigma")["s_hat"]
    s_sigdot = _row(rep_k, "normal", "sigma_dot")["s_hat"]
    s_iso = _row(rep_i, "normal", "sigma")["s_hat"]
    alpha2 = probes.alpha_exponent(2)
    ok = (s_sigma >= 0.50 and s_sigdot >= 0.12 and s_iso >= alpha2 - 0.10
          and t_k < 900.0 and t_i < 900.0)
    _report(8, "normal exponents", ok,
            f"kinematic sigma {s_sigma:.3f} (>= 0.50), sigma_dot "
            f"{s_sigdot:.3f} (>= 0.12); isotropic-Neumann sigma {s_iso:.3f} "
            f"(>= alpha(2)-0.10 = {alpha2 - 0.10:.3f}); runtimes "
            f"{t_k:.0f}s/{t_i:.0f}s")


# -- criterion 9: structural invariants on every benchmark --------------------


def _invariant_battery(scn, hist, energy, rng):
    grid = scn.grid()
    params = scn.material()
    msgs = []
    tr_ep = float(np.abs(tensors.tr(hist.ep[-1])).max())
    if tr_ep > 1e-12:
        msgs.append(f"tr(ep) = {tr_ep:.1e}")
    if params.model == KINEMATIC:
        gap = float(np.abs(params.hardening_tensor.apply(hist.xi[-1])
                           - hist.ep[-1]).max())
        if gap > 1e-10:
            msgs.append(f"H xi != ep ({gap:.1e})")
    else:
        if np.any(np.diff(hist.xi, axis=0) < -1e-14):
            msgs.append("xi not monotone")
    if energy.residual_rel.size and energy.residual_rel.max() > 1e-9:
        msgs.append(f"Galerkin residual {energy.residual_rel.max():.1e}")

    # penalty gradient vs central differences, away from the kink
    for _ in range(5):
        beta = rng.standard_normal(3)
        mag = tensors.norm(beta)
        if abs(mag - params.kappa) < 0.1:
            beta *= (params.kappa + 0.5) / mag
        grad = fd_gradient(
            lambda b: penalty_energy(b, params.kappa, params.mu), beta)
        p = penalty(beta, params.kappa, params.mu)
        if np.abs(p - grad).max() > 1e-6 * max(1.0, float(tensors.norm(p))):
            msgs.append("penalty gradient FD mismatch")
            break

    # consistent tangent vs finite differences at a mid-trajectory state
    k = len(hist.times) // 2
    state = hist.state_at(k)
    point = ConstitutiveState(state.sigma[0, 0], state.xi[0, 0], state.ep[0, 0])
    deps = scn.data.strain0(hist.times[k] + scn.dt,
                            grid.qp_coords[:1, :1].reshape(1, 2))[0] \
        - grid.sym_gradient(hist.u[k])[0, 0]
    upd = local_update(point, deps, scn.dt, params)
    tang = consistent_tangent(point, deps, scn.dt, params, updated=upd)
    fd = fd_jacobian(lambda e: local_update(point, e, scn.dt, params).sigma,
                     deps, h=1e-6)
    rel = np.abs(tang - fd).max() / max(np.abs(fd).max(), 1e-12)
    if rel > 1e-5 and yield_gap(upd, params) > 1e-6:  # away from the kink
        msgs.append(f"tangent FD mismatch ({rel:.1e})")
    return msgs


def yield_gap(state, params):
    from plastprobe.constitutive import beta_of
    b = tensors.norm(beta_of(state, params))
    if params.model == KINEMATIC:
        return abs(b - params.kappa)
    return abs(b - params.kappa - state.xi)


def test_criterion_9_structural_invariants():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    sizes = {
        "elastic-only": dict(n=8, N=4),
        "homogeneous-plastic": dict(N=64),
        "mixed-boundary-kinematic": dict(n=8, N=100, mu=0.02),
        "mixed-boundary-isotropic": dict(n=8, N=100, mu=0.02),
        "dirichlet-isotropic": dict(n=8, N=100, mu=0.02),
    }
    failures = []
    for name in BENCHMARKS:
        scn = load_benchmark(name, **sizes[name])
        hist, energy = evolution.run(scn.grid(), scn.material(), scn.data,
                                     scn.T, scn.N)
        msgs = _invariant_battery(scn, hist, energy, rng)
        if msgs:
            failures.append(f"{name}: {'; '.join(msgs)}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300.0
    _report(9, "structural invariants", ok,
            f"all 5 benchmarks green, {elapsed:.0f}s" if ok else
            " | ".join(failures))


# -- criterion 10: exponent-fit self-test --------------------------------------


def test_criterion_10_fit_self_test():
    h = np.array([1 / 128, 1 / 64, 1 / 32, 1 / 16, 1 / 8, 1 / 4])
    worst = 0.0
    for s in (0.2, 0.5, 0.6, 1.0):
        table = SeminormTable(axis="normal", field="sigma", mode="sup", h=h,
                              values=2.3 * h ** (2 * s), base=h[0], cap=h[-1])
        fit = fit_exponent(table, window=(h[0], h[-1]))
        worst = max(worst, abs(fit.s_hat - s))
    _report(10, "exponent-fit self-test", worst <= 0.02,
            f"worst |s_hat - s| = {worst:.4f} over s in {{0.2, 0.5, 0.6, 1.0}}")


# -- criterion 11: interpolation-lemma ratio ------------------------------------


def test_criterion_11_interpolation_ratio(kinematic_probe_run,
                                          isotropic_probe_run,
                                          dirichlet_probe_run):
    spreads = {}
    ok = True
    for label, fix in (("kinematic", kinematic_probe_run),
                       ("isotropic-neumann", isotropic_probe_run),
                       ("isotropic-dirichlet", dirichlet_probe_run)):
        rep = fix[3].interpolation
        ok &= rep is not None and not rep.degenerate and rep.spread is not None \
            and rep.spread <= 10.0
        spreads[label] = None if rep is None else rep.spread
    _report(11, "interpolation-lemma ratio", ok,
            "R(h) spreads at delta=0.05: " + ", ".join(
                f"{k}={v:.2f}" for k, v in spreads.items()) + " (<= 10)")
