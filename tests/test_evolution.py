"""Rothe stepping: stationarity, elastic consistency, ODE oracle, invariants."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from plastprobe import evolution, fem, probes, tensors
from plastprobe.constitutive import (ISOTROPIC, KINEMATIC, KINK_GUARD,
                                     SolverFailure, local_update,
                                     yield_excess)
from plastprobe.scenario import load_benchmark

from oracles import integrate_pointwise_ode


def test_stationary_affine_data_keeps_state():
    # constant-in-time affine data: pointwise sampling is discretely exact,
    # so u and sigma stay frozen from t=0 on
    from plastprobe.scenario import parse_scenario_dict
    scn = load_benchmark("homogeneous-plastic", N=3)
    scn.config["data"]["terms"] = [
        {"tpoly": [1.0], "linear": [[0.4, 0.0], [0.0, -0.4]]}]
    scn = parse_scenario_dict(scn.config)
    hist, _ = evolution.run(scn.grid(), scn.material(), scn.data, scn.T, scn.N)
    for k in range(1, scn.N + 1):
        assert np.abs(hist.u[k] - hist.u[0]).max() <= 1e-9
        assert np.abs(hist.sigma[k] - hist.sigma[0]).max() <= 1e-9


def test_stationary_curved_data_settles_after_projection():
    # curved data: the first step projects the pointwise-sampled initial
    # stress into discrete equilibrium; afterwards nothing moves
    from plastprobe.scenario import parse_scenario_dict
    scn = load_benchmark("elastic-only", N=3)
    scn.config["data"]["terms"][0]["tpoly"] = [1.0]
    scn = parse_scenario_dict(scn.config)
    hist, _ = evolution.run(scn.grid(), scn.material(), scn.data, scn.T, scn.N)
    for k in range(2, scn.N + 1):
        assert np.abs(hist.u[k] - hist.u[1]).max() <= 1e-9
        assert np.abs(hist.sigma[k] - hist.sigma[1]).max() <= 1e-9


def test_elastic_run_matches_one_shot_solve():
    scn = load_benchmark("elastic-only", n=8, N=4)
    grid = scn.grid()
    params = scn.material()
    hist, report = evolution.run(grid, params, scn.data, scn.T, scn.N)
    from test_fem import _elastic_solve
    for k in (1, scn.N):
        u_lin = _elastic_solve(grid, params.elastic, scn.data,
                               t=hist.times[k])
        assert np.abs(hist.u[k] - u_lin).max() <= 1e-9
    assert np.all(report.e_pen == 0.0)
    assert np.all(report.overshoot_linf == 0.0)
    assert np.abs(hist.xi).max() == 0.0


def test_elastic_run_independent_of_mu():
    scn = load_benchmark("elastic-only", n=4, N=3)
    grid = scn.grid()
    outs = []
    for mu in (1e-1, 1e-3):
        hist, _ = evolution.run(grid, scn.material(mu), scn.data, scn.T, scn.N)
        outs.append(hist.sigma.copy())
    np.testing.assert_allclose(outs[0], outs[1], atol=1e-12)


@pytest.mark.parametrize("model", [KINEMATIC, ISOTROPIC])
def test_homogeneous_run_matches_ode_oracle(model):
    overrides = {"N": 64}
    if model == ISOTROPIC:
        overrides.update({"model": "isotropic",
                          "hardening": {"type": "modulus", "H": 1.0}})
    scn = load_benchmark("homogeneous-plastic", **overrides)
    grid = scn.grid()
    params = scn.material()
    hist, report = evolution.run(grid, params, scn.data, scn.T, scn.N)

    # every quadrature point sees the same state
    sig_T = hist.sigma[-1]
    assert np.abs(sig_T - sig_T[0, 0]).max() <= 1e-9

    x0 = grid.qp_coords[:1, :1].reshape(1, 2)
    rate = lambda t: scn.data.strain0(t, x0, tder=1)[0]
    xi0 = np.zeros(3) if model == KINEMATIC else 0.0
    sol = integrate_pointwise_ode(params, rate, (0.0, scn.T), np.zeros(3), xi0)
    yT = sol.y[:, -1]
    err = np.abs(sig_T[0, 0] - yT[:3]).max()
    assert err <= 5e-4    # N=64 backward Euler vs exact integration
    if model == KINEMATIC:
        assert np.abs(hist.xi[-1][0, 0] - yT[3:6]).max() <= 5e-4
    else:
        assert abs(float(hist.xi[-1][0, 0]) - yT[3]) <= 5e-4


def test_energy_diagnostics_match_streamed_report():
    scn = load_benchmark("homogeneous-plastic", N=32)
    grid = scn.grid()
    params = scn.material()
    hist, streamed = evolution.run(grid, params, scn.data, scn.T, scn.N)
    recomputed = evolution.energy_diagnostics(hist)
    for key in ("e_pen", "overshoot_l2", "sigdot_l2", "xidot_l2", "udot_h1",
                "dissipation_cum"):
        np.testing.assert_allclose(getattr(streamed, key),
                                   getattr(recomputed, key), atol=1e-13)


def test_kinematic_identity_along_trajectory():
    scn = load_benchmark("homogeneous-plastic", n=2, N=32)
    grid = scn.grid()
    params = scn.material()
    hist, _ = evolution.run(grid, params, scn.data, scn.T, scn.N)
    for k in (8, 16, 32):
        lhs = params.hardening_tensor.apply(hist.xi[k])
        np.testing.assert_allclose(lhs, hist.ep[k], atol=1e-10)
        # compatibility trace identity
        strain = grid.sym_gradient(hist.u[k])
        defect = tensors.tr(strain - params.elastic.apply(hist.sigma[k]))
        assert np.abs(defect).max() <= 1e-9


def test_isotropic_xi_monotone_along_trajectory():
    scn = load_benchmark("homogeneous-plastic", N=32, model="isotropic",
                         hardening={"type": "modulus", "H": 1.0})
    grid = scn.grid()
    hist, _ = evolution.run(grid, scn.material(), scn.data, scn.T, scn.N)
    assert np.all(np.diff(hist.xi, axis=0) >= -1e-14)


def test_galerkin_orthogonality_recorded():
    scn = load_benchmark("homogeneous-plastic", n=4, N=16)
    _, energy = evolution.run(scn.grid(), scn.material(), scn.data, scn.T,
                              scn.N)
    assert energy.residual_rel.max() <= 1e-9


def test_newton_error_reports_step(monkeypatch):
    # exhausting the iteration budget must raise with step diagnostics
    scn = load_benchmark("mixed-boundary-kinematic", n=4, N=2,
                         allow_coarse_dt=True)
    # (step 0 is elastic: its elastic predictor alone solves it)
    monkeypatch.setattr(evolution, "NEWTON_MAX_ITER", 0)
    with pytest.raises(SolverFailure, match="^step 1: Newton stalled") as err:
        evolution.run(scn.grid(), scn.material(), scn.data, scn.T, scn.N)
    assert err.value.step_index == 1
    assert err.value.iterations is not None
    assert err.value.residual is not None


def test_global_line_search_halves_an_overlong_step(monkeypatch):
    # a solver returning twice the exact elastic step overshoots to -r:
    # the line search must halve once and land on the exact step
    scn = load_benchmark("elastic-only", n=4, N=2)
    grid, params = scn.grid(), scn.material()
    u0, state0 = evolution.initial_state(grid, params, scn.data)
    calls = []
    real_update = evolution.local_update

    def counting_update(*args, **kwargs):
        calls.append(1)
        return real_update(*args, **kwargs)

    def step():
        calls.clear()
        stepper = evolution._Stepper(grid, params, scn.data)
        u, _, _, iters, rel = stepper.step(u0, grid.sym_gradient(u0), state0,
                                           0.0, scn.T / scn.N)
        return u, iters, rel, len(calls)

    monkeypatch.setattr(evolution, "local_update", counting_update)
    u_ref, iters_ref, _, trials_ref = step()
    real_solver = fem.Grid.make_solver

    def doubled(self, *args, **kwargs):
        solve = real_solver(self, *args, **kwargs)
        return lambda rhs: 2.0 * solve(rhs)

    monkeypatch.setattr(fem.Grid, "make_solver", doubled)
    u, iters, rel, trials = step()
    assert iters_ref == iters == 1
    assert trials == trials_ref + 1 == 3      # start, alpha = 1, alpha = 1/2
    assert rel <= evolution.NEWTON_RTOL
    np.testing.assert_allclose(u, u_ref, rtol=0, atol=1e-12)


def test_nan_residual_is_not_accepted():
    # a NaN load makes every residual comparison false: it must raise,
    # not return the unequilibrated predictor
    scn = load_benchmark("mixed-boundary-kinematic", n=4, N=2,
                         allow_coarse_dt=True)

    class NanBody:
        def __getattr__(self, name):
            return getattr(scn.data, name)

        def body_force(self, t, x):
            return np.full(x.shape, np.nan)

    with pytest.raises(SolverFailure, match="non-finite") as err:
        evolution.run(scn.grid(), scn.material(), NanBody(), scn.T, scn.N)
    assert err.value.step_index == 0


def _plastic_scenario(name):
    return load_benchmark(name, n=8, N=6, mu=0.2, allow_coarse_dt=True)


@pytest.mark.parametrize("name", ["mixed-boundary-kinematic",
                                  "mixed-boundary-isotropic"])
def test_newton_iterations_match_direct_solve_reference(name, monkeypatch):
    # elastic-preconditioned CG, solved to the inexact-Newton forcing
    # term, against an exact sparse solve of every tangent: same Newton
    # iterations per step, same trajectory
    scn = _plastic_scenario(name)
    params = scn.material()
    hist, energy = evolution.run(scn.grid(), params, scn.data, scn.T, scn.N)
    assert np.abs(hist.ep).max() > 0.0

    real = fem.Grid.make_solver

    def direct(grid, D, factor=None, rtol=None):
        if D is None:
            return real(grid, D, factor)
        free = grid.free_dofs
        Kff = grid.assemble_tangent(D)[free][:, free].tocsc()

        def solve(rhs):
            out = np.zeros_like(rhs)
            out[free] = spsolve(Kff, rhs[free])
            return out
        return solve

    monkeypatch.setattr(fem.Grid, "make_solver", direct)
    ref, ref_energy = evolution.run(scn.grid(), params, scn.data, scn.T,
                                    scn.N)
    assert np.array_equal(energy.newton_iters, ref_energy.newton_iters)
    np.testing.assert_allclose(hist.u, ref.u, rtol=0, atol=1e-9)
    np.testing.assert_allclose(hist.sigma, ref.sigma, rtol=0, atol=1e-9)


def test_plastic_solves_follow_forcing_term(monkeypatch):
    # every plastic tangent K is solved to the forcing term
    # eta = max(CG_RTOL, min(FORCING_MAX, |r| / scale)), and the CG
    # correction meets it: |(K du + r)_free| <= eta |r_free|
    scn = _plastic_scenario("mixed-boundary-kinematic")
    grid, params, data = scn.grid(), scn.material(), scn.data
    real = fem.Grid.make_solver
    solves = []

    def recording(grid, D, factor, rtol=fem.CG_RTOL):
        solve = real(grid, D, factor, rtol=rtol)
        if D is None:
            return solve
        K = grid.assemble_tangent(D)

        def recorded(rhs):
            du = solve(rhs)
            solves.append((K, rtol, rhs, du))
            return du
        return recorded

    monkeypatch.setattr(fem.Grid, "make_solver", recording)
    stepper = evolution._Stepper(grid, params, data)
    u, state = evolution.initial_state(grid, params, data)
    times = np.linspace(0.0, scn.T, scn.N + 1)
    dt = scn.T / scn.N
    free, dir_nodes = grid.free_dofs, grid.dirichlet_nodes
    etas, u_prev, extrapolated = [], None, 0
    for k in range(scn.N):
        # driven as run() drives it: the regime of state_n picks the
        # predictor, and plastic states extrapolate from u_prev
        elastic_n = yield_excess(state, params).max() <= KINK_GUARD
        # the residual and its scale at the step's unpredicted iterate
        t1 = times[k] + dt
        u0 = u.copy()
        u0[dir_nodes] = data.u0(t1, grid.nodes[dir_nodes])
        deps = grid.sym_gradient(u0) - grid.sym_gradient(u)
        fint = grid.internal_force(local_update(state, deps, dt, params).sigma)
        load = grid.load_vector(body_fn=data.body_force,
                                sigma0_fn=data.sigma0, t=t1)
        r0norm = np.linalg.norm((fint - load)[free])
        scale = max(np.linalg.norm(load[free]),
                    np.linalg.norm(fint[free]), 1e-12)
        solves.clear()
        u_prev, (u, _, state, _, _) = u, stepper.step(
            u, grid.sym_gradient(u), state, times[k], dt,
            elastic_n=elastic_n, u_prev=u_prev)
        for K, eta, rhs, du in solves:
            rnorm = np.linalg.norm(rhs[free])
            assert eta == pytest.approx(
                max(fem.CG_RTOL, min(evolution.FORCING_MAX, rnorm / scale)),
                rel=1e-12)
            assert np.linalg.norm((K @ du - rhs)[free]) <= eta * rnorm
            etas.append(eta)
        # a kept extrapolation hands CG a residual below the unpredicted one
        if not elastic_n and k > 0 and solves:
            extrapolated += np.linalg.norm(solves[0][2][free]) < r0norm
    assert etas, "the scenario has no plastic Newton iteration"
    assert extrapolated, "no plastic solve started from an extrapolation"
    assert etas[0] == evolution.FORCING_MAX
    assert min(etas) >= fem.CG_RTOL
    assert min(etas) < evolution.FORCING_MAX


def test_plastic_run_assembles_stiffness_once(monkeypatch):
    # only the elastic stiffness is assembled, to be factored; every
    # plastic tangent reaches CG as a modulus field
    assembled, plastic = [], []
    real_assemble = fem.Grid.assemble_tangent
    real_solver = fem.Grid.make_solver

    def assemble(grid, D):
        assembled.append(D)
        return real_assemble(grid, D)

    def make_solver(grid, D, factor, rtol=fem.CG_RTOL):
        if D is not None:
            plastic.append(D)
        return real_solver(grid, D, factor, rtol=rtol)

    monkeypatch.setattr(fem.Grid, "assemble_tangent", assemble)
    monkeypatch.setattr(fem.Grid, "make_solver", make_solver)
    scn = _plastic_scenario("mixed-boundary-isotropic")
    evolution.run(scn.grid(), scn.material(), scn.data, scn.T, scn.N)
    assert plastic, "the scenario has no plastic Newton iteration"
    assert len(assembled) == 1


def test_elastic_run_never_calls_cg(monkeypatch):
    # elastic steps solve exactly with the cached elastic factors
    def no_cg(*args, **kwargs):
        raise AssertionError("CG called on an elastic run")

    monkeypatch.setattr(fem.sparse_linalg, "cg", no_cg)
    scn = load_benchmark("elastic-only", n=8, N=4)
    _, energy = evolution.run(scn.grid(), scn.material(), scn.data, scn.T,
                              scn.N)
    assert energy.newton_iters.max() > 0


def test_steps_before_yield_take_one_elastic_solve(monkeypatch):
    # the new Dirichlet values alone make the boundary cells' trial
    # stress yield; the elastic predictor solves the step exactly instead
    # of taking a plastic Newton iteration first
    cg_calls, per_step = [], []
    real_cg = fem.sparse_linalg.cg
    real_step = evolution._Stepper.step

    def counting_cg(*args, **kwargs):
        cg_calls.append(1)
        return real_cg(*args, **kwargs)

    def counting_step(self, *args, **kwargs):
        before = len(cg_calls)
        out = real_step(self, *args, **kwargs)
        per_step.append(len(cg_calls) - before)
        return out

    monkeypatch.setattr(fem.sparse_linalg, "cg", counting_cg)
    monkeypatch.setattr(evolution._Stepper, "step", counting_step)
    scn = load_benchmark("mixed-boundary-kinematic", n=6, N=10, T=1.0,
                         mu=0.2, allow_coarse_dt=True)
    _, energy = evolution.run(scn.grid(), scn.material(), scn.data, scn.T,
                              scn.N, record=None)
    before_yield = np.flatnonzero(energy.overshoot_linf[1:] == 0.0)
    assert 0 < before_yield.size < scn.N
    assert energy.newton_iters[before_yield].tolist() == [1] * before_yield.size
    assert [per_step[k] for k in before_yield] == [0] * before_yield.size


def test_elastic_run_is_the_documented_elastic_step():
    # every step of an elastic run is u_n + K0^-1 (-r(u_n)), with u_n
    # carrying the new Dirichlet values: same bits, in every field
    scn = load_benchmark("elastic-only", n=8, N=5)
    grid, params, data = scn.grid(), scn.material(), scn.data
    hist, _ = evolution.run(grid, params, data, scn.T, scn.N)

    a_inv = np.linalg.inv(params.elastic.matrix)
    D = np.broadcast_to(a_inv, (grid.ncells, grid.nqp, grid.m, grid.m))
    factor = grid.factorize(grid.assemble_tangent(np.ascontiguousarray(D)))
    solve = grid.make_solver(None, factor)
    u, state = evolution.initial_state(grid, params, data)
    dt = scn.T / scn.N
    for k in range(scn.N):
        t1 = hist.times[k] + dt
        load = grid.load_vector(body_fn=data.body_force,
                                sigma0_fn=data.sigma0, t=t1)
        strain_n = grid.sym_gradient(u)

        def residual(v):
            upd = local_update(state, grid.sym_gradient(v) - strain_n, dt,
                               params)
            r = grid.internal_force(upd.sigma) - load
            r[grid.dirichlet_dofs] = 0.0
            return r, upd

        u_start = u.copy()
        u_start[grid.dirichlet_nodes] = data.u0(t1, grid.dirichlet_points)
        r, _ = residual(u_start)
        u_next = u_start + solve(-r).reshape(grid.nnodes, grid.d)
        _, state = residual(u_next)
        u = u_next
        assert np.array_equal(hist.u[k + 1], u), k
        for name in ("sigma", "xi", "ep"):
            assert np.array_equal(getattr(hist, name)[k + 1],
                                  getattr(state, name)), (k, name)


def test_bad_previous_displacement_is_rejected():
    # the extrapolation 2 u_n - u_prev is kept only if it lowers |r|: a
    # bad u_prev leaves the step as it is without a predictor
    scn = _plastic_scenario("mixed-boundary-kinematic")
    grid, params, data = scn.grid(), scn.material(), scn.data
    hist, energy = evolution.run(grid, params, data, scn.T, scn.N)
    k = int(np.flatnonzero(energy.overshoot_linf > KINK_GUARD)[0])
    assert 0 < k < scn.N
    stepper = evolution._Stepper(grid, params, data)
    args = (hist.u[k], grid.sym_gradient(hist.u[k]), hist.state_at(k),
            hist.times[k], hist.dt)
    u_ref, _, state_ref, iters_ref, _ = stepper.step(*args)
    _, _, _, iters_good, _ = stepper.step(*args, u_prev=hist.u[k - 1])
    assert iters_good < iters_ref         # the true u_{n-1} helps
    rng = np.random.default_rng(11)
    bad = hist.u[k] + rng.standard_normal(hist.u[k].shape)
    u_bad, _, state_bad, iters_bad, _ = stepper.step(*args, u_prev=bad)
    assert iters_bad <= iters_ref
    np.testing.assert_allclose(u_bad, u_ref, rtol=0, atol=1e-9)
    np.testing.assert_allclose(state_bad.sigma, state_ref.sigma, rtol=0,
                               atol=1e-9)


def _sigma0(scn):
    """sigma0(0) at the quadrature points, as the initial state holds it."""
    return evolution.initial_state(scn.grid(), scn.material(),
                                   scn.data)[1].sigma


def test_safety_load_check_benchmarks():
    scn = load_benchmark("mixed-boundary-kinematic", n=4, N=8,
                         allow_coarse_dt=True)
    rep = evolution.safety_load_check(_sigma0(scn), scn.material())
    assert rep.passed
    assert rep.margin == pytest.approx(1.0)        # sigma0(0) = 0


def test_safety_load_margin_scan_oracle():
    # margin equals a brute-force scan on a 4x finer sampling grid to 1e-3
    from plastprobe.fem import Geometry, build_grid
    scn = load_benchmark("elastic-only", n=8)
    # give sigma0(0) a nonzero deviator via a constant-in-time component
    scn.config["data"]["terms"][0]["tpoly"] = [0.4, 1.0]
    from plastprobe.scenario import parse_scenario_dict
    scn = parse_scenario_dict(scn.config)
    grid = scn.grid()
    rep = evolution.safety_load_check(_sigma0(scn), scn.material())
    fine = build_grid(Geometry(d=2, mode="mixed"), 4 * grid.n)
    s0 = scn.data.sigma0(0.0, fine.qp_coords.reshape(-1, 2))
    margin_fine = scn.material().kappa - tensors.norm(tensors.dev(s0)).max()
    assert rep.margin == pytest.approx(margin_fine, abs=1e-3)


def test_safety_load_fails_at_equality():
    # scale the initial stress to sit exactly at kappa: strict check fails
    scn = load_benchmark("elastic-only", n=4)
    scn.config["data"]["terms"][0]["tpoly"] = [1.0, 1.0]
    from plastprobe.scenario import parse_scenario_dict
    scn = parse_scenario_dict(scn.config)
    grid = scn.grid()
    params = scn.material()
    s0 = scn.data.sigma0(0.0, grid.qp_coords.reshape(-1, 2))
    peak = tensors.norm(tensors.dev(s0)).max()
    scn.config["kappa"] = float(peak)
    scn2 = parse_scenario_dict(scn.config)
    rep = evolution.safety_load_check(_sigma0(scn2), scn2.material())
    assert not rep.passed


@pytest.mark.parametrize("model", [KINEMATIC, ISOTROPIC])
def test_safety_margin_is_translated_pair_gap_at_every_time(model):
    # the check reads sigma0 at t = 0 only: with the translated pair the
    # feasibility gap at every time level equals its value at t = 0
    from plastprobe.scenario import parse_scenario_dict
    scn = load_benchmark("elastic-only", n=8)
    scn.config["data"]["terms"][0]["tpoly"] = [0.4, 1.0]
    scn.config["model"] = model
    if model == ISOTROPIC:
        scn.config["hardening"] = {"type": "modulus", "H": 1.0}
    scn = parse_scenario_dict(scn.config)
    grid, params = scn.grid(), scn.material()
    x = grid.qp_coords.reshape(-1, 2)
    s0 = scn.data.sigma0(0.0, x)
    dev0 = tensors.norm(tensors.dev(s0))
    assert dev0.max() > 0.0
    gap = 0.0
    for t in np.linspace(0, scn.T, scn.N + 1):
        st = scn.data.sigma0(float(t), x)
        if model == KINEMATIC:
            xi0 = st - s0
            g = tensors.norm(tensors.dev(st) - tensors.dev(xi0))
        else:
            mag = tensors.norm(tensors.dev(st))
            xi0 = mag - dev0
            g = mag - xi0
        gap = max(gap, float(g.max()))
    rep = evolution.safety_load_check(_sigma0(scn), params)
    assert rep.passed
    assert gap == pytest.approx(params.kappa - rep.margin, rel=1e-12)


def test_weak_divergence_defect_small_for_generators():
    scn = load_benchmark("mixed-boundary-kinematic", n=8, N=8,
                         allow_coarse_dt=True)
    grid = scn.grid()
    defect = evolution.weak_divergence_defect(grid, scn.data, _sigma0(scn))
    assert defect <= 1e-9


def test_first_order_convergence_to_ode():
    scn64 = load_benchmark("homogeneous-plastic", N=64)
    scn128 = load_benchmark("homogeneous-plastic", N=128)
    grid = scn64.grid()
    params = scn64.material()
    x0 = grid.qp_coords[:1, :1].reshape(1, 2)
    rate = lambda t: scn64.data.strain0(t, x0, tder=1)[0]
    sol = integrate_pointwise_ode(params, rate, (0.0, 1.0), np.zeros(3),
                                  np.zeros(3))
    yT = sol.y[:3, -1]
    errs = []
    for scn in (scn64, scn128):
        hist, _ = evolution.run(scn.grid(), scn.material(), scn.data, scn.T,
                                scn.N)
        errs.append(np.abs(hist.sigma[-1][0, 0] - yT).max())
    assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.4)


def test_run_without_history_matches_run_with():
    # record=None keeps no history and every bit of the energy report
    scn = load_benchmark("homogeneous-plastic", N=16)
    grid = scn.grid()
    params = scn.material()
    _, rep_full = evolution.run(grid, params, scn.data, scn.T, scn.N)
    none_hist, rep_lean = evolution.run(grid, params, scn.data, scn.T, scn.N,
                                        record=None)
    assert none_hist is None
    for f in dataclasses.fields(evolution.EnergyReport):
        full, lean = getattr(rep_full, f.name), getattr(rep_lean, f.name)
        assert full.dtype == lean.dtype and full.shape == lean.shape, f.name
        assert full.tobytes() == lean.tobytes(), f.name


def test_run_single_step_equals_step():
    # N = 1 run is one application of the stepper
    scn = load_benchmark("homogeneous-plastic", N=1, allow_coarse_dt=True)
    grid = scn.grid()
    params = scn.material()
    hist, _ = evolution.run(grid, params, scn.data, scn.T, 1)
    stepper = evolution._Stepper(grid, params, scn.data)
    u0, state0 = evolution.initial_state(grid, params, scn.data)
    u1, _, state1, _, _ = stepper.step(u0, grid.sym_gradient(u0), state0,
                                       0.0, scn.T)
    np.testing.assert_allclose(hist.u[1], u1, atol=0)
    np.testing.assert_allclose(hist.sigma[1], state1.sigma, atol=0)

    # a plastic run hands each step the strain its predecessor returned;
    # a loop that recomputes strain_n from u_n gives the same bits, and
    # the strain a step returns is sym_gradient of the u it returns
    scn = _plastic_scenario("mixed-boundary-kinematic")
    grid, params, data = scn.grid(), scn.material(), scn.data
    hist, energy = evolution.run(grid, params, data, scn.T, scn.N)
    assert energy.overshoot_linf[-1] > KINK_GUARD
    stepper = evolution._Stepper(grid, params, data)
    u, state = evolution.initial_state(grid, params, data)
    u_prev = None
    for k in range(scn.N):
        elastic_n = energy.overshoot_linf[k] <= KINK_GUARD
        u_new, strain, state, _, _ = stepper.step(
            u, grid.sym_gradient(u), state, hist.times[k], hist.dt,
            elastic_n=elastic_n, u_prev=u_prev)
        assert np.array_equal(strain, grid.sym_gradient(u_new)), k
        u_prev, u = u, u_new
        assert np.array_equal(hist.u[k + 1], u), k
        for name in ("sigma", "xi", "ep"):
            assert np.array_equal(getattr(hist, name)[k + 1],
                                  getattr(state, name)), (k, name)


def test_kkt_residual_small_on_solver_output():
    # KKT diagnostics of the penalized solution vanish with mu
    from plastprobe.constitutive import kkt_residual
    scn = load_benchmark("mixed-boundary-kinematic", n=6, N=400, mu=1e-3)
    grid = scn.grid()
    params = scn.material()
    hist, _ = evolution.run(grid, params, scn.data, scn.T, scn.N)
    state = hist.state_at(scn.N)
    rate_ep = (hist.ep[-1] - hist.ep[-2]) / hist.dt
    out = kkt_residual(state, rate_ep, params)
    assert float(out["feasibility"].max()) <= 50 * params.mu
    assert float(out["alignment"].max()) <= 1e-8   # flow is exactly radial
    # complementarity = |rate| * distance stays below rate_scale * O(mu)
    rate_scale = float(tensors.norm(rate_ep).max())
    assert float(out["complementarity"].max()) <= 50 * params.mu * max(
        rate_scale, 1.0)


def _oracle_energy_summary(scn, hist):
    """Headline energy quantities from the pointwise ODE dense output."""
    grid = scn.grid()
    params = scn.material()
    x0 = grid.qp_coords[:1, :1].reshape(1, 2)
    rate = lambda t: scn.data.strain0(t, x0, tder=1)[0]
    sol = integrate_pointwise_ode(params, rate, (0.0, scn.T), np.zeros(3),
                                  np.zeros(3))
    Y = sol.sol(hist.times)
    sig_o, xi_o = Y[:3], Y[3:6]
    area, dt = 2.0, scn.dt
    beta = tensors.dev(sig_o.T) - tensors.dev(xi_o.T)
    exc = np.maximum(tensors.norm(beta) - params.kappa, 0.0)
    sd = np.linalg.norm(np.diff(sig_o, axis=1), axis=0) / dt * np.sqrt(area)
    xd = np.linalg.norm(np.diff(xi_o, axis=1), axis=0) / dt * np.sqrt(area)
    return {
        "e_pen_final": area * exc[-1] ** 2 / params.mu,
        "overshoot_l2_final": np.sqrt(area) * exc[-1],
        "overshoot_linf_final": exc[-1],
        "sup_sigdot": sd.max(),
        "sup_xidot": xd.max(),
        "dissipation_total": float(np.sum(dt * (sd**2 + xd**2))),
    }


@pytest.mark.slow            # two runs of 2048 and 4096 steps
def test_energy_diagnostics_match_ode_oracle_values():
    # headline diagnostics agree with the adaptive pointwise integration;
    # the cumulative dissipation carries an O(dt) contribution from the
    # yield-transition corner, checked at its first-order rate instead
    gaps = {}
    for N in (2048, 4096):
        scn = load_benchmark("homogeneous-plastic", N=N)
        hist, rep = evolution.run(scn.grid(), scn.material(), scn.data,
                                  scn.T, scn.N)
        oracle = _oracle_energy_summary(scn, hist)
        summary = probes.energy_summary(rep)
        assert abs(rep.e_pen[-1] - oracle["e_pen_final"]) <= 1e-5
        assert abs(rep.overshoot_l2[-1] - oracle["overshoot_l2_final"]) <= 1e-5
        assert abs(rep.overshoot_linf[-1]
                   - oracle["overshoot_linf_final"]) <= 1e-5
        assert abs(summary["sup_sigdot"] - oracle["sup_sigdot"]) <= 1e-5
        assert abs(summary["sup_xidot"] - oracle["sup_xidot"]) <= 1e-5
        gaps[N] = abs(summary["dissipation_total"]
                      - oracle["dissipation_total"])
    assert gaps[4096] <= 5e-4
    assert gaps[2048] / gaps[4096] == pytest.approx(2.0, abs=0.5)


def test_three_dimensional_homogeneous_run():
    # d=3 assembly and stepping against the pointwise oracle
    from plastprobe.scenario import parse_scenario_dict
    lam1 = [[0.9, 0.0, 0.0], [0.0, -0.5, 0.0], [0.0, 0.0, -0.4]]
    lam2 = [[0.0, 0.08, 0.0], [0.08, 0.0, 0.0], [0.0, 0.0, 0.0]]
    cfg = {
        "model": "kinematic", "d": 3, "n": 2, "T": 1.0, "N": 32, "mu": 0.05,
        "kappa": 1.0, "elastic": {"type": "identity"},
        "hardening": {"type": "identity"},
        "boundary_mode": "all-dirichlet",
        "data": {"generator": "poly", "terms": [
            {"tpoly": [0.0, 1.0], "linear": lam1},
            {"tpoly": [0.0, 0.0, 1.0], "linear": lam2}]},
        "allow_coarse_dt": True,
    }
    scn = parse_scenario_dict(cfg)
    grid = scn.grid()
    params = scn.material()
    hist, _ = evolution.run(grid, params, scn.data, scn.T, scn.N)
    sig_T = hist.sigma[-1]
    assert np.abs(sig_T - sig_T[0, 0]).max() <= 1e-9
    x0 = grid.qp_coords[:1, :1].reshape(1, 3)
    rate = lambda t: scn.data.strain0(t, x0, tder=1)[0]
    sol = integrate_pointwise_ode(params, rate, (0.0, 1.0), np.zeros(6),
                                  np.zeros(6))
    err = np.abs(sig_T[0, 0] - sol.y[:6, -1]).max()
    assert err <= 5e-3   # 32 backward-Euler steps


def _random_history(d, model):
    grid = fem.build_grid(fem.Geometry(d=d, mode="mixed"), 4)
    rng = np.random.default_rng(45)
    N = 5
    shp = (N + 1, grid.ncells, grid.nqp)
    return evolution.FieldHistory(
        times=np.linspace(0.0, 0.7, N + 1),
        u=rng.standard_normal((N + 1, grid.nnodes, d)),
        sigma=rng.standard_normal(shp + (grid.m,)),
        xi=rng.standard_normal(shp + ((grid.m,) if model == KINEMATIC
                                      else ())),
        ep=np.zeros(shp + (grid.m,)), grid=grid, params=None)


@pytest.mark.parametrize("d, model", [(2, KINEMATIC), (2, ISOTROPIC),
                                      (3, KINEMATIC), (3, ISOTROPIC)])
def test_history_rates_on_a_region_are_the_sliced_full_rates(d, model):
    # the rates of sigma and xi, and grad_u_dot, on a box of cells keep
    # every bit of the full-grid result, cut to that box; read gives
    # every probe field so, its components flattened, a stored one as a
    # view of the history
    hist = _random_history(d, model)
    grid, N = hist.grid, len(hist.times) - 1
    region = tuple(slice(1, c - 1) if j % 2 == 0 else slice(0, c // 2 + 1)
                   for j, c in enumerate(grid.cell_counts))

    def cut(full):
        box = full.reshape(full.shape[:1] + grid.cell_counts + full.shape[2:])
        return box[(slice(None),) + region]

    readers = {"sigma": lambda *a: hist.rate("sigma", *a),
               "xi": lambda *a: hist.rate("xi", *a),
               "grad_u_dot": hist.grad_u_dot}
    for name, read in readers.items():
        full = read()
        assert full.shape[:2] == (N, grid.ncells)
        expected = cut(full)
        got = read(region)
        assert got.shape == expected.shape, name
        assert got.tobytes() == np.ascontiguousarray(expected).tobytes(), name
    wholes = {"sigma": hist.sigma, "xi": hist.xi,
              "sigma_dot": hist.rate("sigma"), "xi_dot": hist.rate("xi"),
              "grad_u_dot": hist.grad_u_dot()}
    assert set(wholes) == set(evolution.SOURCE)
    for name, full in wholes.items():
        expected = cut(full)
        k = math.prod(expected.shape[2 + grid.d:])
        got = hist.read(name, region)
        assert got.shape == expected.shape[:2 + grid.d] + (k,), name
        assert got.tobytes() == np.ascontiguousarray(expected).tobytes(), name
        stored = evolution.SOURCE[name] == name
        assert np.shares_memory(got, full) == stored, name
    with pytest.raises(ValueError, match="unknown field 'ep'"):
        hist.read("ep", region)


@pytest.mark.parametrize("region", [None, (slice(1, 3), slice(0, 2))])
def test_history_rates_on_an_empty_level_slice_are_empty(region):
    hist = _random_history(2, KINEMATIC)
    grid = hist.grid
    box = ((grid.ncells,) if region is None
           else tuple(s.stop - s.start for s in region))
    rate = hist.rate("sigma", region, levels=slice(2, 2))
    grad = hist.grad_u_dot(region, levels=slice(2, 2))
    assert rate.shape == (0,) + box + (grid.nqp, grid.m)
    assert grad.shape == (0,) + box + (grid.nqp, grid.d, grid.d)


def test_setup_leaves_no_quadrature_point_stress_in_the_memo():
    # sigma0 at the quadrature points is read at set-up only: validate
    # and run keep no memo entry for it, while every point set a step
    # reads stays memoized, and the values keep every bit
    from plastprobe.scenario import validate
    scn = load_benchmark("mixed-boundary-kinematic", n=6, N=3,
                         allow_coarse_dt=True)
    grid, data = scn.grid(), scn.data
    assert validate(scn) == []
    hist, _ = evolution.run(grid, scn.material(), data, scn.T, scn.N)
    keys = set(data._memo)
    assert ("grad", id(grid.qp_points)) not in keys
    for key in (("hess", id(grid.qp_points)),
                ("grad", id(grid.face_qp_points)),
                ("value", id(grid.dirichlet_points))):
        assert key in keys
    memoized = data.sigma0(0.0, grid.qp_points)
    assert hist.sigma[0].tobytes() == memoized.tobytes()
    assert _sigma0(scn).tobytes() == memoized.tobytes()
