"""Rothe stepping: stationarity, elastic consistency, ODE oracle, invariants."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from plastprobe import evolution, fem, probes, tensors
from plastprobe.constitutive import (ISOTROPIC, KINEMATIC, KINK_GUARD,
                                     SolverFailure, local_update,
                                     yield_excess)
from plastprobe.scenario import load_benchmark

from oracles import integrate_pointwise_ode, kkt_residual


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
        u, _, _, iters, _, rel = stepper.step(u0, grid.sym_gradient(u0),
                                              state0, 0.0, scn.T / scn.N)
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

    def direct(grid, D, factor=None, rtol=None, iterations=None):
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
    # every plastic tangent K is solved to the safeguarded forcing term
    # eta = max(CG_RTOL, min(FORCING_MAX, max(|r| / scale,
    # 0.5 NEWTON_RTOL scale / |r|))), and the CG correction meets it:
    # |(K du + r)_free| <= eta |r_free|
    scn = _plastic_scenario("mixed-boundary-kinematic")
    grid, params, data = scn.grid(), scn.material(), scn.data
    real = fem.Grid.make_solver
    solves = []

    def recording(grid, D, factor, **kwargs):
        solve = real(grid, D, factor, **kwargs)
        if D is None:
            return solve
        K = grid.assemble_tangent(D)

        def recorded(rhs):
            du = solve(rhs)
            solves.append((K, kwargs["rtol"], rhs, du))
            return du
        return recorded

    monkeypatch.setattr(fem.Grid, "make_solver", recording)
    stepper = evolution._Stepper(grid, params, data)
    u, state = evolution.initial_state(grid, params, data)
    times = np.linspace(0.0, scn.T, scn.N + 1)
    dt = scn.T / scn.N
    free, dir_nodes = grid.free_dofs, grid.dirichlet_nodes
    a_inv = params.elastic.inverse()
    etas, u_prev, u_prev2, extrapolated, safeguarded = [], None, None, 0, 0
    for k in range(scn.N):
        # driven as run() drives it: the regime of state_n picks the
        # predictor, and plastic states extrapolate from u_prev and
        # u_prev2
        elastic_n = yield_excess(state, params).max() <= KINK_GUARD
        t1 = times[k] + dt
        load = grid.load_vector(data, t1)
        strain_n = grid.sym_gradient(u)

        def force(sigma):
            r = grid.internal_force(sigma) - load
            r[grid.dirichlet_dofs] = 0.0
            return r

        def residual(v):
            return force(local_update(state, grid.sym_gradient(v) - strain_n,
                                      dt, params).sigma)

        # the scale: the internal force of the elastic trial stress at
        # the unpredicted start, or of the start's own stress on an
        # elastic-state step whose start stays within KINK_GUARD of yield
        u0 = u.copy()
        u0[dir_nodes] = data.u0(t1, grid.nodes[dir_nodes])
        deps = grid.sym_gradient(u0) - strain_n
        sigma = state.sigma + a_inv.apply(deps)
        upd = local_update(state, deps, dt, params)
        if elastic_n and yield_excess(upd, params).max() <= KINK_GUARD:
            sigma = upd.sigma
        r_trial = force(sigma)
        scale = max(np.linalg.norm(load[free]),
                    np.linalg.norm(grid.internal_force(sigma)[free]), 1e-12)
        r_pred = None
        if not elastic_n and u_prev is not None:
            u_pred = (2.0 * u - u_prev if u_prev2 is None
                      else 3.0 * (u - u_prev) + u_prev2)
            u_pred[dir_nodes] = u0[dir_nodes]
            r_pred = np.linalg.norm(residual(u_pred)[free])
        solves.clear()
        u_prev2, u_prev, (u, _, state, _, _, _) = u_prev, u, stepper.step(
            u, strain_n, state, times[k], dt, elastic_n=elastic_n,
            u_prev=u_prev, u_prev2=u_prev2)
        for K, eta, rhs, du in solves:
            rnorm = np.linalg.norm(rhs[free])
            guard = 0.5 * evolution.NEWTON_RTOL * scale / rnorm
            assert eta == pytest.approx(
                max(fem.CG_RTOL, min(evolution.FORCING_MAX,
                                     max(rnorm / scale, guard))), rel=1e-12)
            assert np.linalg.norm((K @ du - rhs)[free]) <= eta * rnorm
            etas.append(eta)
            safeguarded += (guard > rnorm / scale
                            and eta == pytest.approx(guard, rel=1e-12))
        # a kept extrapolation hands CG its own residual, below the
        # elastic trial stress's
        if r_pred is not None and solves:
            first = np.linalg.norm(solves[0][2][free])
            extrapolated += (r_pred < np.linalg.norm(r_trial[free])
                             and first == pytest.approx(r_pred, rel=1e-12))
    assert etas, "the scenario has no plastic Newton iteration"
    assert extrapolated, "no plastic solve started from an extrapolation"
    assert safeguarded, "the safeguard set no forcing term"
    assert etas[0] == evolution.FORCING_MAX
    assert min(etas) >= fem.CG_RTOL
    assert min(etas) < evolution.FORCING_MAX


def test_plastic_state_step_updates_once_per_solve(monkeypatch):
    # given the true u_prev and u_prev2, a plastic-state step forms one
    # residual at its kept extrapolation and one per Newton correction:
    # the unpredicted start's local update is skipped
    scn = _plastic_scenario("mixed-boundary-kinematic")
    grid, params, data = scn.grid(), scn.material(), scn.data
    hist, energy = evolution.run(grid, params, data, scn.T, scn.N)
    plastic = np.flatnonzero(energy.overshoot_linf[:-1] > KINK_GUARD)
    assert plastic.size and plastic[0] > 0
    calls = []
    real_update = evolution.local_update

    def counting_update(*args, **kwargs):
        calls.append(1)
        return real_update(*args, **kwargs)

    monkeypatch.setattr(evolution, "local_update", counting_update)
    stepper = evolution._Stepper(grid, params, data)
    for k in plastic:
        calls.clear()
        u, _, _, iters, _, _ = stepper.step(
            hist.u[k], grid.sym_gradient(hist.u[k]), hist.state_at(k),
            hist.times[k], hist.dt, u_prev=hist.u[k - 1],
            u_prev2=hist.u[k - 2] if k > 1 else None)
        assert iters > 0, k
        assert len(calls) == iters + 1, k
        np.testing.assert_array_equal(u, hist.u[k + 1])


def test_steps_call_no_planned_einsum(monkeypatch):
    # a step's contractions are the matmuls of einsum's plans, with no
    # einsum (which re-plans on every call); only the unplanned ones stay
    # (h1_norm_sq, the CG product).  The stepper is built first: its
    # factorization assembles the stiffness by a planned einsum
    scn = load_benchmark("mixed-boundary-kinematic", n=4, N=4, mu=0.2,
                         allow_coarse_dt=True)
    grid, params, data = scn.grid(), scn.material(), scn.data
    hist, energy = evolution.run(grid, params, data, scn.T, scn.N)
    # level 0 is elastic and level 3 plastic
    assert energy.overshoot_linf[0] <= KINK_GUARD < energy.overshoot_linf[3]
    stepper = evolution._Stepper(grid, params, data)
    real = np.einsum

    def unplanned(*operands, optimize=False, **kwargs):
        if optimize:
            raise AssertionError("planned einsum in a step")
        return real(*operands, **kwargs)

    monkeypatch.setattr(np, "einsum", unplanned)
    for k, kwargs in ((0, dict(elastic_n=True)),
                      (3, dict(u_prev=hist.u[2], u_prev2=hist.u[1]))):
        u, _, state, _, cg, _ = stepper.step(
            hist.u[k], grid.sym_gradient(hist.u[k]), hist.state_at(k),
            hist.times[k], hist.dt, **kwargs)
        assert (cg > 0) == (k == 3)
        np.testing.assert_array_equal(u, hist.u[k + 1])
        np.testing.assert_array_equal(state.sigma, hist.sigma[k + 1])


def test_cg_iterations_are_recorded_per_step(monkeypatch):
    # the recorded CG iterations are the iterations scipy's cg reports
    # through its callback, step by step; elastic steps take none
    real_cg = fem.sparse_linalg.cg
    counted = []

    def counting_cg(A, b, *args, **kwargs):
        def count(_xk):
            counted[-1] += 1
        counted.append(0)
        return real_cg(A, b, *args, callback=count, **kwargs)

    monkeypatch.setattr(fem.sparse_linalg, "cg", counting_cg)
    scn = _plastic_scenario("mixed-boundary-kinematic")
    _, energy = evolution.run(scn.grid(), scn.material(), scn.data, scn.T,
                              scn.N, record=None)
    assert energy.cg_iterations.shape == (scn.N,)
    assert energy.cg_iterations.sum() == sum(counted) > 0
    assert len(counted) <= energy.newton_iters.sum()
    elastic = energy.overshoot_linf[1:] == 0.0
    assert elastic.any() and not energy.cg_iterations[elastic].any()


def test_plastic_run_assembles_stiffness_once(monkeypatch):
    # only the elastic stiffness is assembled, to be factored; every
    # plastic tangent reaches CG as a modulus field
    assembled, plastic = [], []
    real_assemble = fem.Grid.assemble_tangent
    real_solver = fem.Grid.make_solver

    def assemble(grid, D):
        assembled.append(D)
        return real_assemble(grid, D)

    def make_solver(grid, D, factor, **kwargs):
        if D is not None:
            plastic.append(D)
        return real_solver(grid, D, factor, **kwargs)

    monkeypatch.setattr(fem.Grid, "assemble_tangent", assemble)
    monkeypatch.setattr(fem.Grid, "make_solver", make_solver)
    scn = _plastic_scenario("mixed-boundary-isotropic")
    evolution.run(scn.grid(), scn.material(), scn.data, scn.T, scn.N)
    assert plastic, "the scenario has no plastic Newton iteration"
    assert len(assembled) == 1


def _record_measurements(monkeypatch):
    """Lists of the states local_update returned, of those consistent_tangent
    linearized at, and of every yield-excess measurement (memo misses)."""
    from plastprobe import constitutive
    updated, linearized, measured = [], [], []
    real_update = evolution.local_update
    real_tangent = evolution.consistent_tangent
    real_measure = constitutive._measure_excess

    def update(*args, **kwargs):
        updated.append(real_update(*args, **kwargs))
        return updated[-1]

    def tangent(*args, updated=None, **kwargs):
        linearized.append(updated)
        return real_tangent(*args, updated=updated, **kwargs)

    def measure(state, params):
        measured.append(state)
        return real_measure(state, params)

    monkeypatch.setattr(evolution, "local_update", update)
    monkeypatch.setattr(evolution, "consistent_tangent", tangent)
    monkeypatch.setattr(constitutive, "_measure_excess", measure)
    return updated, linearized, measured


def _ids(states):
    return [id(s) for s in states]


def test_elastic_run_measures_no_updated_state(monkeypatch):
    # below yield every local update returns its trial state with the
    # excess already known: the regime checks and the energy accumulator
    # measure only the initial state
    updated, linearized, measured = _record_measurements(monkeypatch)
    scn = load_benchmark("elastic-only", n=4, N=6)
    _, energy = evolution.run(scn.grid(), scn.material(), scn.data, scn.T,
                              scn.N)
    assert len(updated) >= 2 * scn.N and not linearized
    assert not energy.overshoot_linf.any()
    assert len(measured) == 1 and id(measured[0]) not in _ids(updated)


@pytest.mark.parametrize("name", ["mixed-boundary-kinematic",
                                  "mixed-boundary-isotropic"])
def test_plastic_run_measures_each_state_once(name, monkeypatch):
    # the lists keep every state alive, so no two share an id
    updated, linearized, measured = _record_measurements(monkeypatch)
    scn = _plastic_scenario(name)
    evolution.run(scn.grid(), scn.material(), scn.data, scn.T, scn.N)
    assert linearized, "the scenario has no plastic Newton iteration"
    counts = Counter(_ids(measured))
    assert max(counts.values()) == 1
    # the tangent reads the excess the step's regime check measured
    assert all(counts[id(s)] == 1 for s in linearized)


def test_elastic_run_never_calls_cg(monkeypatch):
    # elastic steps solve exactly with the cached SuperLU factors, and the
    # band preconditioner of CG is never built
    def no_cg(*args, **kwargs):
        raise AssertionError("CG called on an elastic run")

    def no_band(*args, **kwargs):
        raise AssertionError("band preconditioner built on an elastic run")

    monkeypatch.setattr(fem.sparse_linalg, "cg", no_cg)
    monkeypatch.setattr(fem.Grid, "band_cholesky", no_band)
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
    # carrying the new Dirichlet values: same bits, in every field and
    # in the Newton record, its residual taken against the scale
    # max(|load_free|, |f_int(sigma(u_n))_free|)
    scn = load_benchmark("elastic-only", n=8, N=5)
    grid, params, data = scn.grid(), scn.material(), scn.data
    hist, energy = evolution.run(grid, params, data, scn.T, scn.N)

    solve = grid.make_solver(None, grid.factorize(
        np.linalg.inv(params.elastic.matrix)))
    u, state = evolution.initial_state(grid, params, data)
    dt = scn.T / scn.N
    for k in range(scn.N):
        t1 = hist.times[k] + dt
        load = grid.load_vector(data, t1)
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
        free = grid.free_dofs
        scale = max(np.linalg.norm(load[free]),
                    np.linalg.norm((r + load)[free]), 1e-12)
        u_next = u_start + solve(-r).reshape(grid.nnodes, grid.d)
        r_next, state = residual(u_next)
        u = u_next
        assert energy.newton_iters[k] == 1 and energy.cg_iterations[k] == 0
        assert energy.residual_rel[k] == np.linalg.norm(r_next[free]) / scale
        assert np.array_equal(hist.u[k + 1], u), k
        for name in ("sigma", "xi", "ep"):
            assert np.array_equal(getattr(hist, name)[k + 1],
                                  getattr(state, name)), (k, name)


def test_bad_previous_displacement_is_rejected():
    # the extrapolation 3 (u_n - u_prev) + u_prev2 is kept only if its
    # |r| is below the elastic trial stress's at the unpredicted start: a
    # bad u_prev leaves the step as it is without a predictor, and a
    # non-finite one gives the very bits of no predictor
    scn = _plastic_scenario("mixed-boundary-kinematic")
    grid, params, data = scn.grid(), scn.material(), scn.data
    hist, energy = evolution.run(grid, params, data, scn.T, scn.N)
    k = int(np.flatnonzero(energy.overshoot_linf > KINK_GUARD)[0])
    assert 1 < k < scn.N
    prev2 = hist.u[k - 2]
    stepper = evolution._Stepper(grid, params, data)
    args = (hist.u[k], grid.sym_gradient(hist.u[k]), hist.state_at(k),
            hist.times[k], hist.dt)
    ref = stepper.step(*args)
    u_ref, _, state_ref, iters_ref, _, _ = ref
    _, _, _, iters_good, _, _ = stepper.step(*args, u_prev=hist.u[k - 1],
                                             u_prev2=prev2)
    assert iters_good < iters_ref         # the true u_{n-1} helps
    rng = np.random.default_rng(11)
    bad = hist.u[k] + rng.standard_normal(hist.u[k].shape)
    u_bad, _, state_bad, iters_bad, _, _ = stepper.step(*args, u_prev=bad,
                                                        u_prev2=prev2)
    assert iters_bad <= iters_ref
    np.testing.assert_allclose(u_bad, u_ref, rtol=0, atol=1e-9)
    np.testing.assert_allclose(state_bad.sigma, state_ref.sigma, rtol=0,
                               atol=1e-9)
    for value in (np.nan, np.inf):
        u_prev = hist.u[k - 1].copy()
        u_prev.reshape(-1)[grid.free_dofs[0]] = value
        # inf - inf in the extrapolated strain raises numpy's invalid flag
        with np.errstate(invalid="ignore" if value == np.inf else "warn"):
            out = stepper.step(*args, u_prev=u_prev, u_prev2=prev2)
        for got, want in zip(out[:2] + out[3:], ref[:2] + ref[3:]):
            assert np.array_equal(got, want), value
        for name in ("sigma", "xi", "ep"):
            assert np.array_equal(getattr(out[2], name),
                                  getattr(state_ref, name)), (value, name)


def test_plastic_start_extrapolates_through_three_levels(monkeypatch):
    # from a plastic state, given u_prev and u_prev2, Newton's start is
    # 3 (u_n - u_prev) + u_prev2 with the new Dirichlet values: exact to
    # round-off on displacements quadratic in t, where the linear start
    # is off by twice the second difference; a non-finite u_prev2 gives
    # the bits of u_prev2=None
    scn = _plastic_scenario("mixed-boundary-kinematic")
    grid, params, data = scn.grid(), scn.material(), scn.data
    hist, energy = evolution.run(grid, params, data, scn.T, scn.N)
    k = int(np.flatnonzero(energy.overshoot_linf > KINK_GUARD)[0])
    assert 1 < k < scn.N
    stepper = evolution._Stepper(grid, params, data)
    args = (hist.u[k], grid.sym_gradient(hist.u[k]), hist.state_at(k),
            hist.times[k], hist.dt)
    # levels j = k - 2 .. k + 1 of u_k + (j - k) b + (j - k)^2 c
    rng = np.random.default_rng(12)
    b, c = 1e-2 * rng.standard_normal((2,) + hist.u[k].shape)

    def level(j):
        return hist.u[k] + (j - k) * b + (j - k) ** 2 * c

    real = fem.Grid.sym_gradient
    strained = []
    monkeypatch.setattr(fem.Grid, "sym_gradient",
                        lambda g, u: strained.append(u.copy()) or real(g, u))
    free = ~grid.dirichlet_nodes
    exact = level(k + 1)[free]
    for u_prev2, error in ((level(k - 2), 0.0), (None, 2.0 * c[free])):
        strained.clear()
        stepper.step(*args, u_prev=level(k - 1), u_prev2=u_prev2)
        # the step forms the strain of the unpredicted start, then of the
        # extrapolated one
        start = strained[1]
        np.testing.assert_array_equal(
            start[grid.dirichlet_nodes],
            data.u0(hist.times[k] + hist.dt, grid.dirichlet_points))
        np.testing.assert_allclose(exact - start[free], error, rtol=1e-12,
                                   atol=1e-14)
    monkeypatch.undo()
    ref = stepper.step(*args, u_prev=hist.u[k - 1])
    for value in (np.nan, np.inf, -np.inf):
        u_prev2 = hist.u[k - 2].copy()
        u_prev2.reshape(-1)[grid.free_dofs[0]] = value
        out = stepper.step(*args, u_prev=hist.u[k - 1], u_prev2=u_prev2)
        for got, want in zip(out[:2] + out[3:], ref[:2] + ref[3:]):
            assert np.array_equal(got, want), value
        for name in ("sigma", "xi", "ep"):
            assert np.array_equal(getattr(out[2], name),
                                  getattr(ref[2], name)), (value, name)


def test_quadratic_start_takes_no_more_solves(monkeypatch):
    # the n = 8 kinematic run takes no more linear solves from the
    # quadratic start than from the linear one, and its trajectory agrees
    # with that run's to the Newton tolerance; its solve and CG counts
    # per step are those of the SuperLU-preconditioned CG it replaced
    scn = load_benchmark("mixed-boundary-kinematic", n=8, N=20, mu=0.2,
                         allow_coarse_dt=True)
    grid, params, data = scn.grid(), scn.material(), scn.data
    _, quadratic = evolution.run(grid, params, data, scn.T, scn.N,
                                 record=None)
    assert quadratic.newton_iters.tolist() == [1] * 10 + [3, 3] + [2] * 8
    assert quadratic.cg_iterations.tolist() == [0] * 10 + [5, 7] + [6] * 8
    real = evolution._Stepper.step

    def linear_start(self, *args, u_prev2=None, **kwargs):
        return real(self, *args, **kwargs)

    monkeypatch.setattr(evolution._Stepper, "step", linear_start)
    _, linear = evolution.run(grid, params, data, scn.T, scn.N, record=None)
    assert (quadratic.overshoot_linf[:-1] > KINK_GUARD).sum() > 2
    assert quadratic.newton_iters.sum() <= linear.newton_iters.sum()
    for name in ("e_pen", "overshoot_l2", "sigdot_l2", "udot_h1"):
        np.testing.assert_allclose(getattr(quadratic, name),
                                   getattr(linear, name), rtol=1e-8,
                                   atol=1e-12, err_msg=name)


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
    u1, _, state1, _, _, _ = stepper.step(u0, grid.sym_gradient(u0),
                                          state0, 0.0, scn.T)
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
    u_prev = u_prev2 = None
    for k in range(scn.N):
        elastic_n = energy.overshoot_linf[k] <= KINK_GUARD
        u_new, strain, state, _, _, _ = stepper.step(
            u, grid.sym_gradient(u), state, hist.times[k], hist.dt,
            elastic_n=elastic_n, u_prev=u_prev, u_prev2=u_prev2)
        assert np.array_equal(strain, grid.sym_gradient(u_new)), k
        u_prev2, u_prev, u = u_prev, u, u_new
        assert np.array_equal(hist.u[k + 1], u), k
        for name in ("sigma", "xi", "ep"):
            assert np.array_equal(getattr(hist, name)[k + 1],
                                  getattr(state, name)), (k, name)


def test_kkt_residual_small_on_solver_output():
    # KKT diagnostics of the penalized solution vanish with mu
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
