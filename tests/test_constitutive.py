"""Local backward-Euler update: spec examples, oracles, tangent, KKT."""

import numpy as np
import pytest

from plastprobe import tensors
from plastprobe.constitutive import (ISOTROPIC, KINEMATIC, KINK_GUARD,
                                     ConstitutiveState, MaterialParams,
                                     SolverFailure, consistent_tangent,
                                     damped_newton, local_update,
                                     yield_excess)
from plastprobe.tensors import Tensor4Sym, from_matrix, inner, norm

from oracles import (assert_same_bits, fd_jacobian, kkt_residual,
                     local_system_residual, oracle_local_update,
                     oracle_radial_bisection, random_spd_tensor4)
from test_tensors import SPECIAL, recorded_warnings


def make_params(model=KINEMATIC, d=2, kappa=1.0, mu=1.0, elastic=None,
                hardening=None, H=1.0):
    elastic = elastic or Tensor4Sym.identity_map(d)
    if model == KINEMATIC:
        return MaterialParams(elastic=elastic, model=model, kappa=kappa, mu=mu,
                              hardening_tensor=hardening or Tensor4Sym.identity_map(d))
    return MaterialParams(elastic=elastic, model=model, kappa=kappa, mu=mu,
                          hardening_modulus=H)


def test_elastic_step_below_yield():
    params = make_params()
    state = ConstitutiveState.zeros(KINEMATIC, 2)
    deps = from_matrix(np.diag([0.1, -0.1]))
    new = local_update(state, deps, dt=1.0, params=params)
    np.testing.assert_allclose(new.sigma, deps, atol=1e-15)
    np.testing.assert_allclose(new.xi, 0.0, atol=0)
    np.testing.assert_allclose(new.ep, 0.0, atol=0)


def test_plastic_kinematic_spec_value():
    # dt/mu = 1, A = H = identity, deps = diag(2,-2):
    # gamma * (1 + 2 dt/mu) = (dt/mu) (|deps| - kappa)
    params = make_params(mu=1.0)
    state = ConstitutiveState.zeros(KINEMATIC, 2)
    deps = from_matrix(np.diag([2.0, -2.0]))
    new = local_update(state, deps, dt=1.0, params=params)
    gamma = (2 * np.sqrt(2.0) - 1.0) / 3.0
    nvec = deps / norm(deps)
    np.testing.assert_allclose(new.sigma, deps - gamma * nvec, atol=1e-12)
    np.testing.assert_allclose(new.xi, gamma * nvec, atol=1e-12)
    # cross-check against the nested-bisection oracle
    sig_o, xi_o = oracle_radial_bisection(state.sigma, state.xi, deps, 1.0, params)
    np.testing.assert_allclose(new.sigma, sig_o, atol=1e-9)
    np.testing.assert_allclose(new.xi, xi_o, atol=1e-9)


def test_plastic_isotropic_spec_value():
    params = make_params(model=ISOTROPIC, H=1.0)
    state = ConstitutiveState.zeros(ISOTROPIC, 2)
    deps = from_matrix(np.diag([2.0, -2.0]))
    new = local_update(state, deps, dt=1.0, params=params)
    gamma = (2 * np.sqrt(2.0) - 1.0) / 3.0
    nvec = deps / norm(deps)
    assert float(new.xi) == pytest.approx(gamma, abs=1e-12)
    np.testing.assert_allclose(new.sigma, deps - gamma * nvec, atol=1e-12)
    sig_o, xi_o = oracle_local_update(state.sigma, state.xi, deps, 1.0, params)
    np.testing.assert_allclose(new.sigma, sig_o, atol=1e-9)
    assert float(new.xi) == pytest.approx(xi_o, abs=1e-9)


def test_volumetric_response_purely_elastic():
    params = make_params(mu=0.01)
    state = ConstitutiveState.zeros(KINEMATIC, 2)
    deps = from_matrix(np.array([[3.0, 1.0], [1.0, -1.5]]))
    new = local_update(state, deps, dt=0.1, params=params)
    # tr sigma follows the elastic law exactly
    assert tensors.tr(new.sigma) == pytest.approx(
        tensors.tr(params.elastic.inverse().apply(deps)), abs=1e-12)
    assert abs(tensors.tr(new.ep)) <= 1e-13


def test_trace_of_ep_preserved_random():
    rng = np.random.default_rng(20)
    for model in (KINEMATIC, ISOTROPIC):
        for d in (2, 3):
            params = make_params(model=model, d=d, mu=0.05)
            m = tensors.num_components(d)
            state = ConstitutiveState.zeros(model, d, shape=(40,))
            deps = rng.standard_normal((40, m)) * 2.0
            new = local_update(state, deps, dt=0.1, params=params)
            np.testing.assert_allclose(tensors.tr(new.ep), 0.0, atol=1e-13)


def test_kinematic_identity_h_xi_equals_ep():
    rng = np.random.default_rng(21)
    for d in (2, 3):
        H = random_spd_tensor4(rng, d)
        A = random_spd_tensor4(rng, d)
        params = MaterialParams(elastic=A, model=KINEMATIC, kappa=1.0, mu=0.05,
                                hardening_tensor=H)
        state = ConstitutiveState.zeros(KINEMATIC, d)
        m = tensors.num_components(d)
        for _ in range(5):
            deps = rng.standard_normal(m) * 1.5
            state = local_update(state, deps, dt=0.2, params=params)
        np.testing.assert_allclose(H.apply(state.xi), state.ep, atol=1e-12)


def test_isotropic_xi_monotone():
    rng = np.random.default_rng(22)
    params = make_params(model=ISOTROPIC, mu=0.02)
    state = ConstitutiveState.zeros(ISOTROPIC, 2, shape=(30,))
    prev = state.xi.copy()
    for _ in range(6):
        deps = rng.standard_normal((30, 3))
        state = local_update(state, deps, dt=0.1, params=params)
        assert np.all(state.xi >= prev - 1e-15)
        prev = state.xi.copy()


def test_local_dissipation_inequality():
    # discrete energy test: A(ds).ds + H-quadratic(dxi) <= deps . ds
    # whenever the previous state is feasible
    rng = np.random.default_rng(23)
    for model in (KINEMATIC, ISOTROPIC):
        params = make_params(model=model, mu=0.1)
        state = ConstitutiveState.zeros(model, 2, shape=(50,))
        deps = rng.standard_normal((50, 3)) * 2.0
        new = local_update(state, deps, dt=0.5, params=params)
        ds = new.sigma - state.sigma
        lhs = inner(params.elastic.apply(ds), ds)
        if model == KINEMATIC:
            dxi = new.xi - state.xi
            lhs = lhs + inner(params.hardening_tensor.apply(dxi), dxi)
        else:
            lhs = lhs + params.hardening_modulus * (new.xi - state.xi) ** 2
        rhs = inner(deps, ds)
        assert np.all(lhs <= rhs + 1e-10)


def test_oracle_equivalence_sample():
    # small sample here; the full 1000-per-combination run lives in acceptance
    rng = np.random.default_rng(24)
    for model in (KINEMATIC, ISOTROPIC):
        for d in (2, 3):
            m = tensors.num_components(d)
            for k in range(25):
                mu = 10 ** rng.uniform(-4, -1)
                if k % 2 == 0:
                    A = Tensor4Sym.isotropic(d, *rng.uniform(0.5, 2.0, 2))
                    hard = Tensor4Sym.isotropic(d, *rng.uniform(0.5, 2.0, 2))
                else:
                    A = random_spd_tensor4(rng, d)
                    hard = random_spd_tensor4(rng, d)
                if model == KINEMATIC:
                    params = MaterialParams(elastic=A, model=model, kappa=1.0,
                                            mu=mu, hardening_tensor=hard)
                else:
                    params = MaterialParams(elastic=A, model=model, kappa=1.0,
                                            mu=mu,
                                            hardening_modulus=rng.uniform(0.5, 2.0))
                state = ConstitutiveState.zeros(model, d)
                deps = rng.standard_normal(m) * rng.uniform(0.5, 3.0)
                dt = mu * rng.uniform(0.3, 3.0)
                new = local_update(state, deps, dt=dt, params=params)
                sig_o, xi_o = oracle_local_update(state.sigma, state.xi, deps,
                                                  dt, params)
                np.testing.assert_allclose(new.sigma, sig_o, atol=1e-9)
                np.testing.assert_allclose(np.atleast_1d(new.xi),
                                           np.atleast_1d(xi_o), atol=1e-9)


def test_stress_update_monotone_in_deps():
    rng = np.random.default_rng(25)
    params = make_params(mu=0.05)
    state = ConstitutiveState.zeros(KINEMATIC, 2)
    for _ in range(100):
        d1 = rng.standard_normal(3) * 2
        d2 = rng.standard_normal(3) * 2
        s1 = local_update(state, d1, 0.1, params).sigma
        s2 = local_update(state, d2, 0.1, params).sigma
        assert inner(s1 - s2, d1 - d2) >= -1e-12


def test_tangent_elastic_regime_is_compliance_inverse():
    params = make_params()
    state = ConstitutiveState.zeros(KINEMATIC, 2)
    deps = from_matrix(np.diag([0.1, -0.1]))
    tang = consistent_tangent(state, deps, 1.0, params)
    np.testing.assert_allclose(tang, np.linalg.inv(params.elastic.matrix),
                               atol=1e-14)


@pytest.mark.parametrize("model", [KINEMATIC, ISOTROPIC])
def test_tangent_matches_finite_differences(model):
    rng = np.random.default_rng(26)
    for d in (2, 3):
        m = tensors.num_components(d)
        if model == KINEMATIC:
            params = MaterialParams(elastic=random_spd_tensor4(rng, d),
                                    model=model, kappa=1.0, mu=0.2,
                                    hardening_tensor=random_spd_tensor4(rng, d))
        else:
            params = MaterialParams(elastic=random_spd_tensor4(rng, d),
                                    model=model, kappa=1.0, mu=0.2,
                                    hardening_modulus=1.3)
        state = ConstitutiveState.zeros(model, d)
        deps = from_matrix(np.diag([2.0, -2.0] if d == 2 else [2.0, -1.0, -1.0]))
        tang = consistent_tangent(state, deps, 0.5, params)
        fd = fd_jacobian(
            lambda e: local_update(state, e, 0.5, params).sigma, deps, h=1e-6)
        np.testing.assert_allclose(tang, fd, rtol=1e-5, atol=1e-7)
        # symmetry from the potential structure of the local problem
        np.testing.assert_allclose(tang, tang.T, atol=1e-10)


@pytest.mark.parametrize("model", [KINEMATIC, ISOTROPIC])
@pytest.mark.parametrize("d", [2, 3])
def test_closed_form_tangent_matches_batched_solve(model, d):
    # isotropic tensors take the closed form; the same matrices without
    # their moduli take the batched solve of the linearized system
    rng = np.random.default_rng(27 + d)
    m = tensors.num_components(d)
    elastic = Tensor4Sym.isotropic(d, dev_modulus=0.7, vol_modulus=0.4)
    hardening = Tensor4Sym.isotropic(d, dev_modulus=1.3, vol_modulus=2.0)
    fast = make_params(model, d, mu=0.05, elastic=elastic,
                       hardening=hardening, H=1.3)
    general = make_params(model, d, mu=0.05,
                          elastic=Tensor4Sym.from_matrix(elastic.matrix),
                          hardening=Tensor4Sym.from_matrix(hardening.matrix),
                          H=1.3)
    assert fast.is_fast and not general.is_fast
    n_dir = tensors.dev(rng.standard_normal((8, m)))
    n_dir /= norm(n_dir)[:, None]
    for ratio in (1e-3, 1e-1, 1.0, 10.0, 500.0):
        dt = ratio * fast.mu
        state = ConstitutiveState.zeros(model, d, (40,))
        state.sigma = 0.3 * rng.standard_normal((40, m))
        deps = 2.0 * rng.standard_normal((40, m))
        # from rest, trial excess g (1 + dt c / mu) leaves excess g:
        # points just above KINK_GUARD
        a = elastic.dev_modulus
        c = 1.0 / a + 1.0 / 1.3
        g = np.array([2e-10, 1e-9, 1e-8, 1e-6] * 2)[:, None]
        near = ConstitutiveState.zeros(model, d, (8,))
        near_deps = a * (fast.kappa + g * (1.0 + ratio * c)) * n_dir
        for st, de in ((state, deps), (near, near_deps)):
            upd = local_update(st, de, dt, fast)
            ref = consistent_tangent(st, de, dt, general, updated=upd)
            tang = consistent_tangent(st, de, dt, fast, updated=upd)
            err = np.linalg.norm(tang - ref, axis=(-2, -1))
            assert np.all(err <= 1e-12 * np.linalg.norm(ref, axis=(-2, -1)))
        excess = yield_excess(local_update(near, near_deps, dt, fast), fast)
        assert np.all(excess > KINK_GUARD)


def _fresh(state):
    """The same arrays in a state that keeps nothing."""
    return ConstitutiveState(state.sigma, state.xi, state.ep)


@pytest.mark.parametrize("model", [KINEMATIC, ISOTROPIC])
@pytest.mark.parametrize("d", [2, 3])
def test_kept_flow_tangent_equals_the_measured_one(model, d, monkeypatch):
    # the closed-form tangent read from the radial return's kept trial
    # data matches the one that measures the returned deviator, also just
    # above KINK_GUARD; a state whose data were read already, whose sigma
    # or xi was reassigned, or that is read under another params object,
    # is measured: bit for bit the tangent of a state that keeps nothing
    import dataclasses

    from plastprobe import constitutive
    rng = np.random.default_rng(50 + d)
    m = tensors.num_components(d)
    elastic = Tensor4Sym.isotropic(d, dev_modulus=0.7, vol_modulus=0.4)
    params = make_params(model, d, mu=0.05, elastic=elastic,
                         hardening=Tensor4Sym.isotropic(d, 1.3, 2.0), H=1.3)
    n_dir = tensors.dev(rng.standard_normal((8, m)))
    n_dir /= norm(n_dir)[:, None]

    def no_measure(*args):
        raise AssertionError("measured a state that keeps its flow")

    for ratio in (1e-3, 1e-1, 1.0, 10.0, 500.0):
        dt = ratio * params.mu
        state = ConstitutiveState.zeros(model, d, (40,))
        state.sigma = 0.3 * rng.standard_normal((40, m))
        deps = 2.0 * rng.standard_normal((40, m))
        c = 1.0 / 0.7 + 1.0 / 1.3
        g = np.array([2e-10, 1e-9, 1e-8, 1e-6] * 2)[:, None]
        near = ConstitutiveState.zeros(model, d, (8,))
        near_deps = 0.7 * (params.kappa + g * (1.0 + ratio * c)) * n_dir
        for st, de in ((state, deps), (near, near_deps)):
            upd = local_update(st, de, dt, params)
            excess = yield_excess(upd, params)
            assert np.all(excess > KINK_GUARD) if st is near \
                else excess.max() > KINK_GUARD
            measured = consistent_tangent(st, de, dt, params,
                                          updated=_fresh(upd))
            with monkeypatch.context() as mp:
                mp.setattr(constitutive, "beta_of", no_measure)
                kept = consistent_tangent(st, de, dt, params, updated=upd)
            err = np.linalg.norm(kept - measured, axis=(-2, -1))
            assert np.all(err <= 1e-12 * np.linalg.norm(measured,
                                                         axis=(-2, -1)))
            # the data are read once: a second tangent measures
            again = consistent_tangent(st, de, dt, params, updated=upd)
            assert again.tobytes() == measured.tobytes()
            # reassigned arrays and other params are measured again
            other = dataclasses.replace(params, mu=2.0 * params.mu)
            cases = [(local_update(st, de, dt, params), other)]
            for name, factor in (("sigma", 1.5), ("xi", 0.5)):
                moved = local_update(st, de, dt, params)
                setattr(moved, name, getattr(moved, name) * factor)
                cases.append((moved, params))
            for moved, prm in cases:
                assert np.any(yield_excess(moved, prm) > KINK_GUARD)
                got = consistent_tangent(st, de, dt, prm, updated=moved)
                ref = consistent_tangent(st, de, dt, prm,
                                         updated=_fresh(moved))
                assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("model", [KINEMATIC, ISOTROPIC])
@pytest.mark.parametrize("d", [2, 3])
def test_local_jacobian_matches_oracle_residual(model, d):
    # the one linearization behind the damped Newton and the general
    # tangent, against finite differences of the independent residual
    from plastprobe.constitutive import _local_jacobian
    rng = np.random.default_rng(30 + d)
    m = tensors.num_components(d)
    params = make_params(model, d, mu=0.3, elastic=random_spd_tensor4(rng, d),
                         hardening=random_spd_tensor4(rng, d), H=1.3)
    dt = 0.7
    sigmas, xis = [], []
    for radius in (2.5, 0.4, 1.8, 0.2):      # plastic / elastic, off the kink
        sigma = rng.standard_normal(m)
        if model == KINEMATIC:
            xi = rng.standard_normal(m)
            beta = tensors.dev(sigma) - tensors.dev(xi)
            sigma = sigma + (radius * params.kappa / norm(beta) - 1.0) * beta
        else:
            # yield excess |dev sigma| - kappa - xi = radius - 1
            xi = float(norm(tensors.dev(sigma))) - params.kappa - (radius - 1.0)
        sigmas.append(sigma)
        xis.append(xi)
        z = np.concatenate([sigma, np.atleast_1d(xi)])
        J = _local_jacobian(sigma[None], np.asarray(xi)[None], dt, params)[0]
        fd = fd_jacobian(lambda zv: local_system_residual(
            zv, sigma, xi, np.zeros(m), dt, params), z)
        np.testing.assert_allclose(J, fd, rtol=1e-6, atol=1e-7)
        if radius < 1.0:
            k = z.size - m
            H = (params.hardening_tensor.matrix if model == KINEMATIC
                 else np.array([[params.hardening_modulus]]))
            np.testing.assert_array_equal(J[:m, :m], params.elastic.matrix)
            np.testing.assert_array_equal(J[m:, m:], H)
            np.testing.assert_array_equal(J[:m, m:], np.zeros((m, k)))
    batched = _local_jacobian(np.array(sigmas), np.array(xis), dt, params)
    stacked = [_local_jacobian(s[None], np.asarray(x)[None], dt, params)[0]
               for s, x in zip(sigmas, xis)]
    np.testing.assert_array_equal(batched, np.array(stacked))


@pytest.mark.parametrize("model", [KINEMATIC, ISOTROPIC])
def test_single_point_tangent_equals_batched_row(model):
    rng = np.random.default_rng(31)
    d, m = 2, 3
    fast = make_params(model, d, mu=0.05,
                       elastic=Tensor4Sym.isotropic(d, 0.7, 0.4),
                       hardening=Tensor4Sym.isotropic(d, 1.3, 2.0), H=1.3)
    general = make_params(model, d, mu=0.05,
                          elastic=random_spd_tensor4(rng, d),
                          hardening=random_spd_tensor4(rng, d), H=1.3)
    state = ConstitutiveState.zeros(model, d)
    state.sigma = 0.3 * rng.standard_normal(m)
    for params in (fast, general):
        a_inv = np.linalg.inv(params.elastic.matrix)
        for deps, plastic in ((from_matrix(np.diag([2.0, -2.0])), True),
                              (0.01 * rng.standard_normal(m), False)):
            upd = local_update(state, deps, 0.1, params)
            upd_row = local_update(state, deps[None], 0.1, params)
            row = consistent_tangent(state, deps[None], 0.1, params,
                                     updated=upd_row)[0]
            assert plastic != np.allclose(row, a_inv)
            for one in (consistent_tangent(state, deps, 0.1, params),
                        consistent_tangent(state, deps, 0.1, params,
                                           updated=upd)):
                assert one.shape == (m, m)
                if params.is_fast:
                    np.testing.assert_array_equal(one, row)
                else:
                    np.testing.assert_allclose(
                        one, row, rtol=0, atol=1e-14 * np.abs(row).max())


def test_tangent_consistency_plastic_spec_example():
    params = make_params(mu=1.0)
    state = ConstitutiveState.zeros(KINEMATIC, 2)
    deps = from_matrix(np.diag([2.0, -2.0]))
    tang = consistent_tangent(state, deps, 1.0, params)
    fd = fd_jacobian(lambda e: local_update(state, e, 1.0, params).sigma,
                     deps, h=1e-6)
    assert np.abs(tang - fd).max() / np.abs(fd).max() < 1e-5
    np.testing.assert_allclose(tang, tang.T, atol=1e-10)


def test_kkt_zero_rate_elastic():
    params = make_params()
    state = ConstitutiveState.zeros(KINEMATIC, 2)
    state.sigma = from_matrix(np.diag([0.3, -0.3]))
    out = kkt_residual(state, np.zeros(3), params)
    assert out["feasibility"] == 0
    assert out["complementarity"] == 0
    assert out["alignment"] == 0


def test_kkt_exact_point_on_surface():
    params = make_params()
    state = ConstitutiveState.zeros(KINEMATIC, 2)
    direction = from_matrix(np.diag([1.0, -1.0]))
    direction /= norm(direction)
    state.sigma = params.kappa * direction
    rate = 0.7 * direction
    out = kkt_residual(state, rate, params)
    assert out["feasibility"] == pytest.approx(0.0, abs=1e-14)
    assert out["complementarity"] == pytest.approx(0.0, abs=1e-14)
    assert out["alignment"] == pytest.approx(0.0, abs=1e-14)


def test_nonconvergence_raises_solver_failure():
    rng = np.random.default_rng(27)
    A = random_spd_tensor4(rng, 2)
    params = MaterialParams(elastic=A, model=KINEMATIC, kappa=1e-8, mu=1e-300,
                            hardening_tensor=random_spd_tensor4(rng, 2))
    state = ConstitutiveState.zeros(KINEMATIC, 2)
    with pytest.raises((SolverFailure, FloatingPointError, ValueError)):
        with np.errstate(all="raise"):
            local_update(state, from_matrix(np.diag([5.0, -5.0])), 1.0, params)


@pytest.mark.parametrize("model", [KINEMATIC, ISOTROPIC])
def test_nan_increment_raises_on_general_path(model):
    # a NaN residual fails both "rn <= tol" and "rn > tol"; it must not
    # come back as a converged state
    rng = np.random.default_rng(28)
    params = make_params(model=model, mu=0.1,
                         elastic=random_spd_tensor4(rng, 2),
                         hardening=random_spd_tensor4(rng, 2))
    assert not params.is_fast
    state = ConstitutiveState.zeros(model, 2, (1,))
    with pytest.raises(SolverFailure):
        local_update(state, np.full((1, 3), np.nan), 0.1, params)


@pytest.mark.parametrize("model", [KINEMATIC, ISOTROPIC])
def test_nan_increment_stops_after_one_residual(model, monkeypatch):
    # the residual norm is the one np.linalg.norm call per evaluation of
    # the residual; a NaN increment must not spend the Newton budget of
    # 100 iterations of 20 line-search halvings
    rng = np.random.default_rng(29)
    params = make_params(model=model, mu=0.1,
                         elastic=random_spd_tensor4(rng, 2),
                         hardening=random_spd_tensor4(rng, 2))
    real_norm = np.linalg.norm
    calls = []

    def counting_norm(*args, **kwargs):
        calls.append(1)
        return real_norm(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    state = ConstitutiveState.zeros(model, 2, (1,))
    with pytest.raises(SolverFailure):
        local_update(state, np.full((1, 3), np.nan), 0.1, params)
    assert len(calls) == 1
    calls.clear()
    # a plastic point still converges through the damped Newton loop
    local_update(state, np.array([[3.0, -3.0, 1.0]]), 0.1, params)
    assert 2 <= len(calls) <= 50


def _arctan_newton(z0, tol, max_iter):
    """damped_newton on arctan z = 0, counting residual evaluations."""
    evals = []

    def residual(z):
        evals.append(z)
        return np.arctan(z)

    def direction(z, r, rn):
        return -(1.0 + z * z) * r

    out = damped_newton(z0, np.arctan(z0), abs(np.arctan(z0)), residual,
                        direction, abs, tol, max_iter)
    return out, len(evals)


def test_damped_newton_converges_through_halvings():
    # from z = 2 the full Newton step on arctan overshoots to z = -3.54,
    # where |arctan| grows: only halved steps converge
    assert abs(2.0 - (1.0 + 4.0) * np.arctan(2.0)) > 2.0
    (z, r, rn, iters), evals = _arctan_newton(2.0, 1e-12, 50)
    assert rn <= 1e-12 and abs(z) <= 1e-12 and r == np.arctan(z)
    assert evals > iters            # at least one trial was halved


def test_damped_newton_stops_at_max_iter():
    # two capped runs of one iteration each end where one run of two does
    (z, _, rn, iters), _ = _arctan_newton(2.0, 1e-300, 2)
    assert iters == 2 and rn > 1e-300
    (z1, _, _, _), _ = _arctan_newton(2.0, 1e-300, 1)
    (z2, _, _, iters), _ = _arctan_newton(z1, 1e-300, 1)
    assert iters == 1 and z2 == z


@pytest.mark.parametrize("start", [np.nan, np.inf])
def test_damped_newton_takes_no_step_from_a_non_finite_start(start):
    def never(*args):
        raise AssertionError("no step may be taken")

    z = np.array([1.0, 2.0])
    out = damped_newton(z, z, start, never, never, never, 1e-12, 100)
    assert out[0] is z and out[2] is start and out[3] == 0


def test_validate_flags_bad_hardening():
    params = MaterialParams(elastic=Tensor4Sym.identity_map(2), model=ISOTROPIC,
                            kappa=1.0, mu=0.1, hardening_modulus=0.1, c1=0.5)
    assert any("hardening" in p for p in params.validate())
    good = MaterialParams(elastic=Tensor4Sym.identity_map(2), model=ISOTROPIC,
                          kappa=1.0, mu=0.1, hardening_modulus=1.0)
    assert good.validate() == []


# -- the kept yield excess and the no-yield exit of the radial return -------

BATCHES = ("elastic", "mixed", "plastic", "nan")


def _radial_return_formula(state, deps, dt, params):
    """The closed-form radial return evaluated at every point, yielding or
    not: sigma_tr - dt a^-1 P, xi + dt h^-1 P (kinematic) resp. xi + dt
    q / H (isotropic), ep + dt P."""
    a_inv = 1.0 / params.elastic.dev_modulus
    inv = params.elastic.inverse()
    sigma_tr = state.sigma + (
        inv.dev_modulus * tensors.dev(deps) + (inv.vol_modulus / inv.d)
        * tensors.tr(deps)[..., None] * tensors.identity(inv.d))
    if params.model == KINEMATIC:
        h_inv = 1.0 / params.hardening_tensor.dev_modulus
        beta = tensors.dev(sigma_tr) - tensors.dev(state.xi)
        g = np.maximum(norm(beta) - params.kappa, 0.0) \
            / (1.0 + dt / params.mu * (a_inv + h_inv))
    else:
        beta = tensors.dev(sigma_tr)
        g = np.maximum(norm(beta) - params.kappa - state.xi, 0.0) \
            / (1.0 + dt / params.mu * (a_inv + 1.0 / params.hardening_modulus))
    b = norm(beta)
    q = g / params.mu
    p_vec = (q / np.where(b > 0.0, b, 1.0))[..., None] * beta
    if params.model == KINEMATIC:
        xi = state.xi + dt * h_inv * p_vec
    else:
        xi = state.xi + dt * q / params.hardening_modulus
    return sigma_tr - dt * a_inv * p_vec, xi, state.ep + dt * p_vec


def _memo_case(model, d, batch, seed=0):
    """Fast-path params, a batch of 12 states inside the yield surface and
    increments under which no point (elastic), every other point (mixed),
    every point (plastic) or a NaN increment's point (nan) yields."""
    rng = np.random.default_rng(seed)
    elastic = Tensor4Sym.isotropic(d, 0.8, 1.7)
    params = make_params(model, d=d, kappa=1.0, mu=0.05, elastic=elastic,
                         hardening=Tensor4Sym.isotropic(d, 1.3, 0.9), H=1.3)
    m = tensors.num_components(d)

    def inside(scale):
        v = rng.standard_normal((12, m))
        return scale * v / norm(v)[:, None]

    xi = inside(0.1) if model == KINEMATIC else rng.uniform(0.0, 0.1, 12)
    state = ConstitutiveState(sigma=inside(0.3), xi=xi,
                              ep=tensors.dev(inside(0.2)))
    size = {"elastic": np.full(12, 0.01), "nan": np.full(12, 0.01),
            "mixed": np.tile([0.01, 5.0], 6), "plastic": np.full(12, 5.0)}
    deps = tensors.dev(inside(1.0)) * size[batch][:, None]
    if batch == "nan":
        deps[3, 0] = np.nan
    return params, state, deps


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("model", [KINEMATIC, ISOTROPIC])
def test_kept_excess_equals_a_fresh_measurement(model, d, batch,
                                                monkeypatch):
    from plastprobe import constitutive
    params, state, deps = _memo_case(model, d, batch)
    new = local_update(state, deps, 0.1, params)
    measured = []
    real = constitutive._measure_excess
    monkeypatch.setattr(constitutive, "_measure_excess",
                        lambda s, p: measured.append(s) or real(s, p))
    excess = yield_excess(new, params)
    # only a batch where no trial point yields comes back measured
    assert len(measured) == (batch != "elastic")
    assert yield_excess(new, params) is excess and len(measured) <= 1
    fresh = yield_excess(ConstitutiveState(new.sigma, new.xi, new.ep), params)
    assert fresh.shape == excess.shape == (12,)
    assert fresh.tobytes() == excess.tobytes()
    assert (excess.max() > 0.0) == (batch in ("mixed", "plastic"))
    assert np.isnan(excess).any() == (batch == "nan")


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("model", [KINEMATIC, ISOTROPIC])
def test_no_yield_exit_equals_the_full_formula(model, d, batch):
    params, state, deps = _memo_case(model, d, batch)
    new = local_update(state, deps, 0.1, params)
    for got, ref in zip((new.sigma, new.xi, new.ep),
                        _radial_return_formula(state, deps, 0.1, params)):
        assert got.shape == ref.shape
        assert np.array_equal(got, ref, equal_nan=True)
    # the exit returns the state's own xi and ep arrays
    exited = batch == "elastic"
    assert (new.xi is state.xi) == exited and (new.ep is state.ep) == exited


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("model", [KINEMATIC, ISOTROPIC])
def test_kept_excess_is_keyed_by_params(model, d):
    import dataclasses
    params, state, deps = _memo_case(model, d, "elastic")
    new = local_update(state, deps, 0.1, params)
    assert not yield_excess(new, params).any()
    # a smaller kappa: the same state yields, and is measured under it
    tight = dataclasses.replace(params, kappa=0.05)
    excess = yield_excess(new, tight)
    assert excess.max() > 0.0
    fresh = yield_excess(ConstitutiveState(new.sigma, new.xi, new.ep), tight)
    assert excess.tobytes() == fresh.tobytes()
    assert not yield_excess(new, params).any()
    # an equal but distinct params object is measured again too
    again = dataclasses.replace(params)
    assert yield_excess(new, again) is not yield_excess(new, params)
    # so is a state whose stress was replaced
    new.sigma = new.sigma * 10.0
    assert yield_excess(new, params).max() > 0.0


@pytest.mark.parametrize("batch", ["elastic", "plastic"])
def test_kept_excess_is_read_only(batch):
    params, state, deps = _memo_case(KINEMATIC, 2, batch)
    excess = yield_excess(local_update(state, deps, 0.1, params), params)
    with pytest.raises(ValueError, match="read-only"):
        excess[0] = 1.0
    scalar = yield_excess(ConstitutiveState.zeros(ISOTROPIC, 2),
                          make_params(ISOTROPIC))
    with pytest.raises(ValueError, match="read-only"):
        scalar[...] = 1.0


def test_broadcast_state_takes_the_full_formula():
    # an unbatched state under batched increments: the result has the
    # batch shape, as the formula broadcasts it, and shares no array
    params = make_params(KINEMATIC)
    state = ConstitutiveState.zeros(KINEMATIC, 2)
    deps = np.full((4, 3), 0.01)
    new = local_update(state, deps, 1.0, params)
    assert new.xi.shape == new.ep.shape == (4, 3)
    assert not yield_excess(new, params).any()


def _closed_form_tangent_formula(updated, dt, params, flow=None):
    """The closed-form tangent as (active points, m, m) broadcasts:
    A^-1 - (n (x) n c2 + c1 P_dev) on the points yielding by more than
    KINK_GUARD, n and b_tr from the kept trial data flow = (b_tr,
    beta_tr) or measured from updated."""
    m = params.m
    excess = yield_excess(updated, params).ravel()
    act = np.flatnonzero(excess > KINK_GUARD)
    out = np.broadcast_to(np.linalg.inv(params.elastic.matrix),
                          excess.shape + (m, m)).copy()
    inv_a = 1.0 / params.elastic.dev_modulus
    kinematic = params.model == KINEMATIC
    if kinematic:
        inv_h = 1.0 / params.hardening_tensor.dev_modulus
        c_tr = inv_a + inv_h
    else:
        inv_h = 1.0 / params.hardening_modulus
        c_tr = inv_a
    q = excess[act] / params.mu
    if flow is None:
        beta = tensors.dev(updated.sigma)
        if kinematic:
            beta = beta - tensors.dev(updated.xi)
        beta = beta.reshape(-1, m)[act]
        b = norm(beta)
        nvec = beta / np.where(b > 0, b, 1.0)[:, None]
        b_tr = b + dt * q * c_tr
    else:
        b_tr = flow[0].reshape(-1)[act]
        nvec = flow[1].reshape(-1, m)[act] / b_tr[:, None]
    c1 = dt * inv_a**2 * q / b_tr
    c2 = dt * inv_a**2 / (params.mu + dt * (inv_a + inv_h)) - c1
    corr = nvec[:, :, None] * nvec[:, None, :] * c2[:, None, None] \
        + c1[:, None, None] * tensors.dev_projector(params.d)
    out.reshape(-1, m, m)[act] -= corr
    return out


def _special_batches(model, d, rng):
    """(state, deps) batches in which some points yield: random, with
    signed zeros, inf and NaN sprinkled over every array, and an
    unbatched (broadcast) state under batched increments."""
    m = tensors.num_components(d)
    n = 300
    for sprinkle in (0.0, 0.05):
        sigma = 0.5 * rng.standard_normal((n, m))
        xi = (0.1 * rng.standard_normal((n, m)) if model == KINEMATIC
              else rng.uniform(0.0, 0.1, n))
        ep = rng.standard_normal((n, m))
        deps = rng.standard_normal((n, m)) * rng.choice([0.01, 1.0, 5.0],
                                                        (n, 1))
        deps[:8] = rng.choice([0.0, -0.0], (8, m))
        for arr in (sigma, xi, ep, deps):
            hit = rng.random(arr.shape) < sprinkle
            arr[hit] = rng.choice(SPECIAL, hit.sum())
        yield ConstitutiveState(sigma, xi, ep), deps
    yield ConstitutiveState.zeros(model, d), 3.0 * rng.standard_normal((n, m))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("model", [KINEMATIC, ISOTROPIC])
def test_radial_return_kernels_are_the_array_formulas(model, d):
    # the radial return and the closed-form tangent, built without
    # field-sized temporaries, give the bits and the floating-point
    # warnings of their array formulas
    rng = np.random.default_rng(80 + d)
    elastic = Tensor4Sym.isotropic(d, 0.8, 1.7)
    params = make_params(model, d=d, kappa=1.0, mu=0.05, elastic=elastic,
                         hardening=Tensor4Sym.isotropic(d, 1.3, 0.9), H=1.3)
    dt = 0.1
    warned = set()
    for state, deps in _special_batches(model, d, rng):
        new, got_w = recorded_warnings(
            lambda: local_update(state, deps, dt, params))
        ref, ref_w = recorded_warnings(
            lambda: _radial_return_formula(state, deps, dt, params))
        assert got_w == ref_w
        warned |= got_w
        for got, want in zip((new.sigma, new.xi, new.ep), ref):
            assert_same_bits(got, want)
        assert new._flow is not None, "no point yields"
        flow = new._flow[3:]
        for updated, kept in ((ConstitutiveState(new.sigma, new.xi, new.ep),
                               None), (new, flow)):
            # the kept excess: the tangents' own warnings are compared
            with np.errstate(all="ignore"):
                yield_excess(updated, params)
            tangent, got_w = recorded_warnings(lambda: consistent_tangent(
                state, deps, dt, params, updated=updated))
            ref, ref_w = recorded_warnings(lambda: _closed_form_tangent_formula(
                updated, dt, params, kept))
            assert got_w == ref_w
            assert_same_bits(tangent, ref)
            warned |= got_w
    assert warned, "no batch raised a floating-point warning"
