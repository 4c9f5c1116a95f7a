"""Property tests of the local backward-Euler update (hypothesis).

Invariants checked on generated materials, feasible previous states,
strain increments and step ratios dt/mu from 1e-6 to 1e8:

* the trace of ep does not change (plastic flow is deviatoric);
* the discrete dissipation is non-negative: from a feasible state,
  deps . ds - A ds . ds - (hardening quadratic of dxi) >= 0;
* no overshoot: the yield excess of the update never exceeds the one of
  the elastic trial state, and the update stays on the trial side.

Both paths take every ratio.  The radial-return path (isotropic
tensors) always returns.  The damped-Newton path (general SPD tensors)
raises SolverFailure ("dt/mu may be too extreme") for most problems
from 1e4 on; that is allowed, but a state it returns must meet every
invariant, so an unconverged update never passes as converged.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from plastprobe import tensors  # noqa: E402
from plastprobe.constitutive import (ISOTROPIC, KINEMATIC,  # noqa: E402
                                     ConstitutiveState, MaterialParams,
                                     SolverFailure, beta_of, local_update,
                                     yield_excess)
from plastprobe.tensors import Tensor4Sym, dev, inner, norm  # noqa: E402

from oracles import random_spd_tensor4  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None,
                             derandomize=True, database=None)
NPTS = 6


def log_uniform(lo, hi):
    """10**e between the powers of ten lo and hi: a decade, then a point in
    it, so that every decade is drawn about as often (a float drawn on
    [log10 lo, log10 hi] seldom reaches the top decades)."""
    decades = range(round(np.log10(lo)), round(np.log10(hi)))
    return st.tuples(st.sampled_from(decades), st.floats(0.0, 1.0)).map(
        lambda p: 10.0 ** (p[0] + p[1]))


@st.composite
def local_problems(draw, fast):
    """(params, feasible previous state, deps, dt) for NPTS points."""
    d = draw(st.sampled_from([2, 3]))
    model = draw(st.sampled_from([KINEMATIC, ISOTROPIC]))
    m = tensors.num_components(d)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    kappa = draw(st.floats(0.1, 2.0))
    mu = draw(log_uniform(1e-4, 1e2))
    ratio = draw(log_uniform(1e-6, 1e8))
    dt = ratio * mu
    if fast:
        elastic = Tensor4Sym.isotropic(d, draw(st.floats(0.2, 5.0)),
                                       draw(st.floats(0.2, 5.0)))
        hard = Tensor4Sym.isotropic(d, draw(st.floats(0.2, 5.0)),
                                    draw(st.floats(0.2, 5.0)))
    else:
        elastic = random_spd_tensor4(rng, d)
        hard = random_spd_tensor4(rng, d)
    if model == KINEMATIC:
        params = MaterialParams(elastic=elastic, model=model, kappa=kappa,
                                mu=mu, hardening_tensor=hard)
    else:
        params = MaterialParams(elastic=elastic, model=model, kappa=kappa,
                                mu=mu, hardening_modulus=draw(
                                    st.floats(0.2, 5.0)))
    assert params.is_fast == fast

    # a feasible previous state: |beta| <= kappa (+ xi for isotropic)
    sigma = rng.standard_normal((NPTS, m)) * draw(log_uniform(1e-3, 1e1))
    if model == KINEMATIC:
        xi = rng.standard_normal((NPTS, m)) * draw(log_uniform(1e-3, 1e1))
        radius = np.full(NPTS, kappa)
    else:
        xi = rng.uniform(0.0, 2.0, NPTS)
        radius = kappa + xi
    state = ConstitutiveState(sigma=sigma, xi=xi, ep=rng.standard_normal(
        (NPTS, m)))
    b = norm(beta_of(state, params))
    shrink = np.minimum(1.0, radius * rng.uniform(0.0, 1.0, NPTS)
                        / np.where(b > 0, b, 1.0))
    dev_part = dev(sigma) - (dev(xi) if model == KINEMATIC else 0.0)
    state.sigma = sigma - (1.0 - shrink)[:, None] * dev_part
    deps = rng.standard_normal((NPTS, m)) * draw(log_uniform(1e-3, 1e2))
    return params, state, deps, dt


def trial_excess(state, deps, params):
    """Yield excess and beta of the elastic trial state."""
    sigma_tr = state.sigma + params.elastic.inverse().apply(deps)
    trial = ConstitutiveState(sigma_tr, state.xi, state.ep)
    return yield_excess(trial, params), beta_of(trial, params)


def hardening_quadratic(params, dxi):
    if params.model == KINEMATIC:
        return inner(params.hardening_tensor.apply(dxi), dxi)
    return params.hardening_modulus * dxi**2


def check_invariants(params, state, deps, dt):
    new = local_update(state, deps, dt, params)
    scale = 1.0 + norm(deps) + norm(state.sigma) + norm(new.sigma)

    # trace of ep preserved
    assert np.all(np.abs(tensors.tr(new.ep - state.ep)) <= 1e-11 * scale)

    # discrete dissipation >= 0 from a feasible state
    ds = new.sigma - state.sigma
    dissipation = (inner(deps, ds) - inner(params.elastic.apply(ds), ds)
                   - hardening_quadratic(params, new.xi - state.xi))
    assert np.all(dissipation >= -1e-9 * scale**2)

    # no overshoot above the trial state
    ex_tr, beta_tr = trial_excess(state, deps, params)
    ex_new = yield_excess(new, params)
    assert np.all(ex_new <= ex_tr + 1e-10 * scale)
    return new, beta_tr


@PROPERTY_SETTINGS
@given(local_problems(fast=True))
def test_radial_return_invariants(problem):
    params, state, deps, dt = problem
    new, beta_tr = check_invariants(params, state, deps, dt)
    # radial return: the update keeps the trial direction of beta
    beta = beta_of(new, params)
    lengths = norm(beta) * norm(beta_tr)
    assert np.all(inner(beta, beta_tr) >= lengths - 1e-10 * (1.0 + lengths))


@PROPERTY_SETTINGS
@given(local_problems(fast=False))
def test_damped_newton_invariants(problem):
    try:
        check_invariants(*problem)
    except SolverFailure:
        pass
