"""Pointwise backward-Euler update of the penalized hardening flow rules.

Two models are supported:

* kinematic: the back stress is a symmetric tensor xi driven by
  ``Hmat (xi+ - xi-) = dt * P`` with ``P = penalty(dev sigma - dev xi)``;
* isotropic: a scalar yield-surface expansion xi driven by
  ``H (xi+ - xi-) = dt * mu^-1 (|dev sigma| - kappa - xi)_+``.

The stress update always reads ``A (sigma+ - sigma-) + dt * P = deps``
with A the elastic compliance, so the volumetric response is purely
elastic.  When both A and the hardening map are isotropic the implicit
system collapses to one scalar equation (radial return) and is solved in
closed form, vectorized over quadrature points.  General SPD tensors go
through damped_newton, the Newton loop the global Rothe step (evolution)
runs too; every failed solve raises SolverFailure.

A ConstitutiveState is never written in place: an update returns a new
state.  So what is measured on a state can be kept on it, keyed by the
MaterialParams object and the identity of the state's sigma and xi
arrays (_read_kept): the yield excess, which the Rothe step's regime
check, consistent_tangent and the energy accumulator share, and the
radial return's trial data, which the closed-form tangent reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensors
from .tensors import (Tensor4Sym, check_ellipticity, dev, dev_diff,
                      dev_projector, norm)

KINEMATIC = "kinematic"
ISOTROPIC = "isotropic"

NEWTON_BUDGET = 100
RESIDUAL_TOL = 1e-12

# consistent tangent falls back to the elastic branch this close to yield
KINK_GUARD = 1e-10


class SolverFailure(RuntimeError):
    """A failed nonlinear or linear solve: the Rothe step it failed in (set
    by evolution.run; None outside a step), and the iterations taken and
    the final residual norm where known."""

    def __init__(self, message, step_index=None, iterations=None, residual=None):
        super().__init__(message)
        self.step_index = step_index
        self.iterations = iterations
        self.residual = residual

    def __str__(self):
        where = "" if self.step_index is None else f"step {self.step_index}: "
        return where + super().__str__()


def damped_newton(z, res, rn, residual, direction, norm, tol, max_iter):
    """Newton with backtracking from z, whose residual res has norm rn.

    Each iteration halves alpha from 1 while alpha > 1e-6 and takes the
    first z + alpha direction(z, res, rn) whose residual norm is < (1 -
    1e-4 alpha) rn, <= tol or not finite, else the last one.  Stops at
    rn <= tol, at a non-finite rn (no step cures a NaN) or after max_iter
    iterations; returns (z, res, rn, iterations) for the caller to judge.
    """
    iterations = 0
    while tol < rn < np.inf and iterations < max_iter:
        dz = direction(z, res, rn)
        alpha = 1.0
        while alpha > 1e-6:
            z_try = z + alpha * dz
            res_try = residual(z_try)
            rn_try = norm(res_try)
            if rn_try < rn * (1.0 - 1e-4 * alpha) or rn_try <= tol \
                    or not np.isfinite(rn_try):
                break
            alpha *= 0.5
        z, res, rn = z_try, res_try, rn_try
        iterations += 1
    return z, res, rn, iterations


@dataclass(frozen=True)
class MaterialParams:
    """Material data: compliance A, hardening law, yield radius, penalty."""

    elastic: Tensor4Sym
    model: str
    kappa: float
    mu: float
    hardening_tensor: Tensor4Sym | None = None   # kinematic
    hardening_modulus: float | None = None       # isotropic
    c1: float | None = None                      # declared ellipticity constant

    def __post_init__(self):
        if self.model not in (KINEMATIC, ISOTROPIC):
            raise ValueError(f"unknown model {self.model!r}")
        if self.model == KINEMATIC and self.hardening_tensor is None:
            raise ValueError("kinematic model needs a hardening tensor")
        if self.model == ISOTROPIC and self.hardening_modulus is None:
            raise ValueError("isotropic model needs a hardening modulus")
        if self.kappa <= 0.0:
            raise ValueError("kappa must be positive")
        if self.mu <= 0.0:
            raise ValueError("mu must be positive")

    @property
    def d(self) -> int:
        return self.elastic.d

    @property
    def m(self) -> int:
        return self.elastic.matrix.shape[0]

    @property
    def is_fast(self) -> bool:
        """True when the radial-return scalar reduction applies."""
        if not self.elastic.is_isotropic:
            return False
        if self.model == ISOTROPIC:
            return True
        return self.hardening_tensor.is_isotropic

    def default_c1(self) -> float:
        lam = self.elastic.eigenvalues()
        c1 = min(lam[0], 1.0 / lam[-1])
        if self.model == KINEMATIC:
            lh = self.hardening_tensor.eigenvalues()
            c1 = min(c1, lh[0], 1.0 / lh[-1])
        else:
            c1 = min(c1, self.hardening_modulus)
        return float(min(c1, self.kappa))

    def validate(self) -> list[str]:
        """Ellipticity and admissibility checks; returns violation messages."""
        problems = []
        c1 = self.c1 if self.c1 is not None else self.default_c1()
        if c1 <= 0:
            problems.append("declared C1 is not positive")
            return problems
        rep = check_ellipticity(self.elastic, c1)
        if not rep.passed:
            problems.append(
                f"elastic compliance violates ellipticity with C1={c1:g} "
                f"(eigenvalues in [{rep.lam_min:g}, {rep.lam_max:g}])")
        if self.model == KINEMATIC:
            rep = check_ellipticity(self.hardening_tensor, c1)
            if not rep.passed:
                problems.append(
                    f"hardening tensor violates ellipticity with C1={c1:g}")
        elif self.hardening_modulus < c1:
            problems.append(
                f"hardening modulus {self.hardening_modulus:g} below C1={c1:g}")
        if self.kappa < c1:
            problems.append(f"kappa={self.kappa:g} below C1={c1:g}")
        return problems


@dataclass
class ConstitutiveState:
    """Per-point state (sigma, xi, ep); arrays broadcast over leading axes.

    xi has a trailing component axis for the kinematic model and is a
    plain scalar array for the isotropic model.
    """

    sigma: np.ndarray
    xi: np.ndarray
    ep: np.ndarray
    # (params, sigma, xi, excess) of the measurement yield_excess keeps
    _excess: tuple | None = field(default=None, init=False, repr=False,
                                  compare=False)
    # (params, sigma, xi, b_tr, beta_tr): the trial radius and deviator of
    # the radial return that made this state (_fast_update, plastic
    # branch), until consistent_tangent reads them
    _flow: tuple | None = field(default=None, init=False, repr=False,
                                compare=False)

    @classmethod
    def zeros(cls, model: str, d: int, shape: tuple = ()) -> "ConstitutiveState":
        m = tensors.num_components(d)
        xi_shape = shape + (m,) if model == KINEMATIC else shape
        return cls(sigma=np.zeros(shape + (m,)), xi=np.zeros(xi_shape),
                   ep=np.zeros(shape + (m,)))


def beta_of(state: ConstitutiveState, params: MaterialParams) -> np.ndarray:
    """Argument of the penalty: dev sigma - dev xi (kinematic) or dev sigma."""
    if params.model == KINEMATIC:
        return dev_diff(state.sigma, state.xi)
    return dev(state.sigma)


def yield_excess(state: ConstitutiveState, params: MaterialParams) -> np.ndarray:
    """(|beta| - kappa)_+ resp. (|dev sigma| - kappa - xi)_+, >= 0.

    Read-only, and kept on the state (see the module docstring): another
    params, or a state whose sigma or xi was reassigned, is measured again.
    """
    kept = _read_kept(state._excess, state, params)
    if kept is not None:
        return kept[0]
    return _keep_excess(state, params, _measure_excess(state, params))


def _read_kept(memo, state, params):
    """The data of memo = (params, sigma, xi, *data) if it was kept under
    this params object for the state's current sigma and xi, else None."""
    if memo is not None and memo[0] is params and memo[1] is state.sigma \
            and memo[2] is state.xi:
        return memo[3:]
    return None


def _measure_excess(state, params):
    if params.model == KINEMATIC:
        excess = np.maximum(norm(beta_of(state, params)) - params.kappa, 0.0)
    else:
        excess = np.maximum(norm(dev(state.sigma)) - params.kappa - state.xi,
                            0.0)
    return np.asarray(excess)


def _keep_excess(state, params, excess):
    excess.flags.writeable = False
    state._excess = (params, state.sigma, state.xi, excess)
    return excess


def _fast_update(state: ConstitutiveState, deps: np.ndarray, dt: float,
                 params: MaterialParams) -> ConstitutiveState:
    """Closed-form radial return for isotropic A and isotropic hardening.

    When no trial point yields (a NaN yields) and the state needs no
    broadcasting, returns the trial state with its zero excess kept.
    Otherwise the returned state keeps the trial radius b_tr and the
    trial deviator beta_tr (dev sigma_tr - dev xi_n, resp. dev sigma_tr),
    read-only, for consistent_tangent.  Follows the kernel rule of
    tensors: each field-sized array is one output array, with the bits
    of the plain formula.
    """
    sigma_tr = params.elastic.inverse().apply(deps, add=state.sigma)
    inv_a_dev = 1.0 / params.elastic.dev_modulus
    ratio = dt / params.mu
    kinematic = params.model == KINEMATIC
    unbroadcast = (np.shape(state.ep) == sigma_tr.shape and np.shape(state.xi)
                   == (sigma_tr.shape if kinematic else sigma_tr.shape[:-1]))

    if kinematic:
        inv_h_dev = 1.0 / params.hardening_tensor.dev_modulus
        beta_tr = dev_diff(sigma_tr, state.xi)
        b_tr = norm(beta_tr)
        if unbroadcast and np.all(b_tr <= params.kappa):
            return _trial_state(sigma_tr, state, params)
        c = inv_a_dev + inv_h_dev
        # radial equation: b + ratio*c*(b-kappa)_+ = b_tr
        excess = np.maximum(b_tr - params.kappa, 0.0) / (1.0 + ratio * c)
        q = excess / params.mu
    else:
        beta_tr = dev(sigma_tr)
        b_tr = norm(beta_tr)
        g_tr = b_tr - params.kappa - state.xi
        if unbroadcast and np.all(g_tr <= 0.0):
            return _trial_state(sigma_tr, state, params)
        c = inv_a_dev + 1.0 / params.hardening_modulus
        g = np.maximum(g_tr, 0.0) / (1.0 + ratio * c)
        q = g / params.mu
    denom = np.where(b_tr > 0.0, b_tr, 1.0)
    p_vec = (q / denom)[..., None] * beta_tr            # P = q * n
    # sigma = sigma_tr - (dt / a) P, xi = xi_n + (dt / h) P resp. xi_n +
    # dt q / H, ep = ep_n + dt P; p_vec has the shape of sigma and of the
    # kinematic xi
    sigma = np.multiply(dt * inv_a_dev, p_vec)
    np.subtract(sigma_tr, sigma, out=sigma)
    del sigma_tr                        # freed before xi is allocated
    if kinematic:
        xi = np.multiply(dt * inv_h_dev, p_vec)
        np.add(state.xi, xi, out=xi)
    else:
        xi = state.xi + dt * q / params.hardening_modulus
    # p_vec's last use: its buffer takes dt P, then ep (unbroadcast, ep_n
    # has p_vec's shape)
    ep = np.multiply(dt, p_vec, out=p_vec)
    ep = np.add(state.ep, ep, out=ep if unbroadcast else None)
    new = ConstitutiveState(sigma=sigma, xi=xi, ep=ep)
    b_tr = np.asarray(b_tr)
    for a in (b_tr, beta_tr):
        a.flags.writeable = False
    new._flow = (params, sigma, xi, b_tr, beta_tr)
    return new


def _trial_state(sigma_tr, state, params):
    """(sigma_tr, xi_n, ep_n): the radial return where no point yields, up
    to the signs of zeros; its excess, measured, is all +0.0."""
    trial = ConstitutiveState(sigma=sigma_tr, xi=state.xi, ep=state.ep)
    _keep_excess(trial, params, np.zeros(np.shape(trial.ep)[:-1]))
    return trial


def _local_jacobian(sigma, xi, dt, params):
    """Jacobian of the general local system in (sigma, xi), batched over points.

    sigma is (n, m); xi is (n, m) for the kinematic and (n,) for the
    isotropic model.  Returns (n, 2m, 2m) resp. (n, m+1, m+1).  Points on
    or inside the yield surface get the elastic block diag(A, H).
    """
    m = params.m
    Pd = dev_projector(params.d)
    kinematic = params.model == KINEMATIC
    beta = dev_diff(sigma, xi) if kinematic else dev(sigma)
    b = norm(beta)
    denom = np.where(b > 0.0, b, 1.0)
    nvec = beta / denom[:, None]
    nn = nvec[:, :, None] * nvec[:, None, :]
    k = m if kinematic else 1
    J = np.zeros((b.size, m + k, m + k))
    J[:, :m, :m] = params.elastic.matrix
    if kinematic:
        # dP/dbeta restricted to deviators; P = mu^-1 (|beta| - kappa)_+ n
        act = np.flatnonzero(b > params.kappa)
        kb = (params.kappa / denom[act])[:, None, None]
        dP = ((1.0 - kb) * Pd + kb * nn[act]) / params.mu
        J[:, m:, m:] = params.hardening_tensor.matrix
        cross = -dt * dP
        J[act, m:, m:] += dt * dP
    else:
        # b = |dev sigma|; g = |dev sigma| - kappa - xi drives xi
        g = b - params.kappa - xi
        act = np.flatnonzero((b > 0.0) & (g > 0.0))
        dP = (nn[act] + (g[act] / denom[act])[:, None, None]
              * (Pd - nn[act])) / params.mu
        J[:, m, m] = params.hardening_modulus
        cross = (-dt / params.mu * nvec[act])[:, :, None]
        J[act, m, m] += dt / params.mu
    J[act, :m, :m] += dt * dP
    J[act, :m, m:] = cross
    J[act, m:, :m] = cross.transpose(0, 2, 1)
    return J


def _general_update_point(sigma0, xi0, ep0, deps, dt, params):
    """Damped Newton on the full implicit system at one point."""
    m = params.m
    A = params.elastic.matrix
    kinematic = params.model == KINEMATIC
    H = (params.hardening_tensor.matrix if kinematic
         else float(params.hardening_modulus))
    z = np.concatenate([sigma0 + np.linalg.inv(A) @ deps, np.atleast_1d(xi0)])

    scale = max(1.0, float(norm(deps)), float(norm(sigma0)))
    tol = RESIDUAL_TOL * scale

    def residual(zv):
        sig = zv[:m]
        if kinematic:
            xi = zv[m:]
            p = tensors.penalty(dev(sig) - dev(xi), params.kappa, params.mu)
            r1 = A @ (sig - sigma0) + dt * p - deps
            r2 = H @ (xi - xi0) - dt * p
            return np.concatenate([r1, r2])
        xi = zv[m]
        sd = dev(sig)
        s = float(norm(sd))
        g = max(s - params.kappa - xi, 0.0)
        nvec = sd / s if s > 0 else np.zeros(m)
        r1 = A @ (sig - sigma0) + dt * (g / params.mu) * nvec - deps
        r2 = H * (xi - xi0) - dt * g / params.mu
        return np.concatenate([r1, [r2]])

    def direction(zv, r, rn):
        xi = zv[None, m:] if kinematic else zv[m:]
        return np.linalg.solve(
            _local_jacobian(zv[None, :m], xi, dt, params)[0], -r)

    r = residual(z)
    z, r, rn, iters = damped_newton(z, r, np.linalg.norm(r), residual,
                                    direction, np.linalg.norm, tol,
                                    NEWTON_BUDGET)
    if not rn <= tol:                  # also a NaN residual
        raise SolverFailure(
            f"local update failed to converge (residual {rn:.3e}, tol {tol:.3e}); "
            "dt/mu may be too extreme", iterations=iters, residual=rn)

    sigma = z[:m]
    if kinematic:
        xi = z[m:]
        return sigma, xi, ep0 + H @ (xi - xi0)
    return sigma, float(z[m]), ep0 + (deps - A @ (sigma - sigma0))


def local_update(state: ConstitutiveState, deps: np.ndarray, dt: float,
                 params: MaterialParams) -> ConstitutiveState:
    """Advance the state by one backward-Euler step of the penalized flow rule.

    state is the state at the previous time level, its arrays possibly
    with leading batch axes; deps (..., m) the strain increment E(u+) -
    E(u-) in Mandel components; dt > 0 the time step (else ValueError).
    Returns the unique solution of the implicit system, with scaled
    residual below RESIDUAL_TOL.  Raises SolverFailure on
    non-convergence.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    deps = np.asarray(deps, dtype=float)
    if params.is_fast:
        return _fast_update(state, deps, dt, params)

    batch = deps.shape[:-1]
    m = params.m
    sigma_flat = np.broadcast_to(state.sigma, batch + (m,)).reshape(-1, m)
    ep_flat = np.broadcast_to(state.ep, batch + (m,)).reshape(-1, m)
    deps_flat = deps.reshape(-1, m)
    n_pts = deps_flat.shape[0]
    kinematic = params.model == KINEMATIC
    if kinematic:
        xi_flat = np.broadcast_to(state.xi, batch + (m,)).reshape(-1, m)
        xi_out = np.empty((n_pts, m))
    else:
        xi_flat = np.broadcast_to(state.xi, batch).reshape(-1)
        xi_out = np.empty(n_pts)
    sigma_out = np.empty((n_pts, m))
    ep_out = np.empty((n_pts, m))
    for k in range(n_pts):
        sigma_out[k], xi_out[k], ep_out[k] = _general_update_point(
            sigma_flat[k], xi_flat[k], ep_flat[k], deps_flat[k], dt, params)
    xi_shape = batch + (m,) if kinematic else batch
    return ConstitutiveState(sigma=sigma_out.reshape(batch + (m,)),
                             xi=xi_out.reshape(xi_shape),
                             ep=ep_out.reshape(batch + (m,)))


def consistent_tangent(state: ConstitutiveState, deps: np.ndarray, dt: float,
                       params: MaterialParams,
                       updated: ConstitutiveState | None = None) -> np.ndarray:
    """d sigma+ / d deps, batched over leading axes of deps; shape (..., m, m).

    Linearizes the implicit system at the converged state: in closed
    form (Simo & Taylor 1985) when params.is_fast, by a batched linear
    solve otherwise.  Points within KINK_GUARD of the yield surface use
    the elastic branch (either one-sided derivative keeps the global
    Newton convergent); the active set and q come from yield_excess.
    The closed form reads its flow direction and trial radius from the
    trial data the radial return kept on updated, and drops them from
    updated once read; it measures the deviator of updated when none is
    kept for params and the state's current sigma and xi.  It follows
    the kernel rule of tensors: the bits of the (points, m, m) broadcast
    formula A^-1_ij - (n_i n_j c2 + c1 P_ij), with c1, c2 and n zero on
    the inactive points.
    """
    deps = np.asarray(deps, dtype=float)
    if updated is None:
        updated = local_update(state, deps, dt, params)
    m = params.m
    excess = np.asarray(yield_excess(updated, params)).ravel()
    act = np.flatnonzero(excess > KINK_GUARD)
    a_inv = np.linalg.inv(params.elastic.matrix)
    if act.size == 0 or not params.is_fast:
        out = np.broadcast_to(a_inv, deps.shape[:-1] + (m, m)).copy()
        if act.size:
            xi = np.reshape(updated.xi,
                            (-1, m) if params.model == KINEMATIC else -1)
            J = _local_jacobian(np.reshape(updated.sigma, (-1, m))[act],
                                xi[act], dt, params)
            # d(sigma, xi)/d deps solves J X = (I, 0)
            rhs = np.broadcast_to(np.eye(J.shape[-1], m),
                                  J.shape[:-1] + (m,))
            out.reshape(-1, m, m)[act] = np.linalg.solve(J, rhs)[:, :m]
        return out

    # radial return: sigma = sigma_tr - (dt/a) q n, with a the deviatoric
    # modulus of A, q = excess/mu affine in the trial radius
    # b_tr = |beta| + dt q c_tr, and n = beta/|beta| = beta_tr/b_tr;
    # differentiating gives d sigma/d deps = A^-1 - c1 P_dev - c2 n (x) n.
    inv_a = 1.0 / params.elastic.dev_modulus
    if params.model == KINEMATIC:
        inv_h = 1.0 / params.hardening_tensor.dev_modulus
        c_tr = inv_a + inv_h
    else:
        inv_h = 1.0 / params.hardening_modulus
        c_tr = inv_a
    q = excess[act] / params.mu
    kept = _read_kept(updated._flow, updated, params)
    if kept is None:
        beta = np.take(np.reshape(beta_of(updated, params), (-1, m)), act,
                       axis=0)
        b = norm(beta)
        nvec = beta / np.where(b > 0, b, 1.0)[:, None]
        b_tr = b + dt * q * c_tr
    else:
        # an active point has b_tr > kappa > 0
        b_tr = kept[0].reshape(-1)[act]
        nvec = np.take(kept[1].reshape(-1, m), act, axis=0)
        nvec /= b_tr[:, None]
        # read once: the trial data then go with this call's temporaries
        # instead of living as long as the state (a lower peak RSS)
        updated._flow = None
    c1_act = dt * inv_a**2 * q / b_tr
    c2_act = dt * inv_a**2 / (params.mu + dt * (inv_a + inv_h)) - c1_act
    # as flat point columns; an inactive point's entries are A^-1_ij -
    # (+0.0), i.e. A^-1_ij
    npts = excess.size
    c1, c2 = np.zeros(npts), np.zeros(npts)
    c1[act], c2[act] = c1_act, c2_act
    n = np.zeros((m, npts))
    # one 1-D scatter per component: faster than n[:, act] = nvec.T
    for i in range(m):
        n[i, act] = nvec[:, i]
    # c1 P_ij for each distinct entry of P_dev (0 off the deviatoric block)
    p_dev = dev_projector(params.d)
    c1_p = {v: np.multiply(c1, v) for v in np.unique(p_dev)}
    # A^-1_ij - (n_i n_j c2 + c1 P_ij), filled once per symmetric pair
    out = np.empty(deps.shape[:-1] + (m, m))
    out_flat = out.reshape(npts, m, m)
    col = np.empty(npts)
    for i in range(m):
        for j in range(i, m):
            np.multiply(n[i], n[j], out=col)
            col *= c2
            col += c1_p[p_dev[i, j]]
            np.subtract(a_inv[i, j], col, out=out_flat[:, i, j])
            if j != i:
                np.subtract(a_inv[j, i], col, out=out_flat[:, j, i])
    return out

