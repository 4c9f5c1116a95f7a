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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensors
from .tensors import Tensor4Sym, check_ellipticity, dev, dev_projector, norm

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

    @classmethod
    def zeros(cls, model: str, d: int, shape: tuple = ()) -> "ConstitutiveState":
        m = tensors.num_components(d)
        xi_shape = shape + (m,) if model == KINEMATIC else shape
        return cls(sigma=np.zeros(shape + (m,)), xi=np.zeros(xi_shape),
                   ep=np.zeros(shape + (m,)))


def beta_of(state: ConstitutiveState, params: MaterialParams) -> np.ndarray:
    """Argument of the penalty: dev sigma - dev xi (kinematic) or dev sigma."""
    if params.model == KINEMATIC:
        return dev(state.sigma) - dev(state.xi)
    return dev(state.sigma)


def yield_excess(state: ConstitutiveState, params: MaterialParams) -> np.ndarray:
    """(|beta| - kappa)_+ resp. (|dev sigma| - kappa - xi)_+, >= 0."""
    if params.model == KINEMATIC:
        return np.maximum(norm(beta_of(state, params)) - params.kappa, 0.0)
    return np.maximum(norm(dev(state.sigma)) - params.kappa - state.xi, 0.0)


def _fast_update(state: ConstitutiveState, deps: np.ndarray, dt: float,
                 params: MaterialParams) -> ConstitutiveState:
    """Closed-form radial return for isotropic A and isotropic hardening."""
    a_inv = params.elastic.inverse()
    sigma_tr = state.sigma + a_inv.apply(deps)
    inv_a_dev = 1.0 / params.elastic.dev_modulus
    ratio = dt / params.mu

    if params.model == KINEMATIC:
        inv_h_dev = 1.0 / params.hardening_tensor.dev_modulus
        beta_tr = dev(sigma_tr) - dev(state.xi)
        b_tr = norm(beta_tr)
        c = inv_a_dev + inv_h_dev
        # radial equation: b + ratio*c*(b-kappa)_+ = b_tr
        excess = np.maximum(b_tr - params.kappa, 0.0) / (1.0 + ratio * c)
        q = excess / params.mu
        denom = np.where(b_tr > 0.0, b_tr, 1.0)
        p_vec = (q / denom)[..., None] * beta_tr        # P = q * n
        sigma = sigma_tr - dt * inv_a_dev * p_vec
        xi = state.xi + dt * inv_h_dev * p_vec
    else:
        s_tr_vec = dev(sigma_tr)
        s_tr = norm(s_tr_vec)
        g_tr = s_tr - params.kappa - state.xi
        c = inv_a_dev + 1.0 / params.hardening_modulus
        g = np.maximum(g_tr, 0.0) / (1.0 + ratio * c)
        q = g / params.mu
        denom = np.where(s_tr > 0.0, s_tr, 1.0)
        p_vec = (q / denom)[..., None] * s_tr_vec
        sigma = sigma_tr - dt * inv_a_dev * p_vec
        xi = state.xi + dt * q / params.hardening_modulus
    ep = state.ep + dt * p_vec
    return ConstitutiveState(sigma=sigma, xi=xi, ep=ep)


def _local_jacobian(sigma, xi, dt, params):
    """Jacobian of the general local system in (sigma, xi), batched over points.

    sigma is (n, m); xi is (n, m) for the kinematic and (n,) for the
    isotropic model.  Returns (n, 2m, 2m) resp. (n, m+1, m+1).  Points on
    or inside the yield surface get the elastic block diag(A, H).
    """
    m = params.m
    Pd = dev_projector(params.d)
    kinematic = params.model == KINEMATIC
    beta = dev(sigma) - dev(xi) if kinematic else dev(sigma)
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

    Parameters
    ----------
    state : ConstitutiveState
        State at the previous time level; arrays may carry leading batch axes.
    deps : ndarray (..., m)
        Strain increment E(u+) - E(u-) in Mandel components.
    dt : float
        Time step, > 0.
    params : MaterialParams

    Returns the unique solution of the implicit system with residual below
    1e-12 (scaled).  Raises SolverFailure on non-convergence.
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
    form when params.is_fast, by a batched linear solve otherwise.  Points
    within KINK_GUARD of the yield surface use the elastic branch (either
    one-sided derivative keeps the global Newton convergent).
    """
    deps = np.asarray(deps, dtype=float)
    if updated is None:
        updated = local_update(state, deps, dt, params)
    m = params.m
    excess = np.asarray(yield_excess(updated, params)).ravel()
    act = np.flatnonzero(excess > KINK_GUARD)
    out = np.broadcast_to(np.linalg.inv(params.elastic.matrix),
                          deps.shape[:-1] + (m, m)).copy()
    if act.size == 0:
        return out
    out_flat = out.reshape(-1, m, m)

    if not params.is_fast:
        xi = np.reshape(updated.xi, (-1, m) if params.model == KINEMATIC else -1)
        J = _local_jacobian(np.reshape(updated.sigma, (-1, m))[act], xi[act],
                            dt, params)
        # d(sigma, xi)/d deps solves J X = (I, 0)
        rhs = np.broadcast_to(np.eye(J.shape[-1], m), J.shape[:-1] + (m,))
        out_flat[act] = np.linalg.solve(J, rhs)[:, :m]
        return out

    # radial return: sigma = sigma_tr - (dt/a) q n, with a the deviatoric
    # modulus of A, q = excess/mu affine in the trial radius
    # |beta| + dt q c_tr, and n = beta/|beta|; differentiating gives
    # d sigma/d deps = A^-1 - c1 P_dev - c2 n (x) n.
    beta = np.asarray(beta_of(updated, params)).reshape(-1, m)[act]
    b = norm(beta)
    nvec = beta / np.where(b > 0, b, 1.0)[:, None]
    nn = nvec[:, :, None] * nvec[:, None, :]
    inv_a = 1.0 / params.elastic.dev_modulus
    if params.model == KINEMATIC:
        inv_h = 1.0 / params.hardening_tensor.dev_modulus
        c_tr = inv_a + inv_h
    else:
        inv_h = 1.0 / params.hardening_modulus
        c_tr = inv_a
    q = excess[act] / params.mu
    c1 = dt * inv_a**2 * q / (b + dt * q * c_tr)
    c2 = dt * inv_a**2 / (params.mu + dt * (inv_a + inv_h)) - c1
    out_flat[act] -= (c1[:, None, None] * dev_projector(params.d)
                      + c2[:, None, None] * nn)
    return out


def kkt_residual(state: ConstitutiveState, rate_ep: np.ndarray,
                 params: MaterialParams) -> dict:
    """Complementarity diagnostics; all three vanish as mu -> 0.

    feasibility: yield-surface overshoot (.)_+
    complementarity: |rate_ep| * |distance to yield surface|
    alignment: norm of the component of rate_ep off the flow direction
    """
    rate_ep = np.asarray(rate_ep, dtype=float)
    beta = beta_of(state, params)
    b = norm(beta)
    if params.model == KINEMATIC:
        distance = b - params.kappa
    else:
        distance = b - params.kappa - state.xi
    feasibility = np.maximum(distance, 0.0)
    rate_norm = norm(rate_ep)
    complementarity = rate_norm * np.abs(distance)
    denom = np.where(b > 0, b, 1.0)
    direction = beta / denom[..., None]
    misfit = norm(rate_ep - rate_norm[..., None] * direction)
    alignment = np.where(rate_norm > 0, np.where(b > 0, misfit, rate_norm), 0.0)
    return {"feasibility": feasibility, "complementarity": complementarity,
            "alignment": alignment}
