"""Independent brute-force solvers and diagnostics to check the package.

Everything here deliberately avoids the code paths of the package
implementation: dense full-matrix tensor algebra, MINPACK root finding,
plain bisection on the radial equation, and adaptive ODE integration.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize
from scipy.integrate import solve_ivp

from plastprobe import tensors
from plastprobe.constitutive import KINEMATIC


def assert_same_bits(got, ref, label=""):
    """got has ref's shape, dtype and bytes: NaN positions and payloads
    and the signs of zeros included."""
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape and got.dtype == ref.dtype, label
    np.testing.assert_array_equal(np.isnan(got), np.isnan(ref), label)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(ref), label)
    assert got.tobytes() == ref.tobytes(), label


def layouts(f, rng):
    """f itself, and the same values as a history row, every other row of
    a taller array, a last-axis-strided view and a Fortran-order copy."""
    hist = rng.standard_normal((3,) + f.shape)
    hist[1] = f
    tall = rng.standard_normal((2 * f.shape[0],) + f.shape[1:])
    tall[::2] = f
    wide = rng.standard_normal(f.shape[:-1] + (2 * f.shape[-1],))
    wide[..., ::2] = f
    return {"C": f, "history row": hist[1], "every other row": tall[::2],
            "column stride": wide[..., ::2], "Fortran": np.asfortranarray(f)}


def frobenius_inner_dense(a_mat: np.ndarray, b_mat: np.ndarray) -> float:
    """Full-matrix double contraction sum_ij a_ij b_ij."""
    return float(np.sum(a_mat * b_mat))


def random_spd_tensor4(rng, d, lam_lo=0.5, lam_hi=2.0) -> tensors.Tensor4Sym:
    """Random SPD map with eigenvalues in [lam_lo, lam_hi]."""
    m = tensors.num_components(d)
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    lam = rng.uniform(lam_lo, lam_hi, size=m)
    return tensors.Tensor4Sym.from_matrix(q @ np.diag(lam) @ q.T, d=d)


def _penalty_vec(beta, kappa, mu):
    b = np.linalg.norm(beta)
    if b <= kappa:
        return np.zeros_like(beta)
    return (b - kappa) / mu * beta / b


def penalty_energy(beta, kappa, mu) -> float:
    """Convex potential mu^-1 (|beta| - kappa)_+^2 / 2 of one point, whose
    gradient is tensors.penalty."""
    return 0.5 * max(np.linalg.norm(beta) - kappa, 0.0) ** 2 / mu


def kkt_residual(state, rate_ep, params) -> dict:
    """Complementarity diagnostics of a penalized state, batched over the
    leading axes; all three vanish as mu -> 0.

    feasibility: yield-surface overshoot (.)_+
    complementarity: |rate_ep| * |distance to yield surface|
    alignment: norm of the component of rate_ep off the flow direction
    """
    if params.model == KINEMATIC:
        beta = tensors.dev(state.sigma) - tensors.dev(state.xi)
        hardening = 0.0
    else:
        beta = tensors.dev(state.sigma)
        hardening = state.xi
    b = np.linalg.norm(beta, axis=-1)
    distance = b - params.kappa - hardening
    rate_ep = np.asarray(rate_ep, dtype=float)
    rate = np.linalg.norm(rate_ep, axis=-1)
    direction = beta / np.where(b > 0, b, 1.0)[..., None]
    misfit = np.linalg.norm(rate_ep - rate[..., None] * direction, axis=-1)
    return {"feasibility": np.maximum(distance, 0.0),
            "complementarity": rate * np.abs(distance),
            "alignment": np.where(rate > 0, np.where(b > 0, misfit, rate),
                                  0.0)}


def local_system_residual(z, sigma0, xi0, deps, dt, params):
    """Residual of the full implicit system, written independently."""
    m = params.m
    sig = z[:m]
    sig_d = tensors.dev(sig)
    A = params.elastic.matrix
    if params.model == KINEMATIC:
        xi = z[m:]
        beta = sig_d - tensors.dev(xi)
        p = _penalty_vec(beta, params.kappa, params.mu)
        r1 = A @ (sig - sigma0) + dt * p - deps
        r2 = params.hardening_tensor.matrix @ (xi - xi0) - dt * p
        return np.concatenate([r1, r2])
    xi = z[m]
    s = np.linalg.norm(sig_d)
    g = max(s - params.kappa - xi, 0.0)
    nvec = sig_d / s if s > 0 else np.zeros(m)
    r1 = A @ (sig - sigma0) + dt * (g / params.mu) * nvec - deps
    r2 = params.hardening_modulus * (xi - xi0) - dt * g / params.mu
    return np.concatenate([r1, [r2]])


def oracle_local_update(state_sigma, state_xi, deps, dt, params):
    """Solve the local step by MINPACK hybr on the full implicit system.

    Falls back to minimizing the convex incremental potential if hybr
    stalls near the yield kink.  Returns (sigma, xi).
    """
    m = params.m
    a_inv = np.linalg.inv(params.elastic.matrix)
    trial = state_sigma + a_inv @ deps
    if params.model == KINEMATIC:
        z0 = np.concatenate([trial, np.asarray(state_xi, dtype=float)])
    else:
        z0 = np.concatenate([trial, [float(state_xi)]])
    sol = optimize.root(local_system_residual, z0,
                        args=(state_sigma, state_xi, deps, dt, params),
                        method="hybr", tol=1e-14)
    res = np.linalg.norm(local_system_residual(
        sol.x, state_sigma, state_xi, deps, dt, params))
    if res > 1e-10:
        z = _oracle_minimize(state_sigma, state_xi, deps, dt, params, z0)
        res2 = np.linalg.norm(local_system_residual(
            z, state_sigma, state_xi, deps, dt, params))
        if res2 < res:
            sol_x = z
        else:
            sol_x = sol.x
    else:
        sol_x = sol.x
    if params.model == KINEMATIC:
        return sol_x[:m], sol_x[m:]
    return sol_x[:m], float(sol_x[m])


def _oracle_minimize(sigma0, xi0, deps, dt, params, z0):
    m = params.m
    A = params.elastic.matrix

    def pot(z):
        sig = z[:m]
        ds = sig - sigma0
        val = 0.5 * ds @ A @ ds - deps @ sig
        if params.model == KINEMATIC:
            xi = z[m:]
            dxi = xi - xi0
            val += 0.5 * dxi @ params.hardening_tensor.matrix @ dxi
            beta = tensors.dev(sig) - tensors.dev(xi)
        else:
            xi = z[m]
            val += 0.5 * params.hardening_modulus * (xi - xi0) ** 2
            # isotropic potential: g depends on (|sig_D| - kappa - xi)_+
            excess = max(np.linalg.norm(tensors.dev(sig)) - params.kappa - xi, 0.0)
            return val + dt * 0.5 * excess**2 / params.mu
        excess = max(np.linalg.norm(beta) - params.kappa, 0.0)
        return val + dt * 0.5 * excess**2 / params.mu

    out = optimize.minimize(pot, z0, method="Nelder-Mead",
                            options={"xatol": 1e-14, "fatol": 1e-16,
                                     "maxiter": 20000, "maxfev": 40000})
    return out.x


def oracle_radial_bisection(state_sigma, state_xi, deps, dt, params):
    """Nested bisection for isotropic A and hardening (radial return check).

    Kinematic: bisection on the updated radius b of beta.
    Isotropic: outer bisection on xi+, inner bisection on |dev sigma+|.
    """
    a_inv_dev = 1.0 / params.elastic.dev_modulus
    a_inv = params.elastic.inverse()
    sigma_tr = state_sigma + a_inv.apply(deps)
    ratio = dt / params.mu

    if params.model == KINEMATIC:
        h_inv_dev = 1.0 / params.hardening_tensor.dev_modulus
        beta_tr = tensors.dev(sigma_tr) - tensors.dev(state_xi)
        b_tr = float(tensors.norm(beta_tr))
        c = a_inv_dev + h_inv_dev

        def eqn(b):
            return b + ratio * c * max(b - params.kappa, 0.0) - b_tr

        lo, hi = 0.0, b_tr + 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if eqn(mid) > 0:
                hi = mid
            else:
                lo = mid
        b = 0.5 * (lo + hi)
        q = max(b - params.kappa, 0.0) / params.mu
        nvec = beta_tr / b_tr if b_tr > 0 else np.zeros_like(beta_tr)
        sigma = sigma_tr - dt * a_inv_dev * q * nvec
        xi = state_xi + dt * h_inv_dev * q * nvec
        return sigma, xi

    h = params.hardening_modulus
    s_tr_vec = tensors.dev(sigma_tr)
    s_tr = float(tensors.norm(s_tr_vec))

    def inner_s(xi_new):
        # |dev sigma| + ratio*a_inv_dev*(s - kappa - xi)_+ = s_tr
        def eqn(s):
            return s + ratio * a_inv_dev * max(s - params.kappa - xi_new, 0.0) - s_tr

        lo, hi = 0.0, s_tr + 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if eqn(mid) > 0:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    def outer(xi_new):
        s = inner_s(xi_new)
        g = max(s - params.kappa - xi_new, 0.0)
        return h * (xi_new - state_xi) - dt * g / params.mu

    lo = float(state_xi)
    hi = float(state_xi) + s_tr + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if outer(mid) > 0:
            hi = mid
        else:
            lo = mid
    xi = 0.5 * (lo + hi)
    s = inner_s(xi)
    q = max(s - params.kappa - xi, 0.0) / params.mu
    nvec = s_tr_vec / s_tr if s_tr > 0 else np.zeros_like(s_tr_vec)
    sigma = sigma_tr - dt * a_inv_dev * q * nvec
    return sigma, xi


def integrate_pointwise_ode(params, strain_rate_fn, t_span, sigma_init, xi_init,
                            rtol=1e-11, atol=1e-13):
    """High-accuracy integration of the penalized pointwise evolution.

    strain_rate_fn(t) must return the Mandel components of E(du0/dt).
    Returns the solve_ivp result with y = [sigma, xi(, ep)] stacked.
    """
    m = params.m
    a_inv = np.linalg.inv(params.elastic.matrix)
    kinematic = params.model == KINEMATIC
    if kinematic:
        h_inv = np.linalg.inv(params.hardening_tensor.matrix)

    def rhs(t, y):
        sig = y[:m]
        if kinematic:
            xi = y[m:2 * m]
            beta = tensors.dev(sig) - tensors.dev(xi)
            p = _penalty_vec(beta, params.kappa, params.mu)
            dsig = a_inv @ (strain_rate_fn(t) - p)
            dxi = h_inv @ p
            return np.concatenate([dsig, dxi, p])
        xi = y[m]
        sd = tensors.dev(sig)
        s = np.linalg.norm(sd)
        g = max(s - params.kappa - xi, 0.0)
        p = (g / params.mu) * (sd / s) if s > 0 else np.zeros(m)
        dsig = a_inv @ (strain_rate_fn(t) - p)
        dxi = g / (params.mu * params.hardening_modulus)
        return np.concatenate([dsig, [dxi], p])

    if kinematic:
        y0 = np.concatenate([sigma_init, xi_init, np.zeros(m)])
    else:
        y0 = np.concatenate([sigma_init, [xi_init], np.zeros(m)])
    return solve_ivp(rhs, t_span, y0, method="Radau", rtol=rtol, atol=atol,
                     dense_output=True)


def fd_gradient(fun, x, h=1e-6):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fun(x + e) - fun(x - e)) / (2 * h)
    return g


def fd_jacobian(fun, x, h=1e-6):
    """Central finite-difference Jacobian of a vector function."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(fun(x))
    J = np.zeros((f0.size, x.size))
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        J[:, i] = (np.asarray(fun(x + e)) - np.asarray(fun(x - e))) / (2 * h)
    return J
