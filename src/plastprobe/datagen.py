"""Closed-form data families for boundary/initial data and body force.

A generator is a sum of separable terms p_k(t) * g_k(x) with p_k a
polynomial and g_k a smooth profile with exact gradient and Hessian.
The stress data is slaved to the displacement data through the elastic
law, sigma0 = A^-1 E(u0), and the body force is f = -div sigma0
(computed analytically), so the equilibrium compatibility and the
initial condition E(u0(0)) = A sigma0(0) hold exactly by construction.

From one time step to the next only p_k(t) changes; the points are the
grid's fixed point sets.  So g_k and its gradient and Hessian are
evaluated once per point set and memoized by the array's identity.
Only arrays that cannot change are memoized: read-only, down to an
owning base (a ``fem.Grid`` builds its point sets that way); the memo
holds x, so its id is not reused while cached.  Any other array is
evaluated on every call.  The sum over the terms is taken in the same
order as without the memo, so cached and fresh results agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from . import tensors
from .tensors import Tensor4Sym


def _coeffs(value, shape: tuple, name: str) -> np.ndarray:
    """value as a float array of the given shape (zeros for None)."""
    if value is None:
        return np.zeros(shape)
    arr = np.asarray(value, float)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    return arr


class PolyProfile:
    """g_i(x) = c_i + L_ij x_j + 0.5 x . Q_i . x with symmetric Q_i."""

    def __init__(self, d, linear=None, quadratic=None, const=None):
        self.d = d
        self.L = _coeffs(linear, (d, d), "linear")
        self.c = _coeffs(const, (d,), "const")
        Q = _coeffs(quadratic, (d, d, d), "quadratic")
        self.Q = 0.5 * (Q + np.swapaxes(Q, 1, 2))

    def value(self, x):
        quad = 0.5 * np.einsum("ijk,...j,...k->...i", self.Q, x, x)
        return x @ self.L.T + quad + self.c

    def grad(self, x):
        g = np.einsum("ijk,...k->...ij", self.Q, x)
        return g + self.L

    def hess(self, x):
        shape = np.asarray(x).shape[:-1]
        return np.broadcast_to(self.Q, shape + self.Q.shape)


class SineProfile:
    """g_i(x) = amp_i * prod_j sin(freq_ij x_j + phase_ij)."""

    def __init__(self, d, amp, freq, phase=None):
        self.d = d
        self.amp = _coeffs(amp, (d,), "amp")
        self.freq = _coeffs(freq, (d, d), "freq")
        self.phase = _coeffs(phase, (d, d), "phase")

    def _args(self, x):
        # arg[..., i, j] = freq_ij x_j + phase_ij
        return self.freq * x[..., None, :] + self.phase

    def _sin_prod(self, s, skip=()):
        """prod_j s[..., :, j] over j not in skip, multiplied in order of j.

        Bit-identical to ``np.prod`` over the kept columns; None if none
        is kept (a factor of one, which is exact to leave out).
        """
        out = None
        for j in range(self.d):
            if j not in skip:
                out = s[..., :, j] if out is None else out * s[..., :, j]
        return out

    def value(self, x):
        return self.amp * self._sin_prod(np.sin(self._args(x)))

    def grad(self, x):
        arg = self._args(x)
        s, c = np.sin(arg), np.cos(arg)
        out = np.empty(arg.shape)
        for j in range(self.d):
            rest = self._sin_prod(s, skip=(j,))
            out[..., :, j] = self.amp * self.freq[:, j] * c[..., :, j] * rest
        return out

    def hess(self, x):
        arg = self._args(x)
        s, c = np.sin(arg), np.cos(arg)
        d = self.d
        full = self._sin_prod(s)
        out = np.empty(arg.shape[:-1] + (d, d))
        for j in range(d):
            for k in range(j, d):
                if j == k:
                    val = -self.amp * self.freq[:, j] ** 2 * full
                else:
                    val = (self.amp * self.freq[:, j] * self.freq[:, k]
                           * c[..., :, j] * c[..., :, k])
                    rest = self._sin_prod(s, skip=(j, k))
                    if rest is not None:
                        val = val * rest
                out[..., :, j, k] = val
                out[..., :, k, j] = val
        return out


def _poly_eval(coeffs, t, tder):
    """Value of the tder-th derivative of sum_k coeffs[k] t^k."""
    val = 0.0
    for k in range(tder, len(coeffs)):
        fac = 1.0
        for j in range(k - tder + 1, k + 1):
            fac *= j
        val += coeffs[k] * fac * t ** (k - tder)
    return val


# memoized point sets per generator; old entries are dropped first
MEMO_ENTRIES = 16


def _frozen(x: np.ndarray) -> bool:
    """True if no array in x's chain of views can be written."""
    while isinstance(x, np.ndarray):
        if x.flags.writeable:
            return False
        x = x.base
    return x is None


class DataGenerator:
    """Sum of separable closed-form terms defining (u0, sigma0, f)."""

    def __init__(self, terms, elastic: Tensor4Sym):
        self.terms = list(terms)            # (tpoly coeffs, profile)
        self.elastic = elastic
        self.d = elastic.d
        self._a_inv = elastic.inverse()
        d = self.d
        # body_force's tables: A^-1_ijkl at row (k l j), column i, and the
        # flat Hessian's column (l k j) for each column (k l j)
        self._a_inv_klji = self._a_inv.as_full_tensor().transpose(
            2, 3, 1, 0).reshape(d ** 3, d)
        self._a_inv_klji.flags.writeable = False
        self._swap = np.arange(d ** 3).reshape(d, d, d).swapaxes(0, 1).ravel()
        self._memo = {}                     # (kind, id(x)) -> (x, values)

    def _profiles(self, kind, x):
        """prof.<kind>(x) for each term, memoized when x is frozen."""
        if not _frozen(x):
            return (getattr(prof, kind)(x) for _, prof in self.terms)
        key = (kind, id(x))
        if key not in self._memo:
            if len(self._memo) >= MEMO_ENTRIES:
                del self._memo[next(iter(self._memo))]
            vals = [getattr(prof, kind)(x) for _, prof in self.terms]
            for v in vals:
                v.flags.writeable = False
            self._memo[key] = (x, vals)
        return self._memo[key][1]

    def _sum(self, kind, t, x, tder, tail):
        """sum_k p_k^(tder)(t) * g_k.<kind>(x), added in term order."""
        x = np.asarray(x, float)
        out = np.zeros(x.shape + tail)
        for (coeffs, _), g in zip(self.terms, self._profiles(kind, x)):
            out += _poly_eval(coeffs, t, tder) * g
        return out

    def u0(self, t, x, tder=0):
        return self._sum("value", t, x, tder, ())

    def grad_u0(self, t, x, tder=0):
        return self._sum("grad", t, x, tder, (self.d,))

    def hess_u0(self, t, x, tder=0):
        return self._sum("hess", t, x, tder, (self.d, self.d))

    def strain0(self, t, x, tder=0):
        """Mandel components of E(d^r u0/dt^r)."""
        g = self.grad_u0(t, x, tder)
        return tensors.from_matrix(0.5 * (g + np.swapaxes(g, -1, -2)))

    def sigma0(self, t, x, tder=0):
        return self._a_inv.apply(self.strain0(t, x, tder))

    def body_force(self, t, x):
        """f = -div sigma0, exact (second derivatives of the profiles),
        by the matmul of einsum's plan (kernel rule: fem docstring)."""
        H = self.hess_u0(t, x)              # H[..., i, j, k] = d2 u_i / dx_j dx_k
        Hf = H.reshape(-1, self.d ** 3)
        # dE[..., k, l, j] = d_j E_kl; uses Hessian symmetry in (j, k)
        dE = np.take(Hf, self._swap, axis=1)
        dE += Hf
        dE *= 0.5
        return -(dE @ self._a_inv_klji).reshape(H.shape[:-2])
