"""Small-dimension symmetric tensor algebra in Mandel (weighted Voigt) form.

A symmetric d x d tensor (d in {2, 3}) is stored as a vector of
m = d(d+1)/2 components with sqrt(2)-weighted off-diagonal entries:

    d = 2:  [T11, T22, sqrt2*T12]
    d = 3:  [T11, T22, T33, sqrt2*T23, sqrt2*T13, sqrt2*T12]

With this weighting the Euclidean dot product of two component vectors
equals the Frobenius double contraction of the full matrices, so norms,
deviators and eigenvalue computations on the m x m representation of
fourth-order tensors are exact.  All functions broadcast over leading
axes; the last axis is always the component axis.

The kernel rule.  The per-point kernels (tr, dev, inner and everything
built on them) run on every quadrature point of every Newton iteration,
so they take no reduction over the 2-to-6-long component axis: they add
component slices in the order numpy's ``sum`` does, starting from +0.0,
which makes them bit-identical to ``vec[..., :d].sum(-1)`` and
``(a * b).sum(-1)`` (signed zeros and inf included; a nan stays a nan)
at a fraction of the cost.  A field-sized kernel (the isotropic
Tensor4Sym.apply, dev_diff, and constitutive's radial return and
closed-form tangent) fills one output array component by component with
the operations, operand order included, of the plain array formula its
docstring names, so it gives that formula's bits and floating-point
warnings without field-sized temporaries.  Keep the rule when editing
them: a changed summation order moves the round-off of every stored
trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SQRT2 = np.sqrt(2.0)

_DIM_FOR_M = {3: 2, 6: 3}
_M_FOR_DIM = {2: 3, 3: 6}

# (row, col) index of each Mandel slot in the full matrix
_SLOTS = {
    2: [(0, 0), (1, 1), (0, 1)],
    3: [(0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1)],
}


def mandel_dim(m: int) -> int:
    """Spatial dimension d for a component count m."""
    try:
        return _DIM_FOR_M[m]
    except KeyError:
        raise ValueError(f"not a Mandel component count for d in {{2,3}}: {m}")


def num_components(d: int) -> int:
    try:
        return _M_FOR_DIM[d]
    except KeyError:
        raise ValueError(f"dimension must be 2 or 3, got {d}")


def from_matrix(mat: np.ndarray) -> np.ndarray:
    """Convert a symmetric matrix (..., d, d) to Mandel components (..., m)."""
    mat = np.asarray(mat, dtype=float)
    d = mat.shape[-1]
    m = num_components(d)
    out = np.empty(mat.shape[:-2] + (m,))
    for k, (i, j) in enumerate(_SLOTS[d]):
        w = 1.0 if i == j else SQRT2
        out[..., k] = 0.5 * w * (mat[..., i, j] + mat[..., j, i])
    return out


def to_matrix(vec: np.ndarray) -> np.ndarray:
    """Reconstruct the full symmetric matrix (..., d, d) from components."""
    vec = np.asarray(vec, dtype=float)
    d = mandel_dim(vec.shape[-1])
    out = np.zeros(vec.shape[:-1] + (d, d))
    for k, (i, j) in enumerate(_SLOTS[d]):
        if i == j:
            out[..., i, i] = vec[..., k]
        else:
            out[..., i, j] = vec[..., k] / SQRT2
            out[..., j, i] = vec[..., k] / SQRT2
    return out


def identity(d: int) -> np.ndarray:
    """Mandel components of the d x d identity matrix."""
    v = np.zeros(num_components(d))
    v[:d] = 1.0
    return v


def tr(vec: np.ndarray) -> np.ndarray:
    vec = np.asarray(vec, dtype=float)
    d = mandel_dim(vec.shape[-1])
    out = vec[..., 0] + vec[..., 1]
    if d == 3:
        out += vec[..., 2]
    out += 0.0          # a sum starts from +0.0, so -0.0 + -0.0 gives +0.0
    return out


def dev(vec: np.ndarray) -> np.ndarray:
    """Deviator: vec minus (tr/d) * identity."""
    vec = np.asarray(vec, dtype=float)
    d = mandel_dim(vec.shape[-1])
    mean = tr(vec) / d
    out = vec.copy()
    for i in range(d):
        out[..., i] -= mean
    return out


def dev_diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """dev(a) - dev(b), with its bits (the kernel rule)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = mandel_dim(a.shape[-1])
    if b.shape[-1] != a.shape[-1]:
        raise ValueError(f"component mismatch: {a.shape[-1]} vs {b.shape[-1]}")
    mean_a = tr(a) / d
    mean_b = tr(b) / d
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    for k in range(a.shape[-1]):
        if k < d:
            np.subtract(a[..., k], mean_a, out=out[..., k])
            out[..., k] -= b[..., k] - mean_b
        else:
            np.subtract(a[..., k], b[..., k], out=out[..., k])
    return out


def inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"component mismatch: {a.shape[-1]} vs {b.shape[-1]}")
    out = a[..., 0] * b[..., 0]
    out += 0.0          # see tr
    for k in range(1, a.shape[-1]):
        out += a[..., k] * b[..., k]
    return out


def norm(vec: np.ndarray) -> np.ndarray:
    return np.sqrt(inner(vec, vec))


def dev_projector(d: int) -> np.ndarray:
    """m x m matrix of the deviatoric projection."""
    m = num_components(d)
    P = np.eye(m)
    P[:d, :d] -= 1.0 / d
    return P


def vol_projector(d: int) -> np.ndarray:
    """m x m matrix of the volumetric projection (tr/d) * I."""
    m = num_components(d)
    P = np.zeros((m, m))
    P[:d, :d] = 1.0 / d
    return P


def penalty(beta: np.ndarray, kappa: float, mu: float) -> np.ndarray:
    """Penalty flow direction mu^-1 * (|beta| - kappa)_+ * beta / |beta|.

    Returns exact zero wherever |beta| <= kappa (including beta = 0).
    Broadcasts over leading axes of beta.
    """
    if kappa <= 0.0:
        raise ValueError("kappa must be positive")
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    beta = np.asarray(beta, dtype=float)
    mag = norm(beta)
    excess = np.maximum(mag - kappa, 0.0)
    # safe divide: where excess == 0 the factor is irrelevant
    denom = np.where(mag > 0.0, mag, 1.0)
    scale = excess / (mu * denom)
    return scale[..., None] * beta


@dataclass(frozen=True)
class Tensor4Sym:
    """Major-symmetric fourth-order tensor acting on Mandel vectors.

    Stored as a dense m x m matrix.  Isotropic maps (two moduli: one on
    deviators, one on the volumetric part) carry their moduli so callers
    can take scalar fast paths.  The matrix is never written in place.
    """

    matrix: np.ndarray
    d: int
    dev_modulus: float | None = field(default=None)
    vol_modulus: float | None = field(default=None)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, d: int | None = None) -> "Tensor4Sym":
        matrix = np.asarray(matrix, dtype=float)
        if d is None:
            d = mandel_dim(matrix.shape[0])
        if matrix.shape != (num_components(d), num_components(d)):
            raise ValueError(f"matrix shape {matrix.shape} does not match d={d}")
        return cls(matrix=matrix, d=d)

    @classmethod
    def identity_map(cls, d: int) -> "Tensor4Sym":
        m = num_components(d)
        return cls(matrix=np.eye(m), d=d, dev_modulus=1.0, vol_modulus=1.0)

    @classmethod
    def isotropic(cls, d: int, dev_modulus: float, vol_modulus: float) -> "Tensor4Sym":
        mat = dev_modulus * dev_projector(d) + vol_modulus * vol_projector(d)
        return cls(matrix=mat, d=d, dev_modulus=float(dev_modulus),
                   vol_modulus=float(vol_modulus))

    @property
    def is_isotropic(self) -> bool:
        return self.dev_modulus is not None and self.vol_modulus is not None

    def apply(self, vec: np.ndarray, add: np.ndarray | None = None
              ) -> np.ndarray:
        """Apply the map to components (..., m); given add, add + that.

        An isotropic map follows the kernel rule: the bits of
        dev_modulus * dev(vec) + (vol_modulus / d) * tr(vec)[..., None]
        * identity(d), and of add + that.
        """
        vec = np.asarray(vec, dtype=float)
        m = self.matrix.shape[0]
        if vec.shape[-1] != m:
            raise ValueError("component mismatch in Tensor4Sym.apply")
        if not self.is_isotropic:
            out = vec @ self.matrix.T
            return out if add is None else add + out
        d, g = self.d, self.dev_modulus
        t = tr(vec)
        # mean and vol share one allocation (separate point-sized
        # temporaries raised the peak RSS of long runs)
        scratch = np.empty((2,) + vec.shape[:-1])
        mean = np.divide(t, d, out=scratch[0, ...])
        vol = np.multiply(self.vol_modulus / d, t, out=scratch[1, ...])
        del t
        if add is None:
            out = np.empty(vec.shape)
        else:
            add = np.asarray(add, dtype=float)
            out = np.empty(np.broadcast_shapes(vec.shape, add.shape))
        for k in range(m):
            o = out[..., k]
            if k < d:
                np.subtract(vec[..., k], mean, out=o)
                np.multiply(g, o, out=o)
                o += vol                # vol * 1.0 is vol
            else:
                if k == d:
                    # the diagonal is done: mean's row takes vol * 0.0,
                    # whose zero carries vol's sign (or is a nan)
                    vol_off = np.multiply(vol, 0.0, out=scratch[0, ...])
                np.multiply(g, vec[..., k], out=o)
                o += vol_off
            if add is not None:
                np.add(add[..., k], o, out=o)
        return out

    def inverse(self) -> "Tensor4Sym":
        """The inverse map, built on the first call and kept on the tensor."""
        inv = self.__dict__.get("_inverse")
        if inv is None:
            if self.is_isotropic:
                inv = Tensor4Sym.isotropic(self.d, 1.0 / self.dev_modulus,
                                           1.0 / self.vol_modulus)
            else:
                inv = Tensor4Sym(matrix=np.linalg.inv(self.matrix), d=self.d)
            object.__setattr__(self, "_inverse", inv)    # frozen dataclass
        return inv

    def major_symmetry_defect(self) -> float:
        return float(np.abs(self.matrix - self.matrix.T).max())

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.T))

    def as_full_tensor(self) -> np.ndarray:
        """Expand to the (d, d, d, d) array with C[i,j,k,l] acting on matrices."""
        m = self.matrix.shape[0]
        full = np.zeros((self.d,) * 4)
        for a, (i, j) in enumerate(_SLOTS[self.d]):
            wa = 1.0 if i == j else SQRT2
            for b, (k, l) in enumerate(_SLOTS[self.d]):
                wb = 1.0 if k == l else SQRT2
                val = self.matrix[a, b] / (wa * wb)
                for ii, jj in {(i, j), (j, i)}:
                    for kk, ll in {(k, l), (l, k)}:
                        full[ii, jj, kk, ll] = val
        return full


@dataclass(frozen=True)
class EllipticityReport:
    passed: bool
    lam_min: float
    lam_max: float


def check_ellipticity(C: Tensor4Sym, c1: float) -> EllipticityReport:
    """Check C1 |t|^2 <= C t . t <= C1^-1 |t|^2 via Mandel eigenvalues.

    Rejects matrices whose major-symmetry defect exceeds 1e-12.
    """
    if c1 <= 0.0:
        raise ValueError("C1 must be positive")
    if C.major_symmetry_defect() > 1e-12:
        raise ValueError(
            f"major symmetry violated (defect {C.major_symmetry_defect():.3e})")
    lam = C.eigenvalues()
    lam_min, lam_max = float(lam[0]), float(lam[-1])
    passed = (c1 <= lam_min + 1e-14) and (lam_max <= 1.0 / c1 + 1e-14)
    return EllipticityReport(passed=passed, lam_min=lam_min, lam_max=lam_max)
