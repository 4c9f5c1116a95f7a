"""Structured Q1 finite elements on the cube (-1,1)^{d-1} x (0,1).

The bottom face x_d = 0 carries the interesting boundary data: in
"mixed" mode it is Dirichlet for x_{d-1} < 0 and Neumann for
x_{d-1} > 0 (all remaining faces Dirichlet), "all-dirichlet" pins the
whole boundary, and "all-neumann-bottom" makes the entire bottom face a
traction boundary.  The grid is uniform with n cells per unit length,
2^d Gauss points per cell, and identical element geometry everywhere,
so shape-function derivatives and the H^1 element Gram matrix are
computed once.

Quadrature-point tensor fields are ndarrays of shape (ncells, nqp, m)
in Mandel components; displacement fields are (nnodes, d).  The point
sets the data are evaluated at (nodes, quadrature points, face
quadrature points, Dirichlet nodes) are built once and read-only, so a
data generator may evaluate its profiles once per point set.

Force and load vectors, and the products of the CG solver, are summed
from per-cell contributions with ``bincount``.  A stiffness is assembled
into a sparse matrix only to be LU factored (the elastic one, once per
run); CG takes a tangent as its element matrices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

from . import tensors
from .constitutive import SolverFailure

MODES = ("mixed", "all-dirichlet", "all-neumann-bottom")

# default and floor of the CG relative tolerance; the inexact-Newton
# forcing term of evolution asks for |r| / scale > NEWTON_RTOL > CG_RTOL
CG_RTOL = 1e-11


@dataclass(frozen=True)
class Geometry:
    d: int
    mode: str = "mixed"

    def __post_init__(self):
        if self.d not in (2, 3):
            raise ValueError("dimension must be 2 or 3")
        if self.mode not in MODES:
            raise ValueError(f"unknown boundary mode {self.mode!r}")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class Grid:
    """Uniform Q1 grid with precomputed element operators and boundary tags.

    Every cell has the same element operators (shape_values, shape_grads,
    B) and the same read-only, symmetric H^1 Gram matrix of the Gauss
    rule, h1_gram = w sum_q (N_q N_q^T + sum_j G_qj G_qj^T).
    """

    def __init__(self, geometry: Geometry, n: int):
        if n < 2:
            raise ValueError("need at least 2 cells per unit length")
        self.geometry = geometry
        self.d = geometry.d
        self.n = n
        self.h = 1.0 / n
        d = self.d

        # node lattice: 2n+1 nodes on each tangential axis, n+1 on the normal
        self.node_counts = tuple([2 * n + 1] * (d - 1) + [n + 1])
        self.cell_counts = tuple([2 * n] * (d - 1) + [n])
        self.nnodes = int(np.prod(self.node_counts))
        self.ncells = int(np.prod(self.cell_counts))
        self.nqp = 2**d
        self.m = tensors.num_components(d)

        axes = [np.linspace(-1.0, 1.0, 2 * n + 1) for _ in range(d - 1)]
        axes.append(np.linspace(0.0, 1.0, n + 1))
        mesh = np.meshgrid(*axes, indexing="ij")
        self.nodes = _read_only(np.stack([g.ravel() for g in mesh], axis=-1))

        self._offsets = np.array(list(itertools.product((0, 1), repeat=d)))
        cell_idx = np.stack(np.meshgrid(*[np.arange(c) for c in self.cell_counts],
                                        indexing="ij"), axis=-1).reshape(-1, d)
        corner = cell_idx[:, None, :] + self._offsets[None, :, :]
        self.cell_nodes = np.ravel_multi_index(
            tuple(corner[..., j] for j in range(d)), self.node_counts)
        self.cell_dofs = (self.cell_nodes[:, :, None] * d
                          + np.arange(d)[None, None, :]).reshape(self.ncells, -1)

        self._build_quadrature()
        self._build_boundary()

    # -- element operators -------------------------------------------------

    def _q1_rule(self, cells, face=False):
        """Gauss points (+-1/sqrt(3) per axis) of the reference cell, or of
        its face xi_d = -1 if face, as (pts, Q1 shape values (npts, 2^d),
        read-only physical coordinates in cells (len(cells), npts, d))."""
        d, h = self.d, self.h
        g = 1.0 / np.sqrt(3.0)
        pts = np.array(list(itertools.product((-g, g), repeat=d - face)))
        if face:
            pts = np.concatenate([pts, -np.ones((pts.shape[0], 1))], axis=1)
        signs = 2 * self._offsets - 1                      # corner signs +-1
        N = np.ones((pts.shape[0], signs.shape[0]))
        for j in range(d):
            N *= (1.0 + pts[:, None, j] * signs[None, :, j]) / 2.0
        origins = self.nodes[self.cell_nodes[cells, 0]]
        local = (pts + 1.0) / 2.0 * h
        return pts, N, _read_only(origins[:, None, :] + local[None, :, :])

    def _build_quadrature(self):
        d, h = self.d, self.h
        # physical quadrature coordinates per cell, and as one point list
        pts, N, self.qp_coords = self._q1_rule(slice(None))
        self.qp_points = self.qp_coords.reshape(-1, d)
        signs = 2 * self._offsets - 1
        nqp, nloc = N.shape
        gradN = np.empty((nqp, nloc, d))
        for j in range(d):
            g_ref = signs[None, :, j] / 2.0
            for k in range(d):
                if k != j:
                    g_ref = g_ref * (1.0 + pts[:, None, k] * signs[None, :, k]) / 2.0
            gradN[:, :, j] = g_ref * (2.0 / h)             # reference -> physical
        self.shape_values = N
        self.shape_grads = gradN
        self.qp_weight = (h / 2.0) ** d
        self.h1_gram = _read_only(
            (N.T @ N + np.einsum("qaj,qbj->ab", gradN, gradN))
            * self.qp_weight)

        # strain-displacement operator in Mandel components
        B = np.zeros((nqp, self.m, nloc, d))
        for q in range(nqp):
            for a in range(nloc):
                for i in range(d):
                    outer = np.zeros((d, d))
                    outer[i, :] = gradN[q, a, :]
                    B[q, :, a, i] = tensors.from_matrix(0.5 * (outer + outer.T))
        self.B = B

    # -- boundary ----------------------------------------------------------

    def _build_boundary(self):
        d, mode = self.d, self.geometry.mode
        idx = np.stack(np.unravel_index(np.arange(self.nnodes),
                                        self.node_counts), axis=-1)
        on_boundary = np.zeros(self.nnodes, dtype=bool)
        for j in range(d):
            on_boundary |= (idx[:, j] == 0) | (idx[:, j] == self.node_counts[j] - 1)

        x = self.nodes
        bottom = idx[:, d - 1] == 0
        inner_tangential = np.ones(self.nnodes, dtype=bool)
        for j in range(d - 1):
            inner_tangential &= (np.abs(x[:, j]) < 1.0 - 1e-12)
        if mode == "mixed":
            neumann_open = bottom & inner_tangential & (x[:, d - 2] > 1e-12)
        elif mode == "all-neumann-bottom":
            neumann_open = bottom & inner_tangential
        else:
            neumann_open = np.zeros(self.nnodes, dtype=bool)
        self.dirichlet_nodes = on_boundary & ~neumann_open
        self.dirichlet_points = _read_only(self.nodes[self.dirichlet_nodes])
        self.neumann_nodes = neumann_open
        self.dirichlet_dofs = np.repeat(self.dirichlet_nodes, d)
        self.free_dofs = np.flatnonzero(~self.dirichlet_dofs)

        # Neumann faces: bottom faces of first-layer cells
        cell_idx = np.stack(np.unravel_index(np.arange(self.ncells),
                                             self.cell_counts), axis=-1)
        bottom_cells = np.flatnonzero(cell_idx[:, d - 1] == 0)
        if mode == "mixed":
            lo = self.nodes[self.cell_nodes[bottom_cells, 0], d - 2]
            bottom_cells = bottom_cells[lo >= -1e-12]
        elif mode == "all-dirichlet":
            bottom_cells = bottom_cells[:0]
        self.neumann_cells = bottom_cells

        # face quadrature: full shape functions evaluated at (xi', -1)
        _, self.face_shape_values, self.face_qp_coords = self._q1_rule(
            bottom_cells, face=True)
        self.face_qp_weight = (self.h / 2.0) ** (d - 1)
        self.face_qp_points = self.face_qp_coords.reshape(-1, d)
        self.face_normal = np.zeros(d)
        self.face_normal[d - 1] = -1.0

    # -- fields ------------------------------------------------------------

    def cell_box(self, region=None) -> tuple:
        """Explicit-bounds box of cells: one slice(start, stop) per axis.

        region holds one unit-step cell slice per grid axis, clipped to
        the grid as slice.indices does; None gives the whole grid.
        """
        if region is None:
            return tuple(slice(0, c) for c in self.cell_counts)
        if len(region) != self.d:
            raise ValueError(f"a cell box takes {self.d} slices, "
                             f"got {len(region)}")
        box = []
        for s, count in zip(region, self.cell_counts):
            start, stop, step = s.indices(count)
            if step != 1:
                raise ValueError("a cell box takes unit-step slices")
            box.append(slice(start, max(start, stop)))
        return tuple(box)

    def sym_gradient(self, u: np.ndarray) -> np.ndarray:
        """Symmetric gradient of a nodal field, Mandel (ncells, nqp, m)."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.nnodes, self.d):
            raise ValueError(f"displacement shape {u.shape} does not match grid")
        u_cells = u[self.cell_nodes]
        return np.einsum("qmai,cai->cqm", self.B, u_cells, optimize=True)

    def gradient(self, u: np.ndarray, cells=None) -> np.ndarray:
        """Full gradient du_i/dx_j of a nodal field, (ncells, nqp, d, d).

        Given cell indices, only those cells' rows, in that order; each
        row has the bits it has in the gradient over all cells.
        """
        nodes = self.cell_nodes if cells is None else self.cell_nodes[cells]
        u_cells = u[nodes]
        return np.einsum("qaj,cai->cqij", self.shape_grads, u_cells,
                         optimize=True)

    def h1_norm_sq(self, u: np.ndarray) -> float:
        """Squared H^1 norm of a nodal field by the Gauss rule: the sum
        over cells and components of U^T h1_gram U, U the cell's corner
        values of one component (one matrix product for all of them)."""
        uc = u[self.cell_nodes.T].reshape(len(self.h1_gram), -1)
        return float(np.vdot(uc, self.h1_gram @ uc))

    def integrate_qp(self, qp_scalar: np.ndarray) -> float:
        """Integral over the domain of a scalar quadrature-point field."""
        return float(qp_scalar.sum() * self.qp_weight)

    # -- assembly ----------------------------------------------------------

    def internal_force(self, sigma_qp: np.ndarray) -> np.ndarray:
        """Nodal vector of int sigma : E(v_i); shape (nnodes*d,)."""
        fc = np.einsum("qmai,cqm->cai", self.B, sigma_qp, optimize=True)
        fc *= self.qp_weight
        return np.bincount(self.cell_dofs.ravel(), weights=fc.ravel(),
                           minlength=self.nnodes * self.d)

    def load_vector(self, body_fn=None, t: float = 0.0,
                    sigma0_fn=None) -> np.ndarray:
        """External load: int f . v plus the bottom-face traction integral.

        sigma0_fn(t, x) gives the Neumann stress data; the traction is
        sigma0 . n with n the outward normal of the bottom face.
        """
        out = np.zeros(self.nnodes * self.d)
        if body_fn is not None:
            fq = body_fn(t, self.qp_points)
            fq = np.asarray(fq).reshape(self.ncells, self.nqp, self.d)
            fc = np.einsum("qa,cqi->cai", self.shape_values, fq, optimize=True)
            fc *= self.qp_weight
            out += np.bincount(self.cell_dofs.ravel(), weights=fc.ravel(),
                               minlength=self.nnodes * self.d)
        if self.neumann_cells.size and sigma0_fn is not None:
            s0 = sigma0_fn(t, self.face_qp_points)
            mats = tensors.to_matrix(np.asarray(s0))
            gq = (mats @ self.face_normal).reshape(
                len(self.neumann_cells), -1, self.d)
            fc = np.einsum("qa,cqi->cai", self.face_shape_values, gq,
                           optimize=True)
            fc *= self.face_qp_weight
            dofs = self.cell_dofs[self.neumann_cells]
            out += np.bincount(dofs.ravel(), weights=fc.ravel(),
                               minlength=self.nnodes * self.d)
        return out

    def assemble_tangent(self, D_qp: np.ndarray) -> sparse.csr_matrix:
        """Stiffness from a quadrature-point modulus field (ncells, nqp, m, m).

        ``coo_matrix((Kc, (rows, cols))).tocsr()`` of the element
        matrices Kc[c, a, i, b, j], which couple dof i of corner a with
        dof j of corner b in cell c; tocsr sums duplicates in a fixed
        order, so equal fields give bit-identical matrices.
        """
        Kc = np.einsum("qmai,cqmn,qnbj->caibj", self.B, D_qp, self.B,
                       optimize=True)
        Kc *= self.qp_weight
        ndc = self.cell_dofs.shape[1]
        rows = np.repeat(self.cell_dofs, ndc, axis=1).ravel()
        cols = np.tile(self.cell_dofs, (1, ndc)).ravel()
        ndof = self.nnodes * self.d
        return sparse.coo_matrix((Kc.ravel(), (rows, cols)),
                                 shape=(ndof, ndof)).tocsr()

    def factorize(self, K: sparse.csr_matrix):
        """LU factors of the free block of the SPD matrix K (scipy SuperLU).

        Raises SolverFailure when SuperLU finds K singular.
        """
        free = self.free_dofs
        if free.size == 0:
            raise ValueError("no free unknowns (all-Dirichlet with zero dofs?)")
        Kff = K[free][:, free].tocsc()
        try:
            # K is SPD: symmetric-mode ordering halves the factor time
            return sparse_linalg.splu(Kff, permc_spec="MMD_AT_PLUS_A",
                                      options=dict(SymmetricMode=True))
        except RuntimeError as exc:   # singular factorization
            raise SolverFailure(str(exc)) from exc

    def make_solver(self, D_qp: np.ndarray | None, factor,
                    rtol: float = CG_RTOL):
        """Reusable solver on the free dofs (full-size in/out vectors).

        factor holds the LU factors (``factorize``) of an SPD matrix K0.
        With D_qp None the solver applies them, an exact solve with K0,
        and rtol is unused.  Otherwise CG solves with the stiffness K of
        the modulus field D_qp (as ``assemble_tangent`` would build it),
        preconditioned by factor, until |(K x - rhs)_free| <= rtol
        |rhs_free|, and a solve that does not get there raises
        SolverFailure.  CG needs only products K x, which are summed element
        by element from the element matrices (Hughes, Levit & Winget
        1983), so K is never assembled.  A hardening tangent stays
        spectrally close to the elastic stiffness, so with the elastic K0
        as preconditioner CG needs few iterations.
        """
        free = self.free_dofs

        def apply_factor(rhs):
            out = np.zeros_like(rhs)
            out[free] = factor.solve(rhs[free])
            return out

        if D_qp is None:
            return apply_factor
        d, ndof = self.d, self.nnodes * self.d
        fixed = self.dirichlet_dofs
        # Ke[i, j, a, b, c] couples dof i of corner a with dof j of
        # corner b in cell c; cells last is the einsum's own output
        # layout, and it keeps the product's inner loop contiguous
        Ke = np.einsum("qmai,cqmn,qnbj->ijabc", self.B, D_qp, self.B,
                       optimize=True)
        Ke *= self.qp_weight
        dofs = np.ascontiguousarray(
            self.cell_dofs.reshape(self.ncells, -1, d).T)   # (d, nloc, c)

        def matvec(x):
            yc = np.einsum("ijabc,jbc->iac", Ke, x[dofs])
            y = np.bincount(dofs.ravel(), weights=yc.ravel(),
                            minlength=ndof)
            # x vanishes on Dirichlet dofs; zeroing their rows too makes
            # this the free block of K
            y[fixed] = 0.0
            return y

        shape = (ndof, ndof)
        A = sparse_linalg.LinearOperator(shape, matvec=matvec, dtype=float)
        M = sparse_linalg.LinearOperator(shape, matvec=apply_factor,
                                         dtype=float)

        def solve(rhs):
            b = rhs.copy()
            b[fixed] = 0.0
            x, info = sparse_linalg.cg(A, b, rtol=rtol, atol=0.0, M=M)
            if info != 0:
                raise SolverFailure(f"CG failed to converge (info={info})")
            return x
        return solve


def build_grid(geometry: Geometry, n: int) -> Grid:
    return Grid(geometry, n)


# -- cutoff weight ----------------------------------------------------------


def _smoothstep(t: np.ndarray) -> np.ndarray:
    """C^2 quintic ramp from 0 to 1 on [0, 1]."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


def _bump(x, lo, hi, w):
    up = _smoothstep((x - lo) / w)
    down = _smoothstep((hi - x) / w)
    return np.where((x <= lo) | (x >= hi), 0.0, np.minimum(up, down))


@dataclass
class Cutoff:
    """Smooth localization weight phi, sampled at the quadrature points.

    Built by make_cutoff(grid, eps0, h0, side): phi vanishes within eps0
    of the Dirichlet/Neumann interface line and of the outer faces
    (except the declared bottom portion), equals one on a core region,
    and is constant in x_d on [0, h0].

    support is the box of cells outside which every qp_values entry is
    exactly 0: per cell axis, the slice spanned by the cells with a
    nonzero value (the exact support, phi being a tensor product).
    """

    qp_values: np.ndarray = field(repr=False)
    _axis_funcs: list = field(repr=False, default_factory=list)
    support: tuple = ()

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.ones(x.shape[:-1])
        for j, fn in enumerate(self._axis_funcs):
            out = out * fn(x[..., j])
        return out


def make_cutoff(grid: Grid, eps0: float, h0: float,
                side: str = "neumann") -> Cutoff:
    """Tensor-product C^2 cutoff adapted to the grid's boundary mode.

    side selects which half of the bottom face keeps the support in
    mixed mode ("neumann": x_{d-1} > 0, "dirichlet": x_{d-1} < 0).
    """
    if not 0.0 < eps0 < 0.5:
        raise ValueError("eps0 must lie in (0, 1/2)")
    if not 0.0 < h0 < 0.5:
        raise ValueError("h0 must lie in (0, 1/2)")
    if side not in ("neumann", "dirichlet"):
        raise ValueError("side must be 'neumann' or 'dirichlet'")
    d = grid.d
    mode = grid.geometry.mode

    funcs = []
    for j in range(d - 2):
        w = eps0
        funcs.append(lambda x, w=w: _bump(x, -1.0 + eps0, 1.0 - eps0, w))

    # split axis x_{d-1}
    if mode == "mixed":
        if side == "neumann":
            lo, hi = eps0, 1.0 - eps0
        else:
            lo, hi = -1.0 + eps0, -eps0
        w = min(eps0, (hi - lo) / 2.0)
        if hi - lo - 2.0 * w <= 1e-12:
            raise ValueError(
                f"core region empty on the split axis (eps0={eps0:g})")
    else:
        lo, hi, w = -1.0 + eps0, 1.0 - eps0, eps0
    funcs.append(lambda x, lo=lo, hi=hi, w=w: _bump(x, lo, hi, w))

    # normal axis: plateau [0, pe], C^2 descent, zero within eps0 of the top
    pe = max(h0, 1.0 - 2.0 * eps0)
    if pe >= 1.0 - eps0 - 1e-12:
        raise ValueError(
            f"inconsistent margins: no room to descend (h0={h0:g}, eps0={eps0:g})")
    ramp = 1.0 - eps0 - pe

    def phi_d(x, pe=pe, ramp=ramp):
        return np.where(x <= pe, 1.0, _smoothstep((pe + ramp - x) / ramp))

    funcs.append(phi_d)

    cutoff = Cutoff(qp_values=np.empty(0), _axis_funcs=funcs)
    cutoff.qp_values = cutoff(grid.qp_coords)
    nonzero = (cutoff.qp_values != 0.0).any(axis=1).reshape(grid.cell_counts)
    cutoff.support = tuple(
        _span(nonzero.any(axis=tuple(i for i in range(d) if i != j)))
        for j in range(d))
    return cutoff


def _span(mask: np.ndarray) -> slice:
    """Smallest slice holding every True entry of a 1-d mask."""
    idx = np.flatnonzero(mask)
    if not idx.size:
        return slice(0, 0)
    return slice(int(idx[0]), int(idx[-1]) + 1)
