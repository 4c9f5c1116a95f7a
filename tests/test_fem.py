"""Grid construction, boundary tags, strain evaluation, assembly, cutoff."""

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import spsolve

from plastprobe.constitutive import (ConstitutiveState, MaterialParams,
                                     SolverFailure, consistent_tangent)
from plastprobe.datagen import DataGenerator, PolyProfile, SineProfile
from plastprobe.fem import (CG_RTOL, MODES, Geometry, build_grid,
                            make_cutoff)
from plastprobe.tensors import (Tensor4Sym, dev_projector, from_matrix,
                                to_matrix)

from oracles import assert_same_bits, layouts


def test_node_and_cell_counts_2d():
    g = build_grid(Geometry(d=2, mode="mixed"), 2)
    assert g.nnodes == 15
    assert g.ncells == 8


def test_node_count_3d():
    g = build_grid(Geometry(d=3, mode="mixed"), 2)
    assert g.nnodes == 75


def test_rejects_tiny_grid():
    with pytest.raises(ValueError):
        build_grid(Geometry(d=2), 1)


def test_mixed_mode_bottom_tags():
    g = build_grid(Geometry(d=2, mode="mixed"), 2)

    def node_at(x):
        return int(np.argmin(np.linalg.norm(g.nodes - np.asarray(x), axis=1)))

    assert g.dirichlet_nodes[node_at([-0.5, 0.0])]
    assert not g.dirichlet_nodes[node_at([0.5, 0.0])]
    assert g.neumann_nodes[node_at([0.5, 0.0])]
    # interface node and outer corner are pinned
    assert g.dirichlet_nodes[node_at([0.0, 0.0])]
    assert g.dirichlet_nodes[node_at([1.0, 0.0])]


def test_all_dirichlet_has_no_neumann_faces():
    g = build_grid(Geometry(d=2, mode="all-dirichlet"), 4)
    assert g.neumann_cells.size == 0
    assert not g.neumann_nodes.any()


def test_quadrature_integrates_volume_exactly():
    for d in (2, 3):
        for n in (2, 3):
            g = build_grid(Geometry(d=d), n)
            vol = g.integrate_qp(np.ones((g.ncells, g.nqp)))
            assert vol == pytest.approx(2.0 ** (d - 1), rel=1e-14)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("d,n", [(2, 4), (3, 2)])
def test_h1_norm_matches_quadrature_formula(d, n, mode):
    # the element Gram matrix against the Gauss-rule integral of
    # |u|^2 + |grad u|^2 at the quadrature points
    g = build_grid(Geometry(d=d, mode=mode), n)
    S = g.h1_gram
    assert S.shape == (g.nqp, g.nqp)
    assert np.array_equal(S, S.T)
    assert not S.flags.writeable
    rng = np.random.default_rng(7)
    for _ in range(3):
        u = rng.standard_normal((g.nnodes, d))
        u_qp = np.einsum("qa,cai->cqi", g.shape_values, u[g.cell_nodes])
        grad = g.gradient(u)
        oracle = g.integrate_qp((u_qp**2).sum(axis=-1)
                                + (grad**2).sum(axis=(-1, -2)))
        assert g.h1_norm_sq(u) == pytest.approx(oracle, rel=1e-12)


def test_sym_gradient_reproduces_linear_fields():
    rng = np.random.default_rng(30)
    for d in (2, 3):
        g = build_grid(Geometry(d=d), 3)
        B = rng.standard_normal((d, d))
        u = g.nodes @ B.T
        strain = g.sym_gradient(u)
        expected = from_matrix(0.5 * (B + B.T))
        np.testing.assert_allclose(strain, np.broadcast_to(
            expected, strain.shape), atol=1e-13)


def test_sym_gradient_kills_rigid_rotation():
    g = build_grid(Geometry(d=2), 3)
    W = np.array([[0.0, 1.0], [-1.0, 0.0]])
    u = g.nodes @ W.T
    np.testing.assert_allclose(g.sym_gradient(u), 0.0, atol=1e-14)


def test_sym_gradient_quadratic_matches_analytic_derivative():
    # the Q1 interpolant of x1^2 carries the exact derivative 2*x1 at the
    # per-cell derivative superconvergence point (the cell center)
    g = build_grid(Geometry(d=2), 4)
    u = np.zeros((g.nnodes, 2))
    u[:, 0] = g.nodes[:, 0] ** 2
    strain = g.sym_gradient(u)
    x1_center = g.qp_coords[..., 0].mean(axis=1)
    expected = np.broadcast_to(2 * x1_center[:, None], strain[..., 0].shape)
    np.testing.assert_allclose(strain[..., 0], expected, atol=1e-13)


def _bit_samples(shape, rng):
    """A finite field of magnitudes 1e-8 to 1e8 with signed zeros and the
    smallest subnormal, and a copy with infs and NaNs sprinkled in."""
    finite = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
    finite.flat[rng.choice(finite.size, 9, replace=False)] = [
        0.0, -0.0] * 4 + [5e-324]
    special = finite.copy()
    special.flat[rng.choice(special.size, 6, replace=False)] = [
        np.inf, -np.inf, np.nan, np.inf, -0.0, np.nan]
    return finite, special


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("d,n", [(2, 4), (3, 2)])
def test_gathers_keep_the_fancy_index_bits(d, n, mode):
    # sym_gradient, gradient and h1_norm_sq give the bits of their
    # fancy-index einsum formulas, signed zeros, subnormals, inf and nan
    # included, whatever the memory layout of u; gradient also returns
    # the formula's (c, q, i, j) view of its product
    g = build_grid(Geometry(d=d, mode=mode), n)
    rng = np.random.default_rng(25)
    finite, special = _bit_samples((g.nnodes, d), rng)
    cells = np.append(rng.permutation(g.ncells)[:g.ncells // 3], -1)
    with np.errstate(all="ignore"):
        for f in (finite, special):
            for layout, u in layouts(f, rng).items():
                assert np.array_equal(u, f, equal_nan=True), layout
                oracle = np.einsum("qmai,cai->cqm", g.B, u[g.cell_nodes],
                                   optimize=True)
                assert_same_bits(g.sym_gradient(u), oracle, layout)
                for c in (None, cells, cells[:1]):
                    nodes = g.cell_nodes if c is None else g.cell_nodes[c]
                    oracle = np.einsum("qaj,cai->cqij", g.shape_grads,
                                       u[nodes], optimize=True)
                    grad = g.gradient(u, c)
                    assert_same_bits(grad, oracle, layout)
                    assert grad.strides == oracle.strides, layout
                    out = np.full_like(oracle, np.nan)
                    assert g.gradient(u, c, out=out) is out
                    assert_same_bits(out, oracle, layout)
                uc = u[g.cell_nodes.T].reshape(len(g.h1_gram), -1)
                quad = np.einsum("ab,bk->ak", g.h1_gram, uc)
                quad *= uc
                assert_same_bits(g.h1_norm_sq(u), float(quad.sum()), layout)
    with pytest.raises(ValueError, match="does not match grid"):
        g.sym_gradient(finite[:-1])
    with pytest.raises(IndexError):
        g.gradient(finite, np.array([0, g.ncells]))


class _FixedData:
    """Data whose body force and sigma0 are fixed arrays of point rows."""

    def __init__(self, f, s0):
        self.f, self.s0 = f, s0

    def body_force(self, t, x):
        return self.f

    def sigma0(self, t, x):
        return self.s0


def _load_formula(g, f, s0):
    """load_vector by its einsum formulas (optimize=True)."""
    ndof, d = g.nnodes * g.d, g.d
    fc = np.einsum("qa,cqi->cai", g.shape_values,
                   np.reshape(f, (g.ncells, g.nqp, d)), optimize=True)
    fc *= g.qp_weight
    out = np.zeros(ndof)
    out += np.bincount(g.cell_dofs.ravel(), weights=fc.ravel(),
                       minlength=ndof)
    if g.neumann_cells.size:
        gq = (to_matrix(s0) @ g.face_normal).reshape(
            len(g.neumann_cells), -1, d)
        fc = np.einsum("qa,cqi->cai", g.face_shape_values, gq, optimize=True)
        fc *= g.face_qp_weight
        out += np.bincount(g.cell_dofs[g.neumann_cells].ravel(),
                           weights=fc.ravel(), minlength=ndof)
    return out


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("d,n", [(2, 4), (3, 2)])
def test_force_kernels_are_their_einsum_formulas(d, n, mode):
    # internal_force and load_vector give the bits of their einsum
    # formulas, signed zeros, subnormals, inf and nan included, whatever
    # the memory layout of the stress or the body force rows
    g = build_grid(Geometry(d=d, mode=mode), n)
    rng = np.random.default_rng(26)
    ndof = g.nnodes * d
    faces = np.zeros((len(g.face_qp_points), g.m))
    with np.errstate(all="ignore"):
        for field in _bit_samples((g.ncells, g.nqp, g.m), rng):
            for layout, sigma in layouts(field, rng).items():
                fc = np.einsum("qmai,cqm->cai", g.B, sigma, optimize=True)
                fc *= g.qp_weight
                oracle = np.bincount(g.cell_dofs.ravel(), weights=fc.ravel(),
                                     minlength=ndof)
                assert_same_bits(g.internal_force(sigma), oracle, layout)
        for f, s0 in zip(_bit_samples((g.ncells * g.nqp, d), rng),
                         _bit_samples(faces.shape, rng) if faces.size
                         else (faces, faces)):
            for layout, rows in layouts(f, rng).items():
                assert_same_bits(g.load_vector(_FixedData(rows, s0), 0.0),
                                 _load_formula(g, rows, s0), layout)


def test_force_kernels_reject_fields_off_the_grid():
    # a field with the right size but not (ncells, nqp, .) is refused,
    # as the einsum formulas refused it
    g = build_grid(Geometry(d=2, mode="mixed"), 4)
    nf = len(g.face_qp_points)
    for sigma in (np.zeros((g.nqp, g.ncells, g.m)),
                  np.zeros((g.ncells, g.nqp * g.m)),
                  np.zeros((g.ncells, g.nqp, g.m, 1))):
        with pytest.raises(ValueError, match="does not match grid"):
            g.internal_force(sigma)
    rows, faces = np.zeros((g.ncells * g.nqp, 2)), np.zeros((nf, g.m))
    for f, s0 in ((np.zeros((g.nqp, g.ncells, 2)), faces),
                  (rows.T, faces),
                  (rows, np.zeros((nf // 2, 2, g.m)))):
        with pytest.raises(ValueError, match="does not match grid"):
            g.load_vector(_FixedData(f, s0), 0.0)


def test_constant_stress_field_in_equilibrium():
    # constant sigma, f = 0, matching traction: residual vanishes identically
    g = build_grid(Geometry(d=2, mode="mixed"), 4)
    sig_mat = np.array([[1.3, 0.4], [0.4, -0.2]])
    sigma = np.broadcast_to(from_matrix(sig_mat), (g.ncells, g.nqp, 3)).copy()
    data = _FixedData(np.zeros(g.qp_points.shape), np.broadcast_to(
        from_matrix(sig_mat), (len(g.face_qp_points), 3)))
    r = g.internal_force(sigma) - g.load_vector(data, 0.0)
    assert np.abs(r[g.free_dofs]).max() <= 1e-13


def _elastic_solve(grid, elastic, data, t):
    """One-shot linear elastic solve with Dirichlet data u0(t)."""
    a_inv = np.linalg.inv(elastic.matrix)
    u = np.zeros((grid.nnodes, grid.d))
    u[grid.dirichlet_nodes] = data.u0(t, grid.nodes[grid.dirichlet_nodes])
    sigma = np.einsum("mn,cqn->cqm", a_inv, grid.sym_gradient(u))
    r = grid.internal_force(sigma) - grid.load_vector(data, t)
    du = grid.make_solver(None, grid.factorize(a_inv))(-r)
    return u + du.reshape(grid.nnodes, grid.d)


def test_patch_test_linear_dirichlet_data():
    # linear u0, elastic identity material, f = 0: exact reproduction
    elastic = Tensor4Sym.identity_map(2)
    lam = np.array([[0.7, 0.2], [0.2, -0.4]])
    data = DataGenerator([([0.0, 1.0], PolyProfile(2, linear=lam))], elastic)
    for mode in ("mixed", "all-dirichlet"):
        g = build_grid(Geometry(d=2, mode=mode), 2)
        u = _elastic_solve(g, elastic, data, t=1.0)
        np.testing.assert_allclose(u, data.u0(1.0, g.nodes), atol=1e-10)


def test_manufactured_solution_convergence():
    # smooth sine displacement, exact f: L2 rate >= 1.9 under refinement
    elastic = Tensor4Sym.isotropic(2, dev_modulus=1.0, vol_modulus=0.5)
    prof = SineProfile(2, amp=[0.1, -0.07],
                       freq=[[2.1, 1.3], [1.1, 2.7]],
                       phase=[[0.3, 0.4], [1.1, 0.2]])
    data = DataGenerator([([0.0, 1.0], prof)], elastic)
    errs = []
    for n in (4, 8, 16):
        g = build_grid(Geometry(d=2, mode="all-dirichlet"), n)
        u = _elastic_solve(g, elastic, data, t=1.0)
        diff = u - data.u0(1.0, g.nodes)
        # nodal L2 norm is enough for a rate check
        errs.append(np.sqrt((diff**2).sum() / g.nnodes))
    rate1 = np.log2(errs[0] / errs[1])
    rate2 = np.log2(errs[1] / errs[2])
    assert rate1 >= 1.9
    assert rate2 >= 1.9


def test_body_force_matches_weak_divergence():
    # the residual with sigma = sigma0 and f = -div sigma0 vanishes
    from plastprobe.evolution import initial_state, weak_divergence_defect
    elastic = Tensor4Sym.isotropic(2, 1.4, 0.8)
    prof = SineProfile(2, amp=[0.2, 0.1], freq=[[1.5, 2.0], [2.5, 1.0]],
                       phase=[[0.2, 0.7], [0.4, 1.3]])
    data = DataGenerator([([0.3, 1.0], prof)], elastic)
    from plastprobe.constitutive import MaterialParams
    params = MaterialParams(elastic=elastic, model="isotropic", kappa=1.0,
                            mu=0.1, hardening_modulus=1.0)
    for n in (4, 8, 16):
        g = build_grid(Geometry(d=2, mode="mixed"), n)
        sigma0 = initial_state(g, params, data)[1].sigma
        defect = weak_divergence_defect(g, data, sigma0)
        # Galerkin projection of a pointwise-exact identity: O(h^2) quadrature
        assert defect <= 0.5 / n**2


def test_tangent_spd_on_free_dofs():
    for mode in ("mixed", "all-dirichlet"):
        g = build_grid(Geometry(d=2, mode=mode), 3)
        a_inv = np.eye(3)
        D = np.ascontiguousarray(np.broadcast_to(a_inv, (g.ncells, g.nqp, 3, 3)))
        K = g.assemble_tangent(D)
        Kff = K[g.free_dofs][:, g.free_dofs].toarray()
        np.testing.assert_allclose(Kff, Kff.T, atol=1e-12)
        lam = np.linalg.eigvalsh(Kff)
        assert lam[0] > 0.0


def test_cutoff_vanishes_at_interface_and_is_one_in_core():
    g = build_grid(Geometry(d=2, mode="mixed"), 8)
    phi = make_cutoff(g, eps0=0.2, h0=0.1, side="neumann")
    assert phi(np.array([0.0, 0.0])) == 0.0
    assert phi(np.array([0.5, 0.25])) == pytest.approx(1.0)
    assert phi(np.array([0.05, 0.3])) == 0.0      # within eps0 of interface
    assert phi(np.array([0.95, 0.3])) == 0.0      # within eps0 of outer face
    assert phi(np.array([0.5, 0.95])) == 0.0      # near the top face


def test_cutoff_range_and_normal_plateau():
    g = build_grid(Geometry(d=2, mode="mixed"), 8)
    phi = make_cutoff(g, eps0=0.15, h0=0.2)
    vals = phi.qp_values
    assert vals.min() >= 0.0 and vals.max() <= 1.0
    # derivative in x_d vanishes below h0 (finite differences)
    rng = np.random.default_rng(31)
    x1 = rng.uniform(-1, 1, 100)
    xd = rng.uniform(1e-3, 0.2 - 1e-3, 100)
    pts = np.stack([x1, xd], axis=-1)
    step = 1e-5
    up = pts.copy()
    up[:, 1] += step
    dn = pts.copy()
    dn[:, 1] -= step
    deriv = (phi(up) - phi(dn)) / (2 * step)
    assert np.abs(deriv).max() <= 1e-10


def test_cutoff_margin_validation():
    g = build_grid(Geometry(d=2, mode="mixed"), 4)
    with pytest.raises(ValueError):
        make_cutoff(g, eps0=0.3, h0=0.1)     # split-axis core empty
    with pytest.raises(ValueError):
        make_cutoff(g, eps0=0.45, h0=0.45)   # no room to descend
    with pytest.raises(ValueError):
        make_cutoff(g, eps0=0.6, h0=0.1)


def test_cutoff_dirichlet_side():
    g = build_grid(Geometry(d=2, mode="mixed"), 8)
    phi = make_cutoff(g, eps0=0.2, h0=0.1, side="dirichlet")
    assert phi(np.array([-0.5, 0.25])) == pytest.approx(1.0)
    assert phi(np.array([0.5, 0.25])) == 0.0


def test_cutoff_3d_smoke():
    g = build_grid(Geometry(d=3, mode="mixed"), 2)
    phi = make_cutoff(g, eps0=0.2, h0=0.1)
    assert phi(np.array([0.0, 0.5, 0.25])) == pytest.approx(1.0)
    assert phi(np.array([0.9, 0.5, 0.25])) == 0.0  # near outer x1 face
    assert phi(np.array([0.0, 0.05, 0.0])) == 0.0  # near interface line


def test_korn_coercivity_small_grids():
    # smallest eigenvalue of the elastic tangent on free dofs is positive
    for mode in ("mixed", "all-dirichlet", "all-neumann-bottom"):
        for n in (2, 4):
            g = build_grid(Geometry(d=2, mode=mode), n)
            D = np.ascontiguousarray(np.broadcast_to(
                np.eye(3), (g.ncells, g.nqp, 3, 3)))
            K = g.assemble_tangent(D)
            Kff = K[g.free_dofs][:, g.free_dofs].toarray()
            assert np.linalg.eigvalsh(Kff)[0] > 1e-10


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("d,n", [(2, 4), (3, 2)])
def test_assemble_tangent_bit_identical_to_coo_tocsr(d, n, mode):
    # the elastic stiffness that the run factors must be bit for bit a
    # fresh COO conversion of the element matrices; element (c, a, i, b, j)
    # couples dofs[c, a*d+i] and dofs[c, b*d+j]
    g = build_grid(Geometry(d=d, mode=mode), n)
    m = g.m
    rng = np.random.default_rng(60 + d)
    ndc = g.cell_dofs.shape[1]
    dofs = g.cell_dofs.astype(np.int32)       # the index type tocsr picks
    rows = np.repeat(dofs, ndc, axis=1).ravel()
    cols = np.tile(dofs, (1, ndc)).ravel()
    elastic = np.ascontiguousarray(np.broadcast_to(
        np.linalg.inv(Tensor4Sym.isotropic(d, 1.3, 0.7).matrix),
        (g.ncells, g.nqp, m, m)))
    R = rng.standard_normal((g.ncells, g.nqp, m, m))
    fields = [elastic, R + np.swapaxes(R, -1, -2),
              # strided and transposed inputs change the einsum's layout
              np.swapaxes(R + np.swapaxes(R, -1, -2), -1, -2)[::-1],
              np.zeros((g.ncells, g.nqp, m, m))]
    built = []
    for D in fields:
        K = g.assemble_tangent(D)
        Kc = np.einsum("qmai,cqmn,qnbj->caibj", g.B, D, g.B, optimize=True)
        Kc *= g.qp_weight
        ref = sparse.coo_matrix((Kc.ravel(), (rows, cols)),
                                shape=K.shape).tocsr()
        assert K.data.tobytes() == ref.data.tobytes()
        np.testing.assert_array_equal(K.indices, ref.indices)
        np.testing.assert_array_equal(K.indptr, ref.indptr)
        assert K.has_canonical_format
        built.append(K)
    for i, K in enumerate(built):
        for other in built[i + 1:]:
            assert not np.shares_memory(K.data, other.data)


def test_singular_tangent_raises():
    # a zero modulus field produces a singular system: surfaced as the
    # solver failure of a factorization, which belongs to no step
    g = build_grid(Geometry(d=2, mode="mixed"), 2)
    with pytest.raises(SolverFailure, match="singular") as err:
        g.factorize(np.zeros((3, 3)))
    assert err.value.step_index is None


@pytest.mark.parametrize("mode", ["mixed", "all-neumann-bottom"])
def test_preconditioned_cg_matches_sparse_direct_solve(mode):
    # a plastic consistent tangent, applied element by element in CG with
    # the elastic factors as preconditioner, against a direct solve of
    # the assembled tangent
    for d, n in ((2, 4), (3, 2)):
        g = build_grid(Geometry(d=d, mode=mode), n)
        m = g.m
        elastic = Tensor4Sym.isotropic(d, dev_modulus=1.0, vol_modulus=0.5)
        params = MaterialParams(elastic=elastic, model="isotropic",
                                kappa=1.0, mu=0.1, hardening_modulus=1.0)
        rng = np.random.default_rng(31)
        state = ConstitutiveState.zeros("isotropic", d, (g.ncells, g.nqp))
        deps = 1.5 * rng.standard_normal((g.ncells, g.nqp, m))
        D = consistent_tangent(state, deps, 0.05, params)
        a_inv = np.linalg.inv(elastic.matrix)
        assert not np.allclose(D, a_inv)
        K = g.assemble_tangent(D)
        K_el = g.assemble_tangent(np.ascontiguousarray(np.broadcast_to(
            a_inv, (g.ncells, g.nqp, m, m))))
        rhs = rng.standard_normal(g.nnodes * d)
        rhs[g.dirichlet_dofs] = 0.0
        free = g.free_dofs
        ref = np.zeros_like(rhs)
        ref[free] = spsolve(K[free][:, free].tocsc(), rhs[free])
        factor = g.factorize(a_inv)
        x = g.make_solver(D, factor)(rhs)
        assert np.all(x[g.dirichlet_dofs] == 0.0)
        assert np.abs(x - ref).max() <= 1e-9 * np.abs(ref).max()
        # the elastic factors alone solve the elastic system exactly
        x = g.make_solver(None, factor)(rhs)
        np.testing.assert_allclose(K_el[free] @ x, rhs[free], atol=1e-12)


@pytest.mark.parametrize("kind", ["fast", "general", "unsymmetric"])
@pytest.mark.parametrize("d,n", [(2, 4), (3, 2)])
def test_cg_product_is_the_assembled_tangent(d, n, kind, monkeypatch):
    # the product CG applies equals the free block of assemble_tangent(D)
    # to round-off: a radial-return tangent, a general-branch tangent and
    # a modulus field without symmetry, which an index-order slip in the
    # element table would not survive
    from plastprobe import fem
    g = build_grid(Geometry(d=d, mode="mixed"), n)
    m = g.m
    rng = np.random.default_rng(40 + d)
    elastic = Tensor4Sym.isotropic(d, dev_modulus=1.0, vol_modulus=0.5)
    if kind == "general":
        elastic = Tensor4Sym.from_matrix(elastic.matrix)
    params = MaterialParams(elastic=elastic, model="isotropic", kappa=1.0,
                            mu=0.1, hardening_modulus=1.0)
    if kind == "unsymmetric":
        D = rng.standard_normal((g.ncells, g.nqp, m, m))
    else:
        state = ConstitutiveState.zeros("isotropic", d, (g.ncells, g.nqp))
        deps = 1.5 * rng.standard_normal((g.ncells, g.nqp, m))
        D = consistent_tangent(state, deps, 0.05, params)
        assert not np.allclose(D, np.linalg.inv(elastic.matrix))
    operators = []

    def capture(A, b, **kwargs):
        operators.append(A)
        return np.zeros_like(b), 0

    monkeypatch.setattr(fem.sparse_linalg, "cg", capture)
    factor = g.factorize(np.linalg.inv(elastic.matrix))
    g.make_solver(D, factor)(np.ones(g.nnodes * d))
    x = rng.standard_normal(g.nnodes * d)
    x[g.dirichlet_dofs] = 0.0
    y = operators[0].matvec(x)
    free = g.free_dofs
    ref = g.assemble_tangent(D)[free][:, free] @ x[free]
    assert np.all(y[g.dirichlet_dofs] == 0.0)
    assert np.linalg.norm(y[free] - ref) <= 1e-13 * np.linalg.norm(ref)


def _elastic_modulus(d):
    return np.linalg.inv(Tensor4Sym.isotropic(d, dev_modulus=1.0,
                                              vol_modulus=0.5).matrix)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("d,n", [(2, 4), (2, 16), (3, 2), (3, 4)])
def test_band_preconditioner_inverts_the_elastic_stiffness(d, n, mode):
    # the float32 band factor undoes the free block of the elastic
    # stiffness to single-precision accuracy, its band built from the one
    # element matrix agreeing with the assembled matrix
    g = build_grid(Geometry(d=d, mode=mode), n)
    a_inv = _elastic_modulus(d)
    factor = g.factorize(a_inv)
    K0 = g.assemble_tangent(np.ascontiguousarray(np.broadcast_to(
        a_inv, (g.ncells, g.nqp, g.m, g.m))))
    free = g.free_dofs
    x = np.random.default_rng(70 + d).standard_normal(free.size)
    y = factor.precondition(K0[free][:, free] @ x)
    assert y.shape == x.shape
    assert np.linalg.norm(y - x) <= 1e-5 * np.linalg.norm(x)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("d", [2, 3])
def test_band_cholesky_rejects_singular_and_indefinite_moduli(d, mode):
    # a zero modulus gives a zero pivot and an indefinite one (a bulk
    # modulus of -20 against a shear stiffness of 1) a negative pivot:
    # both are solver failures that name the band factorization, and
    # SuperLU does not stop the indefinite one
    g = build_grid(Geometry(d=d, mode=mode), 3 if d == 2 else 2)
    indefinite = np.linalg.inv(Tensor4Sym.isotropic(
        d, dev_modulus=1.0, vol_modulus=-0.05).matrix)
    for modulus in (np.zeros((g.m, g.m)), indefinite):
        with pytest.raises(SolverFailure, match="band Cholesky"):
            g.band_cholesky(modulus)
    factor = g.factorize(indefinite)
    D = np.ascontiguousarray(np.broadcast_to(_elastic_modulus(d),
                                             (g.ncells, g.nqp, g.m, g.m)))
    with pytest.raises(SolverFailure, match="band Cholesky") as err:
        g.make_solver(D, factor)(np.ones(g.nnodes * d))
    assert err.value.step_index is None


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("d,n", [(2, 32), (3, 6)])
def test_band_preconditioned_cg_takes_no_more_iterations_than_exact(
        d, n, mode):
    # at the tightest CG tolerance, on a modulus whose shear stiffness is
    # cut to a tenth at 60% of the points (28-30 iterations at d = 2,
    # n = 32), the float32 band preconditioner costs CG no iteration more
    # than the exact float64 solve with K0 (SuperLU), and both meet the
    # tolerance
    g = build_grid(Geometry(d=d, mode=mode), n)
    elastic = Tensor4Sym.isotropic(d, dev_modulus=1.0, vol_modulus=0.5)
    a_inv = np.linalg.inv(elastic.matrix)
    rng = np.random.default_rng(80 + d)
    cut = np.where(rng.random((g.ncells, g.nqp)) < 0.6, 0.9, 0.0)
    D = a_inv - cut[..., None, None] * dev_projector(d)
    rhs = rng.standard_normal(g.nnodes * d)
    rhs[g.dirichlet_dofs] = 0.0
    free = g.free_dofs
    K = g.assemble_tangent(D)[free][:, free]
    counts = {}
    for kind in ("band", "exact"):
        factor = g.factorize(a_inv)
        if kind == "exact":
            factor.precondition = factor.solve
        counts[kind] = []
        x = g.make_solver(D, factor, iterations=counts[kind])(rhs)
        assert np.linalg.norm(K @ x[free] - rhs[free]) \
            <= CG_RTOL * np.linalg.norm(rhs[free])
    assert 20 <= counts["band"][0] <= counts["exact"][0]
