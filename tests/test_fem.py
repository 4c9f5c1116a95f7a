"""Grid construction, boundary tags, strain evaluation, assembly, cutoff."""

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import spsolve

from plastprobe.constitutive import (ConstitutiveState, MaterialParams,
                                     SolverFailure, consistent_tangent)
from plastprobe.datagen import DataGenerator, PolyProfile, SineProfile
from plastprobe.fem import MODES, Geometry, build_grid, make_cutoff
from plastprobe.tensors import Tensor4Sym, from_matrix


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


def test_constant_stress_field_in_equilibrium():
    # constant sigma, f = 0, matching traction: residual vanishes identically
    g = build_grid(Geometry(d=2, mode="mixed"), 4)
    sig_mat = np.array([[1.3, 0.4], [0.4, -0.2]])
    sigma = np.broadcast_to(from_matrix(sig_mat), (g.ncells, g.nqp, 3)).copy()

    def sigma0_fn(t, x):
        return np.broadcast_to(from_matrix(sig_mat), x.shape[:-1] + (3,))

    r = g.internal_force(sigma) - g.load_vector(sigma0_fn=sigma0_fn)
    assert np.abs(r[g.free_dofs]).max() <= 1e-13


def _elastic_solve(grid, elastic, data, t):
    """One-shot linear elastic solve with Dirichlet data u0(t)."""
    a_inv = np.linalg.inv(elastic.matrix)
    D = np.ascontiguousarray(np.broadcast_to(
        a_inv, (grid.ncells, grid.nqp, grid.m, grid.m)))
    K = grid.assemble_tangent(D)
    u = np.zeros((grid.nnodes, grid.d))
    u[grid.dirichlet_nodes] = data.u0(t, grid.nodes[grid.dirichlet_nodes])
    sigma = np.einsum("mn,cqn->cqm", a_inv, grid.sym_gradient(u))
    r = grid.internal_force(sigma) - grid.load_vector(
        body_fn=data.body_force, sigma0_fn=data.sigma0, t=t)
    du = grid.make_solver(None, grid.factorize(K))(-r)
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
    D = np.zeros((g.ncells, g.nqp, 3, 3))
    K = g.assemble_tangent(D)
    with pytest.raises(SolverFailure, match="singular") as err:
        g.factorize(K)
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
        factor = g.factorize(K_el)
        x = g.make_solver(D, factor)(rhs)
        assert np.all(x[g.dirichlet_dofs] == 0.0)
        assert np.abs(x - ref).max() <= 1e-9 * np.abs(ref).max()
        # the elastic factors alone solve the elastic system exactly
        x = g.make_solver(None, factor)(rhs)
        np.testing.assert_allclose(K_el[free] @ x, rhs[free], atol=1e-12)
