"""Tensor kernel: storage convention, deviator, penalty map, ellipticity."""

import numpy as np
import pytest

from plastprobe import tensors
from plastprobe.tensors import (Tensor4Sym, check_ellipticity, dev, from_matrix,
                                identity, inner, norm, penalty, to_matrix, tr)

from oracles import (assert_same_bits, fd_gradient, frobenius_inner_dense,
                     penalty_energy, random_spd_tensor4)


def test_round_trip_matrix():
    rng = np.random.default_rng(0)
    for d in (2, 3):
        mat = rng.standard_normal((d, d))
        sym = 0.5 * (mat + mat.T)
        vec = from_matrix(sym)
        np.testing.assert_allclose(to_matrix(vec), sym, atol=1e-15)
        np.testing.assert_allclose(to_matrix(vec), to_matrix(vec).T, atol=0)


def test_dev_isotropic_tensor_is_zero():
    vec = from_matrix(np.diag([1.0, 1.0]))
    np.testing.assert_allclose(dev(vec), 0.0, atol=1e-16)


def test_dev_diag_2_0():
    vec = from_matrix(np.diag([2.0, 0.0]))
    np.testing.assert_allclose(to_matrix(dev(vec)), np.diag([1.0, -1.0]), atol=1e-15)


def test_dev_reconstruction_random_3d():
    rng = np.random.default_rng(1)
    for _ in range(50):
        mat = rng.standard_normal((3, 3))
        vec = from_matrix(0.5 * (mat + mat.T))
        d = dev(vec)
        assert abs(tr(d)) <= 1e-14
        rest = to_matrix(vec - d)
        # the non-deviatoric remainder must be a multiple of the identity
        off = rest - np.trace(rest) / 3 * np.eye(3)
        assert np.abs(off).max() <= 1e-14


def test_inner_identity():
    for d in (2, 3):
        assert inner(identity(d), identity(d)) == pytest.approx(d)


def test_inner_counts_both_offdiagonal_copies():
    s = from_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert inner(s, s) == pytest.approx(2.0)


def test_inner_matches_dense_frobenius():
    rng = np.random.default_rng(2)
    for d in (2, 3):
        for _ in range(50):
            a = rng.standard_normal((d, d))
            b = rng.standard_normal((d, d))
            a = 0.5 * (a + a.T)
            b = 0.5 * (b + b.T)
            got = inner(from_matrix(a), from_matrix(b))
            assert got == pytest.approx(frobenius_inner_dense(a, b), abs=1e-14)


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        inner(identity(2), identity(3))


def test_apply4_identity_and_scaling():
    rng = np.random.default_rng(3)
    t = from_matrix(rng.standard_normal((2, 2)) @ np.eye(2))
    t = dev(t) + identity(2)
    eye = Tensor4Sym.identity_map(2)
    np.testing.assert_allclose(eye.apply(t), t, atol=1e-15)
    two = Tensor4Sym.from_matrix(2 * np.eye(3), d=2)
    np.testing.assert_allclose(two.apply(t), 2 * t, atol=1e-15)


def test_apply4_matches_dense_matvec():
    rng = np.random.default_rng(4)
    for d in (2, 3):
        C = random_spd_tensor4(rng, d)
        v = rng.standard_normal(tensors.num_components(d))
        np.testing.assert_allclose(C.apply(v), C.matrix @ v, atol=1e-14)


def test_apply4_isotropic_fast_path_matches_dense():
    rng = np.random.default_rng(5)
    for d in (2, 3):
        C = Tensor4Sym.isotropic(d, dev_modulus=1.7, vol_modulus=0.6)
        dense = Tensor4Sym.from_matrix(C.matrix.copy(), d=d)
        v = rng.standard_normal(tensors.num_components(d))
        np.testing.assert_allclose(C.apply(v), dense.apply(v), atol=1e-14)


def test_apply4_full_tensor_contraction_agrees():
    rng = np.random.default_rng(6)
    for d in (2, 3):
        C = random_spd_tensor4(rng, d)
        C = Tensor4Sym.from_matrix(0.5 * (C.matrix + C.matrix.T), d=d)
        full = C.as_full_tensor()
        mat = rng.standard_normal((d, d))
        mat = 0.5 * (mat + mat.T)
        applied = np.einsum("ijkl,kl->ij", full, mat)
        np.testing.assert_allclose(to_matrix(C.apply(from_matrix(mat))),
                                   applied, atol=1e-13)


def test_check_ellipticity_identity():
    rep = check_ellipticity(Tensor4Sym.identity_map(2), 1.0)
    assert rep.passed
    assert rep.lam_min == pytest.approx(1.0)
    assert rep.lam_max == pytest.approx(1.0)


def test_check_ellipticity_twice_identity_fails():
    rep = check_ellipticity(Tensor4Sym.from_matrix(2 * np.eye(3), d=2), 1.0)
    assert not rep.passed
    assert rep.lam_max == pytest.approx(2.0)


def test_check_ellipticity_eigenvalues_match_dense_solver():
    rng = np.random.default_rng(7)
    for d in (2, 3):
        C = random_spd_tensor4(rng, d)
        rep = check_ellipticity(C, 1e-3)
        lam = np.linalg.eigvalsh(C.matrix)
        assert rep.lam_min == pytest.approx(lam[0], abs=1e-10)
        assert rep.lam_max == pytest.approx(lam[-1], abs=1e-10)


def test_check_ellipticity_rejects_nonsymmetric():
    mat = np.eye(3)
    mat[0, 1] = 1e-6
    with pytest.raises(ValueError):
        check_ellipticity(Tensor4Sym.from_matrix(mat, d=2), 1.0)


def test_penalty_inactive_below_kappa():
    rng = np.random.default_rng(8)
    beta = dev(from_matrix(rng.standard_normal((2, 2)) * 0.1))
    beta *= 0.5 / max(norm(beta), 1e-30)
    np.testing.assert_allclose(penalty(beta, 1.0, 0.1), 0.0, atol=0)
    np.testing.assert_allclose(penalty(np.zeros(3), 1.0, 0.1), 0.0, atol=0)


def test_penalty_spec_value():
    beta = from_matrix(np.diag([2.0, -2.0]))
    p = penalty(beta, kappa=1.0, mu=0.5)
    expected_mag = 2.0 * (2.0 * np.sqrt(2.0) - 1.0)
    assert norm(p) == pytest.approx(expected_mag, rel=1e-12)
    np.testing.assert_allclose(p / norm(p), beta / norm(beta), atol=1e-14)


def test_penalty_scales_inversely_with_mu():
    beta = from_matrix(np.diag([2.0, -2.0]))
    np.testing.assert_allclose(penalty(beta, 1.0, 0.05),
                               10 * penalty(beta, 1.0, 0.5), rtol=1e-13)


def test_penalty_monotone():
    rng = np.random.default_rng(9)
    for d in (2, 3):
        m = tensors.num_components(d)
        for _ in range(200):
            b1 = rng.standard_normal(m) * rng.uniform(0.1, 3.0)
            b2 = rng.standard_normal(m) * rng.uniform(0.1, 3.0)
            gap = inner(penalty(b1, 1.0, 0.2) - penalty(b2, 1.0, 0.2), b1 - b2)
            assert gap >= -1e-12


def test_penalty_is_gradient_of_energy():
    rng = np.random.default_rng(10)
    kappa, mu = 0.8, 0.3
    for d in (2, 3):
        m = tensors.num_components(d)
        for _ in range(20):
            beta = rng.standard_normal(m)
            mag = norm(beta)
            if abs(mag - kappa) < 0.05:  # stay away from the kink
                beta *= (kappa + 0.3) / mag
            grad = fd_gradient(lambda b: penalty_energy(b, kappa, mu), beta)
            p = penalty(beta, kappa, mu)
            scale = max(norm(p), 1.0)
            np.testing.assert_allclose(p, grad, atol=2e-6 * scale)


def test_deviator_orthogonal_to_identity():
    rng = np.random.default_rng(11)
    for d in (2, 3):
        m = tensors.num_components(d)
        v = rng.standard_normal(m)
        assert abs(inner(dev(v), identity(d))) <= 1e-13
        recon = dev(v) + tr(v) / d * identity(d)
        np.testing.assert_allclose(recon, v, atol=1e-13)


def test_spd_sandwich_on_random_maps():
    rng = np.random.default_rng(12)
    for d in (2, 3):
        C = random_spd_tensor4(rng, d, lam_lo=0.6, lam_hi=1.5)
        rep = check_ellipticity(C, 0.5)
        assert rep.passed
        for _ in range(50):
            v = rng.standard_normal(tensors.num_components(d))
            quad = inner(C.apply(v), v)
            nv = inner(v, v)
            assert 0.5 * nv - 1e-12 <= quad <= 2.0 * nv + 1e-12


# -- bit identity of the unrolled component kernels -------------------------
#
# tr, dev and inner add component slices instead of reducing over the
# component axis; they must give the very bits of numpy's reductions.

SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300,
                    5e-324, 1.0, -1.0, 1e16, -3.0])


def ref_tr(vec, d):
    return vec[..., :d].sum(-1)


def ref_dev(vec, d):
    out = vec.copy()
    out[..., :d] -= (vec[..., :d].sum(-1) / d)[..., None]
    return out


def ref_inner(a, b):
    return (a * b).sum(-1)


def component_samples(rng, m):
    """Arrays (..., m): random, special values, broadcast-ready and strided."""
    yield rng.standard_normal((64, m)) * 10.0 ** rng.integers(-8, 17, (64, m))
    yield rng.choice(SPECIAL, size=(300, m))
    yield rng.choice(SPECIAL, size=(3, 5, m))
    yield np.full((4, m), -0.0)
    yield rng.standard_normal(m)                         # a single tensor
    yield rng.standard_normal((6, 2 * m))[:, ::2]        # strided components
    yield rng.standard_normal((m, 9)).T                  # component axis first
    yield rng.standard_normal((5, 7, m))[::2, ::-3]      # strided leading axes


@pytest.mark.parametrize("d", [2, 3])
def test_component_kernels_bit_identical_to_reductions(d):
    rng = np.random.default_rng(40 + d)
    m = tensors.num_components(d)
    with np.errstate(all="ignore"):
        for vec in component_samples(rng, m):
            assert_same_bits(tr(vec), ref_tr(vec, d))
            assert_same_bits(dev(vec), ref_dev(vec, d))
            for other in component_samples(rng, m):
                try:
                    np.broadcast_shapes(vec.shape, other.shape)
                except ValueError:
                    continue
                assert_same_bits(inner(vec, other), ref_inner(vec, other))
            assert_same_bits(norm(vec), np.sqrt(ref_inner(vec, vec)))
            # broadcast against one tensor and across leading axes
            one = rng.choice(SPECIAL, size=m)
            assert_same_bits(inner(vec, one), ref_inner(vec, one))
            col = rng.standard_normal((2,) + (1,) * (vec.ndim - 1) + (m,))
            assert_same_bits(inner(col, vec), ref_inner(col, vec))


def test_component_kernels_keep_scalar_results_scalar():
    v = np.array([1.0, 2.0, 3.0])
    assert type(tr(v)) is type(ref_tr(v, 2))
    assert type(inner(v, v)) is type(ref_inner(v, v))


def _sine_value_ref(p, x):
    return p.amp * np.sin(p._args(x)).prod(axis=-1)


def _sine_grad_ref(p, x):
    arg = p._args(x)
    s, c = np.sin(arg), np.cos(arg)
    out = np.empty(arg.shape)
    for j in range(p.d):
        rest = np.prod(np.delete(s, j, axis=-1), axis=-1)
        out[..., :, j] = p.amp * p.freq[:, j] * c[..., :, j] * rest
    return out


def _sine_hess_ref(p, x):
    arg = p._args(x)
    s, c = np.sin(arg), np.cos(arg)
    d = p.d
    out = np.empty(arg.shape[:-1] + (d, d))
    for j in range(d):
        for k in range(j, d):
            if j == k:
                val = -p.amp * p.freq[:, j] ** 2 * s.prod(axis=-1)
            else:
                keep = [m for m in range(d) if m not in (j, k)]
                rest = (np.prod(s[..., :, keep], axis=-1)
                        if keep else np.ones(arg.shape[:-1]))
                val = (p.amp * p.freq[:, j] * p.freq[:, k]
                       * c[..., :, j] * c[..., :, k] * rest)
            out[..., :, j, k] = val
            out[..., :, k, j] = val
    return out


@pytest.mark.parametrize("d", [2, 3])
def test_sine_profile_bit_identical_to_prod_forms(d):
    from plastprobe.datagen import SineProfile
    rng = np.random.default_rng(50 + d)
    prof = SineProfile(d, rng.standard_normal(d), 3 * rng.standard_normal((d, d)),
                       rng.standard_normal((d, d)))
    for x in (rng.uniform(-1.0, 1.0, (257, d)), rng.uniform(-1.0, 1.0, d),
              np.zeros((3, d)), rng.uniform(-1.0, 1.0, (4, 2 * d))[:, ::2]):
        assert_same_bits(prof.value(x), _sine_value_ref(prof, x))
        assert_same_bits(prof.grad(x), _sine_grad_ref(prof, x))
        assert_same_bits(prof.hess(x), _sine_hess_ref(prof, x))


@pytest.mark.parametrize("d", [2, 3])
def test_inverse_is_built_once_per_tensor(d):
    for t in (Tensor4Sym.isotropic(d, 0.7, 1.9),
              random_spd_tensor4(np.random.default_rng(d), d)):
        inv = t.inverse()
        assert t.inverse() is inv
        fresh = (Tensor4Sym.isotropic(d, 1.0 / t.dev_modulus,
                                      1.0 / t.vol_modulus)
                 if t.is_isotropic else
                 Tensor4Sym(matrix=np.linalg.inv(t.matrix), d=d))
        assert inv.matrix.tobytes() == fresh.matrix.tobytes()
        assert (inv.dev_modulus, inv.vol_modulus) == (fresh.dev_modulus,
                                                      fresh.vol_modulus)


# Tensor4Sym.apply (isotropic) and dev_diff fill one output array
# component by component; their bits and floating-point warnings are
# those of the array formulas written out here.

def ref_isotropic_apply(T, vec):
    return T.dev_modulus * dev(vec) + (
        T.vol_modulus / T.d) * tr(vec)[..., None] * identity(T.d)


def recorded_warnings(fn):
    """fn()'s result and the set of warnings it raised."""
    import warnings
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn()
    return out, {(w.category, str(w.message)) for w in caught}


def _nan_as_nan(a):
    return np.where(np.isnan(a), np.nan, a)


def assert_same_result(fn, ref_fn):
    got, got_warnings = recorded_warnings(fn)
    ref, ref_warnings = recorded_warnings(ref_fn)
    assert_same_bits(got, ref)
    assert got_warnings == ref_warnings


def kernel_pairs(rng, m):
    """(a, b) component arrays that broadcast together: special values,
    single tensors on either side, and strided operands."""
    special = rng.choice(SPECIAL, size=(300, m))
    yield rng.standard_normal((64, m)), rng.standard_normal((64, m))
    yield special, rng.choice(SPECIAL, size=(300, m))
    yield special, rng.choice(SPECIAL, size=m)
    yield rng.choice(SPECIAL, size=m), special
    yield np.full((4, m), -0.0), np.full((4, m), 0.0)
    yield rng.standard_normal((6, 2 * m))[:, ::2], rng.standard_normal((m, 6)).T
    yield rng.choice(SPECIAL, size=(3, 1, m)), rng.choice(SPECIAL, size=(5, m))


@pytest.mark.parametrize("d", [2, 3])
def test_isotropic_apply_is_the_array_formula(d):
    rng = np.random.default_rng(60 + d)
    m = tensors.num_components(d)
    T = Tensor4Sym.isotropic(d, 0.8, 1.7)
    for vec, add in kernel_pairs(rng, m):
        assert_same_result(lambda: T.apply(vec),
                           lambda: ref_isotropic_apply(T, vec))
        # where add's NaN meets the map's NaN of the other sign, numpy's
        # add keeps either operand's, by loop (the formula's contiguous
        # loop differs from the kernel's strided one), so NaN results
        # are compared as NaN
        assert_same_result(lambda: _nan_as_nan(T.apply(vec, add=add)),
                           lambda: _nan_as_nan(
                               add + ref_isotropic_apply(T, vec)))
    # a general map adds its matrix product
    G = random_spd_tensor4(rng, d)
    vec, add = rng.standard_normal((7, m)), rng.standard_normal(m)
    assert_same_bits(G.apply(vec, add=add), add + vec @ G.matrix.T)


@pytest.mark.parametrize("d", [2, 3])
def test_dev_diff_is_the_difference_of_deviators(d):
    rng = np.random.default_rng(70 + d)
    m = tensors.num_components(d)
    for a, b in kernel_pairs(rng, m):
        assert_same_result(lambda: tensors.dev_diff(a, b),
                           lambda: dev(a) - dev(b))
    with pytest.raises(ValueError, match="component mismatch"):
        tensors.dev_diff(np.zeros(3), np.zeros(6))
