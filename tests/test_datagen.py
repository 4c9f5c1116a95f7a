"""Profile memo of the data generators: cached evaluation keeps every bit."""

import numpy as np
import pytest

from plastprobe import datagen, evolution
from plastprobe.datagen import (DataGenerator, PolyProfile, SineProfile,
                                _poly_eval)
from plastprobe.scenario import load_benchmark
from plastprobe.tensors import Tensor4Sym

from oracles import assert_same_bits, layouts, random_spd_tensor4

TIMES = (0.0, 0.37, 1.0)
TPOLYS = ([0.0, 1.3, -0.4], [0.2, -0.7, 0.9])


def _generator(kind, d, rng):
    terms = []
    for tpoly in TPOLYS:
        if kind == "poly":
            prof = PolyProfile(d, linear=rng.standard_normal((d, d)),
                               quadratic=rng.standard_normal((d, d, d)),
                               const=rng.standard_normal(d))
        else:
            prof = SineProfile(d, rng.standard_normal(d),
                               3 * rng.standard_normal((d, d)),
                               rng.standard_normal((d, d)))
        terms.append((tpoly, prof))
    return DataGenerator(terms, Tensor4Sym.isotropic(d, 2.0, 3.0))


def _frozen_points(rng, d, count=97):
    x = rng.uniform(-1.0, 1.0, (count, d))
    x.flags.writeable = False
    return x


def _term_sum(gen, kind, t, x, tder):
    """The sum over the terms as evaluated before the memo, term by term."""
    out = None
    for coeffs, prof in gen.terms:
        g = getattr(prof, kind)(x)
        out = np.zeros(g.shape) if out is None else out
        out += _poly_eval(coeffs, t, tder) * g
    return out


@pytest.mark.parametrize("kind", ["poly", "sine"])
@pytest.mark.parametrize("d", [2, 3])
def test_cached_evaluation_is_bit_identical(kind, d):
    rng = np.random.default_rng(60 + d)
    gen = _generator(kind, d, rng)
    x = _frozen_points(rng, d)
    fresh = x.copy()                      # writeable: never memoized
    for t in TIMES:
        for tder in (0, 1, 2):
            for name, kind_ in (("u0", "value"), ("grad_u0", "grad"),
                                ("hess_u0", "hess")):
                ref = _term_sum(gen, kind_, t, fresh, tder)
                for _ in range(3):        # first call fills, then hits
                    assert_same_bits(getattr(gen, name)(t, x, tder), ref)
                assert_same_bits(getattr(gen, name)(t, fresh, tder), ref)
            for name in ("strain0", "sigma0"):
                ref = getattr(gen, name)(t, fresh, tder)
                for _ in range(3):
                    assert_same_bits(getattr(gen, name)(t, x, tder), ref)
        ref = gen.body_force(t, fresh)
        for _ in range(3):
            assert_same_bits(gen.body_force(t, x), ref)


class _HessianTable:
    """A profile whose Hessian is a fixed table of point rows."""

    def __init__(self, H):
        self.H = H

    def hess(self, x):
        return self.H


def _body_force_formula(gen, t, x):
    """-A^-1_ijkl d_j E_kl by np.einsum(..., optimize=True)."""
    H = gen.hess_u0(t, x)
    dE = 0.5 * (np.swapaxes(H, -3, -2) + H)
    full = gen.elastic.inverse().as_full_tensor()
    return -np.einsum("ijkl,...klj->...i", full, dE, optimize=True)


@pytest.mark.parametrize("kind", ["poly", "sine"])
@pytest.mark.parametrize("d", [2, 3])
def test_body_force_is_its_einsum_formula(kind, d):
    # the bits of the einsum formula with the shipped isotropic A and a
    # random SPD one, at point sets in any memory layout and at a single
    # point; a table of Hessians brings inf, nan, subnormals and
    # magnitudes from 1e-8 to 1e8 (no -0: the term sum starts at +0)
    rng = np.random.default_rng(70 + d)
    points = rng.uniform(-1.0, 1.0, (61, d))
    H = rng.standard_normal((61, d, d, d)) * 10.0 ** rng.integers(
        -8, 9, (61, d, d, d))
    H.flat[rng.choice(H.size, 7, replace=False)] = [
        np.inf, -np.inf, np.nan, 5e-324, -5e-324, 0.0, np.nan]
    for elastic in (None, random_spd_tensor4(rng, d)):
        gen = _generator(kind, d, rng)
        if elastic is not None:
            gen = DataGenerator(gen.terms, elastic)
        for t in TIMES:
            for layout, x in layouts(points, rng).items():
                assert_same_bits(gen.body_force(t, x),
                                 _body_force_formula(gen, t, x), layout)
            assert_same_bits(gen.body_force(t, points[0]),
                             _body_force_formula(gen, t, points[0]))
        table = DataGenerator([([1.0], _HessianTable(H))], gen.elastic)
        with np.errstate(invalid="ignore"):
            assert_same_bits(table.body_force(0.5, points),
                             _body_force_formula(table, 0.5, points))


def _count_calls(gen, kind):
    """Wrap prof.<kind> of every term; returns the list of counts."""
    counts = [0] * len(gen.terms)
    for i, (_, prof) in enumerate(gen.terms):
        real = getattr(prof, kind)

        def counted(x, i=i, real=real):
            counts[i] += 1
            return real(x)
        setattr(prof, kind, counted)
    return counts


def test_writeable_arrays_are_never_served_from_the_memo():
    rng = np.random.default_rng(7)
    gen = _generator("sine", 2, rng)
    counts = _count_calls(gen, "value")
    x = _frozen_points(rng, 2)
    gen.u0(0.5, x)
    gen.u0(0.5, x)
    assert counts == [1, 1]
    same = x.copy()                       # equal contents, writeable
    gen.u0(0.5, same)
    gen.u0(0.5, same)
    assert counts == [3, 3]
    # a read-only view of a writeable array can still change
    view = same[:]
    view.flags.writeable = False
    gen.u0(0.5, view)
    gen.u0(0.5, view)
    assert counts == [5, 5]


def test_each_read_only_array_gets_its_own_values():
    rng = np.random.default_rng(8)
    gen = _generator("poly", 2, rng)
    x = _frozen_points(rng, 2)
    y = _frozen_points(rng, 2)
    assert not np.array_equal(x, y)
    ux = gen.u0(1.0, x)
    uy = gen.u0(1.0, y)
    assert_same_bits(uy, gen.u0(1.0, y.copy()))
    assert_same_bits(ux, gen.u0(1.0, x))
    assert not np.array_equal(ux, uy)


def test_memo_stays_bounded():
    rng = np.random.default_rng(9)
    gen = _generator("sine", 2, rng)
    for _ in range(1000):
        gen.body_force(0.5, rng.uniform(-1.0, 1.0, (5, 2)))
    assert len(gen._memo) == 0
    for _ in range(1000):
        gen.body_force(0.5, _frozen_points(rng, 2, 5))
    assert len(gen._memo) <= datagen.MEMO_ENTRIES


def test_run_evaluates_each_profile_once_per_point_set(monkeypatch):
    # every step evaluates the body force at the same quadrature points:
    # the sine Hessian is computed once per run, not once per step
    calls = {"hess": 0}
    real = SineProfile.hess

    def counted(self, x):
        calls["hess"] += 1
        return real(self, x)

    monkeypatch.setattr(SineProfile, "hess", counted)
    scn = load_benchmark("elastic-only", n=8, N=20)
    evolution.run(scn.grid(), scn.material(), scn.data, scn.T, scn.N)
    assert calls["hess"] == 1
