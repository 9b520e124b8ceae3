"""Kernels taken one block of a slot at a time (``tensors.blocks``), at dimensions with several blocks.

Each kernel is checked against the whole-array reference of ``test_kernels.py``
within the same roundoff bounds.  Each blocked reduction must keep a NaN in
whichever block it lies; a Python ``max`` over the block maxima drops a NaN
that does not come first.
"""

import tracemalloc

import numpy as np
import pytest

from prodgeo.conformal import conformal_checks, conformal_weyl_residual, deformed_geometry
from prodgeo.errors import NonSymmetricInputWarning
from prodgeo.levicivita import cov_deriv_components, curvature_components, psi1_defect, weyl_tensor
from prodgeo.liealg import derived_bases, jacobi_defect
from prodgeo.natural import (
    NaturalConnection,
    STensor,
    bianchi_defect,
    flat_D_report,
    parallel_torsion_defects,
    verify_curvature_relation,
)
from prodgeo.pipeline import analyze_instance
from prodgeo.report import table_summary
from prodgeo.tensors import BLOCK_BYTES, CO, CONTRA, blocks, max_abs
from tests.conftest import hyperbolic, psi1, random_instance, weyl_difference
from tests.reference import compose
from tests.test_kernels import (
    EPS,
    assert_within_roundoff,
    curvature_terms,
    cyclic_terms,
    psi1_terms,
    weyl_terms,
)

DIMS = [12, 16]  # two and four blocks


def noise(dim: int):
    """A generator seeded by ``dim`` and a random non-diagonal metric."""
    rng = np.random.default_rng(dim)
    a = rng.normal(size=(dim, dim))
    return rng, a @ a.T / dim + np.eye(dim)


def symmetric(rng, dim: int) -> np.ndarray:
    s = rng.normal(size=(dim, dim))
    return s + s.T


def test_block_rule():
    # one block up to dim 10, so the paper's dimension runs the unblocked kernels
    assert [len(blocks(d)) for d in (4, 8, 10, 12, 16, 24)] == [1, 1, 1, 2, 4, 24]
    for dim in (4, 12, 16, 24, 40):
        for rank in (3, 4, 5):
            parts = blocks(dim, rank)
            assert [i for b in parts for i in range(dim)[b]] == list(range(dim))
            sizes = [b.stop - b.start for b in parts]
            assert all(size == 1 or 8 * size * dim ** (rank - 1) <= BLOCK_BYTES for size in sizes)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("lowered", [False, True], ids=["unlowered", "lowered"])
@pytest.mark.parametrize("difference", [False, True], ids=["curvature", "difference"])
def test_curvature_components(dim, lowered, difference):
    rng, g = noise(dim)
    c, gamma, minus = rng.normal(size=(3, dim, dim, dim))
    lower = (lambda t: t @ g) if lowered else (lambda t: t)
    abs_lower = (lambda t: t @ np.abs(g)) if lowered else (lambda t: t)
    terms = [lower(t) for t in curvature_terms(gamma, c)]
    abs_terms = [abs_lower(t) for t in curvature_terms(np.abs(gamma), np.abs(c))]
    if difference:
        terms += [-lower(t) for t in curvature_terms(minus, c)]
        abs_terms += [abs_lower(t) for t in curvature_terms(np.abs(minus), np.abs(c))]
    new = curvature_components(gamma, c, g if lowered else None, minus if difference else None)
    assert_within_roundoff(new, terms, abs_terms, 3 * ((2 if lowered else 1) * dim + 1))


@pytest.mark.parametrize("dim", DIMS)
def test_psi1_blocks(dim):
    rng, g = noise(dim)
    s = symmetric(rng, dim)
    ab = np.abs(g), np.abs(s)
    assert_within_roundoff(psi1(g, s), psi1_terms(g, s), psi1_terms(*ab), 4)


def test_psi1_blocks_test_symmetry_once_per_extension():
    rng, g = noise(16)
    with pytest.warns(NonSymmetricInputWarning) as caught:
        psi1(g, rng.normal(size=(16, 16)))
    assert len(caught) == 1


@pytest.mark.parametrize("dim", DIMS)
def test_weyl_tensor(dim):
    rng, g = noise(dim)
    r, rho, tau, n = rng.normal(size=(dim,) * 4), symmetric(rng, dim), float(rng.normal()), dim // 2
    w = weyl_tensor(r, rho, tau, g)
    assert_within_roundoff(
        w,
        weyl_terms(r, rho, tau, g, n),
        weyl_terms(np.abs(r), np.abs(rho), abs(tau), np.abs(g), n),
        8,
    )


@pytest.mark.parametrize("dim", DIMS)
def test_curvature_relation_residual(dim):
    rng, g = noise(dim)
    r, r_prime, s, n = rng.normal(size=(dim,) * 4), rng.normal(size=(dim,) * 4), symmetric(rng, dim), dim // 2
    terms = [t / (2 * n) for t in psi1_terms(g, s)] + [r, -r_prime]
    abs_terms = [t / (2 * n) for t in psi1_terms(np.abs(g), np.abs(s))] + [np.abs(r), np.abs(r_prime)]
    got = verify_curvature_relation(r, r_prime, STensor(S=s, trace_S=0.0), g)
    assert abs(got - max_abs(sum(terms))) <= 8 * EPS * max_abs(sum(abs_terms))


@pytest.mark.parametrize("dim", DIMS)
def test_cyclic_sums(dim):
    rng = np.random.default_rng(dim)
    x = rng.normal(size=(dim,) * 4)
    # each entry adds the same three numbers in the same order as the plain sum
    assert bianchi_defect(x) == max_abs(sum(cyclic_terms(x)))
    c = rng.normal(size=(dim,) * 3)
    ref = max_abs(sum(cyclic_terms(compose(c, c))))
    assert abs(jacobi_defect(c) - ref) <= 3 * dim * EPS * max_abs(sum(cyclic_terms(compose(np.abs(c), np.abs(c)))))


@pytest.mark.parametrize("dim", DIMS)
def test_table_summary(dim):
    arr = np.random.default_rng(dim).normal(size=(dim,) * 4)
    arr[1] = 1e-12  # one first-slot slab below the tolerance
    top = np.max(np.abs(arr))
    ref = top * float(np.linalg.norm(np.abs(arr) / top))
    summary = table_summary(arr, 1e-9)
    assert summary["max"] == top and summary["nonzero"] == dim**4 - dim**3
    assert abs(summary["norm"] - ref) <= dim**4 * EPS * ref


@pytest.mark.parametrize("dim", DIMS)
def test_analysis_residuals(dim):
    a = analyze_instance(random_instance(dim, dim))
    a.Rprime += np.random.default_rng(dim).normal(size=(dim,) * 4)  # else W and W' agree up to roundoff
    with pytest.warns(NonSymmetricInputWarning):  # random brackets: the Ricci tensors are not symmetric
        difference, bound = weyl_difference(a)
        residual = a.weyl_invariance_residual
    assert difference > 1.0 and abs(residual - difference) <= bound
    full = max_abs(cov_deriv_components(a.D.gamma, a.t_sharp, (CO, CO, CONTRA)))
    assert abs(a.parallel["dt"] - full) <= 64 * EPS * full


@pytest.mark.parametrize("dim", DIMS)
def test_conformal_weyl_residual_is_that_of_the_two_weyl_tensors(dim):
    # a form that is not closed bends the Weyl tensor, so the residual is not roundoff
    inst = hyperbolic(dim)
    base = analyze_instance(inst)
    rescaled = analyze_instance(inst, alpha=np.random.default_rng(dim).normal(size=dim))
    weyl = conformal_weyl_residual(base, rescaled)
    with pytest.warns(NonSymmetricInputWarning):  # the rescaled Ricci tensor is not symmetric
        ref = max_abs(rescaled.W - base.W)
    assert ref > 0.1
    assert abs(weyl - ref) <= 64 * EPS * (max_abs(base.R) + max_abs(rescaled.R))


@pytest.mark.parametrize("k", [0, 6, 15], ids=["first", "middle", "last"])
class TestNanInABlock:
    """At dim 16 slot entry 0 is in the first block, 6 in a middle one and 15 in the last."""

    def test_cyclic_sum(self, k):
        x = np.random.default_rng(1).normal(size=(16,) * 4)
        x[k, k, k, 0] = np.nan  # in the cyclic sum at [k, k, k, 0] only
        assert np.isnan(bianchi_defect(x))

    def test_jacobi_defect(self, k):
        # brackets among three frame vectors of k's block near the float64 limit:
        # their cyclic sums hold inf - inf, and every other block is 0
        c = np.zeros((16, 16, 16))
        rest = list(range(16)[next(b for b in blocks(16) if b.start <= k < b.stop)])[:3]
        c[np.ix_(rest, rest, rest)] = 1e307 * np.random.default_rng(k).uniform(-1, 1, (3, 3, 3))
        c -= c.swapaxes(0, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(jacobi_defect(c))

    def test_curvature_relation(self, k):
        rng, g = noise(16)
        r = rng.normal(size=(16,) * 4)
        r[k, 1, 2, 3] = np.nan
        assert np.isnan(verify_curvature_relation(r, r, STensor(S=symmetric(rng, 16), trace_S=0.0), g))

    def test_psi1_defect(self, k):
        rng, g = noise(16)
        r, s = rng.normal(size=(16,) * 4), symmetric(rng, 16)
        nan = r.copy()
        nan[k, 1, 2, 3] = np.nan
        assert np.isnan(psi1_defect(nan, None, s, g))
        assert np.isnan(psi1_defect(nan, r, s, g))
        assert np.isnan(psi1_defect(r, nan, s, g))

    def test_table_summary(self, k):
        arr = np.random.default_rng(2).normal(size=(16,) * 4)
        arr[k, 1, 2, 3] = np.nan
        summary = table_summary(arr, 1e-9)
        assert np.isnan(summary["max"]) and np.isnan(summary["norm"])
        assert summary["nonzero"] == 16**4 - 1

    def test_weyl_invariance(self, k):
        a = analyze_instance(hyperbolic(16))
        a.Rprime[k, 1, 2, 3] = np.nan  # read into the residual through R - R' and rho'
        assert np.isnan(a.weyl_invariance_residual)

    def test_torsion_and_curvature_derivatives(self, k):
        # one direction block at a time: a NaN in the connection along direction k
        a = analyze_instance(hyperbolic(16))
        gamma = a.D.gamma.copy()
        gamma[k, 0, 0] = np.nan
        d = NaturalConnection(gamma=gamma, Q=a.D.Q, T=a.D.T)
        parallel = parallel_torsion_defects(a.inst, d, a.t_sharp, a.lee, a.grad_theta, a.dtheta)
        assert np.isnan(parallel["dt"])
        flat = flat_D_report(a.inst, d, a.R, a.ricci, a.Rprime, a.W, a.lee.norm_sq, True, a.flags["torsion_parallel"])
        assert np.isnan(flat["parallel_curvature_defect"])


def test_conformal_checks_hold_one_rank4_buffer_at_a_time():
    # the curvature difference of D, then that of the Levi-Civita connections,
    # each in one dim**4 buffer; every other array is a block or of rank <= 3
    dim = 24
    inst = hyperbolic(dim)
    base, rescaled = analyze_instance(inst), deformed_geometry(inst, 0.7 * derived_bases(inst.alg)[1][0])
    for a in (base, rescaled):  # the rank-3 objects conformal_checks reads
        a.D, a.class_residual
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        checks = conformal_checks(base, rescaled)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert max(checks.values()) <= 1e-9
    assert peak <= 1.5 * 8 * dim**4
