"""The matrix-product contraction kernels against the einsum kernels they replaced.

Each reference below is the plain multi-index ``np.einsum`` form of a kernel.
A sum of n products computed in two different orders differs by at most
2 * gamma_n times the sum of the absolute values of its terms, with
gamma_n ~ n * u and u = eps / 2 the unit roundoff of float64, so each
comparison allows ``n * eps`` times that absolute sum.
"""

import itertools

import numpy as np
import pytest

from prodgeo.levicivita import (
    cov_deriv_components,
    curvature_components,
    curvature_tensor,
    levi_civita_coeffs,
    psi1_operator,
    ricci_and_scalar,
    weyl_tensor,
)
from prodgeo.liealg import LieFrameAlgebra, jacobi_defect
from prodgeo.natural import NaturalConnection, bianchi_defect, torsion_identity_defects
from prodgeo.structure import ProductStructure, RpmInstance, nijenhuis_tensor, structure_pullback
from prodgeo.tensors import CO, CONTRA, MetricTensor, compose, max_abs
from prodgeo.example import ExampleParams, build_example
from tests.conftest import frame_changed_dim8, moved_frame

EPS = np.finfo(float).eps
VARIANCES = [v for rank in range(5) for v in itertools.product((CO, CONTRA), repeat=rank)]


def assert_within_roundoff(new, terms, abs_terms, n):
    """``new`` matches the sum of ``terms`` up to n products' roundoff per entry."""
    ref = sum(terms)
    bound = n * EPS * sum(np.abs(t) for t in abs_terms)
    assert np.all(np.abs(new - ref) <= bound)


def cov_deriv_terms(gamma, components, variance):
    """The einsum kernel, one signed term per slot."""
    letters = "abcd"[: len(variance)]
    terms = [np.zeros((gamma.shape[0],) + components.shape)]
    for slot, tag in enumerate(variance):
        inner = letters[:slot] + "m" + letters[slot + 1 :]
        if tag == CO:
            terms.append(-np.einsum(f"x{letters[slot]}m,{inner}->x{letters}", gamma, components))
        else:
            terms.append(np.einsum(f"xm{letters[slot]},{inner}->x{letters}", gamma, components))
    return terms


def curvature_terms(gamma, c):
    return [
        np.einsum("jkm,iml->ijkl", gamma, gamma),
        -np.einsum("ikm,jml->ijkl", gamma, gamma),
        -np.einsum("ijm,mkl->ijkl", c, gamma),
    ]


def psi1_terms(g, s):
    return [
        np.einsum("jk,il->ijkl", g, s),
        -np.einsum("ik,jl->ijkl", g, s),
        np.einsum("jk,il->ijkl", s, g),
        -np.einsum("ik,jl->ijkl", s, g),
    ]


def trace_terms(g_inv, r):
    """The metric trace of the first and last slots, one term per (i, l) pair."""
    dim = g_inv.shape[0]
    return [g_inv[i, l] * r[i, ..., l] for i in range(dim) for l in range(dim)]


def pullback_terms(p, t):
    """t(P x_i, P x_j), one term per (a, b) pair of the two contracted slots."""
    dim = p.shape[0]
    return [np.einsum("i,j,k->ijk", p[a], p[b], t[a, b]) for a in range(dim) for b in range(dim)]


def nijenhuis_terms(c, p):
    return [
        np.einsum("ai,bj,abk->ijk", p, p, c),
        c,
        -np.einsum("km,ai,ajm->ijk", p, p, c),
        -np.einsum("km,bj,ibm->ijk", p, p, c),
    ]


def random_instance(seed: int, dim: int = 8) -> RpmInstance:
    """Random antisymmetric brackets and a random P: the kernels need no axioms."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(dim, dim, dim))
    return RpmInstance(
        alg=LieFrameAlgebra(dim, c - c.swapaxes(0, 1)),
        metric=MetricTensor.from_matrix(np.eye(dim)),
        structure=ProductStructure(rng.normal(size=(dim, dim))),
    )


def connections():
    """(c, gamma) pairs: a real connection in a non-orthonormal frame, and noise."""
    inst = frame_changed_dim8()
    rng = np.random.default_rng(5)
    return {
        "frame_changed_dim8": (inst.c, levi_civita_coeffs(inst)),
        "random": (rng.normal(size=(8, 8, 8)), rng.normal(size=(8, 8, 8))),
    }


CONNECTIONS = connections()


@pytest.mark.parametrize("source", list(CONNECTIONS))
class TestAgainstEinsum:
    @pytest.mark.parametrize("variance", VARIANCES, ids=lambda v: "-".join(v) or "scalar")
    def test_cov_deriv_components(self, source, variance):
        _, gamma = CONNECTIONS[source]
        rank, dim = len(variance), gamma.shape[0]
        comp = np.random.default_rng(rank).normal(size=(dim,) * rank)
        new = cov_deriv_components(gamma, comp, variance)
        assert new.shape == (dim,) * (rank + 1)
        assert_within_roundoff(
            new,
            cov_deriv_terms(gamma, comp, variance),
            cov_deriv_terms(np.abs(gamma), np.abs(comp), variance),
            rank * (dim + 1),
        )

    @pytest.mark.parametrize("variance", VARIANCES[-16:], ids=lambda v: "-".join(v))
    def test_one_direction_slab_is_a_row_of_the_full_derivative(self, source, variance):
        _, gamma = CONNECTIONS[source]
        comp = np.random.default_rng(9).normal(size=(8,) * 4)
        full = cov_deriv_components(gamma, comp, variance)
        for x, slab in enumerate(np.split(gamma, 8)):
            assert np.array_equal(cov_deriv_components(slab, comp, variance), full[x : x + 1])

    def test_curvature_components(self, source):
        c, gamma = CONNECTIONS[source]
        assert_within_roundoff(
            curvature_components(gamma, c),
            curvature_terms(gamma, c),
            curvature_terms(np.abs(gamma), np.abs(c)),
            3 * (gamma.shape[0] + 1),
        )

    def test_compose(self, source):
        c, gamma = CONNECTIONS[source]
        assert_within_roundoff(
            compose(c, gamma),
            [np.einsum("ijm,mkl->ijkl", c, gamma)],
            [np.einsum("ijm,mkl->ijkl", np.abs(c), np.abs(gamma))],
            gamma.shape[0],
        )


@pytest.mark.parametrize("seed", [0, 1])
def test_pi1_and_psi1(seed):
    g = frame_changed_dim8(seed).metric
    s = np.random.default_rng(seed).normal(size=(8, 8))
    s = s + s.T
    ab = np.abs(g.matrix), np.abs(s)
    assert_within_roundoff(
        psi1_operator(g, s), psi1_terms(g.matrix, s), psi1_terms(*ab), 4
    )
    half = psi1_terms(g.matrix, g.matrix)[:2]
    assert_within_roundoff(g.pi1, half, psi1_terms(ab[0], ab[0])[:2], 2)


def weyl_terms(r, rho, tau, g, n):
    """The two-extension Weyl formula R - (psi1(rho) - tau / (2n - 1) pi1) / (2(n - 1))."""
    k = 2 * (n - 1)
    pi1 = psi1_terms(g, g)[:2]
    return [r] + [-t / k for t in psi1_terms(g, rho)] + [tau / (2 * n - 1) / k * t for t in pi1]


def weyl_instances():
    family = build_example(ExampleParams((1.0, 2.0, 3.0, 4.0)))
    return {
        "dim4": moved_frame(family.alg.c, family.structure.components, seed=3),
        "dim8": frame_changed_dim8(),
    }


@pytest.mark.parametrize("inst", list(weyl_instances().values()), ids=list(weyl_instances()))
def test_weyl_tensor_against_the_two_extension_formula(inst):
    # the real curvature plus noise, so the Weyl part is not zero; the
    # formula is linear in (r, rho, tau) and needs no curvature symmetries
    dim, metric = inst.dim, inst.metric
    r = curvature_tensor(levi_civita_coeffs(inst), inst.alg, metric)
    r = r + np.random.default_rng(dim).normal(size=(dim,) * 4)
    ricci = ricci_and_scalar(r, metric)
    rho = 0.5 * (ricci.rho + ricci.rho.T)
    g, n = metric.matrix, dim // 2
    assert_within_roundoff(
        weyl_tensor(r, rho, ricci.tau, metric),
        weyl_terms(r, rho, ricci.tau, g, n),
        weyl_terms(np.abs(r), np.abs(rho), abs(ricci.tau), np.abs(g), n),
        8,
    )


def cyclic_terms(x):
    return [x, np.einsum("jkil->ijkl", x), np.einsum("kijl->ijkl", x)]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_cyclic_sum_defects_are_those_of_the_plain_sum(seed):
    # the in-place sums add in the same order, so each defect is bitwise that
    # of the plain three-term sum; an all-negative input puts the largest
    # magnitude on a negative entry
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(6,) * 4)
    for arr in (x, -np.abs(x)):
        assert bianchi_defect(arr) == max_abs(sum(cyclic_terms(arr)))
    c = rng.normal(size=(6,) * 3)  # not antisymmetric, so the sum's sign is not balanced
    assert jacobi_defect(c) == max_abs(sum(cyclic_terms(compose(c, c))))
    t, t_sharp = rng.normal(size=(2,) + (6,) * 3)
    d = NaturalConnection(gamma=t, Q=t, T=t)
    ids = torsion_identity_defects(random_instance(seed, 6), d, rng.normal(size=6), t_sharp)
    assert ids.nested_cyclic == max_abs(sum(cyclic_terms(compose(t_sharp, t_sharp))))


@pytest.mark.parametrize("seed", [0, 1])
def test_ricci_and_scalar(seed):
    inst = frame_changed_dim8(seed)
    r = curvature_tensor(levi_civita_coeffs(inst), inst.alg, inst.metric)
    ricci = ricci_and_scalar(r, inst.metric)
    g_inv, n = inst.g_inv, inst.dim**2
    abs_g_inv = np.abs(g_inv)
    assert_within_roundoff(ricci.rho, trace_terms(g_inv, r), trace_terms(abs_g_inv, np.abs(r)), n)
    rho = ricci.rho
    assert_within_roundoff(ricci.tau, trace_terms(g_inv, rho), trace_terms(abs_g_inv, np.abs(rho)), n)


@pytest.mark.parametrize(
    "inst", [frame_changed_dim8(), random_instance(3)], ids=["frame_changed_dim8", "random"]
)
def test_nijenhuis_tensor(inst):
    dim = inst.dim
    assert_within_roundoff(
        nijenhuis_tensor(inst),
        nijenhuis_terms(inst.c, inst.p),
        nijenhuis_terms(np.abs(inst.c), np.abs(inst.p)),
        3 * dim * dim + 3,
    )


@pytest.mark.parametrize(
    "inst", [frame_changed_dim8(), random_instance(4)], ids=["frame_changed_dim8", "random"]
)
def test_structure_pullback(inst):
    dim = inst.dim
    assert_within_roundoff(
        structure_pullback(inst.p, inst.c),
        pullback_terms(inst.p, inst.c),
        pullback_terms(np.abs(inst.p), np.abs(inst.c)),
        dim * dim,
    )


def test_curvature_components_runs_on_sympy_arrays():
    # exact symbolic input: the builtin family's brackets in symbols lambda_i,
    # its orthonormal Koszul coefficients, against the einsum kernel
    sp = pytest.importorskip("sympy")
    l1, l2, l3, l4 = sp.symbols("lambda1:5", real=True)
    v12, v13 = [l1, l2, l3, l4], [l4, -l3, l2, -l1]
    c = np.full((4, 4, 4), sp.Integer(0), dtype=object)
    for (i, j), vec in {(0, 1): v12, (2, 3): [-v for v in v12], (0, 2): v13, (1, 3): v13}.items():
        c[i, j], c[j, i] = vec, [-v for v in vec]
    gamma = (c - c.transpose(2, 0, 1) + c.transpose(1, 2, 0)) * sp.Rational(1, 2)
    new = curvature_components(gamma, c)
    assert new.dtype == object and new.shape == (4,) * 4
    ref = sum(curvature_terms(gamma, c))
    assert all(sp.expand(e) == 0 for e in (new - ref).flat)
    assert sp.expand(new[0, 1, 2, 0]) == -l1 * l4  # as in test_c09_space_form_oracle_symbolic
