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

from prodgeo.errors import DegeneratePlane
from prodgeo.levicivita import (
    cov_deriv_components,
    curvature_components,
    curvature_tensor,
    levi_civita_coeffs,
    psi1_defect,
    ricci_and_scalar,
    sectional_curvature,
    structure_tensor_F,
    weyl_tensor,
)
from prodgeo.liealg import jacobi_defect
from prodgeo.natural import (
    NaturalConnection,
    bianchi_defect,
    connection_D_from,
    recomputed_torsion,
    torsion_identity_defects,
)
from prodgeo.pipeline import analyze_instance
from prodgeo.structure import RpmInstance, nijenhuis_tensor, structure_pullback
from prodgeo.tensors import CO, CONTRA, freeze, max_abs
from prodgeo.example import ExampleParams, build_example
from tests.conftest import frame_changed_dim8, hyperbolic, moved_frame, psi1, random_instance
from tests.reference import compose, pi1_tensor

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

    def test_unlowered_curvature_is_bitwise_the_three_term_formula(self, source):
        # the bracket term is written into the product's buffer and subtracted
        # in place: the same operations in the same order as the plain formula
        c, gamma = CONNECTIONS[source]
        d = gamma.shape[0]
        t = (gamma.reshape(d * d, d) @ gamma).reshape((d,) * 4)
        assert np.array_equal(curvature_components(gamma, c), t - t.swapaxes(0, 1) - compose(c, gamma))

    def test_compose(self, source):
        c, gamma = CONNECTIONS[source]
        assert_within_roundoff(
            compose(c, gamma),
            [np.einsum("ijm,mkl->ijkl", c, gamma)],
            [np.einsum("ijm,mkl->ijkl", np.abs(c), np.abs(gamma))],
            gamma.shape[0],
        )


def moved_builtin(seed: int = 3) -> RpmInstance:
    """The builtin family at lambda = (1, 2, 3, 4) in a random non-orthonormal frame."""
    family = build_example(ExampleParams((1.0, 2.0, 3.0, 4.0)))
    return moved_frame(family.alg.c, family.p, seed)


@pytest.mark.parametrize("inst", [moved_builtin(), frame_changed_dim8()], ids=["dim4", "dim8"])
def test_lowered_curvature_is_the_unlowered_one_times_g(inst):
    # lowered through gamma g instead of by a product with g afterwards: the
    # same sums in another order, so equal up to the roundoff of 3 (2 dim + 1) products
    g, dim = inst.g, inst.dim
    nabla = levi_civita_coeffs(inst)
    assert max_abs(curvature_components(nabla, inst.c, g)) > 1.0  # not a flat connection
    for gamma in (nabla, analyze_instance(inst).D.gamma):
        lowered = curvature_components(gamma, inst.c, g)
        assert_within_roundoff(
            lowered,
            [t @ g for t in curvature_terms(gamma, inst.c)],
            [t @ np.abs(g) for t in curvature_terms(np.abs(gamma), np.abs(inst.c))],
            3 * (2 * dim + 1),
        )
        assert np.array_equal(curvature_tensor(gamma, inst.c, inst.g), lowered)


@pytest.mark.parametrize("inst", [moved_builtin(), frame_changed_dim8()], ids=["dim4", "dim8"])
@pytest.mark.parametrize("lowered", [False, True], ids=["unlowered", "lowered"])
def test_curvature_difference_is_that_of_two_curvatures(inst, lowered):
    # the quadratic products are differenced before the swap and the bracket
    # term is that of gamma - minus: both sides' sums in another order
    g, dim = inst.g, inst.dim
    a = analyze_instance(inst)
    gamma, minus = a.nabla, a.D.gamma
    lower = (lambda t: t @ g) if lowered else (lambda t: t)
    abs_lower = (lambda t: t @ np.abs(g)) if lowered else (lambda t: t)
    new = curvature_components(gamma, inst.c, g if lowered else None, minus=minus)
    terms = [lower(t) for t in curvature_terms(gamma, inst.c)]
    terms += [-lower(t) for t in curvature_terms(minus, inst.c)]
    abs_terms = [abs_lower(t) for x in (gamma, minus) for t in curvature_terms(np.abs(x), np.abs(inst.c))]
    assert max_abs(new) > 1e-3  # D and the Levi-Civita connection differ in curvature
    assert_within_roundoff(new, terms, abs_terms, 3 * ((2 if lowered else 1) * dim + 1))
    assert np.array_equal(
        curvature_components(gamma, inst.c, g if lowered else None, minus=gamma), np.zeros((dim,) * 4)
    )


@pytest.mark.parametrize("first", [0, 3])
def test_jacobi_defect_keeps_a_nan(first):
    # brackets of three frame vectors near the float64 limit: their products
    # overflow and the cyclic sums hold inf - inf, while the slab of the
    # fourth, central vector is 0; the max over the slabs keeps the NaN
    # wherever the finite slab comes
    c = np.zeros((4, 4, 4))
    rest = [i for i in range(4) if i != first]
    c[np.ix_(rest, rest, rest)] = 1e307 * np.random.default_rng(first).uniform(-1, 1, (3, 3, 3))
    c -= c.swapaxes(0, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(jacobi_defect(c))


def max_abs_cases():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(5, 6, 7))
    with_nan, with_inf = x.copy(), x.copy()
    with_nan[1, 2, 3] = np.nan
    with_inf[4, 0, 6] = -np.inf
    return {
        "random": x,
        "all_negative": -np.abs(x),
        "zeros": np.zeros((3, 4)),  # max 0.0 against -min -0.0
        "negative_zero_only": np.full((3, 4), -0.0),
        "mixed_zeros": np.array([0.0, -0.0, -0.0]),
        "nan": with_nan,
        "minus_inf": with_inf,
        "plus_inf": np.array([1.0, np.inf, -2.0]),
        "both_infs": np.array([-np.inf, np.inf]),
        "nan_and_inf": np.array([-np.inf, np.nan]),
        "read_only": freeze(x),
        "scalar": np.float64(-3.5),
        "rank4": rng.normal(size=(6,) * 4),
    }


@pytest.mark.parametrize("case", list(max_abs_cases()))
def test_max_abs_is_bitwise_the_max_of_the_absolute_copy(case):
    # from the max and the min, with no |x| copy; + 0.0 turns -0.0 into 0.0
    arr = max_abs_cases()[case]
    got, ref = max_abs(arr), float(np.max(np.abs(arr)))
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(ref).tobytes()


def test_max_abs_of_an_empty_array_is_zero():
    assert max_abs(np.zeros((0, 3))) == 0.0
    assert max_abs([]) == 0.0


@pytest.mark.parametrize("seed", [0, 1, "dim4"])
def test_pi1_and_psi1(seed):
    # psi1 is one rank-2 product [vec g, vec s] [vec s; vec g], antisymmetrised
    inst = moved_builtin() if seed == "dim4" else frame_changed_dim8(seed)
    g, dim = inst.g, inst.dim
    s = np.random.default_rng(dim if seed == "dim4" else seed).normal(size=(dim, dim))
    s = s + s.T
    ab = np.abs(g), np.abs(s)
    assert_within_roundoff(
        psi1(g, s), psi1_terms(g, s), psi1_terms(*ab), 4
    )
    half = psi1_terms(g, g)[:2]
    assert_within_roundoff(pi1_tensor(g), half, psi1_terms(ab[0], ab[0])[:2], 2)


def weyl_terms(r, rho, tau, g, n):
    """The two-extension Weyl formula R - (psi1(rho) - tau / (2n - 1) pi1) / (2(n - 1))."""
    k = 2 * (n - 1)
    pi1 = psi1_terms(g, g)[:2]
    return [r] + [-t / k for t in psi1_terms(g, rho)] + [tau / (2 * n - 1) / k * t for t in pi1]


def weyl_instances():
    return {"dim4": moved_builtin(), "dim8": frame_changed_dim8()}


@pytest.mark.parametrize("inst", list(weyl_instances().values()), ids=list(weyl_instances()))
def test_weyl_tensor_against_the_two_extension_formula(inst):
    # the real curvature plus noise, so the Weyl part is not zero; the
    # formula is linear in (r, rho, tau) and needs no curvature symmetries
    dim, g, n = inst.dim, inst.g, inst.n
    r = curvature_tensor(levi_civita_coeffs(inst), inst.c, g)
    r = r + np.random.default_rng(dim).normal(size=(dim,) * 4)
    ricci = ricci_and_scalar(r, inst.g_inv)
    rho = 0.5 * (ricci.rho + ricci.rho.T)
    assert_within_roundoff(
        weyl_tensor(r, rho, ricci.tau, g),
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
    assert ids["torsion_nested_cyclic_sum"] == max_abs(sum(cyclic_terms(compose(t_sharp, t_sharp))))


@pytest.mark.parametrize("inst", [moved_builtin(), frame_changed_dim8()], ids=["dim4", "dim8"])
def test_parallel_torsion_defect_is_that_of_the_whole_derivative(inst):
    # the torsion derivative is taken one direction slab at a time; its max
    # over the slabs is bitwise the max of the whole derivative
    a = analyze_instance(inst)
    full = cov_deriv_components(a.D.gamma, a.t_sharp, (CO, CO, CONTRA))
    assert a.parallel.dt_defect == max_abs(full) > 1e-3


@pytest.mark.parametrize("seed", [0, 1])
def test_ricci_and_scalar(seed):
    inst = frame_changed_dim8(seed)
    r = curvature_tensor(levi_civita_coeffs(inst), inst.c, inst.g)
    ricci = ricci_and_scalar(r, inst.g_inv)
    g_inv, n = inst.g_inv, inst.dim**2
    abs_g_inv = np.abs(g_inv)
    assert_within_roundoff(ricci.rho, trace_terms(g_inv, r), trace_terms(abs_g_inv, np.abs(r)), n)
    rho = ricci.rho
    assert_within_roundoff(ricci.tau, trace_terms(g_inv, rho), trace_terms(abs_g_inv, np.abs(rho)), n)


@pytest.mark.parametrize(
    "inst",
    [frame_changed_dim8(), random_instance(3), moved_builtin(), hyperbolic(16)],
    ids=["frame_changed_dim8", "random", "dim4", "dim16"],
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
    "inst",
    [frame_changed_dim8(), random_instance(4), moved_builtin(), hyperbolic(16)],
    ids=["frame_changed_dim8", "random", "dim4", "dim16"],
)
def test_structure_pullback(inst):
    dim = inst.dim
    assert_within_roundoff(
        structure_pullback(inst.p, inst.c),
        pullback_terms(inst.p, inst.c),
        pullback_terms(np.abs(inst.p), np.abs(inst.c)),
        dim * dim,
    )


# Instances with dense brackets, a dense P and a non-identity metric, at the
# paper's dimension and at one where the rank-4 kernels take several blocks.
NON_IDENTITY_METRIC = {"dim4": moved_builtin(), "dim8": frame_changed_dim8(), "dim16": hyperbolic(16)}
DIMS_4_16 = ["dim4", "dim16"]


def lowered_terms(t, m):
    """t[i, j, l] m[l, k], the last slot contracted by ``m``."""
    return [np.einsum("ijl,lk->ijk", t, m)]


def koszul_terms(c, g, g_inv, dg):
    """0.5 (dg + dg^jik - dg^kij + b + b^kij + b^kji) g^-1 with b = c g, as einsums."""
    b = np.einsum("ijm,mk->ijk", c, g)
    low = [dg, np.einsum("jik->ijk", dg), -np.einsum("kij->ijk", dg)]
    low += [b, np.einsum("kij->ijk", b), np.einsum("kji->ijk", b)]
    return [0.5 * np.einsum("ijk,kl->ijl", t, g_inv) for t in low]


@pytest.mark.parametrize("name", DIMS_4_16)
@pytest.mark.parametrize("rescaled", [False, True], ids=["base", "rescaled"])
def test_levi_civita_coeffs(name, rescaled):
    # with the frame derivatives of a conformally rescaled metric, as the conformal rebuild has them
    inst = NON_IDENTITY_METRIC[name]
    dim = inst.dim
    alpha = np.random.default_rng(dim).normal(size=dim)
    dg = 2.0 * alpha[:, None, None] * inst.g if rescaled else np.zeros((dim,) * 3)
    ab = [np.abs(x) for x in (inst.c, inst.g, inst.g_inv, dg)]
    assert_within_roundoff(
        levi_civita_coeffs(inst, dg if rescaled else None),
        koszul_terms(inst.c, inst.g, inst.g_inv, dg),
        koszul_terms(*ab),
        2 * dim + 6,
    )


@pytest.mark.parametrize("name", DIMS_4_16)
@pytest.mark.parametrize("k", [None, 3], ids=["one", "stack"])
@pytest.mark.parametrize("given_minus", [False, True], ids=["minus_none", "minus"])
def test_psi1_defect_against_the_dense_residual(name, k, given_minus):
    # s = h + t g with h symmetric, so the dense psi1(s) is the einsum psi1(h) plus 2 t pi1;
    # a stack has one slice per form, as the verify-paper sweep passes them
    inst = NON_IDENTITY_METRIC[name]
    g, dim = inst.g, inst.dim
    rng = np.random.default_rng(dim)
    lead = () if k is None else (k,)
    r = rng.normal(size=lead + (dim,) * 4)
    minus = rng.normal(size=r.shape) if given_minus else np.zeros(r.shape)
    h = rng.normal(size=lead + (dim, dim))
    h, t = h + h.swapaxes(-1, -2), rng.normal(size=lead)
    s = h + np.multiply.outer(t, g)
    pi1, refs, scales = pi1_tensor(g), [], []
    for i in np.ndindex(lead):
        refs.append(max_abs(r[i] - minus[i] + sum(psi1_terms(g, h[i])) + 2 * t[i] * pi1))
        abs_terms = [r[i], minus[i]] + psi1_terms(np.abs(g), np.abs(h[i]) + abs(t[i]) * np.abs(g))
        scales.append(max_abs(sum(np.abs(x) for x in abs_terms)))
    got = psi1_defect(r, minus if given_minus else None, s, g)
    assert max(refs) > 1.0
    assert abs(got - max(refs)) <= 8 * EPS * max(scales)


def test_psi1_defect_differences_its_curvatures_before_adding_psi1():
    # equal curvatures far larger than psi1(s) cancel exactly, so psi1(s) keeps every digit
    g = NON_IDENTITY_METRIC["dim16"].g
    rng = np.random.default_rng(5)
    big, s = 1e20 * rng.normal(size=(16,) * 4), rng.normal(size=(16, 16))
    s = s + s.T
    assert psi1_defect(big, big, s, g) == max_abs(psi1(g, s)) > 1.0


def structure_F_terms(gamma, p, g):
    return [
        np.einsum("ijl,lk->ijk", np.einsum("iml,mj->ijl", gamma, p), g),
        -np.einsum("ijl,lk->ijk", np.einsum("lm,ijm->ijl", p, gamma), g),
    ]


@pytest.mark.parametrize("name", DIMS_4_16)
def test_structure_tensor_F(name):
    inst = NON_IDENTITY_METRIC[name]
    gamma = levi_civita_coeffs(inst)
    assert max_abs(structure_tensor_F(inst, gamma)) > 1e-3  # not a product-parallel structure
    assert_within_roundoff(
        structure_tensor_F(inst, gamma),
        structure_F_terms(gamma, inst.p, inst.g),
        structure_F_terms(np.abs(gamma), np.abs(inst.p), np.abs(inst.g)),
        2 * inst.dim + 1,
    )


@pytest.mark.parametrize("name", DIMS_4_16)
def test_natural_connection_and_raised_torsion(name):
    # D = nabla + Q g^-1 and T# = T g^-1; Q and T themselves are not contractions
    inst = NON_IDENTITY_METRIC[name]
    a = analyze_instance(inst)
    theta = np.random.default_rng(inst.dim).normal(size=inst.dim)
    d = connection_D_from(inst, a.nabla, theta)
    abs_g_inv = np.abs(inst.g_inv)
    assert_within_roundoff(
        d.gamma,
        [a.nabla] + lowered_terms(d.Q, inst.g_inv),
        [np.abs(a.nabla)] + lowered_terms(np.abs(d.Q), abs_g_inv),
        inst.dim + 1,
    )
    t = a.D.T
    assert_within_roundoff(a.t_sharp, lowered_terms(t, inst.g_inv), lowered_terms(np.abs(t), abs_g_inv), inst.dim)


@pytest.mark.parametrize("name", DIMS_4_16)
def test_recomputed_torsion(name):
    inst = NON_IDENTITY_METRIC[name]
    gamma = np.random.default_rng(inst.dim).normal(size=(inst.dim,) * 3)
    t_up = [gamma, -gamma.swapaxes(0, 1), -inst.c]
    abs_up = sum(np.abs(t) for t in t_up)
    assert_within_roundoff(
        recomputed_torsion(gamma, inst),
        [term for t in t_up for term in lowered_terms(t, inst.g)],
        lowered_terms(abs_up, np.abs(inst.g)),
        inst.dim + 2,
    )


@pytest.mark.parametrize("name", DIMS_4_16)
def test_lee_orthogonality_defect(name):
    # random theta and T#, so the defect is not a sum that cancels to roundoff
    inst = NON_IDENTITY_METRIC[name]
    rng = np.random.default_rng(inst.dim)
    theta, t_sharp = rng.normal(size=inst.dim), rng.normal(size=(inst.dim,) * 3)
    t = np.zeros_like(t_sharp)
    ids = torsion_identity_defects(inst, NaturalConnection(gamma=t, Q=t, T=t), theta, t_sharp)
    ref = np.einsum("m,ml,ijl->ij", theta, inst.p, t_sharp)
    size = np.einsum("m,ml,ijl->ij", np.abs(theta), np.abs(inst.p), np.abs(t_sharp))
    assert abs(ids["torsion_lee_orthogonality"] - max_abs(ref)) <= 2 * inst.dim * EPS * size.max()
    assert ids["torsion_lee_orthogonality"] > 1.0


def sectional_plane(r, g, u, v):
    """The einsum value of k(u, v) and a bound of 64 ulps of the numerator's size over |area|.

    The bound does not grow with dim: a kernel that sums in another order is
    off by a few ulps (under 10 over 2000 random planes at dims 4, 8 and 16,
    the area's own roundoff included), a wrong term by far more.
    """
    area = (u @ g @ u) * (v @ g @ v) - (u @ g @ v) ** 2
    k = np.einsum("ijkl,i,j,k,l->", r, u, v, v, u) / area
    numer_size = np.einsum("ijkl,i,j,k,l->", np.abs(r), *np.abs([u, v, v, u]))
    return k, 64 * EPS * numer_size / abs(area)


def noisy_curvature(inst):
    """The Levi-Civita curvature plus noise of its own size: no symmetry of R is assumed."""
    r = analyze_instance(inst).R
    return r + max_abs(r) * np.random.default_rng(inst.dim).normal(size=r.shape)


@pytest.mark.parametrize("name", list(NON_IDENTITY_METRIC))
def test_sectional_curvature_against_einsum(name):
    inst = NON_IDENTITY_METRIC[name]
    r, g = noisy_curvature(inst), inst.g
    rng = np.random.default_rng(12)
    for _ in range(20):
        u, v = rng.normal(size=(2, inst.dim))
        expected, bound = sectional_plane(r, g, u, v)
        assert abs(sectional_curvature(r, inst.g, u, v) - expected) <= bound
        assert abs(sectional_curvature(r, inst.g, list(u), tuple(v)) - expected) <= bound


@pytest.mark.parametrize("name", list(NON_IDENTITY_METRIC))
def test_sectional_curvature_on_basis_planes_is_exact(name):
    # a unit vector picks entries out of R and g: no sum has two non-zero terms
    inst = NON_IDENTITY_METRIC[name]
    r, g, basis = noisy_curvature(inst), inst.g, np.eye(inst.dim)
    for i, j in itertools.combinations(range(inst.dim), 2):
        expected = r[i, j, j, i] / (g[i, i] * g[j, j] - g[i, j] ** 2)
        assert sectional_curvature(r, inst.g, basis[i], basis[j]) == expected
        assert sectional_curvature(r, inst.g, basis[j], basis[i]) == r[j, i, i, j] / (
            g[j, j] * g[i, i] - g[j, i] ** 2
        )


@pytest.mark.parametrize("name", list(NON_IDENTITY_METRIC))
def test_sectional_curvature_raises_on_a_degenerate_plane(name):
    inst = NON_IDENTITY_METRIC[name]
    r = noisy_curvature(inst)
    u = np.random.default_rng(3).normal(size=inst.dim)
    for v in (-3.0 * u, np.zeros(inst.dim), u + 1e-9 * np.eye(inst.dim)[0]):
        with pytest.raises(DegeneratePlane):
            sectional_curvature(r, inst.g, u, v)


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
