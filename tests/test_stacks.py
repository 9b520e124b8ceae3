"""Kernels on a stack of inputs, shape (k, ...): each slice is the kernel's call on that slice.

``verify-paper`` rescales the base instance by its five sampled closed forms
as one stack.  Each kernel on that path must give, slice by slice, what it
gives on the slice alone, within roundoff; and the stacked sweep must give
the largest defect of the five forms taken one at a time.  The instances
have a non-identity metric, so a slot misplaced by a stack axis would show.
"""

import numpy as np
import pytest

from prodgeo import cli
from prodgeo.conformal import (
    conformal_checks,
    deformed_geometry,
    random_closed_form,
    transform_D,
    transform_lee,
)
from prodgeo.example import ExampleParams, build_example
from prodgeo.levicivita import (
    conformal_class_rhs,
    curvature_components,
    lee_form,
    levi_civita_coeffs,
    psi1_blocks,
    ricci_and_scalar,
    weyl_tensor,
)
from prodgeo.natural import connection_D_from
from prodgeo.pipeline import analyze_instance
from prodgeo.tensors import max_abs
from tests.conftest import moved_frame, psi1
from tests.reference import transform_lee_dual

EPS = 1e-9
DIMS = [4, 8]
K = 3  # slices of a stack


def random_moved(dim: int):
    """Random antisymmetric brackets and P = diag(I, -I), moved by a random frame change:
    the kernels need no axioms, and the metric is not the identity."""
    c = np.random.default_rng(dim).normal(size=(dim,) * 3)
    p = np.diag([1.0] * (dim // 2) + [-1.0] * (dim // 2))
    return moved_frame(c - c.swapaxes(0, 1), p, seed=dim + 1)


def stack(dim: int, rank: int, seed: int) -> np.ndarray:
    """K random (dim,) * rank arrays, stacked."""
    return np.random.default_rng(seed).normal(size=(K,) + (dim,) * rank)


def assert_slices(stacked, per_slice):
    """``stacked`` is ``per_slice`` stacked, within 64 ulps of the largest entry."""
    expected = np.stack(per_slice)
    assert stacked.shape == expected.shape
    np.testing.assert_allclose(stacked, expected, rtol=0, atol=64 * np.finfo(float).eps * max(1.0, max_abs(expected)))


@pytest.mark.parametrize("dim", DIMS)
class TestKernelsOnAStack:
    def test_levi_civita_coeffs(self, dim):
        inst = random_moved(dim)
        dg = stack(dim, 3, 0)
        assert_slices(levi_civita_coeffs(inst, dg), [levi_civita_coeffs(inst, x) for x in dg])

    def test_lee_form_and_class_rhs(self, dim):
        inst = random_moved(dim)
        f = stack(dim, 3, 0)
        lee = lee_form(inst, f)
        singles = [lee_form(inst, x) for x in f]
        assert_slices(lee.theta, [x.theta for x in singles])
        assert_slices(lee.omega, [x.omega for x in singles])
        assert_slices(conformal_class_rhs(inst, lee.theta), [conformal_class_rhs(inst, x.theta) for x in singles])

    def test_connection_D_from(self, dim):
        inst = random_moved(dim)
        nabla, theta = stack(dim, 3, 1), stack(dim, 1, 2)
        d = connection_D_from(inst, nabla, theta)
        singles = [connection_D_from(inst, n, t) for n, t in zip(nabla, theta)]
        for field in ("gamma", "Q", "T"):
            assert_slices(getattr(d, field), [getattr(x, field) for x in singles])

    def test_transform_lee_and_transform_D(self, dim):
        inst = random_moved(dim)
        a = analyze_instance(inst, EPS)
        alpha = stack(dim, 1, 3)
        theta_bar = transform_lee(a.lee.theta, alpha, inst.p)
        assert_slices(theta_bar, [transform_lee(a.lee.theta, x, inst.p) for x in alpha])
        args = (a.lee.omega, alpha, inst.p, inst.g_inv)
        omega_bar = transform_lee_dual(*args)
        assert_slices(omega_bar, [transform_lee_dual(*args[:1], x, *args[2:]) for x in alpha])
        assert_slices(transform_D(a.D, alpha), [transform_D(a.D, x) for x in alpha])

    @pytest.mark.parametrize("lowered", [False, True])
    @pytest.mark.parametrize("minus", [None, "stacked", "unstacked"])
    def test_curvature_components(self, dim, lowered, minus):
        inst = random_moved(dim)
        gamma = stack(dim, 3, 4)
        g = inst.g if lowered else None
        if minus is None:
            others = [None] * K
        elif minus == "stacked":
            others = list(stack(dim, 3, 5))
        else:
            others = [np.random.default_rng(6).normal(size=(dim,) * 3)] * K
        m = None if minus is None else (np.stack(others) if minus == "stacked" else others[0])
        assert_slices(
            curvature_components(gamma, inst.c, g, minus=m),
            [curvature_components(x, inst.c, g, minus=o) for x, o in zip(gamma, others)],
        )

    def test_curvature_of_a_stack_minus_itself_is_exactly_zero(self, dim):
        inst = random_moved(dim)
        gamma = stack(dim, 3, 4)
        assert not curvature_components(gamma, inst.c, inst.g, minus=gamma).any()

    def test_ricci_psi1_and_weyl(self, dim):
        inst = random_moved(dim)
        g = inst.g
        r = curvature_components(stack(dim, 3, 7), inst.c, g)
        ricci = ricci_and_scalar(r, inst.g_inv)
        singles = [ricci_and_scalar(x, inst.g_inv) for x in r]
        assert_slices(ricci.rho, [x.rho for x in singles])
        assert_slices(ricci.tau, [x.tau for x in singles])
        sym = ricci.rho + ricci.rho.swapaxes(-1, -2)
        blocks = np.empty(r.shape)
        for b, block in psi1_blocks(g, sym):
            blocks[..., b, :, :, :] = block
        assert_slices(blocks, [psi1(g, x) for x in sym])
        w = weyl_tensor(r, ricci.rho, ricci.tau, g, eps=np.inf)
        assert_slices(w, [weyl_tensor(x, s.rho, s.tau, g, eps=np.inf) for x, s in zip(r, singles)])


# lambda = 0 is the abelian algebra: every 1-form is closed, the forms span all of R^4
LAMBDAS = [(1.0, 2.0, 3.0, 4.0), (0.0, 0.0, 0.0, 0.0), (-0.5, 3.0, 0.25, -7.0), (1e-7, 2e-7, 3e-7, 4e-7)]


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("lam", LAMBDAS)
class TestStackedSweep:
    def test_sweep_is_the_worst_of_the_forms_one_at_a_time(self, lam, seed):
        inst = build_example(ExampleParams(lam))
        assert inst.alg.closed_forms.shape[0] == (4 if lam == (0.0, 0.0, 0.0, 0.0) else 2)
        a = analyze_instance(inst, EPS)
        rng = np.random.default_rng(seed)
        forms = [random_closed_form(inst.alg, rng) for _ in range(5)]
        per_form = [conformal_checks(a, deformed_geometry(inst, alpha, EPS)) for alpha in forms]
        sweep = cli._conformal_sweep(a, seed)
        assert list(sweep) == list(per_form[0])
        roundoff = 64 * np.finfo(float).eps * max(1.0, max(map(abs, lam)) ** 2)
        for name, defect in sweep.items():
            assert defect == pytest.approx(max(checks[name] for checks in per_form), rel=0, abs=roundoff)
