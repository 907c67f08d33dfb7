import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from circlepoly import LaurentPoly, Z, ONE, circle_nodes, outer_from_modulus
from circlepoly.errors import DomainError
from circlepoly.laurent import FFT_THRESHOLD, convolve


def _coeffs(draw_len=6):
    return st.lists(
        st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=draw_len,
    )


def test_zero_and_one():
    z = LaurentPoly.zero()
    assert z.is_zero()
    assert len(z) == 0
    assert ONE[0] == 1
    assert (z + ONE) == ONE
    assert (z * ONE).is_zero()


def test_trim_and_window():
    p = LaurentPoly([0, 0, 1, 2, 0], lo=-3)
    assert p.lo == -1 and p.hi == 0
    assert list(p.window(-2, 1)) == [0, 1, 2, 0]
    q = p.clip(0, 5)
    assert q.lo == 0 and q[0] == 2


def test_getitem_out_of_window():
    p = LaurentPoly([1, 2], lo=3)
    assert p[0] == 0
    assert p[3] == 1
    assert p[5] == 0


def test_not_iterable_and_numpy_scalars_defer():
    # p[k] is 0 outside the window, so index-based iteration would never
    # end; checked first, so that a regression fails instead of hanging
    p = LaurentPoly([1.0, 2.0], lo=3)
    with pytest.raises(TypeError):
        iter(p)
    with pytest.raises(TypeError):
        np.asarray(p)
    with pytest.raises(TypeError):
        np.ones(2) * p
    assert np.float64(2.0) * p == p * 2.0
    assert np.complex128(1j) + p == p + 1j


def test_immutability():
    p = LaurentPoly([1, 2])
    with pytest.raises(AttributeError):
        p.lo = 5
    with pytest.raises(ValueError):
        p.coeffs[0] = 9


def test_arithmetic_basics():
    p = 1 + Z
    q = 1 - Z
    assert (p * q)[0] == 1
    assert (p * q)[2] == -1
    assert (p * q)[1] == 0
    assert (p + q)[0] == 2
    assert (2 * p)[1] == 2
    assert (p / 2)[0] == 0.5


def test_shift_scale():
    p = (1 + Z).shift(-3)
    assert p.lo == -3 and p.hi == -2
    assert p.scale(0).is_zero()


def test_star_reflects_and_conjugates():
    p = LaurentPoly([1 + 2j, 3], lo=1)  # (1+2i) z + 3 z^2
    s = p.star()
    assert s.lo == -2 and s.hi == -1
    assert s[-1] == 1 - 2j
    assert s[-2] == 3


def test_star_on_circle_is_conjugation():
    p = LaurentPoly([1 + 1j, -2, 0.5j], lo=-1)
    zs = np.exp(2j * np.pi * np.arange(7) / 7)
    assert np.allclose(p.star()(zs), np.conj(p(zs)))


@settings(max_examples=60, deadline=None)
@given(_coeffs(), st.integers(-4, 4))
def test_star_is_an_involution(coeffs, lo):
    p = LaurentPoly(coeffs, lo)
    assert p.star().star() == p


@settings(max_examples=60, deadline=None)
@given(_coeffs(4), _coeffs(4))
def test_star_is_multiplicative(ca, cb):
    a, b = LaurentPoly(ca, -1), LaurentPoly(cb, 2)
    lhs = (a * b).star()
    rhs = a.star() * b.star()
    assert (lhs - rhs).max_abs() <= 1e-9 * (1 + a.max_abs() * b.max_abs())


@settings(max_examples=60, deadline=None)
@given(_coeffs(5), _coeffs(5))
def test_evaluation_is_a_ring_map(ca, cb):
    a, b = LaurentPoly(ca, 0), LaurentPoly(cb, 0)
    z = 0.7 + 0.3j
    scale = 1 + a.max_abs() * b.max_abs()
    assert abs((a * b)(z) - a(z) * b(z)) <= 1e-8 * scale
    assert abs((a + b)(z) - (a(z) + b(z))) <= 1e-9 * scale


def test_eval_at_zero():
    assert (1 + Z)(0) == 1
    with pytest.raises(DomainError):
        LaurentPoly([1], lo=-1)(0)
    with pytest.raises(DomainError):
        LaurentPoly([1], lo=-1)(np.array([1.0, 0.0]))


def test_eval_vectorized_matches_scalar():
    p = LaurentPoly([1, 2j, -3], lo=-1)
    zs = np.array([1.0, 1j, -0.5 + 0.25j])
    vec = p(zs)
    for z, v in zip(zs, vec):
        assert abs(p(complex(z)) - v) < 1e-14


@pytest.mark.parametrize(
    "lo,length,m",
    [(-5, 9, 16), (3, 40, 16), (-37, 100, 24), (-2, 7, 7), (0, 1, 1)],
    ids=["negative-lo", "span-above-m", "aliased-not-pow2", "odd-m", "one-node"],
)
def test_on_grid_matches_the_oracle(lo, length, m):
    # frequencies equal mod m share a node value, so a window wider than m
    # folds exactly; every m is allowed
    rng = np.random.default_rng(length)
    c = rng.normal(size=length) + 1j * rng.normal(size=length)
    p = LaurentPoly(c, lo)
    got = p.on_grid(m)
    exact = oracles.grid_values(c, lo, m, range(m))
    assert got.shape == (m,)
    assert np.max(np.abs(got - exact)) <= 1e-14 * np.sum(np.abs(c))
    assert np.allclose(got, p(circle_nodes(m)), rtol=0, atol=1e-12 * np.sum(np.abs(c)))


def test_on_grid_of_zero_and_of_nan():
    assert LaurentPoly.zero().on_grid(12).tobytes() == np.zeros(12, dtype=np.complex128).tobytes()
    # one NaN coefficient makes every value NaN, so that a sup over the grid
    # is NaN and fails its threshold
    p = LaurentPoly([0.3, np.nan, 0.2], 1)
    assert np.all(np.isnan(p.on_grid(64)))
    with pytest.raises(DomainError):
        p.on_grid(0)


def test_on_grid_rounds_thm5s_a_no_worse_than_horner():
    # a on [-256, 0] completes thm5's test b; Horner steps all 257
    # coefficients through z and then multiplies by z^-256
    b = LaurentPoly([0.3, 0.0, 0.2], 1)
    a = outer_from_modulus(0.5 * np.log1p(-np.abs(b.on_grid(8192)) ** 2), 256)[0].star()
    assert (a.lo, a.hi) == (-256, 0)
    ks = np.arange(0, 8192, 61)
    exact = oracles.grid_values(a.coeffs, a.lo, 8192, ks)
    fft_err = np.max(np.abs(a.on_grid(8192)[ks] - exact))
    horner_err = np.max(np.abs(a(circle_nodes(8192)[ks]) - exact))
    assert fft_err <= horner_err
    assert fft_err <= 1e-15


def test_convolve_paths_agree():
    rng = np.random.default_rng(0)
    a = rng.normal(size=FFT_THRESHOLD) + 1j * rng.normal(size=FFT_THRESHOLD)
    b = rng.normal(size=FFT_THRESHOLD) + 1j * rng.normal(size=FFT_THRESHOLD)
    assert np.allclose(convolve(a, b), np.convolve(a, b), atol=1e-9)


@pytest.mark.parametrize("la,lb", [(3, 5), (65, 65), (200, 100)])
def test_convolve_stacked_rows(la, lb):
    # leading axes broadcast; short rows too go through the batched FFT
    rng = np.random.default_rng(la)
    a = rng.normal(size=(3, 1, la)) + 1j * rng.normal(size=(3, 1, la))
    b = rng.normal(size=(3, 2, lb)) + 1j * rng.normal(size=(3, 2, lb))
    got = convolve(a, b)
    assert got.shape == (3, 2, la + lb - 1)
    for i in range(3):
        for j in range(2):
            assert np.allclose(got[i, j], np.convolve(a[i, 0], b[i, j]), rtol=0, atol=1e-12)
