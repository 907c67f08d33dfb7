import numpy as np
import pytest

from circlepoly._accel import ladder_eval
from circlepoly.szego import ladder_from_coeffs


def _random_F(rng, n, radius=0.8):
    r = radius * np.sqrt(rng.uniform(size=n))
    return r * np.exp(2j * np.pi * rng.uniform(size=n))


def test_matches_polynomial_ladder():
    rng = np.random.default_rng(31)
    F = _random_F(rng, 12)
    sys = ladder_from_coeffs(F)
    s = np.exp(2j * np.pi * rng.uniform(size=5))
    u, v = ladder_eval(F, s)
    for n in range(13):
        assert np.max(np.abs(u[n] - sys.phi[n](s))) < 1e-12
        assert np.max(np.abs(v[n] - sys.phitilde[n](s))) < 1e-12


def test_determinant_identity_along_ladder():
    rng = np.random.default_rng(32)
    F = _random_F(rng, 200, 1.0)
    s = np.exp(2j * np.pi * rng.uniform(size=16))
    u, v = ladder_eval(F, s)
    assert np.max(np.abs(np.abs(u) ** 2 + np.abs(v) ** 2 - 2.0)) < 1e-10


def test_rejects_off_circle_points():
    with pytest.raises(ValueError):
        ladder_eval(np.zeros(3, dtype=complex), np.array([0.5 + 0j]))
    # a NaN point passes |abs(s) - 1| > tol, so the check is written the other way
    with pytest.raises(ValueError):
        ladder_eval(np.array([0.1 + 0j]), np.array([np.nan + 0j]))
    with pytest.raises(ValueError):
        ladder_eval(np.array([0.1 + 0j]), np.array([1.0, complex(np.nan, np.nan)]))


def _ladder_full_steps(F, s):
    """The ladder with the full SU(2) step at every degree, zero F_k included."""
    F = np.ascontiguousarray(F, dtype=np.complex128)
    s = np.ascontiguousarray(s, dtype=np.complex128)
    n = len(F)
    p = len(s)
    u = np.empty((n + 1, p), dtype=np.complex128)
    v = np.empty((n + 1, p), dtype=np.complex128)
    u[0] = 1.0
    v[0] = 1.0
    spow = np.ones(p, dtype=np.complex128)
    for k in range(n):
        fc = np.conj(F[k])
        rho = np.sqrt(1.0 + abs(F[k]) ** 2)
        u[k + 1] = (s * u[k] + spow * fc * np.conj(v[k])) / rho
        v[k + 1] = (s * v[k] - spow * fc * np.conj(u[k])) / rho
        spow = spow * s
    return u, v


@pytest.mark.parametrize("nonzero,zeros", [(1, 0), (1, 511), (7, 1), (40, 300), (256, 2000)])
def test_zero_tail_matches_full_steps_bitwise(nonzero, zeros):
    rng = np.random.default_rng(nonzero + zeros)
    F = np.concatenate([_random_F(rng, nonzero, 0.3), np.zeros(zeros)])
    s = np.exp(2j * np.pi * rng.uniform(size=9))
    u, v = ladder_eval(F, s)
    u_ref, v_ref = _ladder_full_steps(F, s)
    assert u.tobytes() == u_ref.tobytes()
    assert v.tobytes() == v_ref.tobytes()


def _interior_zero_runs(n):
    F = _random_F(np.random.default_rng(5), n, 0.5)
    F[2:6] = 0.0
    F[9:10] = 0.0
    return F


@pytest.mark.parametrize(
    "F",
    [
        np.array([0.3, -0.2, 0.5, 0.0, 0.0, 0.0]),
        np.zeros(12),
        np.zeros(0),
        _interior_zero_runs(14),
        np.concatenate([_interior_zero_runs(14), np.zeros(5)]),
        np.concatenate([_random_F(np.random.default_rng(6), 10, 0.5), [0.0]]),
    ],
    ids=["real", "all-zero", "empty", "interior-zeros", "interior-zeros+tail", "one-trailing-zero"],
)
def test_zero_tail_matches_full_steps_at_axis_points(F):
    # exact axis points make exact zero parts, whose sign the two steps may
    # round differently; array_equal compares -0.0 and 0.0 as equal
    s = np.array([1.0, -1.0, 1j, -1j, np.exp(0.4j)])
    u, v = ladder_eval(F, s)
    u_ref, v_ref = _ladder_full_steps(F, s)
    assert u.shape == v.shape == (len(F) + 1, len(s))
    assert np.array_equal(u, u_ref) and np.array_equal(v, v_ref)
