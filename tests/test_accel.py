import numpy as np
import pytest

from circlepoly import _accel
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


# (1023, 5) is the longest nonzero run that is not cut into blocks
@pytest.mark.parametrize("nonzero,zeros", [(1, 0), (1, 511), (7, 1), (40, 300), (256, 2000), (1023, 5)])
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


# -- blocked ladders: long nonzero runs at few points --------------------------


def _spy_blocked(monkeypatch):
    """Record the number of nonzero steps of every blocked ladder."""
    calls = []
    blocked = _accel._blocked

    def spy(buf, s, fcs, invs, spow):
        calls.append(len(fcs))
        return blocked(buf, s, fcs, invs, spow)

    monkeypatch.setattr(_accel, "_blocked", spy)
    return calls


@pytest.mark.parametrize("top,points,blocked", [(1023, 64, False), (1024, 256, True), (1024, 257, False)])
def test_blocking_gate(monkeypatch, top, points, blocked):
    calls = _spy_blocked(monkeypatch)
    rng = np.random.default_rng(top)
    ladder_eval(_random_F(rng, top, 0.3), np.exp(2j * np.pi * rng.uniform(size=points)))
    assert calls == ([top] if blocked else [])


@pytest.mark.parametrize("points", [1, 64])
@pytest.mark.parametrize("top,zeros", [(1024, 0), (2048, 300)])
def test_blocked_matches_full_steps(monkeypatch, top, zeros, points):
    calls = _spy_blocked(monkeypatch)
    rng = np.random.default_rng([top, points])
    F = np.concatenate([_random_F(rng, top, 0.3), np.zeros(zeros)])
    s = np.exp(2j * np.pi * rng.uniform(size=points))
    u, v = ladder_eval(F, s)
    u_ref, v_ref = _ladder_full_steps(F, s)
    assert calls == [top]
    assert u.shape == v.shape == (top + zeros + 1, points)
    assert np.max(np.abs(u - u_ref)) <= 2e-12 and np.max(np.abs(v - v_ref)) <= 2e-12


def _ladder_extended(F, s):
    """The full-step ladder in np.clongdouble."""
    F = np.asarray(F, dtype=np.clongdouble)
    s = np.asarray(s, dtype=np.clongdouble)
    u = np.empty((len(F) + 1, len(s)), dtype=np.clongdouble)
    v = np.empty_like(u)
    u[0] = v[0] = 1
    spow = np.ones(len(s), dtype=np.clongdouble)
    for k, f in enumerate(F):
        rho = np.sqrt(1 + abs(f) ** 2)
        u[k + 1] = (s * u[k] + spow * np.conj(f) * np.conj(v[k])) / rho
        v[k + 1] = (s * v[k] - spow * np.conj(f) * np.conj(u[k])) / rho
        spow = spow * s
    return u, v


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="np.longdouble is no wider than float64 here",
)
@pytest.mark.parametrize("radius", [0.05, 0.5])
def test_blocked_error_within_10x_of_plain_loop(radius):
    rng = np.random.default_rng(int(100 * radius))
    F = _random_F(rng, 2048, radius)
    s = np.exp(2j * np.pi * rng.uniform(size=16))
    u_x, v_x = _ladder_extended(F, s)

    def err(u, v):
        return float(max(np.max(np.abs(u - u_x)), np.max(np.abs(v - v_x))))

    blocked = err(*ladder_eval(F, s))
    plain = err(*_ladder_full_steps(F, s))
    assert 0 < plain and blocked <= 10 * plain


def test_determinant_identity_along_blocked_ladder():
    # the plain loop drifts to 5.4e-10 on this draw, the blocked one to 5.2e-10
    rng = np.random.default_rng(4096)
    F = _random_F(rng, 4096, 1.0)
    s = np.exp(2j * np.pi * rng.uniform(size=16))
    u, v = ladder_eval(F, s)
    assert np.max(np.abs(np.abs(u) ** 2 + np.abs(v) ** 2 - 2.0)) < 1e-9


# -- requested rows only -------------------------------------------------------


def _F(top, zeros, seed=7):
    return np.concatenate([_random_F(np.random.default_rng(seed), top, 0.3), np.zeros(zeros)])


@pytest.mark.parametrize(
    "F,degrees,blocked",
    [
        (_F(40, 0), [1, 5, 17, 39], False),
        (_F(40, 300), [3, 39, 40, 41, 100, 340], False),
        (_F(40, 300), [60, 61, 250], False),
        (_F(1024, 100), [0, 1, 511, 1023, 1024, 1100], True),
        (_F(30, 10), [0, 40], False),
        (_F(30, 10), list(range(41)), False),
        (_F(30, 10), [], False),
        (np.zeros(0), [0], False),
        (np.zeros(0), [], False),
    ],
    ids=["plain", "zero-tail", "tail-only", "blocked", "0-and-N", "every-row", "empty", "length-0", "length-0-empty"],
)
def test_requested_rows_match_all_rows_bitwise(monkeypatch, F, degrees, blocked):
    calls = _spy_blocked(monkeypatch)
    s = np.exp(2j * np.pi * np.random.default_rng(len(F)).uniform(size=64))
    u, v = ladder_eval(F, s, degrees)
    assert calls == ([np.count_nonzero(F)] if blocked else [])
    u_all, v_all = ladder_eval(F, s)
    assert u.shape == v.shape == (len(degrees), len(s))
    assert u.tobytes() == u_all[degrees].tobytes()
    assert v.tobytes() == v_all[degrees].tobytes()


@pytest.mark.parametrize("degrees", [[-1], [0, 11], [2, 2], [5, 3]])
def test_requested_rows_must_be_increasing_and_in_range(degrees):
    with pytest.raises(ValueError):
        ladder_eval(_F(10, 0), np.array([1.0 + 0j]), degrees)
