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
