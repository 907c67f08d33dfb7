"""The reproducing kernel K_n(z, lam) = sum_{j<=n} phitilde_j(z) star(phi_j)(lam),
read from the ladder values the universality runner sums."""

import os

import numpy as np
import pytest

from circlepoly import CircleMeasure, LaurentPoly, Z, ladder_from_coeffs, pairing
from circlepoly._accel import ladder_eval
from circlepoly.errors import ConfigError
from circlepoly.experiments import read_csv, run_universality


def _random_F(rng, n, radius):
    r = radius * np.sqrt(rng.uniform(size=n))
    return r * np.exp(2j * np.pi * rng.uniform(size=n))


def _kernel_rows(F, z, lam):
    """K_0..K_N(z, lam) for circle points z and lam, N = len(F), summed
    from ladder_eval values: star(phi_j)(lam) = conj(phi_j(lam)) on the
    circle.  Also returns the ladder values (u, v) at (z, lam)."""
    u, v = ladder_eval(F, np.array([z, lam]))
    return np.cumsum(v[:, 0] * np.conj(u[:, 1])), u, v


def test_zero_coeff_kernel_is_dirichlet():
    # the uniform measure's kernel is sum_j (z / lam)^j
    z, lam = np.exp(0.4j), np.exp(-0.2j)
    k, _, _ = _kernel_rows(np.zeros(8, dtype=np.complex128), z, lam)
    for n in (0, 3, 7):
        dirichlet = sum((z / lam) ** j for j in range(n + 1))
        assert abs(k[n] - dirichlet) < 1e-12


def test_cd_matches_direct():
    # (1 - z/lam) K_n(z, lam) = z^{n+1} lam^{-n-1} star(phi_{n+1})(z)
    # phitilde_{n+1}(lam) - phitilde_{n+1}(z) star(phi_{n+1})(lam)
    rng = np.random.default_rng(10)
    F = _random_F(rng, 12, 0.6)
    z, lam = np.exp(0.9j), np.exp(-0.4j)
    k, u, v = _kernel_rows(F, z, lam)
    for n in range(12):
        m = n + 1
        num = (z / lam) ** m * np.conj(u[m, 0]) * v[m, 1] - v[m, 0] * np.conj(u[m, 1])
        assert abs(num / (1 - z / lam) - k[n]) < 1e-10


def _reproduce_residual(sys, mu, n, f, lam):
    """|<f, K_n(., lam)>_mu - f(lam)|.  The kernel is taken as
    sum_j phitilde_j(z) conj(phi_j(lam)), so that its star in the pairing
    is sum_j star(phitilde_j)(z) phi_j(lam) and the property holds off the
    circle as well."""
    k = LaurentPoly.zero()
    for j in range(n + 1):
        k = k + sys.phitilde[j].scale(np.conj(sys.phi[j](lam)))
    return abs(pairing(f, k, mu, 4096) - f(lam))


def test_reproducing_property_off_circle():
    sys = ladder_from_coeffs(np.array([0.5, 0, 0, 0]))
    mu = CircleMeasure.mu_r(0.5)
    f = 1 + 2 * Z + 0.5j * (Z * Z)
    for lam in (0.7 + 0.1j, np.exp(0.3j), 1.5):
        assert _reproduce_residual(sys, mu, 3, f, lam) < 1e-8


def test_reproducing_property_negative_control():
    # a polynomial of degree n+1 is not reproduced by K_n
    sys = ladder_from_coeffs(np.array([0.5, 0, 0]))
    mu = CircleMeasure.mu_r(0.5)
    f = Z * Z * Z
    assert _reproduce_residual(sys, mu, 2, f, 0.7 + 0.1j) > 1e-2


def test_universality_gap_hypotheses(tmp_path):
    # the runner refuses n < 2C and points off the circle
    base = {"degrees": [8], "points": {"explicit": [[0, 1]]}, "quadrature_m": 1024}
    with pytest.raises(ConfigError):
        run_universality({**base, "degrees": [2]}, str(tmp_path), 0)
    with pytest.raises(ConfigError):
        run_universality({**base, "points": {"explicit": [[1.5, 0]]}}, str(tmp_path), 0)
    assert not os.path.exists(tmp_path / "universality.csv")


def test_universality_gap_mu_r_decays(tmp_path):
    cfg = {
        "measure": {"kind": "mu_r", "r": 0.5},
        "degrees": [8, 64],
        "points": {"explicit": [[0, 1]]},
        "quadrature_m": 16384,
    }
    assert run_universality(cfg, str(tmp_path), 0) == 0
    columns, rows = read_csv(tmp_path / "universality.csv")
    n, gap, bound = (columns.index(c) for c in ("n", "gap", "bound"))
    by_n = {int(row[n]): row for row in rows}
    assert by_n[64][gap] < by_n[8][gap]
    for row in rows:
        assert row[gap] <= row[bound]
