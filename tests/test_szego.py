import tracemalloc

import numpy as np
import pytest

from circlepoly import (
    CircleMeasure,
    LaurentPoly,
    circle_nodes,
    extract_coeffs,
    forward,
    layer_strip_truncated,
    ladder_from_coeffs,
    measure_from_pair,
    monic_from_moments,
    outer_from_modulus,
    plancherel_check,
    plancherel_table,
    verify_system,
    w_from_ab,
)
from circlepoly import szego
from circlepoly.cli import main
from circlepoly.szego import (
    SystemReport,
    _jensen_sums,
    _moment_matrix,
    _plancherel_poly,
    _row_slice,
)
from circlepoly.errors import (
    DomainError,
    MalformedLadderError,
    NearSingularMomentError,
)
from circlepoly.szego import T_MINUS, T_PLUS, T_GENERAL


def _random_F(rng, n, radius):
    r = radius * np.sqrt(rng.uniform(size=n))
    return r * np.exp(2j * np.pi * rng.uniform(size=n))


def test_mu_r_ladder_closed_form():
    # phi_n = (1+r^2)^{-1/2} (z^n + r z^{n-1}), phitilde flips the sign of r
    r = 0.5
    sys = ladder_from_coeffs(np.array([r] + [0.0] * 15))
    c = 1.0 / np.sqrt(1 + r * r)
    for n in range(1, 17):
        p, q = sys.phi[n], sys.phitilde[n]
        assert abs(p[n] - c) < 1e-14
        assert abs(p[n - 1] - r * c) < 1e-14
        assert abs(q[n] - c) < 1e-14
        assert abs(q[n - 1] + r * c) < 1e-14
        assert max(abs(p[k]) for k in range(n - 1)) < 1e-14 if n > 1 else True


def test_norms_are_products():
    rng = np.random.default_rng(1)
    F = _random_F(rng, 8, 0.9)
    sys = ladder_from_coeffs(F)
    expect = np.cumprod(np.concatenate([[1.0], 1 + np.abs(F) ** 2]))
    assert np.allclose(sys.norms, expect)
    assert [np.conj(sys.monic_tilde(n)[0]) for n in range(1, 9)] == pytest.approx(-F)


def test_tplus_requires_contractive_coeffs():
    with pytest.raises(DomainError):
        ladder_from_coeffs(np.array([1.5]), T_PLUS)
    sys = ladder_from_coeffs(np.array([0.5]), T_PLUS)
    assert sys.norms[1] == pytest.approx(0.75)
    assert np.conj(sys.monic_tilde(1)[0]) == pytest.approx(0.5)


def test_unknown_class_rejected():
    with pytest.raises(DomainError):
        ladder_from_coeffs(np.array([0.1]), "Tweird")


def test_determinant_identity_on_circle():
    rng = np.random.default_rng(2)
    sys = ladder_from_coeffs(_random_F(rng, 12, 1.0))
    zs = circle_nodes(64)
    for n in range(13):
        vals = np.abs(sys.phi[n](zs)) ** 2 + np.abs(sys.phitilde[n](zs)) ** 2
        assert np.max(np.abs(vals - 2.0)) < 1e-12


def test_extract_roundtrip_and_class_tags():
    rng = np.random.default_rng(3)
    F = _random_F(rng, 10, 0.8)
    sys = ladder_from_coeffs(F)
    Phi = [sys.monic(n) for n in range(11)]
    PhiT = [sys.monic_tilde(n) for n in range(11)]
    F2, Ft2, tag, both = extract_coeffs(Phi, PhiT)
    assert tag == T_MINUS and not both
    assert np.max(np.abs(F2 - F)) < 1e-12
    assert np.max(np.abs(Ft2 + F)) < 1e-12

    sysp = ladder_from_coeffs(np.abs(F) * 0.5, T_PLUS)
    _, _, tagp, _ = extract_coeffs(
        [sysp.monic(n) for n in range(11)],
        [sysp.monic_tilde(n) for n in range(11)],
    )
    assert tagp == T_PLUS


def test_extract_zero_coeffs_resolves_tie():
    sys = ladder_from_coeffs(np.zeros(4))
    F, Ft, tag, both = extract_coeffs(
        [sys.monic(n) for n in range(5)], [sys.monic_tilde(n) for n in range(5)]
    )
    assert tag == T_MINUS and both
    assert np.max(np.abs(F)) == 0


def test_extract_general_class():
    # mix the two conventions so neither Ftilde = F nor Ftilde = -F holds
    a = ladder_from_coeffs(np.array([0.3]))
    b = ladder_from_coeffs(np.array([0.5]))
    _, _, tag, _ = extract_coeffs(
        [a.monic(0), a.monic(1)], [b.monic_tilde(0), b.monic_tilde(1)]
    )
    assert tag == T_GENERAL


def test_extract_rejects_nonmonic():
    sys = ladder_from_coeffs(np.array([0.5]))
    with pytest.raises(MalformedLadderError):
        extract_coeffs([sys.phi[0], sys.phi[1]], [sys.phitilde[0], sys.phitilde[1]])
    with pytest.raises(MalformedLadderError):
        extract_coeffs([sys.monic(0)], [sys.monic_tilde(0), sys.monic_tilde(1)])
    # a NaN leading coefficient passes |c - 1| > tol: written the other way
    nan_top = LaurentPoly([sys.monic(1)[0], np.nan])
    with pytest.raises(MalformedLadderError):
        extract_coeffs([sys.monic(0), nan_top], [sys.monic_tilde(0), sys.monic_tilde(1)])


def test_heine_matches_recurrence_for_mu_r():
    r = 0.5
    mu = CircleMeasure.mu_r(r)
    sys = ladder_from_coeffs(np.array([r, 0, 0, 0]))
    for n in range(1, 5):
        phi, phitilde, deltas = monic_from_moments(mu, n)
        assert (phi - sys.monic(n)).max_abs() < 1e-8
        assert (phitilde - sys.monic_tilde(n)).max_abs() < 1e-8
    assert abs(deltas[0] - 1.0) < 1e-10


def test_heine_flags_singular_moment_matrix():
    # a single atom has rank-one moment matrices: Delta_1 = 0
    mu = CircleMeasure.from_atoms([(1.0, 1.0)])
    with pytest.raises(NearSingularMomentError) as exc:
        monic_from_moments(mu, 2)
    assert exc.value.index == 1


def _toeplitz_dets(c, n):
    deltas = np.empty(n + 1, dtype=np.complex128)
    for k in range(n + 1):
        mat = _moment_matrix(c, k)
        det = np.linalg.det(mat)
        scale = float(np.prod(np.linalg.norm(mat, axis=1))) or 1.0
        if abs(det) < 1e-10 * scale:
            raise NearSingularMomentError(f"moment determinant of order {k} is zero", index=k)
        deltas[k] = det
    return deltas


def _heine(c, deltas, n):
    if n == 0:
        return LaurentPoly.one()
    mat = _moment_matrix(c, n)  # row 0 is the z-powers row in Heine's determinant
    coeffs = np.zeros(n + 1, dtype=np.complex128)
    for j in range(n + 1):
        # minor: drop row 0 and column j; z-power of column j is z^{n-j}
        minor = np.delete(np.delete(mat, 0, axis=0), j, axis=1)
        coeffs[n - j] = (-1) ** j * np.linalg.det(minor) / deltas[n - 1]
    return LaurentPoly(coeffs, 0)


def _heine_oracle(mu, n, m=4096):
    """(Phi_n, PhiTilde_n, deltas) by Heine's determinant formula, O(n^4):
    deltas[k] = det(c_{i-j})_{i,j<=k}, and PhiTilde from the moments of the
    conjugate measure."""
    c = mu.moments(n, m)
    cbar = np.conj(c[::-1])
    deltas = _toeplitz_dets(c, n)
    return _heine(c, deltas, n), _heine(cbar, _toeplitz_dets(cbar, n), n), deltas


@pytest.mark.parametrize("which", ["su2", "atom", "scaled"])
def test_szego_recursion_matches_heine(which):
    if which == "su2":
        pair = forward(_random_F(np.random.default_rng(7), 6, 0.1))
        mu = measure_from_pair(pair.a, pair.b)
    elif which == "atom":
        # a complex atom puts the measure in the general class (Ftilde != -+F)
        mu = CircleMeasure.mu_r(0.3).with_atoms([(1j, 0.2 + 0.1j)])
    else:
        mu = CircleMeasure.mu_r(0.5).scaled(1 + 0.3j)
    for n in range(9):
        phi, phitilde, deltas = monic_from_moments(mu, n)
        hphi, hphitilde, hdeltas = _heine_oracle(mu, n)
        assert (phi - hphi).max_abs() < 1e-12
        assert (phitilde - hphitilde).max_abs() < 1e-12
        assert np.max(np.abs(deltas - hdeltas) / np.abs(hdeltas)) < 1e-12


def test_szego_recursion_matches_ladder_at_n128():
    F = _random_F(np.random.default_rng(128), 128, 0.035)
    pair = forward(F)
    sys = ladder_from_coeffs(F)
    phi, phitilde, deltas = monic_from_moments(measure_from_pair(pair.a, pair.b), 128)
    assert (phi - sys.monic(128)).max_abs() < 1e-12
    assert (phitilde - sys.monic_tilde(128)).max_abs() < 1e-12
    # Delta_k / Delta_{k-1} is the monic pairing norms[k]
    assert np.max(np.abs(deltas / np.cumprod(sys.norms) - 1.0)) < 1e-12


def test_verify_system_mu_r():
    sys = ladder_from_coeffs(np.array([0.5, 0, 0]))
    report = verify_system(sys, CircleMeasure.mu_r(0.5))
    assert report.max_residual() < 1e-8


def _pipeline_measure():
    """The thm5 measure of acceptance criterion 06: b = 0.3z + 0.2z^3 through
    the outer function and truncated layer stripping."""
    b = LaurentPoly([0.3, 0, 0.2], lo=1)
    logmod = 0.5 * np.log1p(-np.abs(b(circle_nodes(8192))) ** 2)
    astar, _, _ = outer_from_modulus(logmod, 256)
    a = astar.star()
    F, _ = layer_strip_truncated(a, b, 24, 256)
    return F, CircleMeasure.from_samples(w_from_ab(a, b, 8192))


@pytest.mark.parametrize("which", ["mu_r", "pipeline"])
def test_gram_matches_pairing_loop(which):
    d = 20
    if which == "mu_r":
        F, mu = np.array([0.5]), CircleMeasure.mu_r(0.5)
    else:
        F, mu = _pipeline_measure()
    sys = ladder_from_coeffs(np.concatenate([F, np.zeros(d)])[:d])
    # A T B^H from the coefficient rows of the packed ladder
    A, B = np.zeros((2, d + 1, d + 1), dtype=np.complex128)
    for k in range(d + 1):
        A[k, : k + 1], B[k, : k + 1] = sys.ladder()[:, _row_slice(k)]
    gram = A @ _moment_matrix(mu.moments(d, 4096), d) @ B.conj().T
    # the reference: one adaptive quadrature per pair
    ref = np.array(
        [
            [mu.integrate_adaptive(sys.phi[j] * sys.phitilde[k].star(), 4096) for k in range(d + 1)]
            for j in range(d + 1)
        ]
    )
    assert np.max(np.abs(gram - ref)) < 1e-13
    ortho = verify_system(sys, mu).orthonormality_max
    assert ortho == np.max(np.abs(gram - np.eye(d + 1))) and ortho < 1e-12


def test_verify_system_at_n64():
    rng = np.random.default_rng(64)
    sys = ladder_from_coeffs(_random_F(rng, 64, 0.02))
    pair = forward(sys.F)
    report = verify_system(sys, measure_from_pair(pair.a, pair.b))
    assert report.max_residual() <= 1e-8


def test_verify_system_reads_the_stored_rows():
    rng = np.random.default_rng(16)
    sys = ladder_from_coeffs(_random_F(rng, 16, 0.04))
    pair = forward(sys.F)
    mu = measure_from_pair(pair.a, pair.b)
    clean = verify_system(sys, mu)
    # the FFT's grid values against Horner on every stored row, also on a
    # grid of fewer nodes than coefficients
    for grid in (512, 8, 5):
        nodes = circle_nodes(grid)
        horner = max(
            float(np.max(np.abs(np.abs(p(nodes)) ** 2 + np.abs(q(nodes)) ** 2 - 2.0)))
            for p, q in zip(sys.phi, sys.phitilde)
        )
        assert abs(verify_system(sys, mu, grid=grid).det_identity_max - horner) < 1e-14
    assert clean.max_residual() < 1e-12
    rows = sys.ladder().copy()  # the stored rows, with phi_7 + 1e-6 z^3
    rows[0, _row_slice(7).start + 3] += 1e-6
    sys._rows = rows
    bad = verify_system(sys, mu)
    assert bad.orthonormality_max > 1e-7 and bad.det_identity_max > 1e-7


# -- rows read one at a time ---------------------------------------------------


@pytest.mark.parametrize("radius", [0.05, 0.6])
@pytest.mark.parametrize("n", [0, 1, 16, 63, 64, 65, 2048])
def test_single_row_matches_packed_row(n, radius):
    # phi_k = z^k (a + b*) and phitilde_k = z^k (a - b*), (a, b) = forward(F[:k])
    sys = ladder_from_coeffs(_random_F(np.random.default_rng([17, n]), n, radius))
    ks = sorted({0, min(1, n), n // 2, n})
    single = {k: (sys.phi[k], sys.phitilde[k]) for k in ks}
    assert sys._rows is None  # no packed ladder behind a single row
    for k in ks:
        for one, ref in zip(single[k], sys.ladder()[:, _row_slice(k)]):
            assert one.hi == k and one.coeffs.base is None
            err = np.max(np.abs(one.window(0, k) - ref))
            assert err <= 1e-13 * np.max(np.abs(ref))


def test_single_row_indices():
    sys = ladder_from_coeffs(_random_F(np.random.default_rng(18), 5, 0.5))
    assert len(sys.phi) == len(sys.phitilde) == 6
    assert sys.phi[-1] == sys.phi[5] and sys.phitilde[-6] == sys.phitilde[0]
    assert sys.phi[np.int64(3)] == sys.phi[3]
    for bad in (6, -7):
        with pytest.raises(IndexError):
            sys.phi[bad]
    with pytest.raises(TypeError):
        sys.phi[1.0]


def test_tplus_single_rows_are_the_packed_rows():
    sys = ladder_from_coeffs(_random_F(np.random.default_rng(19), 20, 0.6), T_PLUS)
    single = [(sys.phi[k], sys.phitilde[k]) for k in range(21)]
    for k, pair in enumerate(single):
        for one, ref in zip(pair, sys.ladder()[:, _row_slice(k)]):
            assert one.hi == k and one.window(0, k).tobytes() == ref.tobytes()


def test_one_row_at_n2048_builds_no_ladder():
    # the packed ladder at n = 2048 holds 2 * 2049 * 2050 / 2 complex entries, 67 MB
    F = _random_F(np.random.default_rng(20), 2048, 0.05)
    tracemalloc.start()
    try:
        sys = ladder_from_coeffs(F)
        row = sys.phi[2048]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert row.hi == 2048 and sys._rows is None
    assert peak < 8e6


@pytest.mark.parametrize("at", [0, 1, 2])
def test_max_residual_fails_closed_on_nan(at):
    residuals = [1e-15, 0.0, 2e-15]
    residuals[at] = np.nan
    assert np.isnan(SystemReport(*residuals).max_residual())


def test_orthonormality_propagates_nan():
    sys = ladder_from_coeffs(np.array([0.5, 0.0]))
    samples = np.ones(64, dtype=complex)
    samples[5] = np.nan
    mu = CircleMeasure.from_samples(samples)
    assert np.isnan(verify_system(sys, mu).orthonormality_max)
    assert np.isnan(verify_system(sys, mu).max_residual())
    bad = ladder_from_coeffs(np.array([0.5, np.nan]))
    assert np.isnan(verify_system(bad, CircleMeasure.mu_r(0.5)).orthonormality_max)


def test_plancherel_zero_coeffs_is_tight():
    sys = ladder_from_coeffs(np.zeros(6))
    lhs, rhs, zeros = plancherel_check(sys, 2, 5)
    assert rhs == 0.0
    assert abs(lhs) < 1e-12
    assert not zeros


def test_plancherel_inequality_random():
    rng = np.random.default_rng(5)
    F = 0.9 * np.sqrt(rng.uniform(size=8)) * np.exp(2j * np.pi * rng.uniform(size=8))
    sys = ladder_from_coeffs(F)
    for l in range(8):
        for m in range(l + 1, 9):
            lhs, rhs, _ = plancherel_check(sys, l, m)
            assert lhs <= rhs + 1e-8


def test_plancherel_table_matches_pairwise_checks():
    rng = np.random.default_rng(7)
    F = 0.6 * np.sqrt(rng.uniform(size=7)) * np.exp(2j * np.pi * rng.uniform(size=7))
    sys = ladder_from_coeffs(F)
    rows = plancherel_table(sys)
    pairs = [(l, m) for l in range(7) for m in range(l + 1, 8)]
    assert [row[:2] for row in rows] == pairs
    for l, m, *sides in rows:
        assert tuple(sides) == plancherel_check(sys, l, m)


def test_plancherel_bad_indices():
    sys = ladder_from_coeffs(np.zeros(4))
    with pytest.raises(DomainError):
        plancherel_check(sys, 3, 3)
    with pytest.raises(DomainError):
        plancherel_check(sys, 0, 9)


def _grid_sides(sys, l, m, nodes):
    """The grid reference for plancherel_check: lhs as -2 times the mean of
    log(|conj(phi_l) phi_m + conj(phitilde_l) phitilde_m| / 2) over
    ``nodes`` circle nodes, and rhs = sum_{l<j<=m} log(1+|F_j|^2)."""
    zs = circle_nodes(nodes)
    u = np.conj(sys.phi[l](zs)) * sys.phi[m](zs)
    v = np.conj(sys.phitilde[l](zs)) * sys.phitilde[m](zs)
    lhs = -2.0 * float(np.mean(np.log(0.5 * np.abs(u + v))))
    return lhs, float(np.sum(np.log1p(np.abs(sys.F[l:m]) ** 2)))


def _rows(sys, l, m):
    return [p.window(0, k) for k in (l, m) for p in (sys.phi[k], sys.phitilde[k])]


def test_plancherel_poly_is_twice_the_forward_a():
    # the group law G_(l,m] = G_l^{-1} G_m: R = 2 z^{m-l-1} a_(l,m]
    rng = np.random.default_rng(11)
    F = _random_F(rng, 12, 1.0)
    sys = ladder_from_coeffs(F)
    for l in range(12):
        for m in range(l + 1, 13):
            R = _plancherel_poly(*_rows(sys, l, m))
            a = forward(F[l:m]).a.window(-(m - l - 1), 0)
            assert np.max(np.abs(R / 2 - a)) < 1e-14


@pytest.mark.parametrize("seed", [3, 12])
def test_plancherel_lhs_matches_fine_grid(seed):
    rng = np.random.default_rng(seed)
    sys = ladder_from_coeffs(_random_F(rng, 16, 1.0))
    for l, m in [(0, 1), (0, 16), (2, 9), (5, 6), (7, 15), (15, 16)]:
        lhs, rhs, _ = plancherel_check(sys, l, m)
        grid_lhs, grid_rhs = _grid_sides(sys, l, m, 2 ** 16)
        assert abs(lhs - grid_lhs) < 1e-12
        assert rhs == grid_rhs


def test_plancherel_lhs_matches_old_grid_at_small_radius():
    rng = np.random.default_rng(13)
    sys = ladder_from_coeffs(_random_F(rng, 16, 0.05))
    for l, m, lhs, rhs, zeros in plancherel_table(sys):
        grid_lhs, grid_rhs = _grid_sides(sys, l, m, 4096)
        assert abs(lhs - grid_lhs) < 1e-14
        assert rhs == grid_rhs
        assert zeros == 0


def test_plancherel_zeros_count_roots_outside_the_disk():
    rng = np.random.default_rng(14)
    seen = set()
    for _ in range(4):
        sys = ladder_from_coeffs(_random_F(rng, 16, 1.0))
        for l, m, lhs, rhs, zeros in plancherel_table(sys):
            R = _plancherel_poly(*_rows(sys, l, m))
            assert zeros == np.count_nonzero(np.abs(np.roots(R[::-1])) > 1)
            # a^*_(l,m] is outer exactly when the inequality is an equality
            assert (rhs - lhs <= 1e-13) == (zeros == 0)
            seen.add(zeros > 0)
    assert seen == {True, False}


@pytest.mark.parametrize("seed", [3, 7])
def test_default_plancherel_certifies(tmp_path, seed):
    # the 4096-node grid missed zeros near the circle at these seeds (exit 3)
    assert main(["plancherel", "--out", str(tmp_path), "--seed", str(seed)]) == 0


def test_plancherel_spill_fails_closed():
    rng = np.random.default_rng(15)
    sys = ladder_from_coeffs(_random_F(rng, 6, 0.5))
    lhs, rhs, zeros = plancherel_check(sys, 2, 5)
    assert lhs <= rhs + 1e-8 and zeros >= 0
    rows = sys.ladder().copy()  # the stored rows plancherel_check reads, with phi_5 + 1e-6
    rows[0, _row_slice(5).start] += 1e-6
    sys._rows = rows
    lhs, rhs2, zeros = plancherel_check(sys, 2, 5)
    assert np.isnan(lhs) and zeros == -1 and rhs2 == rhs
    table = {(l, m): lhs for l, m, lhs, _, _ in plancherel_table(sys)}
    assert np.isnan(table[2, 5]) and not np.isnan(table[2, 4])


def test_plancherel_nan_coeff_gives_nan_lhs():
    sys = ladder_from_coeffs(np.array([0.3, np.nan, 0.2, 0.1]))
    assert np.isnan(plancherel_check(sys, 0, 3)[0])
    assert np.isnan(plancherel_check(sys, 2, 4)[0])
    assert not np.isnan(plancherel_check(sys, 0, 1)[0])


def test_plancherel_requires_tminus():
    sys = ladder_from_coeffs(np.array([0.3, 0.2]), T_PLUS)
    with pytest.raises(DomainError):
        plancherel_check(sys, 0, 2)
    with pytest.raises(DomainError):
        plancherel_table(sys)


def _jensen_oracle(stack):
    """The all-eigensolve Jensen step: sum_k log max(1, |r_k|) and the count
    of |r_k| > 1 over the roots of each row, from the eigenvalues of every
    row's companion matrix."""
    d = stack.shape[1] - 1
    roots = np.zeros((len(stack), 0))
    if d:
        companion = np.zeros((len(stack), d, d), dtype=np.complex128)
        companion[:, 0, :] = -stack[:, d - 1 :: -1] / stack[:, d, None]
        companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
        roots = np.abs(np.linalg.eigvals(companion))
    return np.log(np.maximum(roots, 1.0)).sum(axis=-1), (roots > 1.0).sum(axis=-1)


def _bits(table):
    return [(l, m, lhs.hex(), rhs.hex(), zeros) for l, m, lhs, rhs, zeros in table]


def _count_eigvals(monkeypatch):
    """Patch np.linalg.eigvals to record the number of matrices per call."""
    calls = []
    eigvals = np.linalg.eigvals

    def counted(a):
        calls.append(len(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    return calls


def _systems(radius, seeds=range(4)):
    return [ladder_from_coeffs(_random_F(np.random.default_rng(s), 16, radius)) for s in seeds]


@pytest.mark.parametrize("radius", [0.01, 0.05, 0.2, 0.5, 1.0])
def test_plancherel_table_matches_eigensolve_oracle(monkeypatch, radius):
    systems = _systems(radius)
    tables = [_bits(plancherel_table(sys)) for sys in systems]
    monkeypatch.setattr(szego, "_jensen_sums", _jensen_oracle)
    assert [_bits(plancherel_table(sys)) for sys in systems] == tables


def test_small_draws_need_no_eigensolve(monkeypatch):
    systems = _systems(0.04)
    calls = _count_eigvals(monkeypatch)
    for sys in systems:
        plancherel_table(sys)
    assert calls == []


@pytest.mark.parametrize("radius", [0.2, 1.0])
def test_large_draws_eigensolve_the_uncertified(monkeypatch, radius):
    systems = _systems(radius)
    calls = _count_eigvals(monkeypatch)
    for sys in systems:
        plancherel_table(sys)
    # 120 pairs of degree >= 1 per system; some are certified, some are not
    assert 0 < sum(calls) < 120 * len(systems)


def test_rouche_certificate_margin(monkeypatch):
    calls = _count_eigvals(monkeypatch)
    d = 6
    stack = np.zeros((2, d + 1), dtype=np.complex128)
    stack[:, d] = 1.0
    stack[:, 0] = [0.5 * (1 - 1e-12), 0.5]  # z^d + c just inside, and at, the margin
    jensen, zeros = _jensen_sums(stack[:1])
    assert calls == [] and jensen.tolist() == [0.0] and zeros.tolist() == [0]
    jensen, zeros = _jensen_sums(stack)
    # only the row at the margin is eigensolved; its roots 2^{-1/d} are inside
    assert calls == [1] and jensen.tolist() == [0.0, 0.0] and zeros.tolist() == [0, 0]


def test_root_just_outside_the_circle_counts(monkeypatch):
    calls = _count_eigvals(monkeypatch)
    r = 1 + 1e-9
    stack = np.array([[0.1, 0, 0, 1], [0, 0, -r, 1]], dtype=np.complex128)  # z^2 (z - r)
    jensen, zeros = _jensen_sums(stack)
    assert calls == [1]
    assert zeros.tolist() == [0, 1]
    assert jensen[0] == 0.0 and abs(jensen[1] - np.log1p(1e-9)) < 1e-15
    oracle = _jensen_oracle(stack)
    assert jensen.tolist() == oracle[0].tolist() and zeros.tolist() == oracle[1].tolist()


@pytest.mark.parametrize("at", [0, 3])
def test_nan_row_takes_the_eigensolve(monkeypatch, at):
    calls = _count_eigvals(monkeypatch)
    stack = np.array([[0.1, 0, 0, 1], [0.1, 0, 0, 1]], dtype=np.complex128)
    stack[1, at] = np.nan
    with pytest.raises(np.linalg.LinAlgError), np.errstate(invalid="ignore"):
        _jensen_sums(stack)
    assert calls == [1]
