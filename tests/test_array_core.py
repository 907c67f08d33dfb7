"""The array-native recursions against their LaurentPoly formulations.

The reference functions below run one step of each SU(2) recursion on
immutable LaurentPoly values, as the package did before the recursions
moved onto preallocated arrays.  The array versions must reproduce them
bit for bit, including exact zeros in F, degenerate lengths and the
spill reported for a pair that is not the series it claims to be.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circlepoly import (
    LaurentPoly,
    NLFSPair,
    circle_nodes,
    forward,
    ladder_from_coeffs,
    layer_strip,
    layer_strip_truncated,
    measure_from_pair,
    nlfs,
    outer_from_modulus,
    verify_system,
)
from circlepoly._accel import ladder_eval
from circlepoly.errors import DomainError, StrippingError
from circlepoly.nlfs import squares_and_inv_rho, su2_residual
from circlepoly.szego import _row_slice


def _forward_ref(F):
    F = np.asarray(F, dtype=np.complex128)
    a = LaurentPoly.one()
    b = LaurentPoly.zero()
    for j, f in enumerate(F, start=1):
        rho = np.sqrt(1.0 + abs(f) ** 2)
        a_new = (a - b.shift(-j).scale(np.conj(f))) / rho
        b_new = (a.shift(j).scale(f) + b) / rho
        a, b = a_new, b_new
    return NLFSPair(a, b, len(F))


def _outside(p, lo, hi):
    if p.is_zero():
        return 0.0
    ks = np.arange(p.lo, p.hi + 1)
    mask = (ks < lo) | (ks > hi)
    return float(np.max(np.abs(p.coeffs[mask]))) if mask.any() else 0.0


def _layer_strip_ref(pair, tol=1e-9):
    res = su2_residual(pair.a, pair.b)
    if res > 1e-8:
        raise StrippingError(f"input is not an SU(2) pair (residual {res:.3e})", residual=res)
    spill_tol = max(1e4 * tol, 1e4 * res)
    a, b = pair.a, pair.b
    n = pair.n
    F = np.zeros(n, dtype=np.complex128)
    h = n // 2
    for k in range(1, h + 1):
        a0c = np.conj(a[0])
        if abs(a0c) < 1e-12:
            raise StrippingError(f"stripping degenerate at step {k}: |a[0]| < 1e-12")
        f = b[k] / a0c
        F[k - 1] = f
        rho = np.sqrt(1.0 + abs(f) ** 2)
        a_new = (a + b.star().shift(k).scale(f)) / rho
        b_new = (b - a.star().shift(k).scale(f)) / rho
        spill = max(_outside(a_new, -(n - k), 0), _outside(b_new, k + 1, n))
        if spill > spill_tol:
            raise StrippingError(
                f"pair is not an exact finite series (spill {spill:.3e} at step {k})",
                residual=spill,
            )
        a = a_new.clip(-(n - k), 0)
        b = b_new.clip(k + 1, n)
    for k in range(n, h, -1):
        a0 = a[0]
        if abs(a0) < 1e-12:
            raise StrippingError(f"stripping degenerate at step {k}: |a[0]| < 1e-12")
        f = b[k] / a0
        F[k - 1] = f
        rho = np.sqrt(1.0 + abs(f) ** 2)
        a_new = (a + b.shift(-k).scale(np.conj(f))) / rho
        b_new = (b - a.shift(k).scale(f)) / rho
        spill = max(_outside(a_new, -(k - 1 - h), 0), _outside(b_new, h + 1, k - 1))
        if spill > spill_tol:
            raise StrippingError(
                f"pair is not an exact finite series (spill {spill:.3e} at step {k})",
                residual=spill,
            )
        a = a_new.clip(-(k - 1 - h), 0)
        b = b_new.clip(h + 1, k - 1)
    rem = (a - 1).max_abs() + b.max_abs()
    if rem > 1e-7:
        raise StrippingError(f"residual pair is not the identity (norm {rem:.3e})", residual=rem)
    return F


def _layer_strip_truncated_ref(a, b, steps, bandwidth):
    a = a.clip(-bandwidth, 0)
    b = b.clip(1, bandwidth + steps)
    F = np.zeros(steps, dtype=np.complex128)
    for k in range(1, steps + 1):
        f = b[k] / np.conj(a[0])
        F[k - 1] = f
        rho = np.sqrt(1.0 + abs(f) ** 2)
        a_new = (a + b.star().shift(k).scale(f)) / rho
        b_new = (b - a.star().shift(k).scale(f)) / rho
        a = a_new.clip(-bandwidth, 0)
        b = b_new.clip(k + 1, k + bandwidth)
    # the report reads the grid by FFT, as every grid read does; this test's
    # subject is the stripping
    av, bv = a.on_grid(2048), b.on_grid(2048)
    report = {
        "b_residual_sup": float(np.max(np.abs(bv))),
        "su2_grid_residual": float(np.max(np.abs(np.abs(av) ** 2 + np.abs(bv) ** 2 - 1.0))),
    }
    return F, report


def _ladder_ref(F, cls):
    F = np.asarray(F, dtype=np.complex128)
    sign = -1.0 if cls == "Tminus" else 1.0
    phi = [LaurentPoly.one()]
    phitilde = [LaurentPoly.one()]
    for n, f in enumerate(F):
        fsq = abs(f) ** 2
        rho = np.sqrt(1 + fsq) if cls == "Tminus" else np.sqrt(1 - fsq)
        fc = np.conj(f)
        p, q = phi[n], phitilde[n]
        phi.append((p.shift(1) + q.star().shift(n).scale(fc)) / rho)
        phitilde.append((q.shift(1) + p.star().shift(n).scale(sign * fc)) / rho)
    return phi, phitilde


def _same(p, q):
    return p.lo == q.lo and p.coeffs.tobytes() == q.coeffs.tobytes()


def _draw(n, kind, seed=0):
    """n disk draws of radius 0.6, with a third of them set to exact zeros;
    "real" keeps only real parts, so every imaginary part is a signed zero."""
    rng = np.random.default_rng([seed, n])
    F = 0.6 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    if kind == "real":
        F = F.real.astype(np.complex128)
    F[rng.uniform(size=n) < 1 / 3] = 0
    return F


SIZES = [0, 1, 2, 3, 17, 64]


@pytest.mark.parametrize("kind", ["complex", "real"])
@pytest.mark.parametrize("n", SIZES)
def test_forward_matches_reference_bitwise(n, kind):
    F = _draw(n, kind)
    got, ref = forward(F), _forward_ref(F)
    assert got.n == ref.n
    assert _same(got.a, ref.a) and _same(got.b, ref.b)


def _forward_seq(F):
    """forward as one step loop over all n factors, before it became a tree."""
    F = np.asarray(F, dtype=np.complex128)
    n = len(F)
    invs = [1.0 / np.sqrt(1.0 + abs(f) ** 2) for f in F]
    a = np.zeros(n + 1, dtype=np.complex128)
    b = np.zeros(n, dtype=np.complex128)
    a[n] = 1.0
    work = np.empty(n, dtype=np.complex128)
    # out is passed by position, which numpy parses faster than a keyword
    for j, (f, fc, inv) in enumerate(zip(F, np.conj(F), invs), start=1):
        aj, bj, t = a[n + 1 - j :], b[:j], work[:j]
        np.multiply(aj, f, t)
        np.add(t, bj, t)  # F_j z^j a + b, before a changes
        np.multiply(bj, fc, bj)
        np.subtract(aj, bj, aj)
        np.multiply(aj, inv, aj)
        np.multiply(t, inv, bj)
    return NLFSPair(LaurentPoly(a, -n), LaurentPoly(b, 1), n)


@pytest.mark.parametrize("kind", ["complex", "real"])
def test_forward_leaf_is_the_step_loop_bitwise(kind):
    # up to nlfs.LEAF factors forward is one leaf, stepped as before
    for n in range(nlfs.LEAF + 1):
        F = _draw(n, kind, seed=9)
        got, ref = forward(F), _forward_seq(F)
        assert _same(got.a, ref.a) and _same(got.b, ref.b)


# n = 300 is five leaves, an odd count at two levels; at n = 16384 only
# the small radius: at 0.8 and 1.2 a_0 underflows to 1e-323 and the step
# loop crawls through subnormals for 8-15 s
@pytest.mark.parametrize(
    "n,radius",
    [(n, r) for n in (65, 127, 129, 300, 1000, 2048) for r in (0.05, 0.8, 1.2)] + [(16384, 0.05)],
)
def test_forward_tree_matches_step_loop(n, radius):
    rng = np.random.default_rng([n, int(100 * radius)])
    F = radius * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    F[:3] = 0  # leading,
    F[n // 2 : n // 2 + 9] = 0  # interior
    if n > 65:  # at n = 65 a trailing zero would leave a single leaf
        F[-5:] = 0  # and trailing zero runs
    got, ref = forward(F), _forward_seq(F)
    assert got.n == n
    assert np.max(np.abs(got.a.window(-n, 0) - ref.a.window(-n, 0))) <= 1e-14
    assert np.max(np.abs(got.b.window(1, n) - ref.b.window(1, n))) <= 1e-14


def test_forward_tree_keeps_su2_and_a0_at_n4096():
    rng = np.random.default_rng(4096)
    F = 0.05 * np.sqrt(rng.uniform(size=4096)) * np.exp(2j * np.pi * rng.uniform(size=4096))
    pair = forward(F)
    assert pair.a.lo == -4096 and pair.b.hi == 4096
    assert su2_residual(pair.a, pair.b) <= 1e-12
    a0 = np.exp(-0.5 * np.sum(np.log1p(np.abs(F) ** 2)))
    assert abs(pair.a[0] - a0) <= 1e-14 * a0


@pytest.mark.parametrize("kind", ["complex", "real"])
@pytest.mark.parametrize("n", SIZES)
def test_layer_strip_matches_reference_bitwise(n, kind):
    pair = _forward_ref(_draw(n, kind))
    assert layer_strip(pair).tobytes() == _layer_strip_ref(pair).tobytes()


@pytest.mark.parametrize("kind", ["complex", "real"])
@pytest.mark.parametrize("cls", ["Tminus", "Tplus"])
@pytest.mark.parametrize("n", SIZES)
def test_ladder_matches_reference_bitwise(n, cls, kind):
    F = _draw(n, kind)
    sys = ladder_from_coeffs(F, cls)
    phi, phitilde = _ladder_ref(F, cls)
    assert len(sys.phi) == len(phi) == n + 1
    assert all(_same(p, q) for p, q in zip(sys.phi, phi))
    assert all(_same(p, q) for p, q in zip(sys.phitilde, phitilde))


def test_layer_strip_truncated_matches_reference_bitwise():
    # the b of the thm5 pipeline test, completed to a by its outer function
    b = LaurentPoly(np.array([0.3, 0.0, 0.2], dtype=np.complex128), 1)
    bv = b(circle_nodes(8192))
    astar, _, _ = outer_from_modulus(0.5 * np.log1p(-np.abs(bv) ** 2), 256)
    a = astar.star()
    for steps, bandwidth in [(32, 256), (5, 3), (1, 1)]:
        F, report = layer_strip_truncated(a, b, steps, bandwidth)
        F_ref, report_ref = _layer_strip_truncated_ref(a, b, steps, bandwidth)
        assert F.tobytes() == F_ref.tobytes()
        assert report == report_ref


def test_mislabelled_length_spills_over_the_whole_support():
    # ten factors labelled as eight: a reaches -9 and b reaches 9 and 10,
    # and the first step must see all of it
    rng = np.random.default_rng(0)
    F = 0.3 * np.sqrt(rng.uniform(size=10)) * np.exp(2j * np.pi * rng.uniform(size=10))
    pair = forward(F)
    relabelled = NLFSPair(pair.a, pair.b, 8)
    with pytest.raises(StrippingError) as info:
        layer_strip(relabelled)
    err = info.value
    assert "spill 2.347e-01 at step 1" in str(err)
    assert err.residual == 0.23467118739615297
    with pytest.raises(StrippingError) as ref:
        _layer_strip_ref(relabelled)
    assert str(ref.value) == str(err) and ref.value.residual == err.residual


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_malformed_supports_match_reference(n):
    # pairs shifted off their windows: the top-first (n <= 1) and
    # bottom-first loads must both see the whole support
    pair = _forward_ref(_draw(3, "complex", seed=1))
    for bad in (
        NLFSPair(pair.a.shift(1), pair.b.shift(1), n),
        NLFSPair(pair.a.shift(-1), pair.b.shift(-1), n),
    ):
        with pytest.raises(StrippingError) as got:
            layer_strip(bad)
        with pytest.raises(StrippingError) as ref:
            _layer_strip_ref(bad)
        assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_phase_rotated_pairs_match_reference(n):
    # (e^{0.3i} a, e^{-0.7i} b) stays SU(2) but is no series; with |F_j| up
    # to 1.5 the top sweep's spill and the final remainder decide the error,
    # so every entry that leaves a window must be checked and zeroed
    for seed in range(3):
        rng = np.random.default_rng([seed, n])
        F = 1.5 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
        pair = _forward_ref(F)
        bad = NLFSPair(pair.a.scale(np.exp(0.3j)), pair.b.scale(np.exp(-0.7j)), n)
        outcomes = []
        for strip in (layer_strip, _layer_strip_ref):
            try:
                outcomes.append(strip(bad).tobytes())
            except StrippingError as e:
                outcomes.append((str(e), e.residual))
        assert outcomes[0] == outcomes[1]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 64), st.integers(0, 2 ** 32 - 1))
def test_strip_inverts_forward_up_to_64(n, seed):
    rng = np.random.default_rng(seed)
    F = 0.3 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    F2 = layer_strip(forward(F))
    assert F2.shape == F.shape
    assert np.max(np.abs(F2 - F), initial=0.0) < 1e-9


# -- above nlfs.LEAF: the sweeps or the two factor trees ----------------------


def _series_draw(n, radius, seed):
    rng = np.random.default_rng([seed, n, int(1000 * radius)])
    return radius * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))


def _family(n):
    """The series family's radius at n: a[0] stays near 0.3."""
    return 0.05 * (2048 / n) ** 0.5


def _a0(F):
    return np.exp(-0.5 * np.sum(np.log1p(np.abs(F) ** 2)))


@pytest.mark.parametrize("n", [65, 100, 127, 129, 512, 2048, 8192])
def test_layer_strip_inverts_the_series_family(n):
    # zero runs at the start, in the middle and at the end, as for the
    # forward tree; above nlfs.TREE_MIN_N factors this is the trees
    F = _series_draw(n, _family(n), seed=0)
    F[:3] = 0
    F[n // 2 : n // 2 + 9] = 0
    F[-5:] = 0
    assert np.max(np.abs(layer_strip(forward(F)) - F)) <= 1e-14


def _draws(n, radius, count, lo, hi):
    """The first `count` draws, in seed order, whose a[0] lies in [lo, hi]."""
    out, seed = [], 0
    while len(out) < count:
        F = _series_draw(n, radius, seed)
        seed += 1
        if lo <= _a0(F) <= hi:
            out.append(F)
    return out


def _outcome(strip, pair):
    try:
        return strip(pair).tobytes()
    except StrippingError as e:
        return str(e)


# 44 draws; fewer at n = 2048, where the reference takes 0.4 s a draw.  At
# n = 2048 and radius 0.1, a[0] is near 6e-3, where the trees refused
# most draws whose F the sweeps returned
@pytest.mark.parametrize(
    "n,radius,count",
    [(100, 0.3, 10), (100, 0.45, 12), (256, 0.2, 8), (512, 0.15, 6), (2048, 0.08, 4), (2048, 0.1, 4)],
)
def test_layer_strip_is_the_sweeps_when_ill_conditioned(n, radius, count):
    # a[0] in [1e-3, 1e-1], below nlfs.TREE_MIN_A0: the result, or the
    # error, is the two sweeps' bit for bit
    for F in _draws(n, radius, count, 1e-3, 1e-1):
        pair = forward(F)
        assert _outcome(layer_strip, pair) == _outcome(_layer_strip_ref, pair)


@pytest.mark.parametrize("n", [256, 512, 2048])
def test_strip_trees_near_their_threshold(n):
    # the least a[0] the trees take: they stay within 1e-14 of F there
    # (2-6 times the sweeps' error at worst)
    radius = (-4 * np.log(0.22) / n) ** 0.5
    for F in _draws(n, radius, 4, nlfs.TREE_MIN_A0, 0.25):
        assert np.max(np.abs(layer_strip(forward(F)) - F)) <= 1e-13


def _rotated(n, radius):
    pair = forward(_series_draw(n, radius, seed=1))
    return NLFSPair(pair.a.scale(np.exp(0.3j)), pair.b.scale(np.exp(-0.7j)), n)


def _shifted(k):
    pair = forward(_series_draw(100, 0.3, seed=2))
    return NLFSPair(pair.a.shift(k), pair.b.shift(k), 100)


def _nan_in_b():
    pair = forward(_series_draw(200, 0.3, seed=3))
    c = pair.b.coeffs.copy()
    c[50] = np.nan
    return NLFSPair(pair.a, LaurentPoly(c, pair.b.lo), 200)


def _mislabelled(n, radius):
    pair = forward(_series_draw(n + 2, radius, seed=0))
    return NLFSPair(pair.a, pair.b, n)


# the cases at n = 512 and the family's radius reach the trees
@pytest.mark.parametrize(
    "make",
    [
        lambda: _mislabelled(128, 0.3),
        lambda: _mislabelled(512, _family(512)),
        lambda: _rotated(100, 0.3),
        lambda: _rotated(512, _family(512)),
        lambda: _shifted(1),
        lambda: _shifted(-1),
        _nan_in_b,
        lambda: forward(_series_draw(1024, 0.4, seed=4)),  # |a[0]| about 3e-17
    ],
    ids=[
        "mislabelled",
        "mislabelled_trees",
        "rotated",
        "rotated_trees",
        "shifted_up",
        "shifted_down",
        "nan",
        "degenerate",
    ],
)
def test_layer_strip_fails_closed_above_leaf(make):
    pair = make()
    with pytest.raises(StrippingError) as info:
        layer_strip(pair)
    assert info.value.residual is not None


@pytest.mark.parametrize("outcome", ["singular", "nan"])
def test_block_solve_failure_is_a_stripping_error(monkeypatch, outcome):
    def solve(system, rhs):
        if outcome == "singular":
            raise np.linalg.LinAlgError("Singular matrix")
        return np.full_like(rhs, np.nan)

    monkeypatch.setattr(nlfs.np.linalg, "solve", solve)
    with pytest.raises(StrippingError) as info:
        layer_strip(forward(_series_draw(512, _family(512), seed=0)))
    assert "block solve failed" in str(info.value)
    assert info.value.residual is not None


# -- the packed ladder: every row is read from one read-only buffer ----------


def _edge_draws():
    """F with a trailing zero run (rows whose constant term trims away),
    signed zeros in every position, and an exact zero first coefficient."""
    F = _draw(12, "complex", seed=3)
    F[-4:] = 0
    signed = np.array([complex(-0.0, -0.0), complex(0.3, -0.0), complex(-0.0, 0.2), 0.0, -0.25])
    return [F, signed, np.concatenate([[0.0], _draw(5, "real", seed=4)])]


@pytest.mark.parametrize("cls", ["Tminus", "Tplus"])
@pytest.mark.parametrize("which", range(3))
def test_packed_rows_match_reference_bitwise(cls, which):
    F = _edge_draws()[which]
    sys = ladder_from_coeffs(F, cls)
    phi, phitilde = _ladder_ref(F, cls)
    assert all(_same(p, q) for p, q in zip(sys.phi, phi))
    assert all(_same(p, q) for p, q in zip(sys.phitilde, phitilde))
    assert any(p.lo > 0 for p in sys.phi)  # some rows trimmed their constant term


@pytest.mark.parametrize("cls", ["Tminus", "Tplus"])
@pytest.mark.parametrize("n", [0, 1, 2, 17])
def test_packed_rows_are_read_only_views_of_one_buffer(n, cls):
    sys = ladder_from_coeffs(_draw(n, "complex", seed=5), cls)
    buf = sys.ladder()
    assert sys.ladder() is buf  # built once and kept
    assert buf.shape == (2, (n + 1) * (n + 2) // 2) and not buf.flags.writeable
    # every all-row reader: iteration and slices of phi, phitilde
    for side, rows in enumerate((sys.phi, sys.phitilde)):
        packed = [buf[side, _row_slice(k)].tobytes() for k in range(n + 1)]
        assert [p.window(0, p.hi).tobytes() for p in rows] == packed
        for sl in (slice(None), slice(1, None), slice(None, None, -1)):
            assert [p.window(0, p.hi).tobytes() for p in rows[sl]] == packed[sl]
        for row in [*rows, *rows[::-1]]:
            with pytest.raises(ValueError):
                row.coeffs[0] = 2.0


def _wide_draws(n, seed, top=150):
    """Complex draws with both parts' exponents uniform in [-150, top], with
    exact zeros, signed zeros, NaNs and purely real and imaginary entries."""
    rng = np.random.default_rng(seed)
    re = rng.normal(size=n) * 10.0 ** rng.uniform(-150, top, n)
    im = rng.normal(size=n) * 10.0 ** rng.uniform(-150, top, n)
    F = re + 1j * im
    F[::13] = re[::13]
    F[::17] = 1j * im[::17]
    F[::19] = 0
    F[::23] = complex(-0.0, -0.0)
    F[::29] = complex(np.nan, 0.5)
    return F


def test_squares_and_inv_rho_match_the_scalar_formula_bitwise():
    disk = 0.9 * np.sqrt(np.random.default_rng(21).uniform(size=20000)) * np.exp(0.3j)
    with np.errstate(over="ignore"):
        for F, sign in [(_wide_draws(20000, 21), 1.0), (disk, 1.0), (disk, -1.0), (np.array([1e200, 3e-200j]), 1.0)]:
            sq, inv = squares_and_inv_rho(F, sign)
            assert sq.tobytes() == np.array([abs(f) ** 2 for f in F]).tobytes()
            ref = np.array([1.0 / np.sqrt(1.0 + sign * abs(f) ** 2) for f in F])
            assert inv.tobytes() == ref.tobytes()
    # _leaves passes a two-dimensional block of factors
    F = _wide_draws(64 * 3, 22).reshape(3, 64).T
    assert squares_and_inv_rho(F)[1].tobytes() == squares_and_inv_rho(F.ravel())[1].reshape(F.shape).tobytes()


_OVERFLOW_ROUTES = {
    "forward": forward,
    "ladder_from_coeffs": ladder_from_coeffs,
    "ladder_eval": lambda F: ladder_eval(F, np.array([1.0, 1j])),
}


@pytest.mark.parametrize("route", sorted(_OVERFLOW_ROUTES))
@pytest.mark.parametrize("n,at", [(1, 1), (3, 2), (200, 100)], ids=["alone", "leaf", "block"])
def test_a_square_that_overflows_is_a_domain_error(route, n, at):
    # |F_j|^2 = inf makes 1/rho_j = 0, which used to zero the pair and the
    # ladder rows from step j on instead of failing
    F = np.full(n, 0.01, dtype=np.complex128)
    F[at - 1] = 1e200
    with np.errstate(over="ignore"), pytest.raises(DomainError, match=rf"\|F_{at}\|\^2 overflows"):
        _OVERFLOW_ROUTES[route](F)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1e200, np.nan)])
def test_a_nan_or_infinite_coefficient_still_propagates_nan(bad):
    F = np.array([0.1, bad, 0.2])
    with np.errstate(invalid="ignore"):
        pair = forward(F)
        u, v = ladder_eval(F, np.array([1.0, 1j]))
    assert np.isnan(pair.a.coeffs).any() and np.isnan(pair.b.coeffs).any()
    assert np.all(np.isnan(u[2:])) and np.all(np.isnan(v[2:]))
    assert not np.isfinite(ladder_from_coeffs(F).norms[-1])


@pytest.mark.parametrize("cls", ["Tminus", "Tplus"])
def test_norms_are_the_sequential_product_bitwise(cls):
    # exponents up to 0, so that the Tminus product stays finite over 4000 steps
    F = _wide_draws(4000, 23, top=0.0)
    F = F[~np.isnan(F)]
    if cls == "Tplus":
        F = F[np.abs(F) < 1]
    ref = [1.0]
    for f in F:
        fsq = abs(f) ** 2
        ref.append(ref[-1] * (1 + fsq) if cls == "Tminus" else ref[-1] * (1 - fsq))
    norms = ladder_from_coeffs(F, cls).norms
    assert np.isfinite(norms[-1]) and norms[-1] != 1.0
    assert norms.tobytes() == np.array(ref).tobytes()


def test_system_from_packed_buffer_verifies_at_n64():
    # every fifth coefficient zero, so that some rows lack a constant term
    rng = np.random.default_rng(64)
    F = 0.02 * np.sqrt(rng.uniform(size=64)) * np.exp(2j * np.pi * rng.uniform(size=64))
    F[::5] = 0
    sys = ladder_from_coeffs(F)
    assert sum(p.lo > 0 for p in sys.phi) == 13
    pair = forward(F)
    report = verify_system(sys, measure_from_pair(pair.a, pair.b))
    assert report.max_residual() <= 1e-8


# -- the steady-state spill read fails closed ----------------------------------

# (a's lowest live entry, the low end of b's live window, its high end), as
# indices into the peeled arrays, for a bottom and for a top step
_LEAVING = {
    "_peel_bottom": lambda a_lo, b_lo, k, lo, hi: (lo - a_lo, k - hi - b_lo, k - lo - b_lo),
    "_peel_top": lambda a_lo, b_lo, k, lo, hi: (lo - a_lo, lo + k - b_lo, hi + k - b_lo),
}


@pytest.mark.parametrize("value", [np.nan, 1e-3])
@pytest.mark.parametrize("entry", range(3))
@pytest.mark.parametrize("peel,step", [("_peel_bottom", 3), ("_peel_top", 6)])
def test_planted_spill_fails_closed(monkeypatch, peel, step, entry, value):
    # steps 3 (of the bottom sweep 1..4) and 6 (of the top sweep 8..5) take
    # the scalar read; the value is planted after the step, in an entry
    # that leaves the window at that step.  A NaN in either b entry must
    # fail too: max(a_spill, nan) is a_spill, so it needs np.maximum
    pair = forward(_draw(8, "complex", seed=7))
    original = getattr(nlfs, peel)

    def planting(a, a_lo, b, b_lo, k, lo, hi, *rest):
        f = original(a, a_lo, b, b_lo, k, lo, hi, *rest)
        if k == step:
            ia, ib, jb = _LEAVING[peel](a_lo, b_lo, k, lo, hi)
            a_or_b, i = [(a, ia), (b, ib), (b, jb)][entry]
            a_or_b[i] = value
        return f

    monkeypatch.setattr(nlfs, peel, planting)
    with pytest.raises(StrippingError) as info:
        layer_strip(pair)
    assert str(info.value) == f"pair is not an exact finite series (spill {value:.3e} at step {step})"
    assert info.value.residual == value or np.isnan(value) and np.isnan(info.value.residual)


# -- byte guard of the series path ---------------------------------------------

# sha256 of forward, layer_strip, every ladder row and ladder_eval at
# n = 512, seed 0.  Re-pinned when forward became a tree: n = 512 is eight
# leaves joined by FFT products, so the pair moved by rounding (at most
# 4.4e-16 per coefficient, and the stripped F by 1.6e-16).  With the step
# loop _forward_seq in its place the digest is still the one the per-step
# array code wrote before the steps were fused in place,
# ddb1ae2d3650203e00d9c7e900efd4919d72f738863ea0eccd4debf503dd2852.
# Re-pinned again when layer_strip above nlfs.LEAF became the two factor
# trees: only the stripped F moved, by at most 1.3e-16, from
# 46124bcbfe0a30b04d1d9c58251095694f9381415fed3c6ab6bc8193b0a55559.
SERIES_DIGEST = "d1396c34c67e51453fbfee0ba8a9fa62017fe32c999a10a3920500b4bf91d978"


def test_series_path_bytes_pinned():
    rng = np.random.default_rng(0)
    F = 0.05 * np.sqrt(rng.uniform(size=512)) * np.exp(2j * np.pi * rng.uniform(size=512))
    F[::7] = 0  # trimmed ladder rows
    F[-5:] = 0  # and a zero tail for ladder_eval
    s = np.exp(2j * np.pi * rng.uniform(size=16))
    h = hashlib.sha256()
    pair = forward(F)
    sys = ladder_from_coeffs(F)
    u, v = ladder_eval(F, s)
    for p in [pair.a, pair.b, *sys.phi, *sys.phitilde]:
        h.update(np.int64(p.lo).tobytes() + p.coeffs.tobytes())
    for arr in (layer_strip(pair), sys.norms, u, v):
        h.update(arr.tobytes())
    assert h.hexdigest() == SERIES_DIGEST
