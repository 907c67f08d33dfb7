import cmath
import math

import numpy as np
import pytest

from circlepoly import (
    CircleMeasure,
    LaurentPoly,
    Z,
    circle_nodes,
    l_functional,
    l_functional_table,
    measure_from_json,
    pairing,
)
from circlepoly.errors import ConfigError, DomainError, ToleranceError


def test_circle_nodes_are_unimodular_and_exact():
    zs = circle_nodes(16)
    assert np.allclose(np.abs(zs), 1.0)
    # quadrature with 16 nodes integrates z^j exactly for |j| < 16
    for j in range(-15, 16):
        val = np.mean(zs ** j)
        assert abs(val - (1.0 if j == 0 else 0.0)) < 1e-14


def test_circle_nodes_are_shared_and_read_only():
    zs = circle_nodes(32)
    with pytest.raises(ValueError):
        zs[0] = 0
    assert circle_nodes(32) is zs
    other = circle_nodes(64)
    assert not np.shares_memory(zs, other)
    assert np.allclose(other[::2], zs)
    with pytest.raises(DomainError):
        circle_nodes(0)


def test_circle_nodes_cache_is_bounded():
    maxsize = circle_nodes.cache_info().maxsize
    assert maxsize is not None
    for m in range(1, 3 * maxsize):
        circle_nodes(m)
    assert circle_nodes.cache_info().currsize <= maxsize


def test_uniform_moments():
    c = CircleMeasure.uniform().moments(7)
    assert abs(c[7] - 1) < 1e-14
    for j in (1, -1, 3, -7):
        assert abs(c[7 + j]) < 1e-14


def test_mu_r_moments_closed_form():
    # c_j = (-r)^j for j >= 0 and c_{-j} = r^j
    r = 0.5
    c = CircleMeasure.mu_r(r).moments(3)
    for j in range(0, 4):
        assert abs(c[3 + j] - (-r) ** j) < 1e-12
        assert abs(c[3 - j] - r ** j) < 1e-12


def test_mu_r_domain():
    with pytest.raises(DomainError):
        CircleMeasure.mu_r(1.0)
    with pytest.raises(DomainError):
        CircleMeasure.mu_r(-0.1)


def test_atoms_are_exact():
    c = CircleMeasure.from_atoms([(1.0, 0.5), (-1.0, 0.5)]).moments(2)
    assert abs(c[2] - 1.0) < 1e-15
    assert abs(c[3]) < 1e-15
    assert abs(c[4] - 1.0) < 1e-15
    with pytest.raises(DomainError):
        CircleMeasure.from_atoms([(0.5, 1.0)])


def test_mixture_with_atoms():
    c = CircleMeasure.uniform().scaled(0.5).with_atoms([(1j, 0.5)]).moments(1)
    assert abs(c[1] - 1.0) < 1e-12
    assert abs(c[2] - 0.5j) < 1e-12


def test_from_samples_roundtrip():
    # samples of a low-degree density are reproduced exactly on the grid
    m = 64
    zs = circle_nodes(m)
    vals = 1.0 + 0.3 * zs + 0.3 * np.conj(zs)
    mu = CircleMeasure.from_samples(vals)
    assert np.allclose(mu.density_on_grid(m), vals)
    assert np.allclose(mu.density_on_grid(2 * m)[::2], vals)
    assert np.allclose(mu.density_on_grid(m // 2), vals[::2])
    # a grid that is neither a multiple nor a divisor reads the interpolant by FFT
    other = circle_nodes(48)
    assert np.max(np.abs(mu.density_on_grid(48) - (1.0 + 0.3 * other + 0.3 * np.conj(other)))) <= 1e-15
    assert abs(mu.density_at(zs[3]) - vals[3]) < 1e-12


def test_from_samples_requires_power_of_two():
    with pytest.raises(DomainError):
        CircleMeasure.from_samples(np.ones(48))


def test_adaptive_matches_fixed_for_smooth_density():
    mu = CircleMeasure.mu_r(0.3)
    f = lambda z: z ** 2 / (1.5 - z.real)
    assert abs(mu.integrate_adaptive(f, 64) - mu.integrate(f, 2 ** 16)) < 1e-9


def _adaptive_moments(mu, d, m=256):
    """c_{-d..d} with one adaptive quadrature per moment, as pairings used to run."""
    return np.array([mu.integrate_adaptive(lambda z, k=k: z ** k, m) for k in range(-d, d + 1)])


def _zero_padded(samples, m):
    """The finer-grid read of a sampled density before it went through
    on_grid: the spectrum zero-padded to m and one inverse FFT."""
    n = len(samples)
    fhat = np.fft.fft(samples)
    padded = np.zeros(m, dtype=np.complex128)
    padded[: n // 2] = fhat[: n // 2]
    padded[-(n // 2) :] = fhat[-(n // 2) :]
    return np.fft.ifft(padded) * (m / n)


@pytest.mark.parametrize("n", [8, 64, 8192])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_density_on_a_multiple_grid_is_the_zero_padded_spectrum(n, k):
    rng = np.random.default_rng(n + k)
    samples = rng.normal(size=n) + 1j * rng.normal(size=n)
    got = CircleMeasure.from_samples(samples).density_on_grid(k * n)
    assert np.max(np.abs(got - _zero_padded(samples, k * n))) <= 1e-15


def _smooth_samples(m):
    zs = circle_nodes(m)
    return 1.0 + 0.4 * zs ** 3 + 0.2 * np.conj(zs) + 0.1j * zs ** 5


@pytest.mark.parametrize(
    "mu",
    [
        CircleMeasure.mu_r(0.5),
        CircleMeasure.from_samples(_smooth_samples(64)),
        CircleMeasure.from_samples(_smooth_samples(64)).scaled(0.7).with_atoms([(1j, 0.2), (-1.0, 0.1)]),
        CircleMeasure.from_atoms([(1.0, 0.5), (np.exp(0.7j), 0.3 - 0.1j), (-1j, 0.2 + 0.1j)]),
    ],
    ids=["mu_r", "samples", "samples+atoms", "atoms"],
)
def test_moments_match_adaptive_quadrature(mu):
    d = 9
    c = mu.moments(d)
    assert c.shape == (2 * d + 1,)
    assert np.max(np.abs(c - _adaptive_moments(mu, d))) < 1e-13
    for j in (-d, -1, 0, 4, d):  # read at order |j|, a moment is the same
        assert mu.moments(abs(j))[abs(j) + j] == c[d + j]


def test_sampled_moments_past_half_the_samples_use_the_grid():
    # 16 samples of 1 + 0.25 (-1)^k: the interpolant is 1 + 0.25 z^-8, so
    # c_8 = 0.25 and c_-8 = 0, which the 16-point inverse FFT would alias
    zs = circle_nodes(16)
    mu = CircleMeasure.from_samples(1.0 + 0.25 * zs ** 8)
    c = mu.moments(8)
    exact = np.zeros(17, dtype=complex)
    exact[8] = 1.0
    exact[16] = 0.25
    assert np.max(np.abs(c - exact)) < 1e-15
    assert np.max(np.abs(c - _adaptive_moments(mu, 8))) < 1e-15
    assert abs(np.fft.ifft(mu.samples)[-8] - 0.25) < 1e-15


def test_sampled_measure_keeps_its_samples():
    mu = CircleMeasure.from_samples(_smooth_samples(64))
    c = mu.moments(8)
    ks = np.arange(-8, 9)
    scale = 0.7 - 0.2j
    scaled = mu.scaled(scale)
    mixed = mu.with_atoms([(1j, 0.25)])
    assert np.array_equal(scaled.samples, scale * mu.samples)
    assert mixed.samples is mu.samples
    assert np.max(np.abs(scaled.moments(8) - scale * c)) <= 1e-15
    assert np.max(np.abs(mixed.moments(8) - (c + 0.25 * 1j ** ks))) <= 1e-15


def test_sampled_density_puts_the_nyquist_term_at_minus_half():
    # 8 samples of 1 + 0.5i z^4 interpolate 1 + 0.5i z^-4: the Nyquist term
    # sits at -M/2
    values = 1 + 0.5j * (-1.0) ** np.arange(8)
    mu = CircleMeasure.from_samples(values)
    zs = circle_nodes(16)
    exact = 1 + 0.5j * (-1j) ** np.arange(16)  # 1 + 0.5i z^-4 on the 16 nodes
    assert np.max(np.abs(mu.density_on_grid(16) - exact)) <= 1e-15
    assert np.max(np.abs(mu.density(zs) - mu.density_on_grid(16))) <= 2e-15


@pytest.mark.parametrize("angle", [0.3, 1.0, 2.5])
def test_sampled_density_off_the_grid(angle):
    # one Horner pass over all 8192 terms, times z^-4096, missed by 1.1e-13 to
    # 2.7e-13 here; the passes in z and in 1/z miss by at most 1.8e-15
    zs = circle_nodes(8192)
    mu = CircleMeasure.from_samples(1.0 / (1.2 - zs.real))
    exact = 1.0 / (1.2 - np.cos(angle))
    assert abs(mu.density_at(np.exp(1j * angle)) - exact) <= 1e-14


def test_moments_domain_and_nonconvergence():
    with pytest.raises(DomainError):
        CircleMeasure.uniform().moments(-1)
    nan = CircleMeasure(lambda z: np.full(z.shape, np.nan))
    with pytest.raises(ToleranceError) as exc:
        nan.moments(2)
    assert exc.value.last.shape == exc.value.previous.shape == (5,)


@pytest.mark.parametrize(
    "f,last,previous",
    [
        (lambda z: np.full(z.shape, np.nan), complex(np.nan, np.nan), complex(np.nan, np.nan)),
        # a value that grows with the grid never settles
        (lambda z: np.full(z.shape, float(z.size)), 2.0 ** 20, 2.0 ** 19),
    ],
    ids=["nan", "grid-size"],
)
def test_adaptive_nonconvergence_carries_last_two_values(f, last, previous):
    with pytest.raises(ToleranceError) as exc:
        CircleMeasure.uniform().integrate_adaptive(f, 64)
    np.testing.assert_equal([exc.value.last, exc.value.previous], [last, previous])


def test_pairing_reads_moments():
    mu = CircleMeasure.mu_r(0.4).scaled(0.8).with_atoms([(1j, 0.15), (-1.0, 0.05)])
    f = LaurentPoly([0.3, -1.0, 0.5j, 2.0], -1)
    g = LaurentPoly([1.0, 0.25 - 0.5j], 2)
    h = f * g.star()
    assert abs(pairing(f, g, mu) - mu.integrate_adaptive(h, 256)) < 1e-13
    assert pairing(f, LaurentPoly.zero(), mu) == 0j


def test_pairing_against_uniform():
    mu = CircleMeasure.uniform()
    # <z^j, z^k> = delta_{jk} under the uniform measure
    for j in range(3):
        for k in range(3):
            val = pairing(Z ** j if j else LaurentPoly.one(),
                          Z ** k if k else LaurentPoly.one(), mu)
            assert abs(val - (1.0 if j == k else 0.0)) < 1e-12


def test_l_functional_uniform_is_zero():
    mu = CircleMeasure.uniform()
    assert l_functional(mu, 1j, 8) == 0.0


def test_l_functional_atom_contribution():
    # an atom sitting at s contributes exactly (n+1)|weight|
    mu = CircleMeasure.uniform().scaled(0.75).with_atoms([(1.0, 0.25)])
    base = CircleMeasure.uniform().scaled(0.75)
    n = 7
    diff = l_functional(mu, 1.0, n) - l_functional(base, 1.0, n)
    assert abs(diff - (n + 1) * 0.25) < 1e-12


def test_l_functional_decays_for_mu_r():
    mu = CircleMeasure.mu_r(0.5)
    vals = [l_functional(mu, 1j, n, m=16384) for n in (8, 32, 128)]
    assert vals[0] > vals[1] > vals[2] > 0


def test_l_functional_domain():
    mu = CircleMeasure.uniform()
    with pytest.raises(DomainError):
        l_functional(mu, 2.0, 4)
    with pytest.raises(DomainError):
        l_functional(mu, 1.0, -1)
    with pytest.raises(DomainError):
        l_functional_table(mu, [1.0, 0.5j], [4])
    with pytest.raises(DomainError):
        l_functional_table(CircleMeasure.mu_r(0.5), [np.nan], [4], 64)


def _l_functional_exact_sum(mu, s, n, m):
    """The one-(point, degree) formula from scratch, its grid sum exactly rounded."""
    ws = mu.density_at(s)
    total = 0.0
    if mu.density is not None:
        with np.errstate(divide="ignore"):
            kern = np.minimum(n + 1.0, 1.0 / ((n + 1.0) * np.abs(circle_nodes(m) - s) ** 2))
        total += math.fsum(kern * np.abs(mu.density_on_grid(m) - ws)) / m
    for p, wt in mu.atoms:
        d2 = abs(p - s) ** 2
        total += (n + 1.0 if d2 == 0 else min(n + 1.0, 1.0 / ((n + 1.0) * d2))) * abs(wt)
    return total


@pytest.mark.parametrize(
    "mu",
    [
        CircleMeasure.mu_r(0.4).scaled(0.75).with_atoms([(1j, 0.2), (-1.0, 0.05)]),
        CircleMeasure.from_samples(
            1.0 + 0.4 * circle_nodes(64) ** 3 + 0.2 * np.conj(circle_nodes(64))
        ),
    ],
    ids=["density+atoms", "samples"],
)
def test_l_functional_table_matches_one_degree_formula(mu):
    # the table sums the far field once per point, in another order than the
    # per-node terms; the exactly rounded sum of those terms is the reference
    degrees = [16, 0, 3, 100, 3]
    for m in (1, 2, 3, 64, 1024):
        # s = 1 and the last node sit on grid nodes (1j also for m = 64, 1024,
        # and on an atom); exp(i pi / m) lies halfway between two nodes
        points = [1.0, 1j, circle_nodes(m)[-1], np.exp(1j * np.pi / m), np.exp(0.3j), np.exp(-2.1j)]
        table = l_functional_table(mu, points, degrees, m)
        assert table.shape == (len(points), len(degrees))
        for i, s in enumerate(points):
            for k, n in enumerate(degrees):
                expected = _l_functional_exact_sum(mu, complex(s), n, m)
                assert abs(table[i, k] - expected) <= 1e-14 * abs(expected)
                assert l_functional(mu, s, n, m) == table[i, k]
    assert l_functional_table(mu, [1.0], [], 64).shape == (1, 0)


def _l_functional_table_masks(mu, points, degrees, m):
    """l_functional_table as it read each degree's disk and its complement
    through boolean masks, from grids copied into the buffer."""
    out = np.zeros((len(points), len(degrees)))
    nodes, wvals = circle_nodes(m), mu.density_on_grid(m)
    c = m // 2
    levels = [int(n + 1).bit_length() - 1 for n in degrees]
    half = [
        min(c, math.ceil(m / math.pi * math.asin(2.0 ** (-j - 0.5))) + 1)
        for j in range(max(levels) + 1)
    ]
    z = np.empty(m, dtype=np.complex128)
    d2, dev, ratio = np.empty((3, m))
    for i, s in enumerate(points):
        start = (round(cmath.phase(s) * m / (2 * math.pi)) - c) % m
        for grid, at_s, dist in ((nodes, s, d2), (wvals, mu.density_at(s), dev)):
            z[: m - start] = grid[start:]
            z[m - start :] = grid[:start]
            np.abs(np.subtract(z, at_s, z), dist)
        np.square(d2, d2)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(dev, d2, ratio)
        far, acc = [], 0.0
        for outer, inner in zip([c] + half, half):
            acc += np.sum(ratio[c - outer : c - inner])
            acc += np.sum(ratio[c + inner + 1 : c + outer + 1])
            far.append(acc)
        for k, (n, j) in enumerate(zip(degrees, levels)):
            window = slice(c - half[j], c + half[j] + 1)
            sat = d2[window] * (n + 1.0) ** 2 <= 1.0
            tail = (np.sum(ratio[window][~sat]) + far[j]) / (n + 1.0)
            out[i, k] = float(((n + 1.0) * np.sum(dev[window][sat]) + tail) / m)
    for i, s in enumerate(points):
        for p, wt in mu.atoms:
            d2 = abs(p - s) ** 2
            for k, n in enumerate(degrees):
                kern = n + 1.0 if d2 == 0 else min(n + 1.0, 1.0 / ((n + 1.0) * d2))
                out[i, k] += kern * abs(wt)
    return out


@pytest.mark.parametrize(
    "mu",
    [
        CircleMeasure.mu_r(0.4).with_atoms([(1j, 0.2)]),
        CircleMeasure.from_samples(1.0 + 0.4 * circle_nodes(64) ** 3 + 0.2j * np.conj(circle_nodes(64))),
    ],
    ids=["density+atom", "samples"],
)
@pytest.mark.parametrize("m", [64, 1023, 4096])
def test_l_functional_table_reads_the_disk_as_the_masks_did(mu, m):
    # the disk and its complement are read as runs of the window, bit for
    # bit the masked reads; at the largest degree the disk around a point
    # half a node off holds no node, and around a node only that node
    nodes = circle_nodes(m)
    points = [1.0, 1j, nodes[-1], np.exp(1j * np.pi / m), np.exp(0.3j), np.exp(-2.1j)]
    degrees = [0, 3, 16, 100, 2 * m]
    got = l_functional_table(mu, points, degrees, m)
    assert got.tobytes() == _l_functional_table_masks(mu, points, degrees, m).tobytes()
    in_disk = [np.count_nonzero(np.abs(nodes - s) ** 2 * (2 * m + 1.0) ** 2 <= 1.0) for s in points]
    assert in_disk[0] == in_disk[2] == 1 and in_disk[3] == 0


@pytest.mark.parametrize("bad", [-1.0, 1.0, np.exp(0.3j)], ids=["far", "at-s", "in-window"])
def test_l_functional_propagates_nan_density(bad):
    # one NaN grid value makes every entry at s = 1 NaN, whether its node is
    # far at every degree, saturated at every degree, or inside the window of
    # n = 3 but not saturated there
    m = 1024
    nodes = circle_nodes(m)
    hit = nodes[np.argmin(np.abs(nodes - bad))]
    mu = CircleMeasure(lambda z: np.where(z == hit, np.nan, 1.0 + 0.1 * z.real))
    assert np.all(np.isnan(l_functional_table(mu, [1.0], [0, 3, 100], m)))


def test_measure_from_json_kinds():
    assert measure_from_json({"kind": "uniform"}).kind == "uniform"
    mu = measure_from_json({"kind": "mu_r", "r": 0.25})
    assert mu.r == 0.25
    vals = [[1.0, 0.0]] * 8
    assert measure_from_json({"kind": "samples", "values": vals}).samples.shape == (8,)
    mu = measure_from_json(
        {"kind": "atoms", "list": [{"point": [1, 0], "weight": [1, 0]}]}
    )
    assert mu.atoms == ((1 + 0j, 1 + 0j),)


def test_measure_from_json_composition():
    mu = measure_from_json(
        {
            "kind": "uniform",
            "scale": 0.5,
            "atoms": [{"point": [0, 1], "weight": [0.5, 0]}],
        }
    )
    assert abs(mu.moments(0)[0] - 1.0) < 1e-12


@pytest.mark.parametrize(
    "spec",
    [
        42,
        {},
        {"kind": "nope"},
        {"kind": "mu_r"},
        {"kind": "samples"},
        {"kind": "samples", "values": [[1.0]]},
        {"kind": "atoms", "list": [{"point": [1, 0]}]},
        {"kind": "atoms", "list": 5},
        {"kind": "uniform", "atoms": 1.5},
    ],
)
def test_measure_from_json_rejects_malformed(spec):
    with pytest.raises(ConfigError):
        measure_from_json(spec)
