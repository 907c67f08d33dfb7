"""Complex probability measures on the unit circle.

A measure is an absolutely continuous part (a density against normalized
arclength dθ/2π) plus a finite list of atoms.  The single fixed
convention throughout the package is normalized arclength: quadrature of a
density w is (1/M) Σ_k w(node_k), and atom sums are exact, never smeared
onto the grid.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .errors import ConfigError, DomainError, ToleranceError
from .laurent import LaurentPoly
from .schema import OPTIONAL, REQUIRED, of_type, pair, pairs, read_config, real

MAX_QUAD_NODES = 2 ** 20
ADAPTIVE_TOL = 1e-10


@functools.lru_cache(maxsize=8)
def circle_nodes(m: int) -> np.ndarray:
    """Quadrature nodes e^{2 pi i k / M}, exact for frequencies in (-M, M).

    The array is shared by every caller asking for the same M and is
    read-only; copy it before writing.
    """
    if m < 1:
        raise DomainError("node count must be positive")
    nodes = np.exp(2j * np.pi * np.arange(m) / m)
    nodes.setflags(write=False)
    return nodes


def on_circle(z) -> bool:
    """Whether every point of z lies on the unit circle, within 1e-9 of
    modulus 1; False when any point is NaN."""
    return bool(np.all(np.abs(np.abs(z) - 1.0) <= 1e-9))


class CircleMeasure:
    """Density (closed-form or sampled) plus finite atom list.

    Parameters
    ----------
    density : vectorized callable z -> w(z) on |z| = 1, or None for zero
        absolutely continuous part.
    atoms : iterable of (point, weight) with |point| = 1.
    kind : short descriptive tag, used for serialization.
    samples : the M uniform grid values the density interpolates, or None
        for a closed-form density; read by FFT on the grid.
    """

    def __init__(self, density=None, atoms=(), kind="custom", samples=None):
        self.density = density
        self.atoms = tuple((complex(p), complex(w)) for p, w in atoms)
        self.kind = kind
        self.samples = samples
        for p, _ in self.atoms:
            if not on_circle(p):
                raise DomainError(f"atom at {p} is not on the unit circle")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def uniform() -> "CircleMeasure":
        return CircleMeasure(lambda z: np.ones_like(z), kind="uniform")

    @staticmethod
    def mu_r(r: float) -> "CircleMeasure":
        """The one-nonzero-coefficient family: density (1+r^2)/(1-r^2-2ri Im z)."""
        if not 0 <= r < 1:
            raise DomainError("mu_r requires 0 <= r < 1")

        def w(z):
            z = np.asarray(z, dtype=np.complex128)
            return (1 + r * r) / (1 - r * r - 2j * r * z.imag)

        m = CircleMeasure(w, kind=f"mu_r:{r}")
        m.r = r
        return m

    @staticmethod
    def from_samples(values, kind="samples") -> "CircleMeasure":
        """Measure from M uniform density samples, M a power of two.

        Off-grid evaluation goes through the trigonometric interpolant of
        the samples on frequencies -M/2 .. M/2-1 (the Nyquist term at
        -M/2), read off one FFT, so smooth densities stay smooth.  It is
        two Horner passes, each from the highest frequency down: one in z
        over frequencies 0 .. M/2-1 and one in 1/z over -1 .. -M/2.  A
        single pass in z over all M terms, times z^(-M/2), would step the
        large low frequencies through about M/2 products and lose about two
        digits.
        """
        values = np.asarray(values, dtype=np.complex128)
        m = len(values)
        if m < 2 or (m & (m - 1)) != 0:
            raise DomainError("sample count must be a power of two >= 2")
        fhat = np.fft.fft(values, norm="forward")
        h = m // 2
        pos = LaurentPoly(fhat[:h], 0)
        neg = LaurentPoly(fhat[: h - 1 : -1], 1)  # c_{-1} .. c_{-M/2}, powers of 1/z

        def density(z):
            return pos(z) + neg(1.0 / np.asarray(z, dtype=np.complex128))

        return CircleMeasure(density, kind=kind, samples=values)

    @staticmethod
    def from_atoms(atoms) -> "CircleMeasure":
        return CircleMeasure(None, atoms=atoms, kind="atoms")

    def with_atoms(self, atoms) -> "CircleMeasure":
        return CircleMeasure(
            self.density, atoms=atoms, kind=self.kind + "+atoms", samples=self.samples
        )

    def scaled(self, c) -> "CircleMeasure":
        density = None
        if self.density is not None:
            base = self.density
            density = lambda z: c * base(z)
        return CircleMeasure(
            density,
            [(p, c * w) for p, w in self.atoms],
            kind=self.kind,
            samples=None if self.samples is None else c * self.samples,
        )

    # -- density access ----------------------------------------------------

    def density_on_grid(self, m: int) -> np.ndarray:
        if self.density is None:
            return np.zeros(m, dtype=np.complex128)
        samples = self.samples
        if samples is not None:
            n = len(samples)
            if n % m == 0:
                # the sample grid and its coarser uniform grids share nodes
                return samples[:: n // m].copy()
            fhat = np.fft.fftshift(np.fft.fft(samples, norm="forward"))
            return LaurentPoly(fhat, -(n // 2)).on_grid(m)
        return np.asarray(self.density(circle_nodes(m)), dtype=np.complex128)

    def density_at(self, s) -> complex:
        if self.density is None:
            return 0j
        return complex(np.asarray(self.density(np.asarray([s], dtype=np.complex128)))[0])

    # -- integration -------------------------------------------------------

    def integrate(self, f, m: int) -> complex:
        """Integral of f dμ at a fixed grid size plus exact atom sum."""
        total = 0j
        if self.density is not None:
            nodes = circle_nodes(m)
            total += complex(np.sum(f(nodes) * self.density_on_grid(m)) / m)
        for p, wt in self.atoms:
            total += complex(np.asarray(f(np.asarray([p], dtype=np.complex128)))[0]) * wt
        return total

    def integrate_adaptive(self, f, m: int) -> complex:
        """Integral of a general integrand f dμ, the grid doubled from
        max(m, 64) until successive values differ by < ADAPTIVE_TOL."""
        return _refine(lambda g: self.integrate(f, g), m)

    def moments(self, d: int, m: int = 256) -> np.ndarray:
        """Moments c_k = ∫ z^k dμ for k = -d..d; c_k sits at index d + k.

        A sampled density gives the exact moments of its trigonometric
        interpolant from one inverse FFT of the M samples when 2d < M.  Any
        other density is transformed on a grid of max(m, 64) nodes, doubled
        until it exceeds 2d and then until successive moment vectors agree
        within ADAPTIVE_TOL.  Atoms are summed exactly.
        """
        if d < 0:
            raise DomainError("moment order must be nonnegative")
        # an inverse FFT holds c_k at index k mod g: the negative entries of
        # ks read c_{-d..-1} off the end of the array
        ks = np.arange(-d, d + 1)
        samples = self.samples
        if self.density is None:
            c = np.zeros(2 * d + 1, dtype=np.complex128)
        elif samples is not None and 2 * d < len(samples):
            c = np.fft.ifft(samples)[ks]
        else:
            g = max(int(m), 64)
            while g <= 2 * d:
                g *= 2
            c = _refine(lambda g: np.fft.ifft(self.density_on_grid(g))[ks], g)
        for p, wt in self.atoms:
            c += wt * p ** ks
        return c


def _refine(value, m: int):
    """value(g) at g = max(m, 64), 2g, 4g, ... until two successive values
    (numbers or arrays, compared entrywise) differ by < ADAPTIVE_TOL.

    Raises ToleranceError, carrying the last two values, once g reaches
    MAX_QUAD_NODES without agreement; a NaN never agrees.
    """
    g = max(int(m), 64)
    prev = value(g)
    while True:
        g *= 2
        cur = value(g)
        if np.max(np.abs(cur - prev)) < ADAPTIVE_TOL:
            return cur
        if g >= MAX_QUAD_NODES:
            raise ToleranceError(
                f"adaptive quadrature not converged at {g} nodes", last=cur, previous=prev
            )
        prev = cur


def pairing(f: LaurentPoly, g: LaurentPoly, mu: CircleMeasure, m: int = 256) -> complex:
    """Sesquilinear pairing: integral of h = f * star(g) dμ, i.e. Σ_k h_k c_k."""
    h = f * g.star()
    if h.is_zero():
        return 0j
    d = max(-h.lo, h.hi)
    c = mu.moments(d, m)
    return complex(np.dot(h.coeffs, c[d + h.lo : d + h.hi + 1]))


def l_functional(mu: CircleMeasure, s: complex, n: int, m: int = 65536) -> float:
    """Approximate-identity-weighted variation of μ around its value at s.

    Computes  ∫ min{n+1, 1/((n+1)|y-s|^2)} |dμ(y) - w(s) m(dy)|  with m
    normalized arclength, at a fixed grid size plus exact atom terms.
    Nonnegative; vanishes identically for the uniform measure.  Whether s
    is a Lebesgue point is not (and cannot be) detected here.  This is the
    one-entry case of ``l_functional_table``.
    """
    return float(l_functional_table(mu, [s], [n], m)[0, 0])


def l_functional_table(mu: CircleMeasure, points, degrees, m: int = 65536) -> np.ndarray:
    """``l_functional`` at every (point, degree); shape (len(points), len(degrees)).

    The density is sampled on the grid once.  Per point, y - s over the m
    nodes centred on s (from the node c = m/2 places before the one nearest
    s, wrapping round the grid) is written from two slices of the grid into
    one reused complex buffer, so the node nearest s sits at index c; w(y) -
    w(s) passes through it too.  |y - s|^2, |w(y) - w(s)| and their ratio
    go into three reused real buffers.  The kernel min{n+1, 1/((n+1)|y-s|^2)}
    is n+1 exactly on the disk (n+1)^2 |y-s|^2 <= 1, which shrinks as n
    grows and, as |y - s| grows away from node c on either side, is one run
    of nodes.  Outside it the kernel is 1/((n+1)|y-s|^2), so the sum of
    |w(y) - w(s)| / |y-s|^2 over the far nodes is taken once per point, ring
    by ring, and each degree reads only the nodes in a window around s: the
    disk and the two runs beside it, as slices.  Which rings and which
    window an entry reads depends on its own n alone, so every entry equals
    the one-entry ``l_functional`` bit for bit.
    """
    points = [complex(s) for s in points]
    degrees = list(degrees)
    if not on_circle(points):
        raise DomainError("s must lie on the unit circle")
    if any(n < 0 for n in degrees):
        raise DomainError("n must be nonnegative")
    out = np.zeros((len(points), len(degrees)))
    if mu.density is not None and degrees:
        nodes = circle_nodes(m)
        wvals = mu.density_on_grid(m)
        c = m // 2
        # degree n reads the window of level floor(log2(n+1)): c +- half[j]
        # holds every node with |y-s|^2 < 2/4^j, s being within half a node
        # spacing of node c.  Outside it (n+1)^2 |y-s|^2 >= 2, so no degree
        # of that level saturates there
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
                np.subtract(grid[start:], at_s, z[: m - start])
                np.subtract(grid[:start], at_s, z[m - start :])
                np.abs(z, dist)
            np.square(d2, d2)
            # a node coinciding with s divides by zero; it is in every window
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(dev, d2, ratio)
            # far[j]: the sum of dev/d2 outside level j's window, ring by
            # ring from the outside in
            far, acc = [], 0.0
            for outer, inner in zip([c] + half, half):
                acc += np.sum(ratio[c - outer : c - inner])
                acc += np.sum(ratio[c + inner + 1 : c + outer + 1])
                far.append(acc)
            for k, (n, j) in enumerate(zip(degrees, levels)):
                lo, hi = c - half[j], c + half[j] + 1
                sat = d2[lo:hi] * (n + 1.0) ** 2 <= 1.0
                # the disk is the run [a, b) of the window [lo, hi)
                a = lo + int(np.argmax(sat))
                b = a + int(np.count_nonzero(sat))
                tail = (np.sum(np.concatenate((ratio[lo:a], ratio[b:hi]))) + far[j]) / (n + 1.0)
                out[i, k] = float(((n + 1.0) * np.sum(dev[a:b]) + tail) / m)
    for i, s in enumerate(points):
        for p, wt in mu.atoms:
            d2 = abs(p - s) ** 2
            for k, n in enumerate(degrees):
                kern = n + 1.0 if d2 == 0 else min(n + 1.0, 1.0 / ((n + 1.0) * d2))
                out[i, k] += kern * abs(wt)
    return out


# -- JSON measure descriptions --------------------------------------------

ATOM_SCHEMA = {"point": (REQUIRED, pair), "weight": (REQUIRED, pair)}


def _atoms(value, what: str) -> list:
    """A list, possibly empty, of {"point": [re, im], "weight": [re, im]}."""
    if not isinstance(value, list):
        raise ConfigError(f"{what} must be a list of point/weight entries")
    return [tuple(read_config(it, ATOM_SCHEMA, f"{what}[{i}]")[1].values()) for i, it in enumerate(value)]


_SPEC = {"kind": (REQUIRED, of_type, str), "scale": (OPTIONAL, real)}
_DENSITY = {**_SPEC, "atoms": (OPTIONAL, _atoms)}
MEASURE_KINDS = {
    "uniform": (_DENSITY, lambda v: CircleMeasure.uniform()),
    "mu_r": ({**_DENSITY, "r": (REQUIRED, real)}, lambda v: CircleMeasure.mu_r(v["r"])),
    "samples": ({**_DENSITY, "values": (REQUIRED, pairs)}, lambda v: CircleMeasure.from_samples(v["values"])),
    "atoms": ({**_SPEC, "list": ([], _atoms)}, lambda v: CircleMeasure.from_atoms(v["list"])),
}


def measure_from_json(spec, what: str = "measure") -> CircleMeasure:
    """Build a measure from its JSON description, {"kind": ...} and the keys
    MEASURE_KINDS lists for that kind with its constructor.  Every kind
    takes a real "scale" and a density kind an "atoms" list, so convex
    combinations can be composed."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if not isinstance(kind, str) or kind not in MEASURE_KINDS:
        raise ConfigError(f"{what} needs a 'kind' of {', '.join(MEASURE_KINDS)}, got {kind!r}")
    schema, build = MEASURE_KINDS[kind]
    _, v = read_config(spec, schema, what)
    mu = build(v)
    if v["scale"] is not None:
        mu = mu.scaled(complex(v["scale"]))
    if v.get("atoms"):
        mu = mu.with_atoms(v["atoms"])
    return mu
