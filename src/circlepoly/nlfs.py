"""SU(2)-valued nonlinear Fourier series of finite coefficient sequences.

The pair (a, b) is the top row of the ordered product of the unit
determinant factors (1+|F_j|^2)^{-1/2} [[1, F_j z^j], [-conj(F_j) z^{-j}, 1]].
Frequency supports: a lives on [-n, 0], b on [1, n].  The determinant law
a a* + b b* = 1 holds exactly at the coefficient level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HypothesisError, MalformedPairError, StrippingError
from .laurent import LaurentPoly, convolve
from .measures import CircleMeasure, circle_nodes

B_SUP_THRESHOLD = 2 ** -0.5


@dataclass(frozen=True)
class NLFSPair:
    a: LaurentPoly
    b: LaurentPoly
    n: int

    def validate(self, tol: float = 1e-9):
        if not self.b.is_zero() and (self.b.lo < 1 or self.b.hi > self.n):
            raise MalformedPairError(
                f"b support [{self.b.lo},{self.b.hi}] outside [1,{self.n}]"
            )
        if self.a.is_zero() or self.a.lo < -self.n or self.a.hi > 0:
            raise MalformedPairError(
                f"a support outside [-{self.n},0]"
            )
        res = su2_residual(self.a, self.b)
        if not res <= tol:  # a NaN fails
            raise MalformedPairError(f"SU(2) residual {res:.3e} exceeds {tol:.1e}")


def su2_residual(a: LaurentPoly, b: LaurentPoly) -> float:
    """Coefficient-level residual of a a* + b b* - 1."""
    d = a * a.star() + b * b.star() - 1
    return d.max_abs()


LEAF = 64


def squares_and_inv_rho(F, sign=1.0):
    """|F_j|^2 and 1/rho_j = 1/sqrt(1 + sign |F_j|^2) for each entry of F,
    as float arrays shaped like F, bit for bit the scalar abs(f) ** 2 and
    1.0 / np.sqrt(1.0 + sign * abs(f) ** 2).

    np.hypot is the scalar complex abs, but the square must stay a scalar
    power: numpy's array square rounds differently from pow(x, 2) in the
    last bit of about one draw in a thousand."""
    h = np.hypot(F.real, F.imag).ravel()
    try:
        sq = [x ** 2 for x in h.tolist()]
    except OverflowError:  # a float |F_j| beyond sqrt(max); numpy's goes to inf
        sq = [x ** 2 for x in h]
    sq = np.reshape(np.array(sq, dtype=np.float64), F.shape)
    return sq, 1.0 / np.sqrt(1.0 + sign * sq)


def forward(F) -> NLFSPair:
    """Multiply the matrix factors left to right.

    Up to LEAF factors this is the step loop of _leaves.  Beyond, the
    factors up to the last nonzero one are cut into blocks of LEAF, all
    stepped at once, and neighbouring blocks are multiplied level by
    level with batched FFT convolutions (_combine); zero factors, which
    pad the last block and follow the last nonzero one, are the identity.
    """
    F = np.asarray(F, dtype=np.complex128)
    n = len(F)
    if n <= LEAF:
        a, b = _leaves(F[:, None])
        return NLFSPair(LaurentPoly(a[:, 0], -n), LaurentPoly(b[:, 0], 1), n)
    nonzero = np.flatnonzero(F)
    top = int(nonzero[-1]) + 1 if len(nonzero) else 0
    blocks = max(1, -(-top // LEAF))
    padded = np.zeros(blocks * LEAF, dtype=np.complex128)
    padded[:top] = F[:top]
    a, b = _leaves(padded.reshape(blocks, LEAF).T)
    ab = np.zeros((blocks, 2, LEAF + 1), dtype=np.complex128)
    ab[:, 0] = a.T
    ab[:, 1, :LEAF] = b.T
    while len(ab) > 1:
        ab = _combine(ab)
    width = ab.shape[-1] - 1
    a = np.zeros(n + 1, dtype=np.complex128)
    b = np.zeros(n, dtype=np.complex128)
    a[n - top :] = ab[0, 0, width - top :]
    b[:top] = ab[0, 1, :top]
    return NLFSPair(LaurentPoly(a, -n), LaurentPoly(b, 1), n)


def _leaves(F):
    """The pair (a, b) of each column of F, an (m, L) array of factors, as
    the columns of a, over [-m, 0], and of b, over [1, m].

    One step sends (a, b) to ((a - conj(F_j) z^{-j} b) / rho,
    (F_j z^j a + b) / rho) with rho = sqrt(1+|F_j|^2), in place for
    every column at once."""
    m = len(F)
    _, invs = squares_and_inv_rho(F)
    a = np.zeros((m + 1, F.shape[1]), dtype=np.complex128)
    b = np.zeros(F.shape, dtype=np.complex128)
    a[m] = 1.0
    work = np.empty(F.shape, dtype=np.complex128)
    # out is passed by position, which numpy parses faster than a keyword
    for j, (f, fc, inv) in enumerate(zip(F, np.conj(F), invs), start=1):
        aj, bj, t = a[m + 1 - j :], b[:j], work[:j]
        np.multiply(aj, f, t)
        np.add(t, bj, t)  # F_j z^j a + b, before a changes
        np.multiply(bj, fc, bj)
        np.subtract(aj, bj, aj)
        np.multiply(aj, inv, aj)
        np.multiply(t, inv, bj)
    return a, b


def _combine(ab):
    """Multiply the blocks of ab pairwise, 2l by 2l + 1, an odd last one
    by the identity.

    Row l of ab is the pair of w consecutive factors from the (lw+1)-th:
    ab[l, 0] holds a on [-w, 0], ab[l, 1] holds b on [1, w] with the
    block's own frequencies, then a zero.  The first block's pair
    (a1, b1) followed by the second's (a2, b2) is
    (a1 a2 - b1 (z^w b2)*, a1 z^w b2 + b1 a2*), rows of width 2w."""
    if len(ab) % 2:
        one = np.zeros((1, 2, ab.shape[-1]), dtype=np.complex128)
        one[0, 0, -1] = 1.0  # a = 1, b = 0
        ab = np.concatenate([ab, one])
    left, right = ab[0::2], ab[1::2]
    # (a2, b2) and, reversed and conjugated, ((z^w b2)* from frequency
    # -2w-1, a2* from 0), so that each product lands on its row's grid
    other = np.stack([right, np.conj(right[:, ::-1, ::-1])], axis=1)
    prod = convolve(left[:, :, None], other)
    out = np.empty((len(left), 2, prod.shape[-1]), dtype=np.complex128)
    np.subtract(prod[:, 0, 0], prod[:, 1, 0], out[:, 0])
    np.add(prod[:, 0, 1], prod[:, 1, 1], out[:, 1])
    out[:, 1, -1] = 0  # b's frequency 2w + 1, zero but for rounding
    return out


def layer_strip(pair: NLFSPair, tol: float = 1e-9) -> np.ndarray:
    """Recover F from an exact finite pair by peeling factors off both ends.

    Bottom factors (k = 1, 2, ...) are peeled off the left of the product
    with F_k = b[k] / conj(a[0]), top factors (k = n, n-1, ...) off the
    right with F_k = b[k] / a[0]; the two sweeps meet at a split index.
    Peeling from one end only lets roundoff compound over all n steps;
    splitting keeps each sweep short enough that the recovered sequence
    satisfies forward(F) = pair to well below 1e-9 per coefficient.
    a and b are peeled in place in arrays loaded with the input's whole
    support; each step checks and zeroes the entries that leave the window.
    """
    res = su2_residual(pair.a, pair.b)
    # written so that a NaN anywhere in the pair fails each check
    if not res <= 1e-8:
        raise StrippingError(
            f"input is not an SU(2) pair (residual {res:.3e})", residual=res
        )
    # discarded coefficients of an exact pair are pure roundoff, but their
    # size scales with the accumulated dynamic range (norms grow like
    # prod(1+|F_j|^2)), so the structural check sits well above tol
    spill_tol = max(1e4 * tol, 1e4 * res)
    n = pair.n
    h = n // 2
    alo, ahi = min(pair.a.lo, -n), max(pair.a.hi, 0)
    blo, bhi = min(pair.b.lo, 1), max(pair.b.hi, n + 1)
    if h:  # step 1 peels off the left: a at m meets b at 1 - m
        lo, hi = min(alo, 1 - bhi), max(ahi, 1 - blo)
        blo = 1 - hi
    else:  # step 1, if any, peels off the right: a at m meets b at m + 1
        lo, hi = min(alo, blo - 1), max(ahi, bhi - 1)
        blo = lo + 1
    a = pair.a.window(lo, hi)
    b = pair.b.window(blo, blo + hi - lo)
    work = np.empty((2, hi - lo + 1), dtype=np.complex128)
    # an entry below this passes the check whichever way |.| is rounded
    clear = 0.5 * spill_tol
    F = np.zeros(n, dtype=np.complex128)
    wlo, whi = lo, hi  # live window of a
    for k in [*range(1, h + 1), *range(n, h, -1)]:
        if k <= h:  # off the left; the rest holds factors k+1 .. n
            F[k - 1] = _peel_bottom(a, lo, b, blo, k, wlo, whi, work)
            b_live, rest = (k - whi, k - wlo), (k + 1, n)
        else:  # off the right; the rest holds factors h+1 .. k-1
            F[k - 1] = _peel_top(a, lo, b, blo, k, wlo, whi, work)
            b_live, rest = (wlo + k, whi + k), (h + 1, k - 1)
        # b keeps the rest's support, a one frequency more than its own
        a_keep = rest[0] - rest[1] - 1
        # after a sweep's first step, which sees the whole loaded support,
        # only a's lowest entry and the two ends of b's window leave; they
        # are read as scalars, and a NaN or a larger entry takes the array
        # path, whose check and message are the same as for the first step
        ia, ib, jb = wlo - lo, b_live[0] - blo, b_live[1] - blo
        if k not in (1, n) and abs(a[ia]) < clear and abs(b[ib]) < clear and abs(b[jb]) < clear:
            a[ia] = b[ib] = b[jb] = 0
        else:
            # np.maximum keeps a NaN in either place; max would drop a
            # NaN in second place
            spill = np.maximum(_leave(a, lo, wlo, whi, a_keep, 0), _leave(b, blo, *b_live, *rest))
            if not spill <= spill_tol:
                raise StrippingError(
                    f"pair is not an exact finite series (spill {spill:.3e} at step {k})",
                    residual=float(spill),
                )
        wlo, whi = a_keep, 0
    a[-lo] -= 1
    rem = float(np.max(np.abs(a))) + float(np.max(np.abs(b)))
    if not rem <= 1e-7:
        raise StrippingError(
            f"residual pair is not the identity (norm {rem:.3e})", residual=rem
        )
    return F


def _peel_bottom(a, a_lo, b, b_lo, k, lo, hi, work):
    """Left-multiply by the inverse of factor k in place and return F_k.
    a (an array from frequency a_lo) is live on [lo, hi]; there it meets b
    (from b_lo) on [k - hi, k - lo] through z^k b* and z^k a*.  work holds
    two rows at least as long as the live window."""
    a0c = np.conj(a[-a_lo])
    if abs(a0c) < 1e-12:
        raise StrippingError(f"stripping degenerate at step {k}: |a[0]| < 1e-12")
    f = b[k - b_lo] / a0c
    inv = 1.0 / np.sqrt(1.0 + abs(f) ** 2)
    aw = a[lo - a_lo : hi - a_lo + 1]
    bw = b[k - hi - b_lo : k - lo - b_lo + 1]
    s, t = work[0, : len(aw)], work[1, : len(aw)]
    np.conjugate(bw[::-1], s)
    np.multiply(s, f, s)
    np.conjugate(aw[::-1], t)  # before a changes
    np.multiply(t, f, t)
    np.add(aw, s, aw)
    np.multiply(aw, inv, aw)
    np.subtract(bw, t, bw)
    np.multiply(bw, inv, bw)
    return f


def _peel_top(a, a_lo, b, b_lo, k, lo, hi, work):
    """Right-multiply by the inverse of factor k in place and return F_k.
    a (from a_lo) is live on [lo, hi]; there it meets b (from b_lo) on
    [lo + k, hi + k] through z^{-k} b and z^k a.  work as for _peel_bottom."""
    a0 = complex(a[-a_lo])  # a Python complex: its division is not numpy's
    if abs(a0) < 1e-12:
        raise StrippingError(f"stripping degenerate at step {k}: |a[0]| < 1e-12")
    f = complex(b[k - b_lo]) / a0
    inv = 1.0 / np.sqrt(1.0 + abs(f) ** 2)
    aw = a[lo - a_lo : hi - a_lo + 1]
    bw = b[lo + k - b_lo : hi + k - b_lo + 1]
    s, t = work[0, : len(aw)], work[1, : len(aw)]
    np.multiply(bw, np.conj(f), s)
    np.multiply(aw, f, t)  # before a changes
    np.add(aw, s, aw)
    np.multiply(aw, inv, aw)
    np.subtract(bw, t, bw)
    np.multiply(bw, inv, bw)
    return f


def _leave(x, x_lo, lo, hi, keep_lo, keep_hi) -> float:
    """Largest |x| on [lo, hi] outside [keep_lo, keep_hi]; those entries
    are zeroed.  x is an array from frequency x_lo."""
    below = slice(lo - x_lo, max(keep_lo, lo) - x_lo)
    above = slice(min(keep_hi, hi) + 1 - x_lo, hi + 1 - x_lo)
    gone = np.abs(np.concatenate((x[below], x[above])))
    x[below] = x[above] = 0
    return float(np.maximum.reduce(gone, initial=0.0))


def layer_strip_truncated(a: LaurentPoly, b: LaurentPoly, steps: int, bandwidth: int):
    """Peel bottom factors of a possibly infinite series, with clipping.

    For k = 1..steps: F_k = b[k] / star(a)[0], then left-multiply by the
    inverse factor, clipping a to [-bandwidth, 0] and b to
    [k+1, k+bandwidth].  No error budget is asserted; the report carries
    the residual sup of |b| left after the last step and the grid SU(2)
    residual of the clipped pair.
    """
    # step 1 meets b on [1, bandwidth + steps], which reaches a down to
    # 1 - bandwidth - steps
    lo = min(-bandwidth, 1 - bandwidth - steps)
    a_arr = a.clip(-bandwidth, 0).window(lo, 0)
    b_arr = b.window(1, bandwidth + steps)
    F = np.zeros(steps, dtype=np.complex128)
    work = np.empty((2, 1 - lo), dtype=np.complex128)
    wlo = lo
    for k in range(1, steps + 1):
        F[k - 1] = _peel_bottom(a_arr, lo, b_arr, 1, k, wlo, 0, work)
        _leave(a_arr, lo, wlo, 0, -bandwidth, 0)
        _leave(b_arr, 1, k, k - wlo, k + 1, k + bandwidth)
        wlo = -bandwidth
    a = LaurentPoly(a_arr, lo)
    b = LaurentPoly(b_arr, 1)
    grid = circle_nodes(2048)
    av, bv = a(grid), b(grid)
    report = {
        "b_residual_sup": float(np.max(np.abs(bv))) if not b.is_zero() else 0.0,
        "su2_grid_residual": float(
            np.max(np.abs(np.abs(av) ** 2 + np.abs(bv) ** 2 - 1.0))
        ),
    }
    return F, report


LOG_FLOOR = -700.0


def outer_from_modulus(logmod_samples, degree_cap: int = 256):
    """Analytic outer function with prescribed boundary log-modulus.

    Takes log|g| on the uniform grid, forms the analytic completion
    h = hhat_0 + 2 sum_{1<=k<=D} hhat_k z^k of its Fourier series, and
    exponentiates the truncated series.  Returns (poly, max_abs_err) where
    the error compares the boundary modulus of the result with the input.
    """
    samples = np.asarray(logmod_samples, dtype=np.float64)
    clamped = bool(np.any(samples < LOG_FLOOR))
    samples = np.maximum(samples, LOG_FLOOR)
    m = len(samples)
    d = min(degree_cap, m // 2 - 1)
    fhat = np.fft.fft(samples) / m
    coeffs = np.zeros(d + 1, dtype=np.complex128)
    coeffs[0] = fhat[0]
    coeffs[1:] = 2.0 * fhat[1 : d + 1]
    h = LaurentPoly(coeffs, 0)
    result = exp_series(h, d)
    grid = circle_nodes(m)
    err = float(np.max(np.abs(np.abs(result(grid)) - np.exp(samples))))
    return result, err, clamped


def exp_series(h: LaurentPoly, degree_cap: int) -> LaurentPoly:
    """exp of a truncated analytic series by scaling and squaring.

    Splits off the constant term, scales the rest by 2^-m so its maximal
    coefficient is <= 1/2, applies a 16-term Taylor expansion, and squares
    m times, truncating to the degree cap throughout.
    """
    if h.is_zero():
        return LaurentPoly.one()
    if h.lo < 0:
        raise MalformedPairError("exp_series expects an analytic series")
    c0 = h[0]
    hp = (h - c0).clip(0, degree_cap)
    m = 0
    norm = hp.max_abs()
    while norm > 0.5:
        norm /= 2.0
        m += 1
    t = hp.scale(2.0 ** -m)
    acc = LaurentPoly.one()
    term = LaurentPoly.one()
    fact = 1.0
    for k in range(1, 17):
        term = (term * t).clip(0, degree_cap)
        fact *= k
        acc = acc + term.scale(1.0 / fact)
        if term.is_zero():
            break
    for _ in range(m):
        acc = (acc * acc).clip(0, degree_cap)
    return acc.scale(np.exp(c0))


def w_from_ab(a: LaurentPoly, b: LaurentPoly, m: int = 8192) -> np.ndarray:
    """Density samples w = 1/((a* - b)(a + b*)) on the uniform grid.

    Requires grid sup of |b| strictly below 2^{-1/2}; this threshold is
    sharp, beyond it the limiting object is no longer a measure.
    """
    nodes = circle_nodes(m)
    av = a(nodes)
    bv = b(nodes)
    bmax = float(np.max(np.abs(bv)))
    if not bmax < B_SUP_THRESHOLD - 1e-9:  # a NaN b fails
        raise HypothesisError(
            f"sup|b| = {bmax:.6f} >= 2^-1/2; the density is not well defined"
        )
    return density_on_circle(av, bv)


def density_on_circle(av, bv):
    """w = 1/((a* - b)(a + b*)) from values of a and b at circle points,
    where star coincides with conjugation."""
    return 1.0 / ((np.conj(av) - bv) * (av + np.conj(bv)))


def measure_from_pair(a: LaurentPoly, b: LaurentPoly, m: int = 8192) -> CircleMeasure:
    """Absolutely continuous measure with density w_from_ab.

    The density integrates to 1 within 1e-8 for genuine pairs; violations
    raise."""
    samples = w_from_ab(a, b, m)
    mu = CircleMeasure.from_samples(samples, kind="nlfs-density")
    c0 = np.mean(samples)
    if not abs(c0 - 1.0) <= 1e-8:  # a NaN fails
        raise HypothesisError(f"density does not normalize: c_0 = {c0:.10f}")
    return mu
