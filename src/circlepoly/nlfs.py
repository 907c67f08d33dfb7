"""SU(2)-valued nonlinear Fourier series of finite coefficient sequences.

The pair (a, b) is the top row of the ordered product of the unit
determinant factors (1+|F_j|^2)^{-1/2} [[1, F_j z^j], [-conj(F_j) z^{-j}, 1]].
Frequency supports: a lives on [-n, 0], b on [1, n].  The determinant law
a a* + b b* = 1 holds exactly at the coefficient level.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, HypothesisError, StrippingError
from .laurent import LaurentPoly, convolve
from .measures import CircleMeasure

B_SUP_THRESHOLD = 2 ** -0.5


@dataclass(frozen=True)
class NLFSPair:
    a: LaurentPoly
    b: LaurentPoly
    n: int


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
        with np.errstate(over="ignore"):
            sq = [x ** 2 for x in h]
    sq = np.reshape(np.array(sq, dtype=np.float64), F.shape)
    return sq, 1.0 / np.sqrt(1.0 + sign * sq)


def refuse_overflow(F, invs):
    """invs, the 1/rho_j of F; DomainError at the first finite F_j, counted
    down each column of F in turn, whose |F_j|^2 overflows: its 1/rho_j is
    0, which would zero the pair.  A NaN or infinite F_j propagates NaN."""
    bad = np.flatnonzero(((invs == 0) & np.isfinite(F)).T)
    if bad.size:
        raise DomainError(f"|F_{bad[0] + 1}|^2 overflows a double (|F_j| = {abs(F.T.flat[bad[0]]):.3e})")
    return invs


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
    invs = refuse_overflow(F, squares_and_inv_rho(F)[1])
    a = np.zeros((m + 1, F.shape[1]), dtype=np.complex128)
    b = np.zeros(F.shape, dtype=np.complex128)
    a[m] = 1.0
    work = np.empty(F.shape, dtype=np.complex128)
    # out is passed by position, which numpy parses faster than a keyword;
    # an infinite F_j makes NaNs (inf * 0), which are meant to propagate
    with np.errstate(invalid="ignore"):
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
    out = _product(ab[0::2], ab[1::2])
    out[:, 1, -1] = 0  # b's frequency 2w + 1, zero but for rounding
    return out


def _product(x, y):
    """The rows (xa ya - xb yb^, xa yb + xb ya^) of two stacks of rows
    x[..., 0] = xa, x[..., 1] = xb and y alike, where ^ reverses and
    conjugates: one batched convolve.

    For pairs stored as in _combine, (a1, b1) in x and (a2, b2) in y,
    this is the product of the two, a on [-w1-w2, 0] and b on
    [1, w1+w2+1]: (z^w1 b2)* runs from frequency -w1-w2-1 and a2* from 0,
    so that each product lands on its row's grid."""
    other = np.stack([y, np.conj(y[..., ::-1, ::-1])], axis=-3)
    prod = convolve(x[..., :, None, :], other)
    out = np.empty(prod.shape[:-3] + (2, prod.shape[-1]), dtype=np.complex128)
    np.subtract(prod[..., 0, 0, :], prod[..., 1, 0, :], out[..., 0, :])
    np.add(prod[..., 0, 1, :], prod[..., 1, 1, :], out[..., 1, :])
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

    This is the whole algorithm, O(n^2), up to TREE_MIN_N factors and
    wherever |a[0]| < TREE_MIN_A0.  Otherwise the same peel runs on
    blocks of STRIP_LEAF factors whose pairs two factor trees find in
    O(n log^2 n) (_strip_trees).
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
    if n > TREE_MIN_N and abs(pair.a[0]) >= TREE_MIN_A0:
        return _strip_trees(pair, spill_tol)
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
        raise StrippingError(
            f"stripping degenerate at step {k}: |a[0]| < 1e-12", residual=float(abs(a0c))
        )
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
        raise StrippingError(
            f"stripping degenerate at step {k}: |a[0]| < 1e-12", residual=float(abs(a0))
        )
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


# factors per block of _strip_trees, by measurement (2 vCPU, medians of
# interleaved runs): 16, 24, 32 and 48 took 35.2, 31.3, 30.8 and 33.8 ms
# at n = 2048, and 102, 102, 96 and 98 ms at n = 8192
STRIP_LEAF = 32
# where layer_strip runs the trees, by measurement (2 vCPU; error in F on
# draws F_j = r sqrt(U) e^{2 pi i U'}, 8-12 seeds a cell; README.md has
# the table).  Up to 128 factors the sweeps are as fast (1.0 against
# 1.7 ms at n = 65, 1.9 ms both at 128), and blocks of large factors cost
# the trees digits (n = 128, a[0] near 0.22: 4.0e-14 against 2.9e-15).
# The trees divide the band by block pairs that are SU(2) only to about
# 1e-14, and the next solve amplifies that as a[0] falls: at n = 2048 and
# a[0] in 0.01-0.1 the median error is 8.1e-12 against 7.8e-13, at 1e-3 to
# 1e-2 they refuse 5 of 8 draws that the sweeps return, and from 0.2 up
# they stay within 1e-14 at n = 256-8192.
TREE_MIN_N = 128
TREE_MIN_A0 = 0.2


def _strip_trees(pair, spill_tol):
    """layer_strip by two factor trees.

    n is made even by a zero factor on top, and the pair splits into the
    bottom and the top w = n/2 factors.  The bottom tree reads the band
    a on [-w, 0], b on [1, w]; the top tree reads the same a and
    b~_m = conj(b_{n+1-m}), the band of the reflected sequence
    conj(F_n), ..., conj(F_1), whose first w factors are the top ones.
    The two trees have one shape and are stepped side by side on a
    leading axis of 2 (_tree).  Each finds the pairs of its blocks of
    STRIP_LEAF factors, and F is read from all of them at once by the
    two-ended peel (_peel_blocks).  Last, the two roots are joined and
    must give back the pair.
    """
    n = pair.n
    spill = max(_outside(pair.a, -n, 0), _outside(pair.b, 1, n))
    if not spill <= spill_tol:
        raise StrippingError(
            f"pair is not an exact finite series (spill {spill:.3e} outside its support)",
            residual=spill,
        )
    w = (n + 1) // 2
    # allocated before the trees' temporaries: allocated after them, it
    # fragmented the heap by 2 MB of peak RSS in series_n2048
    out = np.empty(n, dtype=np.complex128)
    a = pair.a.window(-w, 0)
    b = pair.b.window(1, 2 * w)
    band_a = np.stack([a, a])
    band_b = np.stack([b[:w], np.conj(b[: w - 1 : -1])])
    blocks = -(-w // STRIP_LEAF)
    leaves = np.zeros((2, STRIP_LEAF + 1, 2, blocks), dtype=np.complex128)
    root = _tree(band_a, band_b, leaves, 0)
    index = np.arange(1, blocks * STRIP_LEAF + 1).reshape(blocks, STRIP_LEAF)
    factors = np.concatenate([index, 2 * w + 1 - index])
    F = _peel_blocks(leaves.reshape(2, STRIP_LEAF + 1, -1), factors, spill_tol)
    F = F.reshape(2, -1)
    # the top tree's root, back in its own frequencies w+1..2w, follows
    # the bottom tree's
    top = root[1].copy()
    top[1, :w] = np.conj(root[1, 1, w - 1 :: -1])
    got = _product(root[0], top)
    rem = float(np.max(np.abs(got[0] - pair.a.window(-2 * w, 0)))) + float(
        np.max(np.abs(got[1, : 2 * w] - b))
    )
    if not rem <= 1e-7:
        raise StrippingError(
            f"residual pair is not the identity (norm {rem:.3e})", residual=rem
        )
    out[:w] = F[0, :w]
    out[w:] = np.conj(F[1, 2 * w - n : w][::-1])
    return out


def _outside(p, lo, hi) -> float:
    """Largest |coefficient| of p outside frequencies lo..hi."""
    c = p.coeffs
    gone = np.concatenate((c[: max(lo - p.lo, 0)], c[max(hi + 1 - p.lo, 0) :]))
    return float(np.max(np.abs(gone), initial=0.0))


def _tree(a, b, leaves, first):
    """The pair of the first m factors of a band, a on [-m, 0] and b on
    [1, m] (arrays over a leading axis), with m = b.shape[-1], stored as
    in _combine: a in [..., 0, :], b then a zero in [..., 1, :].

    Up to STRIP_LEAF factors it is one block (_block_pair), also stored
    in leaves[..., first]: a over [-STRIP_LEAF, 0] in leaves[0], b over
    [1, STRIP_LEAF] in leaves[1], one column per tree.  Beyond, the pair
    (a1, b1) of the first half (whole blocks, at least m/2 factors) is
    found recursively and divided out of the band: G^{-1} has top row
    (a1*, -b1), so the rest's pair is (a1* a + b1 b*, a1* b - b1 a*),
    read on [-(m-h), 0] and [h+1, m] and shifted down to [1, m-h].  The
    rest's pair is found from that, and the two are joined as in
    _combine.  Both are one _product each."""
    m = b.shape[-1]
    if m <= STRIP_LEAF:
        pair = _block_pair(a, b, first)
        leaves[0, STRIP_LEAF - m :, :, first] = pair[..., 0, :].T
        leaves[1, :m, :, first] = pair[..., 1, :m].T
        return pair
    h = (-(-m // STRIP_LEAF) + 1) // 2 * STRIP_LEAF
    left = _tree(a[..., m - h :], b[..., :h], leaves, first)
    # a1* from frequency 0 and -b1 from 1 meet the band (a from -m, b
    # from 1) as the pairs of _product do
    inverse = np.stack([np.conj(left[..., 0, ::-1]), -left[..., 1, :]], axis=-2)
    band = np.zeros(b.shape[:-1] + (2, m + 1), dtype=np.complex128)
    band[..., 0, :] = a
    band[..., 1, :m] = b
    rest = _product(inverse, band)
    right = _tree(rest[..., 0, h : m + 1], rest[..., 1, h:m], leaves, first + h // STRIP_LEAF)
    out = _product(left, right)
    out[..., 1, -1] = 0
    return out


def _block_pair(a, b, first):
    """The pair (a1, b1) of the first m factors of the band a on [-m, 0],
    b on [1, m], from one linear solve, stored as in _tree.

    With u the coefficients of a1* scaled to u_0 = 1 and v those of b1
    scaled alike, G^{-1}P = (a1* a + b1 b*, a1* b - b1 a*) has no
    a-coefficient and no b-coefficient at frequencies f = 1..m:
      sum_{i>=f} u_i a[f-i] + sum_{i>f} v_i conj(b[i-f]) = 0,
      sum_{i<f} u_i b[f-i] - sum_{i<=f} v_i conj(a[i-f]) = 0,
    four triangular Toeplitz blocks in (u_1..u_m, v_1..v_m), with u_0 b[f]
    on the right.  The constant term of a1 a1* + b1 b1* = 1 then fixes
    the scale, a1[0] = (1 + |u|^2 + |v|^2)^{-1/2} > 0."""
    m = b.shape[-1]
    # diagonal d = f - i of each block, at index d + m - 1
    diag = np.zeros(b.shape[:-1] + (4, 2 * m - 1), dtype=np.complex128)
    diag[..., 0, :m] = a[..., 1:]  # a[d], d <= 0
    diag[..., 1, : m - 1] = np.conj(b[..., : m - 1][..., ::-1])  # conj(b[-d]), d < 0
    diag[..., 2, m:] = b[..., : m - 1]  # b[d], d > 0
    diag[..., 3, m - 1 :] = -np.conj(a[..., :0:-1])  # -conj(a[-d]), d >= 0
    system = np.take(diag.reshape(b.shape[:-1] + (-1,)), _toeplitz_index(m), axis=-1)
    rhs = np.zeros(b.shape[:-1] + (2 * m, 1), dtype=np.complex128)
    rhs[..., m:, 0] = -b
    try:
        x = np.linalg.solve(system, rhs)[..., 0]
    except np.linalg.LinAlgError:
        x = np.full(rhs.shape[:-1], np.inf, dtype=np.complex128)
    size = float(np.max(np.abs(x)))
    if not np.isfinite(size):
        raise StrippingError(
            f"block solve failed at block {first} (max |x| = {size:.3e})", residual=size
        )
    a10 = 1.0 / np.hypot(1.0, np.linalg.norm(x, axis=-1))
    pair = np.zeros(b.shape[:-1] + (2, m + 1), dtype=np.complex128)
    pair[..., 0, :m] = np.conj(x[..., m - 1 :: -1]) * a10[..., None]
    pair[..., 0, m] = a10
    pair[..., 1, :m] = x[..., m:] * a10[..., None]
    return pair


@functools.lru_cache(maxsize=None)
def _toeplitz_index(m):
    """Where entry (r, c) of _block_pair's 2m x 2m system sits in its four
    diagonals of length 2m - 1, laid end to end."""
    f = np.arange(m)
    d = np.subtract.outer(f, f) + (m - 1)
    block = np.array([[0, 1], [2, 3]]) * (2 * m - 1)
    out = (block[:, None, :, None] + d[None, :, None, :]).reshape(2 * m, 2 * m)
    out.setflags(write=False)
    return out


def _peel_blocks(ab, factors, spill_tol):
    """F of each block pair by the two-ended peel of layer_strip, stepped
    on every block at once.

    Column r of ab holds a block of L = STRIP_LEAF factors: a over
    [-L, 0] in ab[0, :, r], b over [1, L + 1] in ab[1, :, r] (the last
    entry zero), and factors[r] holds their indices in F, for the
    messages.  Blocks run along the last axis, so that every step works
    on contiguous rows.  A bottom step meets a with b reversed; for the
    top sweep b is stored reversed, so that a step of either sweep is one
    product of the live window with itself flipped.  The products go into
    one work array: a fresh temporary each step fragmented the heap, by
    2 MB of peak RSS in series_n2048.  Each step reads the three entries
    that leave the windows and zeroes them.  After the peel, the first
    step at which a block spilled fails, and then any block whose
    remainder is not the identity.
    """
    L = STRIP_LEAF
    h = L // 2
    rows = ab.shape[-1]
    F = np.empty((L, rows), dtype=np.complex128)
    left = np.empty((L, 3, rows), dtype=np.complex128)
    coef = np.empty((2, 1, rows), dtype=np.complex128)
    work = np.empty(ab.shape, dtype=np.complex128)
    for k in range(1, h + 1):  # off the left: G^{-1} from the left
        x = ab[:, k - 1 :]
        f = x[1, 0] / np.conj(x[0, -1])
        # z^k b* over a's window, z^k a* over b's
        y = np.conjugate(x[::-1, ::-1], out=work[:, k - 1 :])
        coef[0, 0] = f
        coef[1, 0] = -f
        y *= coef
        x += y
        x *= 1.0 / np.hypot(1.0, np.abs(f))
        F[k - 1] = f
        # a at k-1-L, b at k and at L+1
        left[k - 1] = ab[0, k - 1], ab[1, k - 1], ab[1, L]
        ab[0, k - 1] = ab[1, k - 1] = ab[1, L] = 0
    # b on [h, L] from its end: index j holds frequency L + h - j
    ab[1, h:] = ab[1, h - 1 : L][::-1].copy()
    for k in range(L, h, -1):  # off the right
        lo = L + h - k
        x = ab[:, lo:]
        f = x[1, 0] / x[0, -1]
        coef[0, 0] = np.conj(f)
        coef[1, 0] = -f
        # z^{-k} b over a's window, z^k a over b's
        x += np.multiply(x[::-1, ::-1], coef, out=work[:, lo:])
        x *= 1.0 / np.hypot(1.0, np.abs(f))
        F[k - 1] = f
        # a at -(k-h), b at k and at h
        left[L - k + h] = ab[0, lo], ab[1, lo], ab[1, L]
        ab[0, lo] = ab[1, lo] = ab[1, L] = 0
    spill = np.max(np.abs(left), axis=1)  # (step, row)
    bad = ~(spill <= spill_tol)  # a NaN fails
    if bad.any():
        step, row = np.argwhere(bad)[0]
        k = step + 1 if step < h else L + h - step
        raise StrippingError(
            f"pair is not an exact finite series (spill {spill[step, row]:.3e} at step {factors[row, k - 1]})",
            residual=float(spill[step, row]),
        )
    ab[0, L] -= 1
    rem = float(np.max(np.abs(ab).max(axis=1).sum(axis=0)))
    if not rem <= 1e-7:
        raise StrippingError(
            f"residual pair is not the identity (norm {rem:.3e})", residual=rem
        )
    return F.T


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
    av, bv = a.on_grid(2048), b.on_grid(2048)
    report = {
        "b_residual_sup": float(np.max(np.abs(bv))),
        "su2_grid_residual": float(
            np.max(np.abs(np.abs(av) ** 2 + np.abs(bv) ** 2 - 1.0))
        ),
    }
    return F, report


LOG_FLOOR = -700.0


def outer_from_modulus(logmod_samples, degree_cap: int = 256):
    """Analytic outer function with prescribed boundary log-modulus.

    Takes log|g| on the uniform grid of m nodes and forms the analytic
    completion h = hhat_0 + 2 sum_{1<=k<=d} hhat_k z^k of its Fourier
    series, d = min(degree_cap, m/2 - 1).  exp(h) is taken pointwise on
    the grid and brought back by one FFT, truncated to degree d; the terms
    above d that alias onto the grid are dropped with the rest.  Returns
    (poly, max_abs_err, clamped): the error compares the result's modulus
    on the grid with exp of the input, and clamped is whether any sample
    was raised to LOG_FLOOR.
    """
    samples = np.asarray(logmod_samples, dtype=np.float64)
    clamped = bool(np.any(samples < LOG_FLOOR))
    samples = np.maximum(samples, LOG_FLOOR)
    m = len(samples)
    d = min(degree_cap, m // 2 - 1)
    h = np.fft.fft(samples, norm="forward")
    h[1 : d + 1] *= 2.0
    h[d + 1 :] = 0.0
    g = np.fft.fft(np.exp(np.fft.ifft(h, norm="forward")), norm="forward")
    g[d + 1 :] = 0.0
    err = float(np.max(np.abs(np.abs(np.fft.ifft(g, norm="forward")) - np.exp(samples))))
    return LaurentPoly(g[: d + 1]), err, clamped


def w_from_ab(a: LaurentPoly, b: LaurentPoly, m: int = 8192) -> np.ndarray:
    """Density samples w = 1/((a* - b)(a + b*)) on the uniform grid.

    Requires grid sup of |b| strictly below 2^{-1/2}; this threshold is
    sharp, beyond it the limiting object is no longer a measure.
    """
    av, bv = a.on_grid(m), b.on_grid(m)
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
