"""Hot kernel: point evaluation of the normalized polynomial ladder.

On |s| = 1 the star of a polynomial coincides with its conjugate, so the
whole ladder can be evaluated at circle points by a scalar recursion
without materializing any coefficients.  This is the inner loop of the
lacunary and universality experiments.  It runs in numpy, vectorized
over the points, with u_k and v_k side by side in one buffer so that a
step is 7 numpy calls.

In the coordinates (u, conj v) a step is the matrix
[[s, w], [-conj w, conj s]] / rho, and a product of such matrices keeps
the form [[alpha, beta], [-conj beta, conj alpha]].  So a run of B steps
is fixed per point by where it sends (u, v) = (1, 0).  A long ladder at
few points, where a step costs more in Python calls than in arithmetic,
is cut into L blocks of B steps.  Pass 1 steps every block at once from
(1, 0), which gives the block maps; the maps carry the block-start
states in sequence; pass 2 steps every block at once again from its
start state, straight into the output.  That is about 2B + L
Python-level steps instead of one per coefficient, for twice the
arithmetic, so blocking is used only from BLOCK_MIN_TOP nonzero steps at
up to BLOCK_MAX_POINTS points.  Every other ladder takes the plain step
loop (one block).  A caller that reads only some rows names them, and off
the blocked path one state is then stepped in place, so memory does not
grow with the ladder's length.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from .measures import on_circle
from .nlfs import refuse_overflow, squares_and_inv_rho

# there is no compiled path; kept for callers that report the backend
USE_NUMBA = False

BLOCK_MIN_TOP = 1024
BLOCK_MAX_POINTS = 256


def ladder_eval(F, s, degrees=None):
    """Evaluate the normalized ladder at circle points.

    Parameters
    ----------
    F : complex array, recursion coefficients F_1..F_N; trailing zeros
        (a ladder run past its last coefficient) cost one multiply per row
    s : complex array of points with |s| = 1
    degrees : strictly increasing rows in 0..N to return, or None for all
        N+1 rows.  Off the blocked path only one state is stepped, in place,
        so memory does not grow with N; each row is bit for bit the row of
        the all-rows call.

    Returns
    -------
    (u, v) with shapes (R, len(s)), R = N+1 or len(degrees): row i holds
    phi_n(s) and phitilde_n(s) at n = i or n = degrees[i].  Both are views
    of one (R, 2, len(s)) buffer.
    Only valid for |s| = 1 (the recursion uses star = conjugate there).
    """
    F = np.ascontiguousarray(F, dtype=np.complex128)
    s = np.ascontiguousarray(s, dtype=np.complex128)
    if not on_circle(s):
        raise ValueError("ladder_eval requires points on the unit circle")
    n = len(F)
    p = len(s)
    if degrees is not None:
        degrees = [int(d) for d in degrees]
        if any(not 0 <= d <= n for d in degrees):
            raise ValueError(f"ladder_eval degrees must lie in 0..{n}")
        if any(b <= a for a, b in zip(degrees, degrees[1:])):
            raise ValueError("ladder_eval degrees must be strictly increasing")
    nonzero = np.flatnonzero(F)
    top = int(nonzero[-1]) + 1 if len(nonzero) else 0
    fcs = np.conj(F[:top])
    # numpy divides a complex by a real rho as by rho + 0j, which multiplies
    # by the reciprocal 1/rho; multiplying by it directly is several times
    # faster and gives the same bits, but for the sign of a zero part
    invs = refuse_overflow(F[:top], squares_and_inv_rho(F[:top])[1]).astype(np.complex128)
    spow = np.ones((2, p), dtype=np.complex128)  # (s^k, -s^k)
    spow[1] = -1.0
    t = np.empty((2, p), dtype=np.complex128)
    blocked = top >= BLOCK_MIN_TOP and p <= BLOCK_MAX_POINTS
    if degrees is not None and not blocked:
        out = np.empty((len(degrees), 2, p), dtype=np.complex128)
        x = np.ones((2, p), dtype=np.complex128)  # (u_k, v_k), stepped in place
        k = 0
        for row, d in zip(out, degrees):
            _steps(repeat((x, x)), s, spow, fcs[k:d], invs[k:d], t)
            # past the last nonzero F_k a step is multiplication by s
            for _ in range(max(k, top), d):
                np.multiply(s, x, x)
            k = d
            row[:] = x
        return out[:, 0], out[:, 1]
    buf = np.empty((n + 1, 2, p), dtype=np.complex128)  # row k: (u_k, v_k)
    buf[0] = 1.0
    done = _blocked(buf, s, fcs, invs, spow) if blocked else 0
    _steps(zip(buf[done:top], buf[done + 1 : top + 1]), s, spow, fcs[done:], invs[done:], t)
    # past the last nonzero F_k a step is multiplication by s (rho = 1)
    for k in range(top, n):
        np.multiply(s, buf[k], buf[k + 1])
    if degrees is not None:
        buf = buf[degrees]
    return buf[:, 0], buf[:, 1]


def _steps(rows, s, spow, fcs, invs, t):
    """One ladder step per (x, y) in rows, with its fc = conj(F_k) and
    inv = 1/rho_k: u' = (s u + w conj v) / rho and
    v' = (s v - w conj u) / rho with w = s^k fc, from x = (u, v) on its
    next-to-last axis into y, which may be x.

    spow holds (s^k, -s^k) on that axis and is advanced in place; fc and
    inv broadcast against it.  t is work space shaped like x."""
    w = np.empty_like(spow)
    # out is passed by position, which numpy parses faster than a keyword
    for (x, y), fc, inv in zip(rows, fcs, invs):
        np.multiply(spow, fc, w)
        np.conjugate(x[..., ::-1, :], t)  # (conj v, conj u), before y changes
        np.multiply(w, t, t)
        np.multiply(s, x, y)
        np.add(y, t, y)
        np.multiply(y, inv, y)
        np.multiply(spow, s, spow)


def _blocked(buf, s, fcs, invs, spow):
    """Fill rows 1 .. L*B of buf by L blocks of B steps, leave (s^{LB},
    -s^{LB}) in spow for the steps after them, and return L*B."""
    top, p = len(fcs), len(s)
    # 7 calls per step of each pass, 8 per block for its start power and
    # carry: about sqrt(top) blocks keeps both small
    L = round(top**0.5)
    B = top // L
    fb = fcs[: L * B].reshape(L, B).T[..., None, None]  # step j: (L, 1, 1)
    ib = invs[: L * B].reshape(L, B).T[..., None, None]
    # block l starts at s^{lB}, formed by lB products as the plain loop
    # forms it: raising s^B to the l-th power would add up B-step errors
    sp = np.empty((L, 2, p), dtype=np.complex128)
    sp[0, 0] = 1.0
    run = np.empty((B + 1, p), dtype=np.complex128)
    for l in range(1, L):
        run[0] = sp[l - 1, 0]
        run[1:] = s
        np.cumprod(run, axis=0, out=run)
        sp[l, 0] = run[B]
    np.negative(sp[:, 0], sp[:, 1])
    # pass 1, in place: where each block but the last sends (1, 0), which
    # is (alpha, -beta) for its map [[alpha, beta], [-conj beta, conj alpha]]
    maps = np.zeros((L - 1, 2, p), dtype=np.complex128)
    maps[:, 0] = 1.0
    _steps(repeat((maps, maps)), s, sp[:-1].copy(), fb[:, :-1], ib[:, :-1], np.empty_like(maps))
    # so a start state (u, v) goes to alpha (u, v) + (beta, -beta) conj((v, u))
    alpha = maps[:, :1]
    crossed = maps[:, 1:] * np.array([[-1.0], [1.0]])
    starts = buf[0 : L * B : B]
    t = np.empty((2, p), dtype=np.complex128)
    for y, y1, a, c in zip(starts, starts[1:], alpha, crossed):
        np.conjugate(y[::-1], t)
        np.multiply(t, c, t)
        np.multiply(y, a, y1)
        np.add(y1, t, y1)
    # pass 2: step j of every block at once, rows lB + j -> lB + j + 1
    src = buf[: L * B].reshape(L, B, 2, p).swapaxes(0, 1)
    dst = buf[1 : L * B + 1].reshape(L, B, 2, p).swapaxes(0, 1)
    _steps(zip(src, dst), s, sp, fb, ib, np.empty((L, 2, p), dtype=np.complex128))
    spow[:] = sp[-1]
    return L * B
