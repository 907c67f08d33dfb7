"""Hot kernel: point evaluation of the normalized polynomial ladder.

On |s| = 1 the star of a polynomial coincides with its conjugate, so the
whole ladder can be evaluated at circle points by a scalar recursion
without materializing any coefficients.  This is the inner loop of the
lacunary and universality experiments.  It runs in numpy, vectorized
over the points.
"""

from __future__ import annotations

import numpy as np

from .measures import on_circle

# there is no compiled path; kept for callers that report the backend
USE_NUMBA = False


def ladder_eval(F, s):
    """Evaluate the full normalized ladder at circle points.

    Parameters
    ----------
    F : complex array, recursion coefficients F_1..F_N; trailing zeros
        (a ladder run past its last coefficient) cost one multiply per row
    s : complex array of points with |s| = 1

    Returns
    -------
    (u, v) with shapes (N+1, len(s)): u[n] = phi_n(s), v[n] = phitilde_n(s).
    Only valid for |s| = 1 (the recursion uses star = conjugate there).
    """
    F = np.ascontiguousarray(F, dtype=np.complex128)
    s = np.ascontiguousarray(s, dtype=np.complex128)
    if not on_circle(s):
        raise ValueError("ladder_eval requires points on the unit circle")
    n = len(F)
    p = len(s)
    nonzero = np.flatnonzero(F)
    top = int(nonzero[-1]) + 1 if len(nonzero) else 0
    u = np.empty((n + 1, p), dtype=np.complex128)
    v = np.empty((n + 1, p), dtype=np.complex128)
    u[0] = 1.0
    v[0] = 1.0
    spow = np.ones(p, dtype=np.complex128)  # s^k
    w = np.empty(p, dtype=np.complex128)
    t = np.empty(p, dtype=np.complex128)
    rhos = [np.sqrt(1.0 + abs(f) ** 2) for f in F[:top]]
    # out is passed by position, which numpy parses faster than a keyword
    for k, (fc, rho) in enumerate(zip(np.conj(F[:top]), rhos)):
        uk, vk, u1, v1 = u[k], v[k], u[k + 1], v[k + 1]
        np.multiply(spow, fc, w)
        np.multiply(s, uk, u1)
        np.conjugate(vk, t)
        np.multiply(w, t, t)
        np.add(u1, t, u1)
        np.divide(u1, rho, u1)
        np.multiply(s, vk, v1)
        np.conjugate(uk, t)
        np.multiply(w, t, t)
        np.subtract(v1, t, v1)
        np.divide(v1, rho, v1)
        np.multiply(spow, s, spow)
    # past the last nonzero F_k a step is multiplication by s (rho = 1)
    for k in range(top, n):
        np.multiply(s, u[k], u[k + 1])
        np.multiply(s, v[k], v[k + 1])
    return u, v
