"""Local two-node parameters of the normalized polynomials at (s, n).

A and B interpolate phi_n between s and the rotated node s*gamma_n with
gamma_n = e^{i pi / n}: phi_n(z) is locally A z^n + B.  The four
parameters satisfy |A|^2+|B|^2+|Atilde|^2+|Btilde|^2 = 2 exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .measures import CircleMeasure, on_circle
from .szego import OrthoSystem


@dataclass(frozen=True)
class LocalParams:
    s: complex
    n: int
    A: complex
    B: complex
    Atilde: complex
    Btilde: complex

    def sum_of_squares(self) -> float:
        return (
            abs(self.A) ** 2
            + abs(self.B) ** 2
            + abs(self.Atilde) ** 2
            + abs(self.Btilde) ** 2
        )


def gamma(n: int) -> complex:
    return complex(np.exp(1j * np.pi / n))


def local_params(sys: OrthoSystem, s: complex, n: int) -> LocalParams:
    """A = (phi_n(s) - phi_n(s g))/(2 s^n), B = (phi_n(s) + phi_n(s g))/2."""
    if not on_circle(s):
        raise DomainError("s must lie on the unit circle")
    if n < 1:
        raise DomainError("n must be at least 1")
    s = complex(s)
    g = gamma(n)
    sn = s ** n
    p1, p2 = sys.phi[n](s), sys.phi[n](s * g)
    q1, q2 = sys.phitilde[n](s), sys.phitilde[n](s * g)
    return LocalParams(
        s=s,
        n=n,
        A=(p1 - p2) / (2 * sn),
        B=(p1 + p2) / 2,
        Atilde=(q1 - q2) / (2 * sn),
        Btilde=(q1 + q2) / 2,
    )


def local_approx_error(
    sys: OrthoSystem, s: complex, n: int, z: complex, C: float = 4.0
) -> float:
    """|phi_n(z) - A z^n - B| for z within C/n of s.

    Vanishes exactly at the two interpolation nodes s and s*gamma_n."""
    if C < 4:
        raise DomainError(f"constant C must be >= 4 (got {C})")
    if n < 4 * C:
        raise DomainError(f"need n >= 4C: n={n}, C={C}")
    if abs(z - s) > C / n + 1e-12:
        raise DomainError(f"need |z - s| <= C/n: |z-s|={abs(z - s):.3e}")
    lp = local_params(sys, s, n)
    return abs(sys.phi[n](z) - lp.A * z ** n - lp.B)


def ab_diagnostics(sys: OrthoSystem, mu: CircleMeasure, s: complex, n: int) -> dict:
    """Product and difference relations of the local parameters.

    prod = |A conj(B) + Atilde conj(Btilde)| and
    diff = |-Atilde conj(A) + Btilde conj(B) + 1/conj(w(s))| both decay
    with the L-functional; they are reported, not asserted."""
    lp = local_params(sys, s, n)
    ws = mu.density_at(s)
    w_inv = 1.0 / np.conj(ws)
    prod = abs(lp.A * np.conj(lp.B) + lp.Atilde * np.conj(lp.Btilde))
    diff = abs(-lp.Atilde * np.conj(lp.A) + lp.Btilde * np.conj(lp.B) + w_inv)
    return {"prod": float(prod), "diff": float(diff), "w_inv": complex(w_inv)}


def zero_distance(sys: OrthoSystem, s: complex, n: int) -> float:
    """min |root - s| over the roots of phi_n."""
    if n < 1:
        raise DomainError("n must be at least 1")
    p = sys.phi[n]
    roots = p.roots()
    if p.lo > 0:
        # trailing zero coefficients mean a root at the origin
        roots.append(0j)
    if not roots:
        return float("inf")
    return min(abs(r - complex(s)) for r in roots)
