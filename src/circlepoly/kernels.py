"""Reproducing kernels, Dirichlet kernels and the universality gap."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .laurent import LaurentPoly
from .measures import CircleMeasure, l_functional, on_circle, pairing
from .szego import OrthoSystem

CD_DIAGONAL_TOL = 1e-8


@dataclass(frozen=True)
class KernelEval:
    n: int
    z: complex
    lam: complex
    value: complex
    route: str  # "direct_sum" or "christoffel_darboux"


def k_direct(sys: OrthoSystem, n: int, z: complex, lam: complex) -> complex:
    """Sum_{j<=n} phitilde_j(z) * star(phi_j)(lam); analytic in both slots."""
    if lam == 0:
        raise DomainError("kernel is singular at lambda = 0")
    if n > sys.size:
        raise DomainError(f"ladder built only to degree {sys.size}")
    total = 0j
    for j in range(n + 1):
        total += sys.phitilde[j](z) * sys.phi[j].star()(lam)
    return total


def dirichlet(n: int, z: complex, lam: complex) -> complex:
    """Reproducing kernel of the uniform measure: sum z^j lam^-j."""
    if lam == 0:
        raise DomainError("kernel is singular at lambda = 0")
    q = z / lam
    if abs(q - 1.0) < 1e-14:
        return complex(n + 1)
    return (q ** (n + 1) - 1.0) / (q - 1.0)


def k_cd(sys: OrthoSystem, n: int, z: complex, lam: complex) -> KernelEval:
    """Kernel via the Christoffel-Darboux quotient.

    (1 - z/lam) K_n(z,lam) = z^{n+1} lam^{-n-1} star(phi_{n+1})(z-side)
    phitilde_{n+1}(lam) - phitilde_{n+1}(z) star(phi_{n+1})(lam).  Falls
    back to the direct sum near the diagonal, where the quotient loses
    about eight digits."""
    if lam == 0:
        raise DomainError("kernel is singular at lambda = 0")
    denom = 1.0 - z / lam
    if abs(denom) <= CD_DIAGONAL_TOL or n + 1 > sys.size:
        return KernelEval(n, z, lam, k_direct(sys, n, z, lam), "direct_sum")
    ps = sys.phi[n + 1].star()
    num = (
        z ** (n + 1) * lam ** (-n - 1) * ps(z) * sys.phitilde[n + 1](lam)
        - sys.phitilde[n + 1](z) * ps(lam)
    )
    return KernelEval(n, z, lam, num / denom, "christoffel_darboux")


def reproduce_check(
    sys: OrthoSystem,
    mu: CircleMeasure,
    n: int,
    f: LaurentPoly,
    lam: complex,
    m: int = 4096,
) -> float:
    """|<f, K_n(., lam)>_mu - f(lam)|, the reproducing-property residual.

    The star in the pairing acts on the kernel in both variables: K_n is
    taken as sum_j phitilde_j(z) conj(phi_j(lam)), so its star is
    sum_j star(phitilde_j)(z) phi_j(lam); this is what makes the property
    hold off the circle as well.  The pairing reads mu's moment vector."""
    if lam == 0:
        raise DomainError("kernel is singular at lambda = 0")
    k = LaurentPoly.zero()
    for j in range(n + 1):
        k = k + sys.phitilde[j].scale(np.conj(sys.phi[j](lam)))
    return abs(pairing(f, k, mu, m) - f(lam))


@dataclass(frozen=True)
class UniversalityRecord:
    s: complex
    n: int
    C: float
    gap: float
    Lvalue: float
    bound: float


def universality_gap(
    sys: OrthoSystem,
    mu: CircleMeasure,
    s: complex,
    n: int,
    C: float,
    z: complex | None = None,
    lam: complex | None = None,
    m: int = 65536,
) -> UniversalityRecord:
    """Gap (1/(n+1))|conj(w(s)) K_n(z,lam) - D_n(z,lam)| and its bound.

    The record is data; nothing is asserted here.  Hypotheses of the
    kernel convergence theorem (n >= 2C, z and lam within C/n of s) are
    preconditions."""
    z = s if z is None else z
    lam = s if lam is None else lam
    if not on_circle(s):
        raise DomainError("s must lie on the unit circle")
    if n < 2 * C:
        raise DomainError(f"hypothesis n >= 2C violated: n={n}, C={C}")
    if abs(z - s) > C / n + 1e-12:
        raise DomainError("hypothesis |z - s| <= C/n violated")
    if abs(lam - s) > C / n + 1e-12:
        raise DomainError("hypothesis |lambda - s| <= C/n violated")
    ws = mu.density_at(s)
    lval = l_functional(mu, s, n, m)
    gap, bound = gap_and_bound(ws, k_direct(sys, n, z, lam), dirichlet(n, z, lam), n, C, lval)
    return UniversalityRecord(complex(s), n, float(C), float(gap), lval, bound)


def gap_and_bound(ws, kn, dn, n: int, C: float, lval: float):
    """(1/(n+1))|conj(w(s)) K_n - D_n| and the bound exp(30C) L it is held to."""
    return abs(np.conj(ws) * kn - dn) / (n + 1), float(np.exp(30.0 * C)) * lval
