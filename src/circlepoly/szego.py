"""Monic and normalized left/right orthogonal polynomial ladders.

Two construction routes: the recurrence from coefficient sequences
(production path; a single Tminus row is read from the SU(2) pair
instead, see ``OrthoSystem``) and the two-sided Szegő recursion on a
measure's moment vector (cross-validation route, O(n^2)).  Heine's
determinant formula stays in the tests as the independent oracle for the
second.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, MalformedLadderError, NearSingularMomentError
from .laurent import LaurentPoly
from .measures import CircleMeasure
from .nlfs import forward, refuse_overflow, squares_and_inv_rho

T_MINUS = "Tminus"
T_PLUS = "Tplus"
T_GENERAL = "T"

CLASS_TOL = 1e-9
# P's mass off degrees l+1..m, relative to max|R|, above which a Plancherel
# pair fails closed; roundoff reaches about 6e-16
SPILL_TOL = 1e-12


@dataclass(eq=False)
class OrthoSystem:
    """Coefficient sequence of a ladder, its monic pairings, and the
    normalized left/right polynomials read from it on demand.

    norms[n] is the monic pairing ∏_{j<=n}(1+|F_j|^2) for the Tminus
    convention (∏(1-|F_j|^2) for Tplus).  The right ladder's coefficients
    are -F (Tminus) or F (Tplus).

    phi[n] and phitilde[n] are the normalized left/right polynomials of
    degree n.  Read by an integer index on a Tminus system, a row comes
    from the SU(2) pair (a, b) = forward(F[:n]) as z^n (a + b*) (phi) or
    z^n (a - b*) (phitilde), in O(n log n), and no other row is built.
    Iterating or slicing phi or phitilde, ``monic`` and every all-row
    reader here read the packed ladder (``ladder``) instead, which is
    built on first use and kept; a Tplus system reads every row from it.
    """

    F: np.ndarray
    norms: np.ndarray
    class_tag: str = T_MINUS
    # 1/rho per step, formed with norms for the packed ladder's build
    _invs: np.ndarray = field(default=None, repr=False)
    _rows: np.ndarray = field(default=None, init=False, repr=False)
    _pair: tuple = field(default=None, init=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.F)

    @property
    def phi(self) -> _Rows:
        return _Rows(self, 0)

    @property
    def phitilde(self) -> _Rows:
        return _Rows(self, 1)

    def ladder(self) -> np.ndarray:
        """The read-only packed ladder: a (2, (N+1)(N+2)/2) array whose
        first row holds phi's coefficients and second phitilde's, degree n
        on degrees 0..n at ``_row_slice(n)``."""
        if self._rows is None:
            self._rows = _packed_ladder(self.F, self._invs, self.class_tag)
        return self._rows

    def _packed_row(self, side: int, n: int) -> LaurentPoly:
        return LaurentPoly(self.ladder()[side, _row_slice(n)])

    def _row(self, side: int, n: int) -> LaurentPoly:
        """Row n of phi (side 0) or phitilde (side 1), by the SU(2) pair
        of F[:n] on a Tminus system; the pair is kept for the other side."""
        n = operator.index(n)
        if n < 0:
            n += self.size + 1
        if not 0 <= n <= self.size:
            raise IndexError(f"row {n} of a ladder over degrees 0..{self.size}")
        if self.class_tag != T_MINUS:
            return self._packed_row(side, n)
        if self._pair is None or self._pair[0] != n:
            pair = forward(self.F[:n])
            self._pair = (n, pair.a, pair.b.star())
        _, a, bs = self._pair
        return (a + bs if side == 0 else a - bs).shift(n)

    def monic(self, n: int) -> LaurentPoly:
        return self._packed_row(0, n) * np.sqrt(self.norms[n])

    def monic_tilde(self, n: int) -> LaurentPoly:
        return self._packed_row(1, n) * np.sqrt(self.norms[n])


class _Rows:
    """One side of an OrthoSystem's ladder as a read-only sequence: an
    integer index reads one row (``OrthoSystem._row``), iterating and
    slicing read the packed ladder."""

    __slots__ = ("_sys", "_side")

    def __init__(self, sys: OrthoSystem, side: int):
        self._sys, self._side = sys, side

    def __len__(self) -> int:
        return self._sys.size + 1

    def __iter__(self):
        return (self._sys._packed_row(self._side, n) for n in range(len(self)))

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self._sys._packed_row(self._side, n) for n in range(len(self))[k]]
        return self._sys._row(self._side, k)


def ladder_from_coeffs(F, cls: str = T_MINUS) -> OrthoSystem:
    """The system of recursion coefficients F in class cls: F is checked
    and the norms formed in one O(n) pass; rows are built when read (see
    ``OrthoSystem``).

    The packed ladder runs the recursion
    phi_{n+1} = (z phi_n + z^n conj(F_{n+1}) star(phitilde_n)) / rho,
    phitilde_{n+1} = (z phitilde_n -+ z^n conj(F_{n+1}) star(phi_n)) / rho,
    with the minus sign and rho = sqrt(1+|F|^2) for the Tminus class, plus
    sign and rho = sqrt(1-|F|^2) for Tplus.
    """
    F = np.asarray(F, dtype=np.complex128)
    if cls not in (T_MINUS, T_PLUS):
        raise DomainError(f"class must be {T_MINUS} or {T_PLUS}")
    if cls == T_PLUS and np.any(np.abs(F) >= 1):
        raise DomainError("Tplus recursion requires |F_j| < 1")
    sign = -1.0 if cls == T_PLUS else 1.0
    sq, invs = squares_and_inv_rho(F, sign)
    refuse_overflow(F, invs)
    # cumprod is the sequential product norms[n] * (1 -+ |F_{n+1}|^2)
    norms = np.cumprod(np.concatenate(([1.0], 1.0 + sign * sq)))
    return OrthoSystem(F=F, norms=norms, class_tag=cls, _invs=invs)


def _row_slice(n: int) -> slice:
    """Where row n, on degrees 0..n, sits in the packed ladder."""
    return slice(n * (n + 1) // 2, (n + 1) * (n + 2) // 2)


def _packed_ladder(F, invs, cls) -> np.ndarray:
    """Rows of phi and phitilde over degrees 0..n, filled in place into one
    packed triangular buffer (row n at ``_row_slice(n)``), which is then
    made read-only."""
    size = len(F)
    # per step, conj(F) against phitilde's row and -+conj(F) against phi's
    coefs = np.empty((size, 2, 1), dtype=np.complex128)
    coefs[:, 0, 0] = np.conj(F)
    coefs[:, 1, 0] = (-1.0 if cls == T_MINUS else 1.0) * coefs[:, 0, 0]
    rows = np.zeros((2, _row_slice(size).stop), dtype=np.complex128)  # phi, phitilde
    rows[:, 0] = 1.0
    work = np.empty((2, size), dtype=np.complex128)
    for n in range(size):
        prev = rows[:, _row_slice(n)]
        new = rows[:, _row_slice(n + 1)]
        # adding into zeros, like the zero padding of a LaurentPoly sum,
        # turns a -0 entry into +0, which keeps the result bitwise equal
        shifted = new[:, 1:]
        np.add(shifted, prev, shifted)
        w = work[:, : n + 1]
        np.conjugate(prev[::-1, ::-1], w)  # star(phitilde_n), star(phi_n)
        np.multiply(w, coefs[n], w)
        low = new[:, : n + 1]
        np.add(low, w, low)
        np.multiply(new, invs[n], new)
    rows.setflags(write=False)
    return rows


def extract_coeffs(Phi, PhiTilde):
    """Recover (F, Ftilde, class_tag) from monic consecutive-degree ladders.

    F_{n+1} = conj(Phi_{n+1}(0)).  The tag is Tminus when Ftilde = -F
    within tolerance, Tplus when Ftilde = F; the all-zero tie resolves to
    Tminus with a both-classes flag.
    """
    if len(Phi) != len(PhiTilde):
        raise MalformedLadderError("ladders must have equal length")
    n_max = len(Phi) - 1
    for n in range(n_max + 1):
        for lad in (Phi, PhiTilde):
            p = lad[n]
            if p.hi != n or not abs(p[n] - 1) <= 1e-8:  # a NaN fails
                raise MalformedLadderError(f"entry {n} is not monic of degree {n}")
    F = np.array([np.conj(Phi[n][0]) for n in range(1, n_max + 1)])
    Ftilde = np.array([np.conj(PhiTilde[n][0]) for n in range(1, n_max + 1)])
    if len(F) == 0:
        return F, Ftilde, T_MINUS, True
    minus = float(np.max(np.abs(F + Ftilde)))
    plus = float(np.max(np.abs(F - Ftilde)))
    both = minus < CLASS_TOL and plus < CLASS_TOL
    if minus < CLASS_TOL:
        tag = T_MINUS
    elif plus < CLASS_TOL:
        tag = T_PLUS
    else:
        tag = T_GENERAL
    return F, Ftilde, tag, both


def monic_from_moments(mu: CircleMeasure, n: int, m: int = 4096):
    """Monic degree-n left and right polynomials of mu by the two-sided
    Szegő recursion on its moments c_{-n..n}.

    Returns (Phi_n, PhiTilde_n, deltas) where deltas[k] is the Toeplitz
    moment determinant of order k for k = 0..n, the running product of the
    pairings kappa_k = sum_j conj(PhiTilde_k[k-j]) c_j.  With P^#[j] =
    conj(P[k-j]), each step is Phi_{k+1} = z Phi_k + conj(F) PhiTilde_k^#
    and PhiTilde_{k+1} = z PhiTilde_k + conj(Ftilde) Phi_k^#, the two
    coefficients read off the moments.  An order whose determinant is
    below 1e-10 times the product of its moment matrix's row norms (a
    scale of 0 counting as 1), compared in log form, raises
    NearSingularMomentError with that order as its index.
    """
    if n < 0:
        raise DomainError("degree must be nonnegative")
    c = mu.moments(n, m)
    pos, neg = c[n:], c[n::-1]  # c_0..c_n and c_0, c_{-1}..c_{-n}
    mass = np.abs(c) ** 2
    rows = np.zeros(n + 1)  # squared row norms of the order-k moment matrix
    phi = tilde = np.ones(1, dtype=np.complex128)
    deltas = np.empty(n + 1, dtype=np.complex128)
    log_det, det = 0.0, 1.0
    for k in range(n + 1):
        rows[:k] += mass[n - k : n]  # row i < k gains c_{i-k}
        rows[k] = np.sum(mass[n : n + k + 1])
        kappa = np.dot(np.conj(tilde[::-1]), pos[: k + 1])
        with np.errstate(divide="ignore"):
            log_det += np.log(abs(kappa))
            log_scale = np.sum(np.log(rows[: k + 1])) / 2
        if log_det < np.log(1e-10) + (log_scale if log_scale > -np.inf else 0.0):
            raise NearSingularMomentError(
                f"moment determinant of order {k} is numerically zero "
                "(measure likely outside the uniqueness class)",
                index=k,
            )
        det *= kappa
        deltas[k] = det
        if k == n:
            break
        fc = -np.dot(phi, pos[1 : k + 2]) / kappa  # conj(F_{k+1})
        ft = -np.dot(np.conj(tilde), neg[1 : k + 2]) / np.dot(phi[::-1], neg[: k + 1])
        phi, tilde = (
            np.append(0, phi) + np.append(fc * np.conj(tilde[::-1]), 0),
            np.append(0, tilde) + np.append(np.conj(ft) * np.conj(phi[::-1]), 0),
        )
    return LaurentPoly(phi, 0), LaurentPoly(tilde, 0), deltas


def _moment_matrix(c, k):
    """(k+1)x(k+1) Toeplitz matrix with entries c_{i-j}, from the moments
    c_{-d..d} (d >= k) stored as ``CircleMeasure.moments`` returns them."""
    d = len(c) // 2
    i = np.arange(k + 1)
    return c[d + i[:, None] - i[None, :]]


@dataclass
class SystemReport:
    """Residuals from checking a system against a measure."""

    orthonormality_max: float
    det_identity_max: float
    monic_norm_max: float

    def max_residual(self) -> float:
        """The largest residual, NaN if any residual is NaN."""
        return float(np.max([self.orthonormality_max, self.det_identity_max, self.monic_norm_max]))


def verify_system(
    sys: OrthoSystem, mu: CircleMeasure, m: int = 4096, grid: int = 512
) -> SystemReport:
    """Check orthonormality, the on-circle determinant identity, and the
    monic pairing against the stored norms.  Failures are reported, not
    raised.

    All three read the coefficient rows A, B of the packed ladder: the
    Gram matrix A T B^H, the rows' values at the grid nodes (the grid-th
    roots of unity) by one FFT per ladder, and the Gram diagonal of the
    rows scaled by sqrt(norms)."""
    n_max = sys.size
    T = _moment_matrix(mu.moments(n_max, m), n_max)
    # the packed rows are the lower triangles of A and B in row-major order
    A, B = np.zeros((2, n_max + 1, n_max + 1), dtype=np.complex128)
    tri = np.tril_indices(n_max + 1)
    A[tri], B[tri] = sys.ladder()
    ortho = float(np.max(np.abs(A @ T @ B.conj().T - np.eye(n_max + 1))))
    # a DFT of length size, a multiple of grid, evaluates the rows at the
    # size-th roots of unity e^{-2 pi i k / size}; every (size/grid)-th of
    # them is one of the grid nodes, which it visits in reverse order
    size = grid * -(-(n_max + 1) // grid)
    P, Q = (np.fft.fft(rows, size)[:, :: size // grid] for rows in (A, B))
    det = float(np.max(np.abs(np.abs(P) ** 2 + np.abs(Q) ** 2 - 2.0)))
    scale = np.sqrt(sys.norms)[:, None]
    monic = np.diag((A * scale) @ T @ (B * scale).conj().T)
    norm = float(np.max(np.abs(monic - sys.norms)))
    return SystemReport(ortho, det, norm)


def plancherel_check(sys: OrthoSystem, l: int, m: int):
    """Both sides of the log-subharmonicity inequality for index pair l < m.

    lhs = -2 * mean over the circle of log(|phi_l^* phi_m + phitilde_l^*
    phitilde_m| / 2), read exactly by Jensen's formula, and rhs =
    sum_{l<j<=m} log(1+|F_j|^2).  The caller asserts lhs <= rhs
    (+ tolerance).  Returns (lhs, rhs, zeros); see ``_plancherel_sides``.
    """
    if not 0 <= l < m <= sys.size:
        raise DomainError("need 0 <= l < m <= N")
    return _plancherel_sides(sys, [(l, m)])[0]


def plancherel_table(sys: OrthoSystem) -> list:
    """``plancherel_check`` for every pair 0 <= l < m <= N.

    Returns rows (l, m, lhs, rhs, zeros) in lexicographic order.
    """
    pairs = [(l, m) for l in range(sys.size) for m in range(l + 1, sys.size + 1)]
    return [(l, m, *sides) for (l, m), sides in zip(pairs, _plancherel_sides(sys, pairs))]


def _plancherel_poly(phi, phitilde, l: int, m: int) -> np.ndarray:
    """P = phi_l^* phi_m + phitilde_l^* phitilde_m (the degree-l star) on
    degrees 0..l+m, by two correlations of the packed rows; P = z^{l+1} R,
    R = 2 z^{m-l-1} a_{(l,m]}, with a_{(l,m]} the a of forward(F[l:m])."""
    sl, sm = _row_slice(l), _row_slice(m)
    return np.correlate(phi[sm], phi[sl], "full") + np.correlate(phitilde[sm], phitilde[sl], "full")


def _rouche(mag, d: int):
    """|R_d| > 2 sum_{k<d} |R_k| on the last axis of ``mag``; a NaN fails it."""
    return mag[..., d] > 2.0 * np.add.reduce(mag[..., :d], -1)


def _jensen_sums(stack):
    """Jensen sums sum_k log max(1, |r_k|) and the counts of |r_k| > 1 over
    the roots r_k of each row R of ``stack`` (coefficients of degree d,
    lowest first, top coefficient nonzero), as two arrays.

    A row that ``_rouche`` certifies (a factor-2 margin) has no root in
    |z| >= 1 by Rouché's theorem: there |R(z)| >= |z|^{d-1} (|R_d| |z| -
    sum |R_k|) > 0, and a root with |z| < 1 has |R_d| |z|^d <= sum |R_k|
    < |R_d| / 2.  Every root then lies in |z| <= 2^{-1/d} < 1, so the
    row's sum and count are exactly 0, the values its eigensolve gives.
    A NaN row fails the test.  Only the other rows are eigensolved, as
    companion matrices; when no row is certified the stack is passed whole.
    """
    d = stack.shape[1] - 1
    jensen = np.zeros(len(stack))
    zeros = np.zeros(len(stack), dtype=np.intp)
    rest = ~_rouche(np.abs(stack), d)
    if rest.any():
        sub = stack if rest.all() else stack[rest]
        companion = np.zeros((len(sub), d, d), dtype=np.complex128)
        companion[:, 0, :] = -sub[:, d - 1 :: -1] / sub[:, d, None]
        companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
        roots = np.abs(np.linalg.eigvals(companion))
        jensen[rest] = np.log(np.maximum(roots, 1.0)).sum(axis=-1)
        zeros[rest] = (roots > 1.0).sum(axis=-1)
    return jensen, zeros


def _plancherel_sides(sys: OrthoSystem, pairs) -> list:
    """(lhs, rhs, zeros) for each index pair (l, m), l < m, of a Tminus system.

    On the circle |P| = |R| (see ``_plancherel_poly``), so Jensen's formula
    gives mean log|P/2| = log(|R_d|/2) + sum_k log max(1, |r_k|) over the
    d = m-l-1 roots r_k of R.  One pass forms each pair's P and reads the
    spill check, the ``_rouche`` certificate and a certified lhs (Jensen sum
    0) from its moduli; only the other pairs' R are kept, and eigensolved by
    ``_jensen_sums`` stacked by degree.  ``zeros`` counts the |r_k| > 1, the
    reflected zeros of a_{(l,m]}^* in the disk, each adding 2 log|r_k| to
    rhs - lhs, which is 0 exactly when a_{(l,m]}^* is outer.  A pair whose P
    has mass above SPILL_TOL * max|R| outside degrees l+1..m, or whose R is
    not finite or has a zero top, gets lhs NaN and zeros -1.
    """
    if sys.class_tag != T_MINUS:
        raise DomainError("the Plancherel rhs sum log(1+|F|^2) is the Tminus one")
    phi, phitilde = sys.ladder()
    logs = np.log1p(np.abs(sys.F) ** 2)
    add, peak = np.add.reduce, np.maximum.reduce  # x.sum() and x.max(), called directly
    out, by_degree = [], {}
    for k, (l, m) in enumerate(pairs):
        P = _plancherel_poly(phi, phitilde, l, m)
        mag = np.abs(P)
        rhs = float(add(logs[l:m]))
        # a NaN or infinite R fails through its max
        if not (add(mag[: l + 1]) + add(mag[m + 1 :]) <= SPILL_TOL * peak(mag[l + 1 : m + 1]) < np.inf and P[m] != 0):
            out.append((float("nan"), rhs, -1))
        elif _rouche(mag[l + 1 : m + 1], m - l - 1):
            out.append((float(-2.0 * np.log(mag[m] / 2.0)), rhs, 0))
        else:
            out.append(None)  # filled in from the eigensolve below
            by_degree.setdefault(m - l - 1, []).append((k, rhs, P[l + 1 : m + 1].copy()))
    for d, group in by_degree.items():
        stack = np.array([R for _, _, R in group])
        jensen, zeros = _jensen_sums(stack)
        lhs = -2.0 * (np.log(np.abs(stack[:, d]) / 2.0) + jensen)
        for (k, rhs, _), x, z in zip(group, lhs, zeros):
            out[k] = (float(x), rhs, int(z))
    return out
