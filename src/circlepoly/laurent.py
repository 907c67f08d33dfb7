"""Dense Laurent polynomials over the complex numbers.

A Laurent polynomial is stored as a contiguous coefficient window: an
integer ``lo`` (lowest frequency) and a complex array ``coeffs`` for
frequencies ``lo .. lo + len(coeffs) - 1``.  The zero polynomial is the
empty window with ``lo = 0``.  Values are immutable after construction.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

# Product-length crossover between direct and FFT convolution.
FFT_THRESHOLD = 128


class LaurentPoly:
    __slots__ = ("lo", "coeffs")
    # a value, not a sequence: p[k] is 0 outside the window, so iterating by
    # index would never end; numpy operands defer to the reflected operators
    __iter__ = None
    __array_ufunc__ = None

    def __init__(self, coeffs, lo: int = 0, trim: bool = True):
        c = np.asarray(coeffs, dtype=np.complex128)
        if c.ndim != 1:
            raise ValueError("coefficient array must be one-dimensional")
        if trim:
            c, lo = _trim(c, lo)
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "lo", int(lo))

    def __setattr__(self, *a):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly([], 0)

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly([1.0])

    @staticmethod
    def monomial(k: int, c=1.0) -> "LaurentPoly":
        return LaurentPoly([c], k)

    # -- bookkeeping -------------------------------------------------------

    @property
    def hi(self) -> int:
        return self.lo + len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return len(self.coeffs) == 0

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, k: int) -> complex:
        """Coefficient of z^k (zero outside the window)."""
        if self.is_zero() or k < self.lo or k > self.hi:
            return 0j
        return complex(self.coeffs[k - self.lo])

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return (
            self.lo == other.lo
            and len(self.coeffs) == len(other.coeffs)
            and bool(np.all(self.coeffs == other.coeffs))
        )

    def __hash__(self):
        return hash((self.lo, self.coeffs.tobytes()))

    def __repr__(self):
        if self.is_zero():
            return "LaurentPoly(0)"
        terms = ", ".join(
            f"z^{k}: {c:.6g}" for k, c in zip(range(self.lo, self.hi + 1), self.coeffs)
        )
        return f"LaurentPoly({terms})"

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs))) if len(self.coeffs) else 0.0

    def window(self, lo: int, hi: int) -> np.ndarray:
        """Coefficients on frequencies lo..hi as a dense array."""
        out = np.zeros(hi - lo + 1, dtype=np.complex128)
        if not self.is_zero():
            a = max(lo, self.lo)
            b = min(hi, self.hi)
            if a <= b:
                out[a - lo : b - lo + 1] = self.coeffs[a - self.lo : b - self.lo + 1]
        return out

    def clip(self, lo: int, hi: int) -> "LaurentPoly":
        """Restrict to the frequency window lo..hi, discarding the rest."""
        return LaurentPoly(self.window(lo, hi), lo)

    # -- star, arithmetic --------------------------------------------------

    def star(self) -> "LaurentPoly":
        """g*(z) = conj(g(1/conj z)): conjugate and reflect frequencies."""
        if self.is_zero():
            return self
        return LaurentPoly(np.conj(self.coeffs[::-1]), -self.hi, trim=False)

    def __add__(self, other) -> "LaurentPoly":
        other = _coerce(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        return LaurentPoly(self.window(lo, hi) + other.window(lo, hi), lo)

    __radd__ = __add__

    def __sub__(self, other) -> "LaurentPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __neg__(self) -> "LaurentPoly":
        if self.is_zero():
            return self
        return LaurentPoly(-self.coeffs, self.lo, trim=False)

    def scale(self, c) -> "LaurentPoly":
        if self.is_zero() or c == 0:
            return LaurentPoly.zero()
        return LaurentPoly(self.coeffs * c, self.lo, trim=False)

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by z^k."""
        if self.is_zero():
            return self
        return LaurentPoly(self.coeffs, self.lo + k, trim=False)

    def __mul__(self, other) -> "LaurentPoly":
        if np.isscalar(other):
            return self.scale(other)
        other = _coerce(other)
        if self.is_zero() or other.is_zero():
            return LaurentPoly.zero()
        out = convolve(self.coeffs, other.coeffs)
        return LaurentPoly(out, self.lo + other.lo)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k):
        if not isinstance(k, (int, np.integer)) or k < 0:
            return NotImplemented
        out = LaurentPoly.one()
        base = self
        k = int(k)
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __truediv__(self, c):
        if not np.isscalar(c):
            return NotImplemented
        return self.scale(1.0 / c)

    # -- evaluation --------------------------------------------------------

    def __call__(self, z):
        """Horner evaluation over the window; z may be scalar or ndarray.

        z = 0 is a domain error when negative frequencies are present.
        """
        if self.is_zero():
            return np.zeros_like(np.asarray(z, dtype=np.complex128)) if np.ndim(z) else 0j
        z_arr = np.asarray(z, dtype=np.complex128)
        if self.lo < 0 and np.any(z_arr == 0):
            raise DomainError("evaluation at z = 0 with negative frequencies present")
        acc = np.zeros_like(z_arr)
        for c in self.coeffs[::-1]:
            acc = acc * z_arr + c
        if self.lo != 0:
            acc = acc * z_arr ** self.lo
        return acc if np.ndim(z) else complex(acc)

    def on_grid(self, m: int) -> np.ndarray:
        """Values at the m nodes e^{2 pi i k / m} of ``circle_nodes(m)``,
        from one inverse FFT of the coefficients folded mod m: z^m = 1 on
        the grid, so frequencies equal mod m share a bin, whatever the
        window.  Horner (``__call__``) is for points off the grid."""
        if m < 1:
            raise DomainError("node count must be positive")
        folded = np.zeros(m, dtype=np.complex128)
        np.add.at(folded, np.arange(self.lo, self.lo + len(self.coeffs)) % m, self.coeffs)
        return np.fft.ifft(folded, norm="forward")


def _trim(c: np.ndarray, lo: int):
    """c without its zero end entries, and the frequency of its first
    remaining entry (0 when none remains)."""
    # only a window that starts or ends on a zero needs trimming
    if len(c) and c[0] != 0 and c[-1] != 0:
        return c, lo
    nz = np.flatnonzero(c)
    if nz.size == 0:
        return c[:0], 0
    return c[nz[0] : nz[-1] + 1], lo + int(nz[0])


def _coerce(x) -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    if np.isscalar(x):
        return LaurentPoly([x]) if x != 0 else LaurentPoly.zero()
    raise TypeError(f"cannot interpret {x!r} as LaurentPoly")


def coeffs_to_json(arr) -> list:
    """Complex values as a JSON list of [re, im] pairs."""
    return [[float(np.real(c)), float(np.imag(c))] for c in np.asarray(arr)]


def convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Complex convolution along the last axis; direct below FFT_THRESHOLD,
    FFT above.

    Stacked rows (a and b of more than one dimension, whose leading axes
    broadcast against each other) are convolved row by row in one batched
    FFT, whatever their length.  Both paths agree to ~1e-12 relative on
    well-scaled inputs.
    """
    n = a.shape[-1] + b.shape[-1] - 1
    if n <= FFT_THRESHOLD and a.ndim == b.ndim == 1:
        return np.convolve(a, b)
    size = 1
    while size < n:
        size *= 2
    fa = np.fft.fft(a, size)
    fb = np.fft.fft(b, size)
    return np.fft.ifft(fa * fb)[..., :n]


Z = LaurentPoly.monomial(1)
ONE = LaurentPoly.one()
