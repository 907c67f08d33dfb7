"""Extended-precision references for the tests.

`forward` multiplies the SU(2) factors of a double array F step by step in
mpmath at a chosen number of decimal digits, so that a double-precision
result can be judged against a reference whose own rounding is far below
its tolerance.
"""

import mpmath
import numpy as np


def forward(F, dps=50):
    """The pair (a, b) of F as complex128 arrays, a over [-n, 0] and b over
    [1, n], each coefficient rounded once from `dps` digits.

    One step sends (a, b) to ((a - conj(F_j) z^{-j} b) / rho,
    (F_j z^j a + b) / rho) with rho = sqrt(1 + |F_j|^2)."""
    n = len(F)
    with mpmath.workdps(dps):
        a = [mpmath.mpc(1)]  # index i holds frequency i - j after step j
        b = []  # index i holds frequency i + 1
        for j, f in enumerate(np.asarray(F, dtype=np.complex128), start=1):
            f = mpmath.mpc(f.real, f.imag)
            fc = mpmath.conj(f)
            inv = 1 / mpmath.sqrt(1 + abs(f) ** 2)
            # z^{-j} b lives on [1 - j, -1]: index i of the new a is b's i - 1
            new_a = [a[0] * 0] + a  # a, one frequency lower reached
            for i in range(1, j):
                new_a[i] -= fc * b[i - 1]
            # z^j a lives on [1, j]: index i of the new b is a's i
            new_b = [f * a[i] for i in range(j)]
            for i in range(j - 1):
                new_b[i] += b[i]
            a = [x * inv for x in new_a]
            b = [x * inv for x in new_b]
        return (
            np.array([complex(x) for x in a], dtype=np.complex128),
            np.array([complex(x) for x in b], dtype=np.complex128),
        )


def grid_values(coeffs, lo, m, ks, dps=40):
    """Sum_j coeffs[j] z^(lo + j) at the nodes z = e^{2 pi i k / m}, k in
    ks, as a complex128 array, each value rounded once from `dps` digits."""
    out = []
    with mpmath.workdps(dps):
        cs = [mpmath.mpc(c.real, c.imag) for c in np.asarray(coeffs, dtype=np.complex128)]
        for k in ks:
            z = mpmath.expjpi(mpmath.mpf(2 * int(k)) / m)
            zk, total = z ** lo, mpmath.mpc(0)
            for c in cs:
                total += c * zk
                zk *= z
            out.append(complex(total))
    return np.array(out, dtype=np.complex128)
