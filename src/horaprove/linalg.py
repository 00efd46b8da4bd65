"""Small dense matrices over the coefficient ring.

Everything here is division-free: no matrix is inverted, since a negative
slope runs the backward recurrence (see sequences), and none is raised to a
power, since a slope's C^|m| (|m| <= 8) is |m| - 1 products.  Matrices
(lists of lists of LaurentPoly) stay tiny: companion matrices and their
Kronecker products, of dimension a few dozen at most, so cubic loops do.
"""

from __future__ import annotations

from .ring import LaurentPoly, one, zero


def mat_mul(x, y):
    n, k, m = len(x), len(y), len(y[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            s = zero()
            for t in range(k):
                s = s + x[i][t] * y[t][j]
            row.append(s)
        out.append(row)
    return out


def mat_vec(x, v):
    return [sum((x[i][t] * v[t] for t in range(len(v))), zero()) for i in range(len(x))]


def kron(x, y):
    """Kronecker product; dimensions multiply."""
    nx, ny = len(x), len(y)
    out = []
    for i in range(nx):
        for k in range(ny):
            row = []
            for j in range(nx):
                for l in range(ny):
                    row.append(x[i][j] * y[k][l])
            out.append(row)
    return out


def companion(coeffs: "tuple[LaurentPoly, ...]"):
    """Companion matrix of a monic polynomial given ascending coefficients.

    coeffs = (c0, c1, ..., c_{d-1}, 1) encodes x^d + c_{d-1} x^{d-1} + ... + c0.
    The matrix acts on the state (X(n+d-1), ..., X(n)) of a sequence
    satisfying X(n+d) = -c_{d-1} X(n+d-1) - ... - c0 X(n), and its
    characteristic polynomial is the input.
    """
    d = len(coeffs) - 1
    if d < 1 or coeffs[-1] != 1:
        raise ValueError("expected a monic polynomial of order >= 1")
    out = [[-coeffs[d - 1 - j] for j in range(d)]]
    for i in range(1, d):
        out.append([one() if j == i - 1 else zero() for j in range(d)])
    return out


def charpoly(m) -> "tuple[LaurentPoly, ...]":
    """Characteristic polynomial det(xI - M), ascending coefficients, monic.

    Berkowitz's algorithm: division-free, so it works verbatim over the
    polynomial coefficient ring.
    """
    return tuple(reversed(_berkowitz(m)))


def _berkowitz(m) -> "list[LaurentPoly]":
    # Returns descending coefficients [1, c_{n-1}, ..., c_0].
    n = len(m)
    if n == 0:
        return [one()]
    if n == 1:
        return [one(), -m[0][0]]
    a = m[0][0]
    row = m[0][1:]
    col = [r[0] for r in m[1:]]
    sub = [r[1:] for r in m[1:]]
    # Toeplitz column: [1, -a, -R C, -R A C, -R A^2 C, ...]
    diags = [col]
    for _ in range(n - 2):
        diags.append(mat_vec(sub, diags[-1]))
    toeplitz_col = [one(), -a]
    for d in diags:
        s = zero()
        for x, y in zip(row, d):
            s = s + x * y
        toeplitz_col.append(-s)
    prev = _berkowitz(sub)  # length n
    out = []
    for i in range(n + 1):
        s = zero()
        for j, pj in enumerate(prev):
            k = i - j
            if 0 <= k < len(toeplitz_col):
                s = s + toeplitz_col[k] * pj
        out.append(s)
    return out

