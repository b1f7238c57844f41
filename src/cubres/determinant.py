"""Exact integer determinants.

A ResidueMatrix is its formula's grid, so `determinant` and
`leading_minors` read its minors off the formula's number wall
(`tables.formula_minors`) and run no elimination.

Other inputs whose values fit comfortably in machine words first run
through fraction-free (Bareiss) elimination, vectorized over int64: every
intermediate quantity is a minor of the input, every interior division
is exact (checked, not assumed), and the path bails out before any step
whose products could overflow.

Everything else, bailouts and entries above 2**30 alike, goes to the one
modular elimination kernel, which `leading_minors` runs too: every
leading minor modulo primes just below 2**29, by elimination over F_q
batched over the primes in one int64 array, with the trailing block
reduced mod q only once every 32 updates, combined by the Chinese
remainder theorem; `determinant` takes the last one. The number of
primes is fixed before any elimination from Hadamard's bound
|det|**2 <= prod of the squared row norms, with a zero row counted as
1: once their product M satisfies M**2 > 4 * bound, the residue
nearest zero is the determinant of every leading block. Nothing is
sampled, and no result is kept between calls.

Two references share no code with these paths: `_eliminate_bigint`,
the same fraction-free elimination over Python ints, and a
cofactor-expansion oracle for tiny orders.

Importing the module does not import numpy, `cubres.matrices` or
`cubres.tables`; each function that uses one imports it when called, and
a ResidueMatrix never loads numpy.
"""

from __future__ import annotations

from math import isqrt, prod
from numbers import Integral
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = ["determinant", "determinant_oracle", "leading_minors"]

# Products of two values at or below this bound cannot overflow int64,
# even after the subtraction in the elimination update.
_I64_SAFE = 1 << 30

# Moduli of the CRT path lie below this, so a product of two residues
# is below 2**58 ...
_Q_TOP = 1 << 29

# ... and this many such products can be subtracted from a residue
# before it leaves int64: K * (q - 1)**2 <= 2**63 - 1 - q for every
# q < _Q_TOP. It is 32.
_DELAY = ((1 << 63) - 1 - _Q_TOP) // (_Q_TOP - 1) ** 2

# Entries of the kernel's int64 work array, the primes of one batch
# times N**2; its product buffer is as large again. 2**17 entries are
# 1 MiB each, small against the 10% peak-memory bound of the benchmark
# (about 3.5 MiB), and hold every prime of an order-81 column (9 x 81**2)
# or 3 primes at order 200.
_BATCH_ENTRIES = 1 << 17

_ORACLE_MAX_ORDER = 7


def _to_rows(matrix) -> list[list[int]]:
    """Normalize to a fresh square list of Python ints."""
    import numpy as np

    from .matrices import ResidueMatrix

    if isinstance(matrix, ResidueMatrix):
        return matrix.rows()
    if isinstance(matrix, np.ndarray):
        if matrix.ndim != 2:
            raise ValueError(f"matrix must be 2-dimensional, got ndim={matrix.ndim}")
        if matrix.dtype != object and not np.issubdtype(matrix.dtype, np.integer):
            raise TypeError(f"exact determinants need integer entries, got dtype {matrix.dtype}")
        rows = matrix.tolist()
    else:
        rows = [list(row) for row in matrix]
    n = len(rows)
    if n == 0:
        raise ValueError("matrix must have order >= 1")
    for row in rows:
        if len(row) != n:
            raise ValueError(f"matrix must be square, got a row of length {len(row)} in order {n}")
        for v in row:
            if not isinstance(v, Integral):
                raise TypeError(f"exact determinants need integer entries, got {type(v).__name__}")
    return [[int(v) for v in row] for row in rows]


def _to_array(matrix) -> np.ndarray:
    """A fresh square array of the entries: int64 when every entry is at
    most 2**30 in absolute value, Python ints in an object array
    otherwise."""
    import numpy as np

    rows = _to_rows(matrix)
    small = max(abs(v) for row in rows for v in row) <= _I64_SAFE
    return np.array(rows, dtype=np.int64 if small else object)


def determinant(matrix) -> int:
    """Exact determinant of a square integer matrix.

    Accepts a ResidueMatrix, a numpy integer array, or nested sequences
    of ints; a ResidueMatrix's is the last of its `leading_minors`. O(n^3)
    word operations on the int64 path. The modular path costs that times
    the number of CRT primes below 2**29, about
    n * log2(n * max|entry|**2) / 58 of them, with the rows below the
    pivot reduced mod q once every 32 updates.
    """
    from .matrices import ResidueMatrix

    if isinstance(matrix, ResidueMatrix):
        return leading_minors(matrix)[-1]
    import numpy as np

    a = _to_array(matrix)
    if a.shape[0] == 1:
        return int(a[0, 0])
    if a.dtype == np.int64:
        result = _eliminate_int64(a.copy())
        if result is not None:
            return result
    return _crt_minors(a)[-1]


def _eliminate_int64(a: np.ndarray) -> "int | None":
    """Vectorized fraction-free elimination. Mutates a. Bails out
    (returns None) before any step whose products could leave int64
    range; the caller then falls back to the CRT path."""
    import numpy as np

    n = a.shape[0]
    sign = 1
    prev = 1
    for k in range(n - 1):
        nz = np.flatnonzero(a[k:, k])
        if nz.size == 0:
            return 0
        r = k + int(nz[0])
        if r != k:
            a[[k, r]] = a[[r, k]]
            sign = -sign
        if int(np.abs(a[k:, k:]).max()) > _I64_SAFE:
            return None
        piv = int(a[k, k])
        num = piv * a[k + 1:, k + 1:] - np.outer(a[k + 1:, k], a[k, k + 1:])
        if prev != 1:
            if (num % prev).any():
                raise ArithmeticError("inexact interior division; elimination invariant broken")
            num //= prev
        a[k + 1:, k + 1:] = num
        prev = piv
    return sign * int(a[n - 1, n - 1])


def leading_minors(matrix) -> list[int]:
    """Exact det A[:n, :n] for every order n = 1..N of a square integer
    matrix A of order N, as a list indexed by n - 1.

    Accepts what `determinant` accepts. One elimination per CRT prime q
    gives every leading minor at once: rows are taken top to bottom, and
    each row, once the rows above have been applied, pivots on its
    leftmost nonzero entry mod q, whose column is then cleared in the
    rows below by adding multiples of the pivot row. That is A = L B with
    L unit lower triangular and no row swaps, so A_n = L_n B_n for every
    leading block, and the pivot columns of distinct rows are distinct.
    Clearing the entries right of each pivot, row by row from the top,
    would take column operations that each change only their own row;
    they form a unit upper-triangular U with B = R U, R holding only the
    pivots, so det A_n = det R_n and U is never formed: when the first n
    rows pivot in columns below n, det A_n is the pivots' product signed
    by the parity of their column order, and otherwise a row of B_n is
    zero and det A_n = 0. Zero minors anywhere need no special case.

    Exactness: with H the product over all rows of max(1, squared row
    norm), Hadamard's bound gives |det A_n|**2 <= H for every n, since
    the rows of A_n are truncated rows of A and every factor left out is
    at least 1. The prime count is fixed from H before any elimination,
    so that the product M of the primes satisfies M**2 > 4 * H; then
    M > 2 * |det A_n| and the residue nearest zero is exact for every n.
    There is no early exit and nothing is kept between calls. The cost is
    O(N^3) word operations times the number of primes. A ResidueMatrix
    skips all of this: its minors are read off its formula's number wall.
    """
    from .matrices import ResidueMatrix
    from .tables import formula_minors

    if isinstance(matrix, ResidueMatrix):
        return formula_minors(matrix.formula, matrix.prime, matrix.order)
    return _crt_minors(_to_array(matrix))


def _crt_minors(a: np.ndarray) -> list[int]:
    """Every leading minor of the integer array a (int64 with entries at
    most 2**30 in absolute value, or object), exact by CRT over the
    primes `leading_minors` describes. The primes run in batches of as
    many as keep a batch's work array within _BATCH_ENTRIES entries."""
    import numpy as np

    primes = _crt_primes((a * a).sum(axis=1, dtype=object).tolist())
    group = max(1, _BATCH_ENTRIES // a.size)
    residues = []
    for start in range(0, len(primes), group):
        batch = primes[start:start + group]
        residues.append(_leading_minors_mod(np.stack([(a % q).astype(np.int64) for q in batch]), batch))
    return _crt_lift(np.concatenate(residues), primes)


def _leading_minors_mod(a: np.ndarray, primes: list[int]) -> np.ndarray:
    """Every leading minor modulo each prime, by the pivoting of
    `leading_minors`, batched over primes: a[k] is the matrix reduced mod
    primes[k], and the result's [k, n - 1] is det A_n mod primes[k].
    Mutates a. This is the only modular elimination; `determinant`'s
    fallback is its last leading minor.

    Reduction is delayed. Row i is reduced mod q when it is reached, and
    so are the entries below its pivot, from which the multipliers f come
    (O(N) per prime). The rank-1 update of the rows below subtracts f
    times the pivot row, both in [0, q), and is not reduced: the rows
    below are reduced only once _DELAY updates have built up since their
    last reduction. The pivots and their columns are recorded, and every
    leading minor is formed from them after the loop.

    Exactness in int64: every q is below 2**29, so every product of two
    residues is below 2**58. An entry starts in [0, q) and each update
    subtracts at most (q - 1)**2, so after k <= K = _DELAY updates it lies
    in [-k * (q - 1)**2, q), and K * (q - 1)**2 <= 2**63 - 1 - q keeps
    that inside int64; every value read for a pivot or a multiplier has
    been reduced first. With the prime count fixed before any elimination
    so that their product M satisfies M**2 > 4 * H (see `leading_minors`),
    the residues then determine every leading minor exactly.
    """
    import numpy as np

    count, n = a.shape[:2]
    qs = np.array(primes, dtype=np.int64)
    q2 = qs[:, None]
    ks = np.arange(count)
    cols = np.zeros((count, n), dtype=np.int64)  # pivot column of each row
    pivs = np.zeros((count, n), dtype=np.int64)  # its pivot, 0 for none
    buf = np.empty(a.size, dtype=np.int64)
    pending = 0  # unreduced updates in the rows below
    for i in range(n):
        row = a[:, i, :]
        row %= q2
        j = (row != 0).argmax(axis=1)
        piv = row[ks, j]  # 0 for a prime where the row has no pivot
        cols[:, i] = j
        pivs[:, i] = piv
        has = piv != 0
        if i + 1 == n or not has.any():
            continue
        if pending == _DELAY:
            a[:, i + 1:] %= q2[:, None]
            pending = 0
        inv = np.array([pow(v, -1, q) if v else 0 for v, q in zip(piv.tolist(), primes)],
                       dtype=np.int64)
        lo = int(j[has].min())
        f = a[ks, i + 1:, j] % q2 * inv[:, None] % q2
        rest = a[:, i + 1:, lo:]
        update = buf[:rest.size].reshape(rest.shape)
        np.multiply(f[:, :, None], row[:, None, lo:], out=update)
        rest -= update
        pending += 1
    out = np.empty((count, n), dtype=np.int64)
    det = np.ones(count, dtype=np.int64)
    for i in range(n):
        det = det * pivs[:, i] % qs
        out[:, i] = det
    # each pair of rows whose pivot columns are out of order is one
    # inversion; the first n rows count those among themselves
    inversions = np.triu(cols[:, :, None] > cols[:, None, :], 1).sum(axis=1).cumsum(axis=1)
    out = np.where(inversions & 1, (q2 - out) % q2, out)
    # a pivot right of column n - 1 among the first n rows makes det A_n 0
    out[np.maximum.accumulate(cols, axis=1) >= np.arange(1, n + 1)] = 0
    return out


def _crt_primes(norms2: list[int]) -> list[int]:
    """The largest primes below 2**29, as few as make their product M
    satisfy M**2 > 4 * H, with H the product of max(1, v) over the
    squared row norms v: H bounds the squared determinant of the matrix
    and of each of its leading blocks (Hadamard)."""
    h = 1
    for v in norms2:
        h *= max(1, v)
    primes, m = [], 1
    while m * m <= 4 * h:
        primes.append(_crt_prime(len(primes)))
        m *= primes[-1]
    return primes


def _crt_lift(residues, primes: list[int]) -> list[int]:
    """Chinese remaindering, one value per column: entry k of the result
    is the integer nearest zero congruent to residues[i][k] modulo
    primes[i] for every i. Exact when the product of the primes is more
    than twice its absolute value."""
    import numpy as np

    m = prod(primes)
    basis = np.array([m // q * pow(m // q, -1, q) for q in primes], dtype=object)
    x = basis.dot(np.array(residues, dtype=object)) % m
    return [v if 2 * v < m else v - m for v in x.tolist()]


# Primes below _Q_TOP, largest first, and the trial divisors that find
# them; both are built on the first fallback and grown on demand.
_CRT_PRIMES: list[int] = []
_SMALL_PRIMES: "np.ndarray | None" = None


def _crt_prime(i: int) -> int:
    """The i-th largest prime below 2**29 (i = 0 gives 2**29 - 3), found
    by trial division with every prime up to sqrt(2**29)."""
    global _SMALL_PRIMES
    if _SMALL_PRIMES is None:
        import numpy as np

        root = isqrt(_Q_TOP)
        sieve = np.ones(root + 1, dtype=bool)
        sieve[:2] = False
        for f in range(2, isqrt(root) + 1):
            if sieve[f]:
                sieve[f * f::f] = False
        _SMALL_PRIMES = np.flatnonzero(sieve)
    q = _CRT_PRIMES[-1] if _CRT_PRIMES else _Q_TOP + 1
    while len(_CRT_PRIMES) <= i:
        q -= 2
        if (q % _SMALL_PRIMES).all():
            _CRT_PRIMES.append(q)
    return _CRT_PRIMES[i]


def _eliminate_bigint(rows: list[list[int]]) -> int:
    """Fraction-free elimination over unbounded ints. Mutates rows.

    Not on the production path: it is the independent reference the
    tests compare the int64 and CRT paths against."""
    n = len(rows)
    sign = 1
    prev = 1
    for k in range(n - 1):
        pivot_row = next((r for r in range(k, n) if rows[r][k]), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            sign = -sign
        piv = rows[k][k]
        top = rows[k]
        for i in range(k + 1, n):
            cur = rows[i]
            fac = cur[k]
            for j in range(k + 1, n):
                q, rem = divmod(piv * cur[j] - fac * top[j], prev)
                if rem:
                    raise ArithmeticError("inexact interior division; elimination invariant broken")
                cur[j] = q
        prev = piv
    return sign * rows[n - 1][n - 1]


def determinant_oracle(matrix) -> int:
    """Determinant by direct cofactor expansion, restricted to order <= 7.

    Factorially slow on purpose: this is an independent cross-check for
    the elimination engine, not a production path.
    """
    rows = _to_rows(matrix)
    if len(rows) > _ORACLE_MAX_ORDER:
        raise ValueError(f"oracle accepts orders up to {_ORACLE_MAX_ORDER}, got {len(rows)}")
    return _expand(rows)


def _expand(rows: list[list[int]]) -> int:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    sign = 1
    for j in range(n):
        head = rows[0][j]
        if head:
            minor = [row[:j] + row[j + 1:] for row in rows[1:]]
            total += sign * head * _expand(minor)
        sign = -sign
    return total
