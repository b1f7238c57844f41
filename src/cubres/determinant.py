"""Exact integer determinants.

A ResidueMatrix is its formula's grid, so `determinant` and
`leading_minors` read its minors off the formula's number wall
(`tables.formula_minors`) and run no elimination.

Every other input runs one fraction-free (Bareiss) elimination over
Python ints, `_eliminate_bigint`, which gives every leading minor at
once; `leading_minors` returns them all and `determinant` the last.
Every intermediate value is a minor of the input, and every division is
checked to be exact. Nothing is sampled, and no result is kept between
calls.

`determinant` first tries a Bareiss elimination with row swaps,
vectorized over int64, when every entry is at most 2**30 in absolute
value. That path bails out before any step whose products could
overflow, and a bail hands the rows to `_eliminate_bigint`. A
cofactor-expansion oracle for tiny orders shares no code with either
elimination.

Importing the module does not import numpy, `cubres.matrices` or
`cubres.tables`; each function that uses one imports it when called.
Only `determinant`'s int64 path imports numpy. Input of any kind is read
row by row, each entry by `residues.as_int`; an input with an `ndim`
other than 2, such as a 3-d numpy array, raises ValueError.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = ["determinant", "determinant_oracle", "leading_minors"]

# Products of two values at or below this bound cannot overflow int64,
# even after the subtraction in the elimination update.
_I64_SAFE = 1 << 30

_ORACLE_MAX_ORDER = 7


def _to_rows(matrix) -> list[list[int]]:
    """A fresh square list of Python ints, each entry read by `as_int`: a
    numpy array's entries are numpy scalars, so a bool or float array fails."""
    from .matrices import ResidueMatrix
    from .residues import as_int

    if isinstance(matrix, ResidueMatrix):
        return matrix.rows()
    ndim = getattr(matrix, "ndim", 2)
    if ndim != 2:
        raise ValueError(f"matrix must be 2-dimensional, got ndim={ndim}")
    rows = [[as_int(v, "entry") for v in row] for row in matrix]
    n = len(rows)
    if n == 0:
        raise ValueError("matrix must have order >= 1")
    for row in rows:
        if len(row) != n:
            raise ValueError(f"matrix must be square, got a row of length {len(row)} in order {n}")
    return rows


def determinant(matrix) -> int:
    """Exact determinant of a square integer matrix.

    Accepts a ResidueMatrix, a numpy integer array, or nested sequences
    of ints; a ResidueMatrix's is the last of its `leading_minors`. O(n^3)
    word operations on the int64 path; otherwise O(n^3) big-int
    operations on entries that are minors of the input.
    """
    from .matrices import ResidueMatrix

    if isinstance(matrix, ResidueMatrix):
        return leading_minors(matrix)[-1]
    rows = _to_rows(matrix)
    if max(abs(v) for row in rows for v in row) <= _I64_SAFE:
        import numpy as np

        result = _eliminate_int64(np.array(rows, dtype=np.int64))
        if result is not None:
            return result
    return _eliminate_bigint(rows)[-1]


def _eliminate_int64(a: np.ndarray) -> "int | None":
    """Vectorized fraction-free elimination. Mutates a. Bails out
    (returns None) before any step whose products could leave int64
    range; the caller then runs `_eliminate_bigint`."""
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

    Accepts what `determinant` accepts. A ResidueMatrix's minors are read
    off its formula's number wall. Any other input runs one fraction-free
    elimination over Python ints (`_eliminate_bigint`): O(N^3) big-int
    operations, each on a minor of A, with every division checked to be
    exact.
    """
    from .matrices import ResidueMatrix
    from .tables import formula_minors

    if isinstance(matrix, ResidueMatrix):
        return formula_minors(matrix.formula, matrix.prime, matrix.order)
    return _eliminate_bigint(_to_rows(matrix))


def _eliminate_bigint(rows: list[list[int]]) -> list[int]:
    """Every leading minor of the square matrix rows, by fraction-free
    elimination over Python ints. Mutates rows.

    Rows are taken top to bottom with no swaps. Row k, once the rows
    above have been applied, pivots on its leftmost nonzero entry among
    the columns no earlier row pivoted on, and each row below becomes
    (pivot * row - f * pivot row) / previous pivot, f being its entry in
    the pivot column, which is then dropped. That is Bareiss elimination
    of A with its columns taken in pivot order, so the k-th pivot is the
    minor of the first k rows on the first k pivot columns, in that
    order, and every division is exact (Bareiss 1968). It is checked all
    the same: Python's floor division leaves each remainder with the sign
    of the divisor, so the remainders of one row sum to zero only when
    every one is zero.

    Row k's reduced form is a nonzero multiple of row k plus earlier
    rows, zero left of its pivot column and on every earlier pivot
    column. So when the first k pivot columns are exactly {1..k}, det A_k
    is the k-th pivot, signed by the inversions of those columns;
    otherwise one of the first k reduced rows is zero on the first k
    columns and det A_k = 0. A row with no pivot is zero: the first k
    rows are dependent, and every minor from order k on is 0.
    """
    n = len(rows)
    minors = [0] * n
    free = list(range(n))  # the columns no row has pivoted on, in order
    pivoted: list[int] = []
    prev, inversions, reach = 1, 0, 0
    for k in range(n):
        top = rows[k]
        pos = next((j for j, v in enumerate(top) if v), None)
        if pos is None:
            return minors
        col = free.pop(pos)
        inversions += sum(c > col for c in pivoted)
        pivoted.append(col)
        reach = max(reach, col)
        piv = top.pop(pos)
        if reach == k:
            minors[k] = -piv if inversions & 1 else piv
        total = sum(top)
        for i in range(k + 1, n):
            row = rows[i]
            f = row.pop(pos)
            if not f and piv == prev:
                continue  # the update leaves the row as it is
            new = [(piv * x - f * y) // prev for x, y in zip(row, top)]
            if piv * sum(row) - f * total != prev * sum(new):
                raise ArithmeticError("inexact interior division; elimination invariant broken")
            rows[i] = new
        prev = piv
    return minors


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
