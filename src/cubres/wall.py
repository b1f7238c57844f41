"""The number wall of an integer sequence, over Python ints.

The number wall of s is W(n, c) = det(s(c + j - i)) for i, j = 1..n, the
order-n Toeplitz determinant centred on s(c), with W(0, c) = 1 and
W(-1, c) = 0 (Conway and Guy, The Book of Numbers, 1996, pp. 85-89). By
Desnanot-Jacobi (Dodgson condensation) its rows obey

    W(n, c) * W(n - 2, c) = W(n - 1, c)**2 - W(n - 1, c - 1) * W(n - 1, c + 1),

so each cell costs O(1) exact integer steps, and every division is
checked. The zeros of a wall form g x g square windows with a nonzero
inner frame. Row n is computed only outside the spans of the windows
that hold row n - 2: every divisor under such a span must be zero, and
every divisor outside the spans nonzero. Under a span the cell is either
zero (inside the window, left as the row starts) or on one of the two
rows below it, solved when the wall reaches them from frame cells read
off the wall, by Lunnon's frame theorem (W. F. Lunnon, "The number-wall
algorithm: an LFSR cookbook", J. Integer Sequences 4, 2001). Index the
inner frame's top side A and left side B from its top-left corner, its
right side C and bottom side D from its bottom-right corner, and call the
outer frame next to them E, F, G and H. Then A, B, C and D are geometric
with ratios P, Q, R and S, where PS/QR = (-1)**g, and for 1 <= k <= g

    Q*E_k/A_k + (-1)**k * P*F_k/B_k = R*H_k/D_k + (-1)**k * S*G_k/C_k.

A finite sequence gives a triangle: row n holds the cells whose
determinant reads only known terms, at array indices n + 1 .. size + 2 - n.
A window is its top run a..b in row t, g = b - a + 1 wide; a bottom row
is solved only where the span a..b, clipped to the row, holds a cell.
1. A run at row t's edge has an empty span on both bottom rows: if
   a = t + 1, b = t + g is left of row t + g's first index t + g + 1, and
   if b = size + 2 - t, a = size + 3 - t - g is right of its last. Row
   t + g + 1 is narrower still, so such a window is never solved.
2. Any other window's solve reads only cells of the triangle: its corners
   lie on rows t - 1 and t at columns a - 1..b + 1, and on row H,
   j >= t + g + 2 gives k = b + 1 - j <= a - t - 2, which keeps F_k at
   column a - 2 inside, and j <= size + 1 - t - g keeps G_k at b + 2.

A new window's top is a run of zeros under nonzero cells, so it lies in
the cells condensation computed or on an outer bottom row (H) just
solved, and the run scan looks only there. A top run that spans the
whole row n holds the rows below: row n + k is 2k cells narrower, so it
lies in the run's square. Row n + 1 is condensed to zeros, as row n - 1
has none, and each later row stays zero as it starts.

The cost model: each condensed cell costs one divmod, each frame-solved
cell one exact division (on D as on H: a D solve starts at the first cell
it writes), and a window's interior nothing.

`number_wall` returns a `Wall`, which keeps the triangle as one list per
row: readers take a row as one list slice, or a column, with one bounds
check per read rather than one per cell.
"""

from typing import Sequence

from .residues import as_int

__all__ = ["Wall", "number_wall"]


def _broken(what: str) -> ArithmeticError:
    return ArithmeticError(f"{what}; number-wall invariant broken")


def _exact(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise _broken("inexact division")
    return q


class Wall:
    """The triangle of a number wall, kept as one list per row.

    wall(n, c) is the cell W(n, c), wall.row(n, c_lo, c_hi) the list of
    W(n, c) for c_lo <= c <= c_hi, and wall.column(c, n_lo, n_hi) the list
    of W(n, c) for n_lo <= n <= n_hi. Each read takes its positions by
    `as_int` and checks the triangle's bounds once, not once per cell. A
    position outside the triangle, or a reversed range, raises IndexError.

    The counters record the engine's work, counted per row and per window:
    cells_computed, the cells of rows 2..depth whose divisor W(n - 2, c)
    is nonzero, which Dodgson condensation computed at one divmod each:
    those outside every window's span, so a window's interior costs
    nothing; windows_opened, the zero windows it registered; frame_solves,
    the bottom-row solves of Lunnon's frame theorem, one per window and
    bottom row whose span, clipped to the row, holds a cell, each costing
    one exact division per cell it writes.
    """

    __slots__ = ("first", "size", "depth", "cells_computed", "windows_opened", "frame_solves",
                 "_rows")

    def __init__(self, first: int, size: int, depth: int, rows: list) -> None:
        self.first, self.size, self.depth, self._rows = first, size, depth, rows
        self.cells_computed = self.windows_opened = self.frame_solves = 0

    def __call__(self, n: int, c: int) -> int:
        return self.row(n, c, c)[0]

    def row(self, n: int, c_lo: int, c_hi: int) -> list[int]:
        n, c_lo, c_hi = as_int(n, "n"), as_int(c_lo, "c"), as_int(c_hi, "c")
        lo, hi = c_lo - self.first + 2, c_hi - self.first + 2
        if -1 <= n <= self.depth and n + 1 <= lo <= hi <= self.size + 2 - n:
            return self._rows[n + 1][lo:hi + 1]
        raise IndexError(f"W({n}, {c_lo}..{c_hi}) is outside the wall of {self.size} terms "
                         f"from {self.first} down to row {self.depth}")

    def column(self, c: int, n_lo: int, n_hi: int) -> list[int]:
        c, n_lo, n_hi = as_int(c, "c"), as_int(n_lo, "n"), as_int(n_hi, "n")
        # rows narrow downward: the column's ends bound every cell between
        self.row(n_lo, c, c), self.row(n_hi, c, c)
        if n_hi < n_lo:
            raise IndexError(f"W({n_lo}..{n_hi}, {c}) is a reversed range")
        j = c - self.first + 2
        return [row[j] for row in self._rows[n_lo + 1:n_hi + 2]]


def number_wall(seq: Sequence[int], depth: int, *, first: int = 0) -> Wall:
    """The number wall of seq down to row depth.

    seq[i] is the term s(first + i). W(n, c) is defined for -1 <= n <= depth
    and c in [first + n - 1, first + len(seq) - n], the cells whose
    determinant reads only terms of seq; anything else raises IndexError.
    Row n is computed outside the spans of the windows that hold row
    n - 2; a nonzero divisor under a span, a zero divisor outside every
    span or an inexact division breaks an invariant and raises
    ArithmeticError. No frame solve is owed below a whole zero row: the row
    above it has no zero, so no other window's interior reaches it.
    """
    terms, depth = [as_int(v, "term") for v in seq], as_int(depth, "depth")
    first = as_int(first, "first")
    size = len(terms)
    if size < 1 or depth < 0:
        raise ValueError(f"need a nonempty sequence and depth >= 0, got {size} terms, depth {depth}")
    # rows[n + 1][c - first + 2] holds W(n, c); row n has cells at indices
    # n + 1 .. size + 2 - n, none past row (size + 1) // 2. Rows start
    # zero-filled, so a window's interior needs no write.
    depth = min(depth, (size + 1) // 2)
    width = size + 4
    rows = [[0] * width for _ in range(depth + 2)]
    rows[1][1:size + 3] = [1] * (size + 2)
    wall = Wall(first, size, depth, rows)
    if depth < 1:
        return wall
    rows[2][2:size + 2] = terms

    # windows as (t, a, b): first zero row, top run's array indices; in column order
    windows: list[tuple] = []
    _open_windows(rows, 1, [(2, size + 1)], windows)
    opened, solves, computed, n = len(windows), 0, 0, 1
    while n < depth:
        n += 1
        up2, up, row = rows[n - 1], rows[n], rows[n + 1]
        j_lo, j_hi = n + 1, size + 2 - n
        # the span of each window that holds row n - 2, clipped to the row:
        # its divisors are zero, and row n under it is window interior (left
        # zero) or a bottom row solved from the frame. Dodgson condensation
        # computes the stretches between the spans.
        stretches, outer, j = [], [], j_lo
        for t, a, b in windows:
            if t <= n - 2:  # the filter below keeps t + g + 1 > n, so n - 2 <= t + b - a always
                lo, hi = max(a, j_lo), min(b, j_hi)
                if lo > hi:
                    continue
                if any(up2[lo:hi + 1]):
                    raise _broken(f"nonzero divisors in row {n} under the window from row {t}")
                stretches.append((j, lo - 1))
                j = hi + 1
                if n - t > b - a:
                    inner = n - t == b - a + 1
                    _solve_frame(rows, n, inner, t, a, b, lo, hi)
                    solves += 1
                    if not inner:
                        outer.append((lo, hi))
        stretches.append((j, j_hi))
        try:
            for lo, hi in stretches:
                for j in range(lo, hi + 1):
                    x = up[j]
                    q, r = divmod(x * x - up[j - 1] * up[j + 1], up2[j])
                    if r:
                        raise _broken("inexact Dodgson division")
                    row[j] = q
                computed += hi - lo + 1
        except ZeroDivisionError:  # every divisor outside the spans must be nonzero
            raise _broken(f"zero divisors in row {n} outside every window") from None
        # keep the windows whose outer bottom row t + g + 1 is still to come
        windows = [w for w in windows if w[0] + (w[2] - w[1] + 1) + 1 > n]
        kept = len(windows)
        # a new window's top lies in a computed stretch or on a solved H row
        _open_windows(rows, n, sorted(stretches + outer), windows)
        if len(windows) > kept:
            opened += len(windows) - kept
            windows.sort(key=lambda w: w[1])
    wall.cells_computed, wall.windows_opened, wall.frame_solves = computed, opened, solves
    return wall


def _open_windows(rows: list, n: int, pieces: list, windows: list) -> None:
    """Register every window whose first zero row is n: a maximal run of
    zeros in row n under nonzero cells of row n - 1. Tops are looked for
    only in pieces, the ranges (lo, hi) of row n, in column order, that
    can hold one."""
    row, up = rows[n + 1], rows[n]
    tops = [j for lo, hi in pieces if 0 in row[lo:hi + 1]
            for j in range(lo, hi + 1) if not row[j] and up[j]]
    # a run starts where the previous top is not j - 1, and ends where the next is not j + 1
    starts = [j for i, j in enumerate(tops) if i == 0 or tops[i - 1] != j - 1]
    ends = [j for i, j in enumerate(tops, 1) if i == len(tops) or tops[i] != j + 1]
    windows.extend((n, a, b) for a, b in zip(starts, ends))


def _solve_frame(rows: list, n: int, inner: bool, t: int, a: int, b: int, lo: int, hi: int) -> None:
    """Write the cells lo..hi of row n, the window's inner bottom row D
    (inner) or outer bottom row H, reading the frame straight off rows;
    fact 2 of the module docstring keeps every read inside the triangle.

    A_k = W(t - 1, a - 1 + k), B_k = W(t - 1 + k, a - 1), C_k = W(t + g - k, b + 1)
    and D_k = W(t + g, b + 1 - k). The corners C_0 and D_{g+1} may lie
    outside the triangle, so D is solved as C_0 * S**k, with C_0 = C_g / R**g
    and R = A_{g+1} / C_g. The first cell written, hi, is D_{k0} with
    k0 = b + 1 - hi, one exact division of C_g**(g + 1) * S_num**k0 by
    A_{g+1}**g * S_den**k0; each cell left of it is S times its right
    neighbour, one exact division more. H reads D_k off the row above it,
    one exact division per cell. So a solve costs one exact division per
    cell it writes, and each division checks that its cell is exact."""
    g = b - a + 1
    e_row, a_row, row = rows[t - 1], rows[t], rows[n + 1]  # rows t - 2, t - 1 and n
    a0, a1, ag1 = a_row[a - 1], a_row[a], a_row[b + 1]
    b1, cg = rows[t + 1][a - 1], rows[t + 1][b + 1]
    # S = (-1)**g * Q * R / P with P = A_1/A_0, Q = B_1/A_0, R = A_{g+1}/C_g
    s_num, s_den = (-1) ** g * b1 * ag1, a1 * cg
    if inner:
        k0 = b + 1 - hi  # cell hi is D_{k0}
        row[hi] = d = _exact(cg ** (g + 1) * s_num ** k0, ag1 ** g * s_den ** k0)
        for j in range(hi - 1, lo - 1, -1):
            row[j] = d = _exact(d * s_num, s_den)
        return
    for j in range(lo, hi + 1):
        k = b + 1 - j
        # H_k = (D_k / R) * (Q E_k/A_k + (-1)**k * (P F_k/B_k - S G_k/C_k))
        ak, ek = a_row[a - 1 + k], e_row[a - 1 + k]
        b_side, c_side = rows[t + k], rows[t + g + 1 - k]  # rows t - 1 + k and t + g - k
        bk, fk = b_side[a - 1], b_side[a - 2]
        ck, gk = c_side[b + 1], c_side[b + 2]
        num = b1 * ek * bk * s_den * ck + (-1) ** k * ak * (
            a1 * fk * s_den * ck - s_num * gk * a0 * bk)
        row[j] = _exact(rows[n][j] * cg * num, ag1 * a0 * ak * bk * s_den * ck)
