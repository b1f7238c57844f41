"""Residue-symbol matrix families.

Four entry formulas share one shape: evaluate an integer expression in
the 1-based row index i and column index j, reduce it mod p, and take the
cubic residue symbol. Three of the formulas depend on i and j only
through j - i and the fourth only through i + j, so an n x n matrix needs
just O(n) symbol evaluations.
"""

from dataclasses import dataclass
from typing import Union

import numpy as np

from .residues import Prime, as_prime, cubic_residue_symbol

__all__ = [
    "DiffPlusC",
    "SumPlusC",
    "CubeDiffPlusOne",
    "EvenPowerPlusC",
    "Formula",
    "ResidueMatrix",
    "entry_value",
    "build_matrix",
    "matrices_equal",
]


@dataclass(frozen=True)
class DiffPlusC:
    """Entry argument j - i + c."""

    c: int

    def argument_mod(self, i: int, j: int, p: int) -> int:
        return (j - i + self.c) % p


@dataclass(frozen=True)
class SumPlusC:
    """Entry argument j + i + c."""

    c: int

    def argument_mod(self, i: int, j: int, p: int) -> int:
        return (j + i + self.c) % p


@dataclass(frozen=True)
class CubeDiffPlusOne:
    """Entry argument (j - i)**3 + 1."""

    def argument_mod(self, i: int, j: int, p: int) -> int:
        return (pow(j - i, 3, p) + 1) % p


@dataclass(frozen=True)
class EvenPowerPlusC:
    """Entry argument (j - i)**(2t) + c.

    The power is evaluated by modular exponentiation, so t may be large
    without the argument ever materializing as a huge integer.
    """

    t: int
    c: int

    def __post_init__(self) -> None:
        if self.t < 1:
            raise ValueError(f"t must be a positive integer, got {self.t}")

    def argument_mod(self, i: int, j: int, p: int) -> int:
        return (pow(j - i, 2 * self.t, p) + self.c) % p


Formula = Union[DiffPlusC, SumPlusC, CubeDiffPlusOne, EvenPowerPlusC]


@dataclass(frozen=True, eq=False)
class ResidueMatrix:
    """An immutable n x n grid of symbol values plus its provenance.

    The entries are stored as a read-only copy with an integer dtype and
    values in {-1, 0, 1}; the determinant engine relies on all three.
    """

    order: int
    entries: np.ndarray
    prime: Prime
    formula: Formula

    def __post_init__(self) -> None:
        # A read-only copy: the caller's array cannot change it later.
        e = np.array(self.entries)
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)
        if not np.issubdtype(e.dtype, np.integer):
            raise TypeError(f"entries must have an integer dtype, got {e.dtype}")
        if e.shape != (self.order, self.order):
            raise ValueError(f"entries must be {self.order} x {self.order}, got shape {e.shape}")
        if e.size and (np.abs(e) > 1).any():
            raise ValueError("entries must lie in {-1, 0, 1}")

    def entry(self, i: int, j: int) -> int:
        """1-based access, matching the formula indexing."""
        if not (1 <= i <= self.order and 1 <= j <= self.order):
            raise IndexError(f"indices must be in [1, {self.order}], got ({i}, {j})")
        return int(self.entries[i - 1, j - 1])

    def row(self, i: int) -> list[int]:
        """1-based row as plain ints."""
        if not 1 <= i <= self.order:
            raise IndexError(f"row index must be in [1, {self.order}], got {i}")
        return [int(v) for v in self.entries[i - 1]]

    def rows(self) -> list[list[int]]:
        """All entries as nested lists."""
        return self.entries.tolist()


def entry_value(formula: Formula, p: "Prime | int", i: int, j: int) -> int:
    """Symbol value at 1-based row i, column j."""
    if i < 1 or j < 1:
        raise ValueError(f"row and column indices are 1-based, got ({i}, {j})")
    p = as_prime(p)
    return cubic_residue_symbol(formula.argument_mod(i, j, p.value), p)


def build_matrix(formula: Formula, p: "Prime | int", n: int) -> ResidueMatrix:
    """Construct the order-n matrix of symbol values for this formula.

    A sum formula varies only with i + j and the rest only with j - i,
    so one line of O(n) symbol values is computed and broadcast into the
    grid by indexing.
    """
    p = as_prime(p)
    if n < 1:
        raise ValueError(f"matrix order must be >= 1, got {n}")
    pv = p.value
    idx = np.arange(n)
    if isinstance(formula, SumPlusC):
        # line[k] is the value for i + j == k + 2
        line = [
            cubic_residue_symbol(formula.argument_mod(1, s - 1, pv), p)
            for s in range(2, 2 * n + 1)
        ]
        key = idx[:, None] + idx[None, :]
    else:
        # line[k] is the value for j - i == k - (n - 1)
        line = [
            cubic_residue_symbol(
                formula.argument_mod(1, 1 + d, pv) if d >= 0 else formula.argument_mod(1 - d, 1, pv),
                p,
            )
            for d in range(1 - n, n)
        ]
        key = idx[None, :] - idx[:, None] + (n - 1)
    return ResidueMatrix(n, np.asarray(line, dtype=np.int8)[key], p, formula)


def matrices_equal(a: ResidueMatrix, b: ResidueMatrix) -> bool:
    """Entrywise equality of two matrices; provenance is ignored."""
    return a.order == b.order and np.array_equal(a.entries, b.entries)
