"""Formula variants and matrix construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubres import (
    CubeDiffPlusOne,
    DiffPlusC,
    EvenPowerPlusC,
    Prime,
    ResidueMatrix,
    SumPlusC,
    as_prime,
    build_matrix,
    cubic_residue_symbol,
    entry_value,
    family_formula,
    matrices_equal,
    odd_primes_up_to,
)
from cubres import matrices
from cubres.matrices import sequence

# p = 7, shift 0, order 3
EXAMPLE_3X3 = [
    [0, 1, -1],
    [1, 0, 1],
    [-1, 1, 0],
]

# p = 11, shift 4, order 10: zeros where j - i is 7 or -4
EXAMPLE_10X10 = [
    [1, 1, 1, 1, 1, 1, 1, 0, 1, 1],
    [1, 1, 1, 1, 1, 1, 1, 1, 0, 1],
    [1, 1, 1, 1, 1, 1, 1, 1, 1, 0],
    [1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [0, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [1, 0, 1, 1, 1, 1, 1, 1, 1, 1],
    [1, 1, 0, 1, 1, 1, 1, 1, 1, 1],
    [1, 1, 1, 0, 1, 1, 1, 1, 1, 1],
    [1, 1, 1, 1, 0, 1, 1, 1, 1, 1],
    [1, 1, 1, 1, 1, 0, 1, 1, 1, 1],
]


def test_entry_value_examples():
    assert entry_value(DiffPlusC(0), 7, 1, 2) == 1
    assert entry_value(DiffPlusC(0), 7, 1, 3) == -1
    assert entry_value(DiffPlusC(0), 7, 2, 2) == 0
    assert entry_value(DiffPlusC(4), 11, 1, 8) == 0  # 8 - 1 + 4 = 11
    assert entry_value(SumPlusC(0), 7, 3, 4) == entry_value(DiffPlusC(0), 7, 1, 8)


def test_entry_indices_are_one_based():
    with pytest.raises(ValueError):
        entry_value(DiffPlusC(0), 7, 0, 1)
    with pytest.raises(ValueError):
        entry_value(DiffPlusC(0), 7, 1, 0)


def test_worked_example_3x3():
    m = build_matrix(DiffPlusC(0), 7, 3)
    assert m.rows() == EXAMPLE_3X3


def test_worked_example_10x10():
    m = build_matrix(DiffPlusC(4), 11, 10)
    assert m.rows() == EXAMPLE_10X10


def test_shift_zero_is_hollow_ones_below_p():
    for p in (5, 11, 17):
        for n in (1, 3, p):
            m = build_matrix(DiffPlusC(0), p, n)
            a = np.asarray(m.rows())
            assert (np.diag(a) == 0).all()
            off = a + np.eye(n, dtype=int)
            assert (off == 1).all()


def test_build_matches_entry_value_everywhere():
    formulas = [DiffPlusC(0), DiffPlusC(4), DiffPlusC(-3), SumPlusC(0), SumPlusC(5),
                CubeDiffPlusOne(), EvenPowerPlusC(1, 3), EvenPowerPlusC(2, 4)]
    for p in (7, 11):
        for formula in formulas:
            m = build_matrix(formula, p, 6)
            for i in range(1, 7):
                for j in range(1, 7):
                    assert m.entry(i, j) == entry_value(formula, p, i, j), (formula, p, i, j)


def test_difference_formulas_are_diagonal_constant():
    for formula in (DiffPlusC(3), CubeDiffPlusOne(), EvenPowerPlusC(2, 1)):
        m = build_matrix(formula, 11, 8)
        for i in range(1, 8):
            for j in range(1, 8):
                assert m.entry(i, j) == m.entry(i + 1, j + 1)


def test_sum_formula_is_antidiagonal_constant():
    m = build_matrix(SumPlusC(2), 13, 8)
    for i in range(1, 8):
        for j in range(2, 9):
            assert m.entry(i, j) == m.entry(i + 1, j - 1)


def test_rows_repeat_with_period_p():
    p = 5
    m = build_matrix(DiffPlusC(2), p, 15)
    for i in range(1, 15 - p + 1):
        assert m.row(i) == m.row(i + p)


def test_shift_periodicity():
    for c in range(-3, 15):
        a = build_matrix(DiffPlusC(c), 11, 7)
        b = build_matrix(DiffPlusC(c + 11), 11, 7)
        assert matrices_equal(a, b)


def test_cube_shift_coincidence_exhaustive():
    # the shift-1 matrix equals the cubed-difference matrix for 3k+2 primes
    for p in odd_primes_up_to(100):
        if p % 3 != 2:
            continue
        for n in range(2, p - 1):
            a = build_matrix(DiffPlusC(1), p, n)
            b = build_matrix(CubeDiffPlusOne(), p, n)
            assert matrices_equal(a, b), (p, n)


def test_even_power_matches_plain_exponentiation():
    for p in (7, 11, 13, 17):
        for t in (1, 2, 3):
            for c in (0, 1, 4):
                f = EvenPowerPlusC(t, c)
                seq = sequence(f, p, -4, 4)
                for i in range(1, 6):
                    for j in range(1, 6):
                        plain = ((j - i) ** (2 * t) + c) % p
                        assert seq[j - i + 4] == cubic_residue_symbol(plain, p)


def test_even_power_huge_t_is_cheap():
    f = EvenPowerPlusC(10**9, 3)
    assert sequence(f, 17, 1, 1) == [cubic_residue_symbol((pow(1, 2 * 10**9, 17) + 3) % 17, 17)]
    m = build_matrix(f, 17, 4)
    assert m.order == 4


def test_even_power_rejects_nonpositive_t():
    with pytest.raises(ValueError):
        EvenPowerPlusC(0, 1)
    with pytest.raises(ValueError):
        EvenPowerPlusC(-2, 1)


def test_all_ones_collapse_example():
    # p = 17 is 12k+5; c = 3 is an odd power of the root 3
    m = build_matrix(EvenPowerPlusC(1, 3), 17, 5)
    assert m.entries == ((1,) * 5,) * 5


def test_matrices_equal_ignores_provenance():
    a = build_matrix(DiffPlusC(1), 11, 5)
    b = build_matrix(CubeDiffPlusOne(), 11, 5)
    assert a.formula != b.formula
    assert matrices_equal(a, b)
    assert not matrices_equal(a, build_matrix(DiffPlusC(0), 11, 5))
    assert not matrices_equal(a, build_matrix(DiffPlusC(1), 11, 6))


def test_matrix_accessors_and_immutability():
    m = build_matrix(DiffPlusC(0), 7, 3)
    assert m.order == 3
    assert m.entry(1, 3) == -1
    assert m.row(1) == [0, 1, -1]
    with pytest.raises(IndexError):
        m.entry(0, 1)
    with pytest.raises(IndexError):
        m.entry(1, 4)
    for i in (0, 4):
        with pytest.raises(IndexError, match=rf"^row index must be in \[1, 3\], got {i}$"):
            m.row(i)
    # the entries are a tuple of tuples, so a write raises TypeError
    with pytest.raises(TypeError):
        m.entries[0][0] = 1
    assert m.prime == Prime(7)


def test_residue_matrix_reads_its_order_and_prime():
    # the order is read as build_matrix reads it
    with pytest.raises(TypeError, match="^n must be an integer, got float$"):
        ResidueMatrix(DiffPlusC(0), Prime(7), 2.0)
    assert ResidueMatrix(DiffPlusC(0), Prime(7), np.int64(2)).order == 2
    # a plain int prime is stored as the Prime it names
    lone = ResidueMatrix(DiffPlusC(0), 7, 1)
    assert type(lone.prime) is Prime and lone.prime == Prime(7)
    assert lone.entries == ((0,),) and type(lone.order) is int


def test_residue_matrix_takes_no_entries():
    # the grid is computed, never passed: the old (order, entries, prime,
    # formula) call has one argument too many
    rows = build_matrix(DiffPlusC(0), 5, 2).rows()
    with pytest.raises(TypeError, match="takes 4 positional arguments but 5 were given"):
        ResidueMatrix(2, rows, Prime(5), DiffPlusC(0))


def test_family_formula_covers_cube_diff():
    # the one family that reads neither the shift nor t
    assert family_formula("cube-diff", 5) == family_formula("cube-diff", 0, t=3) == CubeDiffPlusOne()


@pytest.mark.parametrize("make, message", [
    (lambda: DiffPlusC(0.5), "c must be an integer, got float"),
    (lambda: SumPlusC("1"), "c must be an integer, got str"),
    (lambda: EvenPowerPlusC(1.5, 1), "t must be an integer, got float"),
    (lambda: EvenPowerPlusC(1, 0.5), "c must be an integer, got float"),
], ids=["diff", "sum", "even-power-t", "even-power-c"])
def test_formulas_reject_non_integer_arguments(make, message):
    # a fractional shift once built an all-ones DiffPlusC(0.5) matrix at p = 11
    with pytest.raises(TypeError, match=f"^{message}$"):
        make()
    assert DiffPlusC(np.int64(3)) == DiffPlusC(3) and type(DiffPlusC(np.int64(3)).c) is int


def test_build_rejects_bad_order():
    with pytest.raises(ValueError):
        build_matrix(DiffPlusC(0), 7, 0)
    with pytest.raises(ValueError):
        build_matrix(DiffPlusC(0), 7, -2)
    # the constructor applies the same rule, as determinant([]) does
    with pytest.raises(ValueError, match="^matrix order must be >= 1, got 0$"):
        ResidueMatrix(DiffPlusC(0), as_prime(7), 0)


@pytest.mark.parametrize("n", [2.5, 3.0, "3", None])
def test_build_reads_the_order_as_an_integer(n):
    # 2.5 once raised a bare "'float' object cannot be interpreted as an integer"
    with pytest.raises(TypeError, match=f"^n must be an integer, got {type(n).__name__}$"):
        build_matrix(DiffPlusC(0), 7, n)
    m = build_matrix(DiffPlusC(0), 7, np.int64(3))
    assert m.order == 3 and type(m.order) is int
    assert m.entries == build_matrix(DiffPlusC(0), 7, 3).entries


@pytest.mark.parametrize("i, j, name", [(2.0, 1, "i"), (1, 1.5, "j"), ("1", 2, "i"), (1, None, "j")])
def test_entry_value_reads_indices_as_integers(i, j, name):
    with pytest.raises(TypeError, match=f"^{name} must be an integer"):
        entry_value(DiffPlusC(0), 7, i, j)
    assert entry_value(DiffPlusC(0), 7, np.int64(1), np.int64(3)) == cubic_residue_symbol(2, 7)


@pytest.mark.parametrize("formula, p, n", [
    (SumPlusC(0), 199, 199), (DiffPlusC(-4), 11, 6), (EvenPowerPlusC(2, 3), 19, 1),
])
def test_build_evaluates_its_grid_once(monkeypatch, formula, p, n):
    # build_matrix is the constructor, which reads 2n - 1 sequence terms once
    calls = []

    def spy(f, q, lo, hi):
        calls.append(hi - lo + 1)
        return real(f, q, lo, hi)

    real = matrices.sequence
    monkeypatch.setattr(matrices, "sequence", spy)
    m = build_matrix(formula, p, n)
    assert calls == [2 * n - 1]
    assert (m.order, m.prime, m.formula) == (n, as_prime(p), formula)
    assert all(type(v) is int for row in m.entries for v in row)
    again = ResidueMatrix(formula, p, n)
    assert calls == [2 * n - 1] * 2 and matrices_equal(again, m) and again is not m


def test_negative_and_large_shifts():
    a = build_matrix(DiffPlusC(-1), 11, 6)
    b = build_matrix(DiffPlusC(10), 11, 6)
    assert matrices_equal(a, b)


# each family's entry argument as a plain integer expression in (i, j)
_PLAIN_FAMILIES = (
    (lambda c, t: DiffPlusC(c), lambda i, j, c, t: j - i + c),
    (lambda c, t: SumPlusC(c), lambda i, j, c, t: j + i + c),
    (lambda c, t: CubeDiffPlusOne(), lambda i, j, c, t: (j - i) ** 3 + 1),
    (lambda c, t: EvenPowerPlusC(t, c), lambda i, j, c, t: (j - i) ** (2 * t) + c),
)


def _draw_shift(data, p):
    # shifts within two periods of 0 and far from it
    return data.draw(st.integers(-2 * p, 2 * p) | st.integers(-(10**12), 10**12), label="c")


def _plain_symbols(plain, c, t, p, n):
    # the symbol by cube enumeration, sharing no code with the package
    cubes = {y**3 % p for y in range(1, p)}
    symbol = {r: 0 if r == 0 else 1 if r in cubes else -1 for r in range(p)}
    return [[symbol[plain(i, j, c, t) % p] for j in range(1, n + 1)] for i in range(1, n + 1)]


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    family=st.sampled_from(_PLAIN_FAMILIES),
    p=st.sampled_from(odd_primes_up_to(199)),
    t=st.integers(1, 6),
    orders=st.lists(st.integers(1, 30), min_size=2, max_size=2).map(sorted),
)
def test_build_matches_plain_expression_and_leading_blocks(data, family, p, t, orders):
    # the rows of the larger matrix are the paper's expression, its entries
    # are plain ints, and its leading block is the smaller matrix
    make, plain = family
    c = _draw_shift(data, p)
    n, big = orders
    formula = make(c, t)
    large = build_matrix(formula, p, big)
    assert large.rows() == _plain_symbols(plain, c, t, p, big)
    assert all(type(v) is int for row in large.entries for v in row)
    assert tuple(row[:n] for row in large.entries[:n]) == build_matrix(formula, p, n).entries


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    family=st.sampled_from(_PLAIN_FAMILIES),
    p=st.sampled_from(odd_primes_up_to(199)),
    n=st.integers(1, 12),
    t=st.integers(1, 5),
)
def test_every_entry_is_the_symbol_of_the_papers_expression(data, family, p, n, t):
    # each entry read one at a time through entry(i, j)
    make, plain = family
    c = _draw_shift(data, p)
    m = build_matrix(make(c, t), p, n)
    want = _plain_symbols(plain, c, t, p, n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assert m.entry(i, j) == want[i - 1][j - 1], (i, j)
