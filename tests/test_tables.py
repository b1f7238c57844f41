"""Determinant table generation and classification."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubres
from cubres import (
    FAMILIES,
    CubeDiffPlusOne,
    DeterminantTable,
    DiffPlusC,
    EvenPowerPlusC,
    Prime,
    SignClass,
    SumPlusC,
    build_matrix,
    cubic_residue_symbol,
    determinant,
    family_formula,
    generate_table,
    leading_minors,
    legendre_symbol,
    odd_primes_up_to,
    sign_classify,
)
from cubres import tables
from cubres.tables import formula_minors, table_box
from cubres.wall import number_wall


def test_sign_classify():
    assert sign_classify(0) is SignClass.ZERO
    assert sign_classify(-7) is SignClass.NEGATIVE
    assert sign_classify(3) is SignClass.POSITIVE


def test_family_formula():
    assert family_formula("diff", 4) == DiffPlusC(4)
    assert family_formula("sum", -1) == SumPlusC(-1)
    assert family_formula("even-power", 3, t=2) == EvenPowerPlusC(2, 3)
    with pytest.raises(ValueError):
        family_formula("cube", 0)


def test_tables_take_no_cube_diff_family():
    with pytest.raises(ValueError, match=r"^unknown family 'cube-diff'; expected one of "
                                         r"\('diff', 'sum', 'even-power'\)$"):
        generate_table("cube-diff", 7)


def test_default_extents():
    t = generate_table("diff", 5)
    assert t.n_range == (1, 5)
    assert t.c_range == (0, 9)
    assert len(t.cells) == 50
    assert set(t.cells) == {(n, c) for n in range(1, 6) for c in range(10)}
    assert table_box(5) == ((1, 5), (0, 9))
    # an end given as None takes its default, the other is kept
    assert table_box(5, (3, None), (None, 4)) == ((3, 5), (0, 4))
    assert table_box(11, (None, 2), (-1, None)) == ((1, 2), (-1, 21))
    assert table_box(11, (None, None), (None, None)) == table_box(11)


def test_extended_extents():
    t = generate_table("diff", 5, extended=True)
    assert t.n_range == (1, 15)
    assert len(t.cells) == 150
    assert table_box(5, extended=True) == ((1, 15), (0, 9))
    assert table_box(7, c_range=(None, 3), extended=True) == ((1, 17), (0, 3))
    with pytest.raises(ValueError, match="either n_range or extended"):
        table_box(5, (1, None), extended=True)


@pytest.mark.parametrize("args, kwargs, error, message", [
    (("diff", 4, (1, 1), (0, 0)), {}, ValueError, "modulus must be prime, got 4"),
    (("diff", 3, (1, 1), (0, 0)), {}, ValueError,
     "tables need a prime of the form 3k+1 or 3k+2; 3 is neither"),
    (("nope", 5, (1, 1), (0, 0)), {}, ValueError,
     "unknown family 'nope'; expected one of ('diff', 'sum', 'even-power')"),
    (("cube-diff", 5, (1, 1), (0, 0)), {}, ValueError,
     "unknown family 'cube-diff'; expected one of ('diff', 'sum', 'even-power')"),
    (("diff", 5, (1, 1), (0, 0)), {"t": 1.5}, TypeError, "t must be an integer, got float"),
    (("diff", 5, (2, 1), (0, 0)), {}, ValueError, "order and shift ranges must be nonempty"),
    (("diff", 5, (1, 1), (0, -1)), {}, ValueError, "order and shift ranges must be nonempty"),
    (("diff", 5, (0, 1), (0, 0)), {}, ValueError, "orders start at 1, got n_range (0, 1)"),
    (("even-power", 5, (1, 1), (0, 0)), {"t": 0}, ValueError, "t must be a positive integer, got 0"),
    (("diff", 5, (1, 1)), {"extended": True}, ValueError, "pass either n_range or extended, not both"),
], ids=["p-4", "p-3", "family-nope", "family-cube-diff", "t-float", "orders-reversed",
        "shifts-reversed", "order-0", "even-power-t-0", "extended-and-n_range"])
def test_a_table_reads_its_inputs_as_a_matrix_does(args, kwargs, error, message):
    # the constructor once stored p = 4, family "nope", t = 1.5 and the box (2, 1) as given
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        DeterminantTable(*args, **kwargs)


def test_a_table_stores_what_it_reads():
    table = DeterminantTable("diff", np.int64(5), [1, np.int64(2)], (0, 0), t=True)
    assert table == DeterminantTable("diff", Prime(5), (1, 2), (0, 0), t=1)
    assert repr((table.prime, table.t, table.n_range)) == f"({Prime(5)!r}, 1, (1, 2))"
    assert generate_table("diff", 5, (1, 2), (0, 0)) == table
    assert table.column(0) == [0, -1]


def test_a_table_takes_no_cells():
    # a table holds only the cells it computed: neither the (prime, family, t,
    # n_range, c_range, cells) call nor a cells keyword is taken
    with pytest.raises(TypeError, match="positional arguments but 7 were given"):
        DeterminantTable(Prime(5), "diff", 1, (1, 2), (0, 0), {(1, 0): 0, (2, 0): -1})
    with pytest.raises(TypeError, match="unexpected keyword argument 'cells'"):
        DeterminantTable("diff", 5, (1, 2), (0, 0), cells={(1, 0): 0, (2, 0): -1})


@pytest.mark.parametrize("family, t", [("diff", 1), ("sum", 1), ("even-power", 2)])
@pytest.mark.parametrize("extended", [False, True])
def test_the_constructor_is_generate_table(family, t, extended):
    table = DeterminantTable(family, 11, c_range=(-3, 12), t=t, extended=extended)
    assert table == generate_table(family, 11, None, (-3, 12), t=t, extended=extended)
    assert table.n_range == (1, 21 if extended else 11) and table.c_range == (-3, 12)
    assert table.family == family and table.t == t


def test_shift_zero_column_alternates():
    t = generate_table("diff", 11)
    assert t.column(0) == [(-1) ** (n - 1) * (n - 1) for n in range(1, 12)]
    assert t.column(0) == [0, -1, 2, -3, 4, -5, 6, -7, 8, -9, 10]


def test_full_order_row_is_p_minus_1():
    t = generate_table("diff", 11)
    row = t.row(11)
    assert row[0] == 10  # c = 0 included: det = (-1)**10 * 10
    assert all(v == 10 for v in row[1:11])


def test_interior_rectangle_is_zero():
    t = generate_table("diff", 11)
    for n in range(2, 10):
        for c in range(2, 10):
            assert t.cell(n, c) == 0


def test_order_one_row():
    for p in (5, 11):
        t = generate_table("diff", p)
        for c in t.shifts():
            assert t.cell(1, c) == (0 if c % p == 0 else 1)


def test_extended_rows_past_p_are_zero():
    for p in (5, 11):
        t = generate_table("diff", p, extended=True)
        for n in range(p + 1, p + 11):
            assert all(v == 0 for v in t.row(n)), (p, n)


def test_horizontal_periodicity_two_periods():
    t = generate_table("diff", 11)
    for c in range(11):
        assert t.column(c) == t.column(c + 11)


def test_cells_match_direct_determinants():
    t = generate_table("diff", 7, n_range=(2, 4), c_range=(1, 3))
    for n in range(2, 5):
        for c in range(1, 4):
            assert t.cell(n, c) == determinant(build_matrix(DiffPlusC(c), 7, n).rows())


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("p", [19, 11])
def test_extended_table_matches_per_cell_determinants(family, p):
    # cell by cell is the oracle: one determinant per (n, c), no sharing
    # between the orders of a column
    t = 2 if family == "even-power" else 1
    table = generate_table(family, p, extended=True, t=t)
    assert len(table.cells) == (p + 10) * 2 * p
    for (n, c), v in table.cells.items():
        assert v == determinant(build_matrix(family_formula(family, c, t), p, n).rows()), (n, c)


def test_generation_is_deterministic():
    a = generate_table("diff", 11)
    b = generate_table("diff", 11)
    assert dict(a.cells) == dict(b.cells)
    assert a.n_range == b.n_range and a.c_range == b.c_range


def test_sum_family_generates_without_error():
    t = generate_table("sum", 7)
    assert t.family == "sum"
    assert len(t.cells) == 7 * 14
    assert all(isinstance(v, int) for v in t.cells.values())


def test_even_power_family_table():
    t = generate_table("even-power", 11, n_range=(2, 4), c_range=(0, 10), t=2)
    assert t.t == 2
    for c in range(11):
        for n in range(2, 5):
            assert t.cell(n, c) == determinant(build_matrix(EvenPowerPlusC(2, c), 11, n).rows())


def test_even_power_columns_share_one_wall_per_distinct_sequence(monkeypatch):
    # at p = 13, t = 1 the p columns of one period have distinct sequences,
    # and columns c and c + p share theirs: p walls, not one per column
    depths = []

    def spy(seq, depth, **kwargs):
        depths.append(depth)
        return real(seq, depth, **kwargs)

    real = tables.number_wall
    monkeypatch.setattr(tables, "number_wall", spy)
    t = generate_table("even-power", 13)
    assert depths == [13] * 13
    for c in range(13):
        assert t.column(c) == t.column(c + 13) == formula_minors(EvenPowerPlusC(1, c), 13, 13)


# the 3k+2 primes to 59 and the t <= 6 with gcd(2t, p - 1) = 2
_EVEN_POWER_PAIRS = [(p, t) for p in odd_primes_up_to(59) if p % 3 == 2
                     for t in range(1, 7) if math.gcd(2 * t, p - 1) == 2]


def _even_power_row_p(p, t):
    return generate_table("even-power", p, (p, p), (0, p - 1), t=t).row(p)


def _even_power_det(p, c):
    return p - 1 if c == 0 else p - 2 if legendre_symbol(-c, p) == 1 else 0


def test_even_power_row_p_in_closed_form():
    """Row p of the even-power table is p - 1 at c = 0, p - 2 where -c is
    a nonzero square, and 0 elsewhere, for 3k+2 primes with gcd(2t, p - 1) = 2.

    Cubing permutes the nonzero classes of a 3k+2 prime, so the symbol is
    [m != 0 mod p] and s(k) = 1 - [k**(2t) = -c]. As gcd(2t, p - 1) = 2,
    k -> k**(2t) maps the nonzero classes two to one onto the nonzero
    squares, so s is the all-ones sequence less one zero at k = 0 (c = 0),
    two at k = +-k0 (-c = k0**2), or none. s is p-periodic, so the order-p
    block is circulant, with eigenvalues the sums of s(k) * w**(jk) over
    k mod p, w = e^(2 pi i/p). J - I has the eigenvalue p - 1 once and
    -1 p - 1 times: det p - 1. With two zeros they are p - 2 at j = 0 and
    -(w**(j k0) + w**(-j k0)) elsewhere, whose product over j != 0 is the
    product of -w**(-a) times that of 1 + w**(2a) over a != 0, 1 * 1; so
    det p - 2. With none the block is all ones: det 0.
    """
    assert len(_EVEN_POWER_PAIRS) == 37
    for p, t in _EVEN_POWER_PAIRS:
        assert _even_power_row_p(p, t) == [_even_power_det(p, c) for c in range(p)], (p, t)


@pytest.mark.parametrize("where", ["first", "centre", "last"])
def test_even_power_row_p_sees_one_flipped_term(monkeypatch, where):
    # every wall reads one term turned from 0 to 1 or back: s(1 - p), s(0) or s(p - 1)
    def flipped(seq, depth, **kwargs):
        seq = list(seq)
        k = {"first": 0, "centre": len(seq) // 2, "last": -1}[where]
        seq[k] = 1 - seq[k]
        return real(seq, depth, **kwargs)

    real = tables.number_wall
    monkeypatch.setattr(tables, "number_wall", flipped)
    for p, t in _EVEN_POWER_PAIRS:
        if t == 1:
            assert _even_power_row_p(p, t) != [_even_power_det(p, c) for c in range(p)], (p, t)


_CUBIC_PRIMES = [p for p in odd_primes_up_to(199) if p % 3 == 1]


def _cubic_det(p):
    """-((p - 1)/3) * N**((p - 1)/3), N = (8pL - 12p + 1)/27, with L found by
    searching M for 4p = L**2 + 27 M**2 and taking the sign with L = 1 mod 3."""
    m = next(m for m in range(1, p) if math.isqrt(4 * p - 27 * m * m) ** 2 == 4 * p - 27 * m * m)
    L = math.isqrt(4 * p - 27 * m * m)
    L = L if L % 3 == 1 else -L
    N, r = divmod(8 * p * L - 12 * p + 1, 27)
    assert r == 0, p
    return -((p - 1) // 3) * N ** ((p - 1) // 3)


def _cubic_row_p(p, flip=None):
    """Row p of the wall of s(m) = [m/p] at the shifts 0..p - 1, over its
    terms s(1 - p)..s(2p - 2), with term number flip negated."""
    seq = [cubic_residue_symbol(m, p) for m in range(1 - p, 2 * p - 1)]
    if flip is not None:
        seq[flip] = -seq[flip]
    return number_wall(seq, p, first=1 - p).row(p, 0, p - 1)


def test_cubic_row_p_in_closed_form():
    """Row p of the diff table of a 3k+1 prime is -((p - 1)/3) * N**((p - 1)/3),
    N = (8pL - 12p + 1)/27, where 4p = L**2 + 27 M**2 and L = 1 mod 3.

    s(m) = [m/p] is p-periodic, so the order-p block (s(c + j - i)) is
    circulant, and moving c cycles its columns, an even permutation for odd
    p. Its eigenvalues are the sums of s(k) * w**(jk) over k mod p,
    w = e^(2 pi i/p). At j = 0 that is the symbol's sum over a period,
    (p - 1)/3 cubes less 2(p - 1)/3 non-cubes: -(p - 1)/3. At j != 0,
    s = 2[k a nonzero cube] - [k != 0] gives 2 eta + 1, where eta is the
    Gauss period of the cubic coset of j, the sum of w**k over it. Each
    of the three cosets holds (p - 1)/3 of the j, so the determinant is
    -((p - 1)/3) times the product of the 2 eta_i + 1, raised to (p - 1)/3.
    The periods are the roots of Gauss's cubic period polynomial
    f(x) = x**3 + x**2 - ((p - 1)/3) x - (p(L + 3) - 1)/27 (Berndt, Evans
    and Williams, Gauss and Jacobi Sums, 1998), so that product is
    -8 f(-1/2) = (8pL - 12p + 1)/27 = N. N is -1, -25, 31, 23 and -137 at
    p = 7, 13, 19, 31 and 37; at p = 13 each cell is -4 * 25**4 = -1562500.
    """
    assert len(_CUBIC_PRIMES) == 21 and _cubic_det(13) == -1562500
    for p in _CUBIC_PRIMES:
        assert generate_table("diff", p, (p, p), (0, p - 1)).row(p) == [_cubic_det(p)] * p, p


@pytest.mark.parametrize("where", ["first", "centre", "last"])
def test_cubic_row_p_sees_one_flipped_term(where):
    # s(1 - p) and s(2p - 2) reach only W(p, 0) and W(p, p - 1); the centre
    # term s((p - 1)/2) reaches every cell. None of the three is a zero
    for p in _CUBIC_PRIMES:
        if p < 100:
            assert _cubic_row_p(p) == [_cubic_det(p)] * p, p
            flip = {"first": 0, "centre": (3 * p - 3) // 2, "last": 3 * p - 3}[where]
            assert _cubic_row_p(p, flip) != [_cubic_det(p)] * p, p


@pytest.mark.parametrize("read, error, message", [
    (lambda w, d: w.row(1, 3, 1), IndexError,
     "W(1, 3..1) is outside the wall of 11 terms from 0 down to row 6"),
    (lambda w, d: w.column(5, 5, 2), IndexError, "W(5..2, 5) is a reversed range"),
    (lambda w, d: w(1.5, 1), TypeError, "n must be an integer, got float"),
    (lambda w, d: w.row(1, 0, "2"), TypeError, "c must be an integer, got str"),
    (lambda w, d: w.column(np.float64(3), 1, 2), TypeError, "c must be an integer, got float64"),
    (lambda w, d: d.row(1, 5, 3), KeyError, "shifts 5..3 of row 1 are reversed"),
    (lambda w, d: d.column(0, 4, 2), KeyError, "orders 4..2 of column 0 are reversed"),
], ids=["wall-row", "wall-column", "wall-cell-float", "wall-row-str", "wall-column-numpy-float",
        "table-row", "table-column"])
def test_a_reversed_range_or_a_position_that_is_not_an_integer_is_an_error(read, error, message):
    # a reversed range once read as empty, and wall(1.5, 1) raised a bare
    # "list indices must be integers"
    w, d = number_wall(list(range(1, 12)), 6), generate_table("diff", 5, (1, 5), (0, 5))
    assert w.row(1, 3, 3) == [4] and w.column(5, 2, 5) == [w(n, 5) for n in range(2, 6)]
    assert d.row(1, 5, 5) == [d.cell(1, 5)] and d.column(0, 2, 2) == [d.cell(2, 0)]
    with pytest.raises(error) as info:
        read(w, d)
    assert (info.value.args[0] if error is KeyError else str(info.value)) == message


def test_rejects_p3_and_bad_ranges():
    with pytest.raises(ValueError):
        generate_table("diff", 3)
    with pytest.raises(ValueError):
        generate_table("diff", 4)
    with pytest.raises(ValueError):
        generate_table("diff", 11, n_range=(0, 5))
    with pytest.raises(ValueError):
        generate_table("diff", 11, n_range=(5, 2))
    with pytest.raises(ValueError):
        generate_table("diff", 11, c_range=(3, 1))
    with pytest.raises(ValueError):
        generate_table("diff", 11, n_range=(1, 5), extended=True)
    with pytest.raises(ValueError):
        generate_table("nope", 11)
    with pytest.raises(ValueError, match="3 is neither"):
        table_box(3)
    with pytest.raises(ValueError, match="orders start at 1"):
        table_box(11, (0, None))
    with pytest.raises(ValueError, match="nonempty"):
        table_box(11, (12, None))


@pytest.mark.parametrize("n_range, c_range, name", [
    ((1.9, "3"), None, "n_range"),  # int() would make this the box (1, 3)
    ((None, 4.0), None, "n_range"),
    (None, (0, "5"), "c_range"),
    ((1, 3), (-1.5, 2), "c_range"),
])
def test_box_ends_that_are_not_integers_raise_type_error(n_range, c_range, name):
    with pytest.raises(TypeError, match=f"^{name} must be an integer"):
        table_box(7, n_range, c_range)
    with pytest.raises(TypeError, match=f"^{name} must be an integer"):
        generate_table("diff", 7, n_range, c_range)
    assert table_box(7, (True, None)) == ((1, 7), (0, 13))


@pytest.mark.parametrize("read", [
    lambda n: formula_minors(DiffPlusC(0), 7, n),
    lambda n: formula_minors(SumPlusC(2), 7, n),
    lambda n: list(tables.even_power_minors(7, [(1, 0)], n)),
], ids=["formula_minors-diff", "formula_minors-sum", "even_power_minors"])
def test_minors_read_the_order_as_an_integer(read):
    # one order reader: 2.5 once raised a bare "'float' object cannot be
    # interpreted as an integer", and both readers reject order 0 alike
    with pytest.raises(TypeError, match="^n must be an integer, got float$"):
        read(2.5)
    with pytest.raises(TypeError, match="^n must be an integer, got str$"):
        read("4")
    with pytest.raises(ValueError, match="^matrix order must be >= 1, got 0$"):
        read(0)
    assert read(True) == read(1)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("t", ["x", 2.5, None])
def test_generate_table_reads_t_as_an_integer(family, t):
    # generate_table("diff", 7, t="x").t was "x"
    with pytest.raises(TypeError, match="^t must be an integer"):
        generate_table(family, 7, (1, 2), (0, 1), t=t)


def test_cells_mapping_is_read_only():
    t = generate_table("diff", 5, n_range=(1, 2), c_range=(0, 1))
    with pytest.raises(TypeError):
        t.cells[(1, 0)] = 99


@pytest.mark.parametrize("family, n_range, c_range", [
    ("diff", (3, 6), (-4, 5)), ("sum", (2, 7), (-3, 4)), ("even-power", (4, 5), (-2, 2))])
def test_cells_is_a_read_only_view_over_the_rows(family, n_range, c_range):
    table = generate_table(family, 13, n_range, c_range, t=2)
    orders, shifts = table.orders(), table.shifts()
    keys = [(n, c) for n in orders for c in shifts]
    # the per-cell rebuild: one determinant per cell, no sharing
    rebuilt = {(n, c): determinant(build_matrix(family_formula(family, c, 2), 13, n).rows())
               for n, c in keys}
    assert list(table.cells) == list(table.cells.keys()) == keys
    assert len(table.cells) == len(keys)
    assert dict(table.cells) == rebuilt and table.cells == rebuilt
    assert list(table.cells.items()) == list(rebuilt.items())
    assert all(table.row(n) == [rebuilt[n, c] for c in shifts] for n in orders)
    assert all(table.column(c) == [rebuilt[n, c] for n in orders] for c in shifts)
    (n_lo, n_hi), (c_lo, c_hi) = n_range, c_range
    assert table.row(n_hi, c_lo + 1, c_hi - 1) == [rebuilt[n_hi, c] for c in range(c_lo + 1, c_hi)]
    assert table.column(c_hi, n_lo + 1, n_hi) == [rebuilt[n, c_hi] for n in range(n_lo + 1, n_hi + 1)]
    # read-only, and reads return copies
    with pytest.raises(TypeError):
        table.cells[n_lo, c_lo] = 0
    with pytest.raises(TypeError):
        del table.cells[n_lo, c_lo]
    table.row(n_lo)[0] += 1
    table.column(c_lo)[0] += 1
    assert table.cell(n_lo, c_lo) == rebuilt[n_lo, c_lo]
    # KeyError outside the box, and for keys that are not (n, c) pairs
    for key in ((n_lo - 1, c_lo), (n_hi + 1, c_lo), (n_lo, c_lo - 1), (n_lo, c_hi + 1),
                (n_lo,), "ab", None):
        with pytest.raises(KeyError):
            table.cells[key]
        assert key not in table.cells and table.cells.get(key) is None
    for read in (lambda: table.row(n_hi + 1), lambda: table.row(n_lo, c_lo - 1, c_hi),
                 lambda: table.row(n_lo, c_lo, c_hi + 1), lambda: table.column(c_hi + 1),
                 lambda: table.column(c_lo, n_lo - 1, n_hi), lambda: table.cell(n_hi + 1, c_lo)):
        with pytest.raises(KeyError):
            read()


_FORMULAS = (
    lambda c, t: DiffPlusC(c),
    lambda c, t: SumPlusC(c),
    lambda c, t: CubeDiffPlusOne(),
    lambda c, t: EvenPowerPlusC(t, c),
)


@settings(max_examples=300, deadline=None)
@given(
    make=st.sampled_from(_FORMULAS),
    p=st.sampled_from(odd_primes_up_to(199)),
    n=st.integers(1, 60),
    c=st.integers(-(10**12), 10**12),
    t=st.integers(1, 10**9),
)
def test_formula_minors_match_leading_minors(make, p, n, c, t):
    # the elimination engine is the oracle: leading minors of the built matrix's rows
    formula = make(c, t)
    assert formula_minors(formula, p, n) == leading_minors(build_matrix(formula, p, n).rows())


@pytest.mark.parametrize("make", _FORMULAS, ids=["diff", "sum", "cube-diff", "even-power"])
@pytest.mark.parametrize("p, c, t", [(3, 0, 1), (3, 2, 5), (5, 2, 1), (7, -10**12, 10**9),
                                     (13, 10**12, 3), (43, 4, 2)])
def test_formula_minors_into_the_zero_band(make, p, c, t):
    # every prime here is below n = 60, so the orders past p are read too
    formula = make(c, t)
    minors = formula_minors(formula, p, 60)
    assert minors == leading_minors(build_matrix(formula, p, 60).rows())
    assert all(v == 0 for v in minors[p:])


def test_formula_minors_bounds_and_exports():
    assert formula_minors(DiffPlusC(0), 3, 4) == [0, -1, 2, 0]
    assert formula_minors(SumPlusC(0), 7, 1) == [determinant(build_matrix(SumPlusC(0), 7, 1).rows())]
    for n in (0, -3):
        with pytest.raises(ValueError) as built:
            build_matrix(DiffPlusC(0), 7, n)
        with pytest.raises(ValueError) as read:
            formula_minors(DiffPlusC(0), 7, n)
        assert str(read.value) == str(built.value)
    with pytest.raises(ValueError):
        formula_minors(DiffPlusC(0), 9, 2)
    for name in ("formula_minors", "even_power_minors"):
        assert name in tables.__all__
        assert name not in cubres.__all__


@pytest.mark.parametrize("family", ["diff", "sum"])
def test_boxes_left_of_the_origin_match_leading_minors(family):
    # a fixed, quick case of the box test below, run before the slow
    # whole-table oracles: a box of negative shifts moves the wall's first
    # term, and a Hankel block reads its wall n + 1 cells to the right
    for p in (5, 11):
        table = generate_table(family, p, (1, p), (-2 * p, -1))
        for c in table.shifts():
            rows = build_matrix(family_formula(family, c), p, p).rows()
            assert table.column(c) == leading_minors(rows), (p, c)


# The whole-table oracles are the slowest tests here, so they run last:
# a mutant that a quicker test above catches fails before they start
def _matches_column_minors(table):
    # the oracle: leading_minors of each column's order-n_hi build, as
    # plain rows, so the engine runs and not the wall. Shifts
    # c and c + p build equal matrices, so each distinct matrix is
    # eliminated once; every cell is still compared with its own column
    minors = {}
    for c in table.shifts():
        m = build_matrix(family_formula(table.family, c, table.t), table.prime, table.n_range[1])
        key = m.entries
        if key not in minors:
            minors[key] = leading_minors(m.rows())
        for n in table.orders():
            assert table.cell(n, c) == minors[key][n - 1], (table.family, table.t, n, c)


@pytest.mark.parametrize("family, t, extended", [
    ("diff", 1, True), ("sum", 1, False), ("even-power", 1, False), ("even-power", 2, False)])
@pytest.mark.parametrize("p", [q for q in odd_primes_up_to(60) if q >= 5])
def test_every_cell_matches_leading_minors(family, t, extended, p):
    _matches_column_minors(generate_table(family, p, t=t, extended=extended))


@pytest.mark.parametrize("family, p, extended", [("diff", 101, True), ("sum", 97, False)])
def test_large_tables_match_leading_minors(family, p, extended):
    _matches_column_minors(generate_table(family, p, extended=extended))


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from([q for q in odd_primes_up_to(97) if q >= 5]),
    family=st.sampled_from(FAMILIES),
    t=st.integers(1, 3),
    n_hi=st.integers(1, 25),
    n_span=st.integers(0, 24),
    c_lo=st.integers(-50, 50),
    c_width=st.integers(1, 30),
)
def test_boxes_off_the_origin_match_leading_minors(p, family, t, n_hi, n_span, c_lo, c_width):
    # the wall's first term and each order's read offset depend on the
    # box's corner; the oracle is the elimination engine on each column's
    # plain rows, which shares no offset arithmetic with the wall
    n_lo = max(1, n_hi - n_span)
    c_hi = c_lo + c_width - 1
    table = generate_table(family, p, (n_lo, n_hi), (c_lo, c_hi), t=t)
    for c in range(c_lo, c_hi + 1):
        rows = build_matrix(family_formula(family, c, t), p, n_hi).rows()
        assert table.column(c) == leading_minors(rows)[n_lo - 1:], (n_lo, c)
