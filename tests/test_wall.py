"""The number wall against the leading minors of Toeplitz matrices."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubres.wall as wall_module
from cubres import DiffPlusC, leading_minors, legendre_symbol, odd_primes_up_to
from cubres.matrices import sequence
from cubres.wall import number_wall


def _check_against_minors(seq, first, depth):
    """Every cell of the wall's triangle equals the matching leading minor
    of the Toeplitz matrix (s(c + j - i)) of its column c."""
    w = number_wall(seq, depth, first=first)
    last = first + len(seq) - 1
    for c in range(first, last + 1):
        top = min(depth, c - first + 1, last - c + 1)
        if top < 1:
            continue
        block = [[seq[c + j - i - first] for j in range(top)] for i in range(top)]
        assert [w(n, c) for n in range(1, top + 1)] == leading_minors(block), c
    for c in range(first - 1, last + 2):
        assert (w(0, c), w(-1, c)) == (1, 0)


def _spy_frames(monkeypatch):
    """Count the inner (D) and outer (H) bottom-row solves."""
    seen = {True: 0, False: 0}
    real = wall_module._solve_frame

    def spy(row, inner, *args):
        seen[inner] += 1
        return real(row, inner, *args)

    monkeypatch.setattr(wall_module, "_solve_frame", spy)
    return seen


FIB = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]


@pytest.mark.parametrize("seq, first", [
    # a zero run in the sequence: a window in row 1, under row -1 (E = 0)
    ([1, -1, 1, 0, 0, 0, 1, 1, -1, 1, -1, 1, 1, 1, -1], 0),
    # a second-order recurrence between noise: a window from row 3 whose
    # bottom frame rows lie inside the triangle
    ([1, -1, 0, 1, 1] + FIB + [2, -1, 0, 1, 1, 1], -4),
    # a third-order recurrence, started again further on
    ([0, 1, -1] + [1, 0, 0, 1, 1, 1, 2, 3, 4, 6, 9, 13, 19, 28] + [-1, 1, 1, 0, 1, 1, 1], 7),
])
def test_windows_with_frames_inside_the_triangle(monkeypatch, seq, first):
    seen = _spy_frames(monkeypatch)
    _check_against_minors(seq, first, (len(seq) + 1) // 2)
    # both bottom rows of a window, inner (D) and outer (H), were solved
    assert seen[True] > 0 and seen[False] > 0


def test_cut_windows_at_both_edges():
    # zero runs at both ends of the sequence, and a recurrence up to the
    # right edge: the triangle cuts their windows
    _check_against_minors([0, 0, 0, 1, -1, 1, 1, 1, -1, 0, 0], 0, 6)
    _check_against_minors([1, 0, 1, -1, 1, 1, 0, 1] + FIB, 3, 9)
    # a periodic sequence: every row past its period is zero
    w = number_wall([1, -1, 0, 1] * 6, 12)
    assert all(w(n, c) == 0 for n in range(5, 13) for c in range(n - 1, 25 - n))


def test_triangle_bounds():
    w = number_wall([2, -1, 3], 2, first=10)
    assert [w(1, c) for c in (10, 11, 12)] == [2, -1, 3]
    assert w(2, 11) == (-1) ** 2 - 2 * 3
    for n, c in ((1, 9), (1, 13), (2, 10), (2, 12), (3, 11), (0, 8), (0, 14), (-2, 11)):
        with pytest.raises(IndexError):
            w(n, c)
    assert number_wall([5], 0)(0, 1) == 1
    # rows past the triangle's apex hold no cells, whatever depth asks for
    deep = number_wall([1, 2, 3], 10**9)
    assert deep(2, 1) == 2**2 - 1 * 3
    with pytest.raises(IndexError):
        deep(3, 1)
    with pytest.raises(ValueError):
        number_wall([], 1)
    with pytest.raises(ValueError):
        number_wall([1, 2], -1)


@pytest.mark.parametrize("seq, depth", [([1, 2.5, 3], 2), ([1, "7", 3], 2), ([1.0, 2], 0),
                                        ([1, 2, 3], 2.0), ([1, 2, 3], "2")])
def test_terms_and_depth_that_are_not_integers_raise_type_error(seq, depth):
    # int() would read 2.5 as 2, and "7" as 7
    with pytest.raises(TypeError):
        number_wall(seq, depth)
    assert number_wall([True, 2, 3], 2)(2, 1) == 2**2 - 3


@pytest.mark.parametrize("seq, stop", [([0] * 12, 1), ([1] * 12, 2), ([-1] * 11, 2), ([3] * 7, 2)])
def test_a_full_width_zero_row_ends_the_wall(seq, stop):
    # all zeros: row 1 is zero under the ones of row 0; a constant: row 2
    # is zero under row 1. Every later row lies in that window's square.
    _check_against_minors(seq, 0, len(seq))
    w = number_wall(seq, len(seq))
    assert (w.cells_computed, w.windows_opened, w.frame_solves) == \
        ((stop - 1) * (len(seq) - stop), 1, 0)


@pytest.mark.parametrize("seq", [
    # a zero run at one edge of row 1 only
    [0, 0, 0, 0, 1, 2, -1, 1, 1, 3, -2, 1, 1],
    [1, 2, -1, 1, 1, 3, -2, 1, 1, 0, 0, 0, 0],
    # row 1 is zero but for one cell, whose column is nonzero all the way down
    [0, 0, 0, 0, 1, 0, 0, 0, 0],
    # row 2 is zero but for the cells next to odd terms
    [1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1],
    [1, 1, 1, 1, 1, 1, 1, 2, -1, 3, 1],
])
def test_a_zero_run_short_of_the_whole_row_does_not_end_the_wall(seq):
    _check_against_minors(seq, 0, len(seq))
    w = number_wall(seq, len(seq))
    assert w.cells_computed == (w.depth - 1) * (len(seq) - w.depth)
    assert any(w.row(n, n - 1, len(seq) - n) != [0] * (len(seq) - 2 * n + 2)
               for n in range(3, w.depth + 1))


@pytest.mark.parametrize("seq", [[2] + [1] * 10, [1] * 10 + [2], [0] + [1] * 11])
def test_the_stop_rule_asks_for_the_whole_row(seq):
    # row 2 is zero but for one edge cell; every later row is zero as well,
    # but only a run across the whole row ends the wall
    _check_against_minors(seq, 0, len(seq))
    w = number_wall(seq, len(seq))
    assert w.cells_computed == (w.depth - 1) * (len(seq) - w.depth)
    assert w.row(2, 1, len(seq) - 2).count(0) == len(seq) - 3


def test_counters_on_a_planted_recurrence(monkeypatch):
    # a Fibonacci stretch between noise opens windows with both bottom rows
    # inside the triangle; every row is computed, nothing ends the wall
    seen = _spy_frames(monkeypatch)
    seq = [1, -1, 0, 1, 1] + FIB + [2, -1, 0, 1, 1, 1]
    w = number_wall(seq, 20, first=-4)
    assert (w.depth, w.cells_computed, w.windows_opened, w.frame_solves) == (11, 100, 6, 7)
    assert w.frame_solves == seen[True] + seen[False]
    # a periodic sequence: row 5 is zero across the triangle and ends the wall
    w = number_wall([1, -1, 0, 1] * 6, 12)
    assert (w.cells_computed, w.windows_opened, w.frame_solves) == (4 * 19, 7, 6)


def test_counters_on_a_3k1_symbol_wall(monkeypatch):
    # the p = 37 diff wall of verify's box, orders 1..47 and shifts -1..73:
    # the windows of a 3k+1 symbol sequence, with frames solved at both
    # bottom rows
    seen = _spy_frames(monkeypatch)
    w = number_wall(sequence(DiffPlusC(0), 37, -47, 119), 47, first=-47)
    assert (w.depth, w.cells_computed, w.windows_opened, w.frame_solves) == (47, 4773, 108, 146)
    assert w.frame_solves == seen[True] + seen[False] and seen[True] and seen[False]


def test_zero_divisor_outside_every_window_is_an_error(monkeypatch):
    # with window detection switched off, the first zero divisor has no
    # window to answer for it: the wall raises rather than return a zero
    monkeypatch.setattr(wall_module, "_open_windows", lambda *args: None)
    assert number_wall([1, 1, 2, 3, 5], 3)(2, 2) == 1
    with pytest.raises(ArithmeticError, match="zero divisors"):
        number_wall([1, -1, 1, 0, 0, 0, 1, 1, -1], 4)


def _bump_after_solve(real):
    """A frame solve that writes one cell off by one."""
    def solve(row, inner, t, a, b, lo, hi, at):
        real(row, inner, t, a, b, lo, hi, at)
        row[lo] += 1
    return solve


def _solve_off_a_doubled_frame(real):
    """A frame solve that reads every frame cell doubled, and A_1 one more."""
    def solve(row, inner, t, a, b, lo, hi, at):
        real(row, inner, t, a, b, lo, hi, lambda n, j: 2 * at(n, j) + (n == t - 1 and j == a))
    return solve


def _register_uncut(real):
    """A run scan that marks every window as not cut by the triangle."""
    def scan(rows, n, size, windows):
        full = real(rows, n, size, windows)
        windows[:] = [(t, a, b, False) for t, a, b, _ in windows]
        return full
    return scan


@pytest.mark.parametrize("name, sabotage, seq, first, message", [
    ("_solve_frame", _bump_after_solve, [1, -1, 0, 1, 1] + FIB + [2, -1, 0, 1, 1, 1], -4,
     "inexact Dodgson division"),
    ("_solve_frame", _solve_off_a_doubled_frame, [1, -1, 0, 1, 1] + FIB + [2, -1, 0, 1, 1, 1], -4,
     "inexact division"),
    ("_open_windows", _register_uncut, [0, 0, 0, 0, 1, 2, -1, 1, 1, 3, -2, 1, 1], 0,
     r"frame read at \(1, 1\) outside the triangle"),
], ids=["frame-cell-off-by-one", "frame-read-doubled", "cut-window-read-as-whole"])
def test_a_broken_invariant_raises_rather_than_returns(monkeypatch, name, sabotage, seq, first, message):
    # a wrong frame cell is caught by the next division that reads it, and
    # a frame read outside the triangle by the read itself
    monkeypatch.setattr(wall_module, name, sabotage(getattr(wall_module, name)))
    with pytest.raises(ArithmeticError, match=f"^{message}; number-wall invariant broken$"):
        number_wall(seq, len(seq), first=first)


def _paley_row(p, flip=None):
    """Row p of the wall of s(m) = (m/p) + [p | m] at the shifts 0..2p,
    over its terms s(1 - p)..s(3p - 1), with term number flip negated."""
    seq = [legendre_symbol(m, p) + (m % p == 0) for m in range(1 - p, 3 * p)]
    if flip is not None:
        seq[flip] = -seq[flip]
    return number_wall(seq, p, first=1 - p).row(p, 0, 2 * p)


def _paley_det(p):
    return (p + 1 if p % 4 == 3 else 1 - p) ** ((p - 1) // 2)


def test_paley_row_p_in_closed_form():
    """W(p, c) = (p + 1)**((p - 1)/2) for p = 3 mod 4, and (1 - p)**((p - 1)/2)
    for p = 1 mod 4, at every shift.

    s is p-periodic, so the order-p block (s(c + j - i)) is circulant, and
    moving c cycles its columns, an even permutation for odd p. Its
    eigenvalues are the sums of s(k) * w**(jk) over k mod p, w = e^(2 pi i/p):
    1 at j = 0, since the Legendre symbols sum to 0, and 1 + (j/p) G at
    j != 0, with G the quadratic Gauss sum. Half the j are squares, so the
    determinant is ((1 + G)(1 - G))**((p - 1)/2) = (1 - G**2)**((p - 1)/2),
    and G**2 = (-1/p) p is p for p = 1 mod 4 and -p for p = 3 mod 4
    (Paley, 1933). At p = 97 each cell is 96**48, of 96 digits, and the
    wall reaches it only through the p - 1 rows above it.
    """
    for p in odd_primes_up_to(97)[1:]:
        assert _paley_row(p) == [_paley_det(p)] * (2 * p + 1), p


def test_paley_cell_at_order_p_to_199():
    # the same closed form at shift 0 for every prime 5..199, each wall over
    # the 2p - 1 terms s(1 - p)..s(p - 1) that W(p, 0) reads; at p = 199
    # the cell is 200**99, of 228 digits
    for p in odd_primes_up_to(199)[1:]:
        seq = [legendre_symbol(m, p) + (m % p == 0) for m in range(1 - p, p)]
        assert number_wall(seq, p, first=1 - p).row(p, 0, 0) == [_paley_det(p)], p


@pytest.mark.parametrize("where", ["first", "centre", "last"])
def test_paley_row_p_sees_one_flipped_term(where):
    # the first and last terms reach only the row's end cells, W(p, 0) and
    # W(p, 2p); the centre term s(p) reaches all the others. For p = 3 mod 4
    # the last term's cofactor in W(p, 2p) is 0, so no cell can see it flip
    for p in odd_primes_up_to(97)[1:]:
        if where != "last" or p % 4 == 1:
            flip = {"first": 0, "centre": 2 * p - 1, "last": 4 * p - 2}[where]
            assert _paley_row(p, flip) != [_paley_det(p)] * (2 * p + 1), p


@st.composite
def sequences(draw):
    alphabet = draw(st.sampled_from([(-1, 0, 1), (0, 1), (0, 0, 0, 1, -1), tuple(range(-3, 4))]))
    size = draw(st.integers(1, 32))
    seq = draw(st.lists(st.sampled_from(alphabet), min_size=size, max_size=size))
    if draw(st.booleans()):
        # a planted linear recurrence over a stretch: a window below it,
        # unbounded (cut) when the stretch reaches an end of the sequence
        coeffs = draw(st.lists(st.integers(-1, 1), min_size=1, max_size=4))
        start = draw(st.integers(len(coeffs), max(len(coeffs), size)))
        stop = draw(st.integers(start, max(start, size)))
        for i in range(start, stop):
            seq[i] = sum(a * seq[i - 1 - m] for m, a in enumerate(coeffs))
    for at, length in draw(st.lists(st.tuples(st.integers(0, size - 1), st.integers(1, 10)),
                                    max_size=3)):
        # planted zero runs: windows in row 1, cut at the ends
        seq[at:at + length] = [0] * len(seq[at:at + length])
    return seq


@settings(max_examples=150, deadline=None)
@given(seq=sequences(), first=st.integers(-6, 6), extra=st.integers(-2, 2))
def test_wall_matches_leading_minors(seq, first, extra):
    _check_against_minors(seq, first, max(0, (len(seq) + 1) // 2 + extra))


@st.composite
def planted_runs(draw):
    """{-1, 0, 1} sequences with planted constant runs, which end the wall
    when one covers the whole sequence, and zero runs."""
    size = draw(st.integers(1, 40))
    seq = draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=size, max_size=size))
    for at, length, value in draw(st.lists(st.tuples(
            st.integers(0, size - 1), st.integers(1, 40), st.sampled_from((-1, 0, 1))), max_size=3)):
        seq[at:at + length] = [value] * len(seq[at:at + length])
    return seq


@settings(max_examples=150, deadline=None)
@given(seq=planted_runs(), first=st.integers(-5, 5), data=st.data())
def test_row_and_column_slices_match_cell_reads(seq, first, data):
    _check_against_minors(seq, first, len(seq))
    w = number_wall(seq, len(seq), first=first)
    last = first + len(seq) - 1
    for n in range(-1, w.depth + 1):
        left, right = first + n - 1, last - n + 1
        lo = data.draw(st.integers(left, right))
        hi = data.draw(st.integers(lo, right))
        assert w.row(n, lo, hi) == [w(n, c) for c in range(lo, hi + 1)]
        assert w.column(lo, -1, n) == [w(k, lo) for k in range(-1, n + 1)]
        for bad in ((left - 1, hi), (lo, right + 1), (hi, lo - 1)):
            with pytest.raises(IndexError):
                w.row(n, *bad)
        with pytest.raises(IndexError):
            w.column(left - 1, -1, n)
    for n in (-2, w.depth + 1):
        with pytest.raises(IndexError):
            w.row(n, first + 2, first + 2)
        with pytest.raises(IndexError):
            w.column(first + 2, n, max(n, 0))
