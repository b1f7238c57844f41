"""Exact determinant engine against the cofactor oracle, sympy, closed
forms and the number wall."""

import importlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix

from cubres import (
    CubeDiffPlusOne,
    DiffPlusC,
    EvenPowerPlusC,
    SumPlusC,
    build_matrix,
    determinant,
    determinant_oracle,
    odd_primes_up_to,
)
from cubres.determinant import (
    leading_minors,
    _eliminate_bigint,
    _eliminate_int64,
    _to_rows,
)
from cubres.tables import formula_minors

EXAMPLE_3X3 = [[0, 1, -1], [1, 0, 1], [-1, 1, 0]]


def test_oracle_base_cases():
    assert determinant_oracle([[1]]) == 1
    assert determinant_oracle([[5]]) == 5
    assert determinant_oracle([[0, 1], [1, 0]]) == -1
    assert determinant_oracle([[1, 2], [3, 4]]) == -2
    assert determinant_oracle(EXAMPLE_3X3) == -2
    # a ResidueMatrix: the oracle expands its rows, the engine reads its wall
    for formula, p, n in ((SumPlusC(2), 13, 7), (CubeDiffPlusOne(), 13, 6)):
        m = build_matrix(formula, p, n)
        assert determinant_oracle(m) == determinant(m) != 0


def test_oracle_rejects_large_orders():
    with pytest.raises(ValueError):
        determinant_oracle([[1] * 8 for _ in range(8)])


def test_determinant_known_values():
    assert determinant([[1]]) == 1
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant(EXAMPLE_3X3) == -2
    assert determinant(build_matrix(DiffPlusC(0), 11, 4)) == -3
    assert determinant(build_matrix(DiffPlusC(4), 11, 10)) == 1
    # identity and diagonal
    assert determinant(np.eye(6, dtype=int)) == 1
    assert determinant(np.diag([2, -3, 5])) == -30


def test_determinant_accepts_many_input_shapes():
    rows = [[2, 1], [7, 4]]
    assert determinant(rows) == 1
    assert determinant(tuple(tuple(r) for r in rows)) == 1
    assert determinant(np.array(rows)) == 1
    assert determinant(np.array(rows, dtype=np.int8)) == 1
    assert determinant(np.array(rows, dtype=object)) == 1


def test_determinant_rejects_bad_input():
    with pytest.raises(ValueError):
        determinant([])
    with pytest.raises(ValueError):
        determinant([[1, 2], [3]])
    with pytest.raises(TypeError):
        determinant([[1.5, 0], [0, 1]])
    with pytest.raises(TypeError):
        determinant(np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        determinant(np.zeros((2, 2, 2), dtype=int))


def _random_corpus(count=1200, seed=48910):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 6)
        out.append([[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(n)])
    return out


CORPUS = _random_corpus()


def test_engine_matches_oracle_on_corpus():
    for rows in CORPUS:
        assert determinant(rows) == determinant_oracle(rows)


def test_both_elimination_paths_agree_on_corpus_sample():
    for rows in CORPUS[::7]:
        if len(rows) == 1:
            continue
        fast = _eliminate_int64(np.array(rows, dtype=np.int64))
        slow = _eliminate_bigint([list(r) for r in rows])
        assert fast == slow[-1] == determinant_oracle(rows)
        assert slow == _minors_by_oracle(rows)


def test_row_swap_antisymmetry_on_corpus():
    rng = random.Random(7)
    for rows in CORPUS:
        n = len(rows)
        if n < 2:
            continue
        i, j = rng.sample(range(n), 2)
        swapped = [list(r) for r in rows]
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert determinant(swapped) == -determinant(rows)


def test_transpose_invariance_on_corpus():
    for rows in CORPUS:
        t = [list(col) for col in zip(*rows)]
        assert determinant(t) == determinant(rows)


def test_duplicate_row_nullity_on_corpus():
    rng = random.Random(11)
    for rows in CORPUS:
        n = len(rows)
        if n < 2:
            continue
        dup = [list(r) for r in rows]
        dup[rng.randrange(n)] = list(dup[rng.randrange(n - 1)])
        src = dup  # force an actual duplicate pair
        i = rng.randrange(n - 1)
        src[i + 1] = list(src[i])
        assert determinant(src) == 0


def test_big_entries_use_exact_arithmetic():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(2, 5)
        rows = [[rng.randint(-(10**12), 10**12) for _ in range(n)] for _ in range(n)]
        assert determinant(rows) == determinant_oracle(rows)


def test_fast_path_hands_off_midway(monkeypatch):
    # entries pass the initial bound but products outgrow it immediately;
    # every bail, and nothing else, hands the rows to the bigint elimination
    engine = importlib.import_module("cubres.determinant")
    handoffs = []

    def bigint(rows):
        handoffs.append(len(rows))
        return _eliminate_bigint(rows)

    monkeypatch.setattr(engine, "_eliminate_bigint", bigint)
    rng = random.Random(5)
    bails = 0
    for _ in range(25):
        n = rng.randint(3, 6)
        rows = [[rng.randint(-(2**29), 2**29) for _ in range(n)] for _ in range(n)]
        fast = _eliminate_int64(np.array(rows, dtype=np.int64))
        want = determinant_oracle(rows)
        assert fast is None or fast == want
        calls = len(handoffs)
        assert determinant(rows) == want
        assert len(handoffs) - calls == (fast is None)
        bails += fast is None
    assert bails > 0


def _sylvester_hadamard(n):
    h = np.ones((1, 1), dtype=np.int64)
    while len(h) < n:
        h = np.block([[h, h], [h, -h]])
    return h


@pytest.mark.parametrize("n", [32, 64])
def test_sylvester_hadamard_meets_the_bound_with_equality(n):
    # H H^T = n I, so |det H| = n**(n/2): the Hadamard bound exactly
    h = _sylvester_hadamard(n)
    assert (h @ h.T == n * np.eye(n, dtype=np.int64)).all()
    assert _eliminate_int64(h.copy()) is None
    want = _sylvester_det(n)
    assert abs(want) == n ** (n // 2)
    assert determinant(h) == want
    h[n // 3] *= -1
    assert determinant(h) == -want
    assert determinant(h.tolist()) == -want


def _sylvester_det(n):
    # H_2m = [[H_m, H_m], [H_m, -H_m]], so det H_2m = (-2)**m (det H_m)**2
    return 1 if n == 1 else (-2) ** (n // 2) * _sylvester_det(n // 2) ** 2


def test_sylvester_hadamard_across_prime_batches():
    # order 128, with a determinant of 135 digits
    h = _sylvester_hadamard(128)
    want = _sylvester_det(128)
    assert len(str(abs(want))) == 135
    assert determinant(h) == want
    assert leading_minors(h)[-1] == want
    h[77] *= -1
    assert determinant(h) == -want
    assert leading_minors(h)[-1] == -want


def test_3k1_residue_matrix_across_prime_batches():
    # plain rows run the elimination; the wall gives every minor at once
    a = build_matrix(SumPlusC(5), 157, 150).rows()
    want = formula_minors(SumPlusC(5), 157, 150)
    assert leading_minors(a) == want
    assert determinant(a) == want[-1]


# the four largest primes below 2**29
_Q29 = (536870909, 536870879, 536870869, 536870849)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_crt_stopping_rule_at_prime_product_boundaries(k):
    # 2 x 2 matrices with an entry d on or off the diagonal, for d
    # around the product M of the k largest primes below 2**29
    m = 1
    for q in _Q29[:k]:
        m *= q
    for d in (m // 2, m // 2 + 1, m - 1, m, m + 1, 2 * m):
        for sign in (1, -1):
            assert determinant([[sign * d, 0], [0, 1]]) == sign * d
            assert determinant([[1, sign * d], [1, 0]]) == -sign * d
            assert leading_minors([[sign * d, 0], [0, 1]]) == [sign * d, sign * d]
            assert leading_minors([[sign * d, 1], [0, 1]]) == [sign * d, sign * d]


@settings(max_examples=12, deadline=None)
@given(
    n=st.integers(8, 40),
    bits=st.integers(0, 100),
    seed=st.integers(0, 2**32 - 1),
    singular=st.booleans(),
)
def test_engine_matches_sympy_bareiss(n, bits, seed, singular):
    rng = random.Random(seed)
    bound = min(10**30, 2**bits)
    rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
    if singular:
        rows[-1] = [x - y for x, y in zip(rows[0], rows[1])]
    assert determinant(rows) == Matrix(rows).det(method="bareiss")


_PRIMES_3K1 = [m for m in odd_primes_up_to(400) if m % 3 == 1]


@settings(max_examples=25, deadline=None)
@given(
    m=st.sampled_from(_PRIMES_3K1),
    family=st.sampled_from([DiffPlusC, SumPlusC]),
    n=st.integers(2, 60),
    c=st.integers(-1, 1000),
)
def test_engine_matches_the_wall_on_3k1_residue_matrices(m, family, n, c):
    want = formula_minors(family(c), m, n)
    a = build_matrix(family(c), m, n).rows()
    assert leading_minors(a) == want
    assert determinant(a) == want[-1]


_FORMULAS = (
    lambda c, t: DiffPlusC(c),
    lambda c, t: SumPlusC(c),
    lambda c, t: CubeDiffPlusOne(),
    lambda c, t: EvenPowerPlusC(t, c),
)


@settings(max_examples=40, deadline=None)
@given(
    make=st.sampled_from(_FORMULAS),
    p=st.sampled_from(odd_primes_up_to(199)),
    n=st.integers(1, 60),
    c=st.integers(-(10**12), 10**12),
    t=st.integers(1, 10**9),
)
def test_a_residue_matrix_gets_the_minors_of_its_rows(make, p, n, c, t):
    # a ResidueMatrix reads its formula's number wall; its plain rows run
    # the elimination engine. p ranges over 3 and primes of both classes
    m = build_matrix(make(c, t), p, n)
    assert determinant(m) == determinant(m.rows())
    assert leading_minors(m) == leading_minors(m.rows())


def test_a_residue_matrix_runs_no_elimination(monkeypatch):
    # a Toeplitz 3k+2 case and a Hankel 3k+1 one of 180 digits, with the
    # elimination's minors taken from their rows before it is switched off
    cases = [build_matrix(DiffPlusC(0), 11, 11), build_matrix(SumPlusC(5), 199, 190)]
    want = [leading_minors(m.rows()) for m in cases]
    engine = importlib.import_module("cubres.determinant")

    def refuse(*args):
        raise AssertionError("the elimination engine ran")

    monkeypatch.setattr(engine, "_eliminate_int64", refuse)
    monkeypatch.setattr(engine, "_eliminate_bigint", refuse)
    for m, minors in zip(cases, want):
        assert leading_minors(m) == minors and determinant(m) == minors[-1]
    # plain rows still reach the engine
    for run in (determinant, leading_minors):
        with pytest.raises(AssertionError, match="engine ran"):
            run(cases[0].rows())


def test_hollow_ones_determinant_formula():
    # 0 on the diagonal, 1 elsewhere: det is (-1)**(n-1) * (n-1)
    for n in range(1, 30):
        rows = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
        assert determinant(rows) == (-1) ** (n - 1) * (n - 1)


def test_singular_matrices_report_zero():
    assert determinant([[0, 0], [0, 0]]) == 0
    assert determinant([[1, 2, 3], [2, 4, 6], [1, 0, 1]]) == 0
    n = 40
    rows = [[(i + j) % 5 for j in range(n)] for i in range(n)]  # rank <= 5
    assert determinant(rows) == 0
    # a zero row beneath an entry far past int64
    assert determinant([[10**40, 1], [0, 0]]) == 0


def test_to_rows_copies():
    rows = [[1, 2], [3, 4]]
    got = _to_rows(rows)
    got[0][0] = 99
    assert rows[0][0] == 1


def test_to_rows_turns_every_integral_entry_into_an_int():
    got = _to_rows([[True, np.int8(-2)], [np.uint64(2**63), 4]])
    assert got == [[1, -2], [2**63, 4]]
    assert all(type(v) is int for row in got for v in row)
    for bad in (1.0, np.float64(2.0), "3", None):
        with pytest.raises(TypeError, match=f"got {type(bad).__name__}$"):
            _to_rows([[1, 2], [bad, 4]])


def _minors_by_oracle(rows):
    return [determinant_oracle([r[:k] for r in rows[:k]]) for k in range(1, len(rows) + 1)]


def _minors_by_sympy(rows, top=None):
    top = len(rows) if top is None else top
    return [Matrix([r[:k] for r in rows[:k]]).det(method="bareiss") for k in range(1, top + 1)]


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(1, 40),
    bits=st.integers(0, 100),
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(["full", "low-rank", "zero-run"]),
)
def test_leading_minors_match_sympy_on_every_leading_block(n, bits, seed, shape):
    rng = random.Random(seed)
    bound = min(10**30, 2**bits)
    rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
    if shape == "low-rank":
        # every row a combination of the first few, some rows zero
        basis = rows[:rng.randint(0, n - 1)]
        rows = [[sum(rng.randint(-2, 2) * b[j] for b in basis) for j in range(n)] for _ in range(n)]
    elif shape == "zero-run":
        # the first k rows vanish on the first k + 1 columns, so every
        # leading minor below order 2k + 1 is 0 and the pivots of the
        # first rows sit right of the diagonal
        k = rng.randint(1, max(1, n // 2))
        for i in range(min(k, n)):
            rows[i][:k + 1] = [0] * min(k + 1, n)
    minors = leading_minors(rows)
    # every leading block up to order 16, and the whole matrix
    top = min(n, 16)
    assert minors[:top] == _minors_by_sympy(rows, top)
    want = Matrix(rows).det(method="bareiss")
    assert minors[-1] == want
    assert determinant(rows) == want


def test_leading_minors_when_a_crt_prime_divides_a_leading_minor():
    # each head puts a multiple of 2**29 - 3 among the first two leading
    # minors
    q0, q1 = _Q29[:2]
    assert leading_minors([[q0, 1], [1, 1]]) == [q0, q0 - 1]
    rng = random.Random(3)
    heads = ([[q0, 0], [0, 1]], [[q0, 0], [0, q1]], [[1, 1], [1, 1 + q0]], [[q0 * q1, 1], [q0, 0]])
    for head in heads:
        for n in (2, 3, 8):
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            for i in range(2):
                rows[i][:2] = head[i]
            assert leading_minors(rows) == _minors_by_sympy(rows)


def test_leading_minors_at_the_largest_unreduced_growth():
    # A = L U, L unit lower triangular with -1 below the diagonal and U
    # its transpose: every leading minor is 1, while the diagonal of A
    # runs 1..n
    n = 100
    lower = np.eye(n, dtype=np.int64) - np.tril(np.ones((n, n), dtype=np.int64), -1)
    assert leading_minors(lower @ lower.T) == [1] * n


def test_leading_minors_small_orders_and_zero_rows():
    assert leading_minors([[5]]) == [5]
    assert leading_minors([[0]]) == [0]
    assert leading_minors([[-(10**40)]]) == [-(10**40)]
    # a row with no pivot ends the elimination: every later minor is 0
    assert leading_minors([[10**40, 1], [0, 0]]) == [10**40, 0]
    assert leading_minors([[2, 1, 0], [0, 0, 0], [1, 1, 1]]) == [2, 0, 0]
    assert leading_minors(np.array([[0, 1], [1, 0]], dtype=np.int8)) == [0, -1]
    # pivots right of the diagonal, in and out of column order
    assert leading_minors([[0, 1, 2], [1, 0, 3], [4, 5, 6]]) == [0, -1, 16]
    assert leading_minors([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == [0, 0, -1]
    h = _sylvester_hadamard(16)
    assert leading_minors(h) == _minors_by_sympy(h.tolist())
    with pytest.raises(ValueError):
        leading_minors([[1, 2], [3]])
    with pytest.raises(TypeError):
        leading_minors([[1.5]])
