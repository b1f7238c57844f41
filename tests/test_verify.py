"""Claim checkers and the full verification sweep."""

import hashlib
import sys

import numpy as np
import pytest

import cubres.matrices as matrices
import cubres.residues as residues
import cubres.tables as tables
import cubres.verify as verify
from cubres import (
    CLAIMS,
    Counterexample,
    CubeDiffPlusOne,
    DiffPlusC,
    EvenPowerPlusC,
    Prime,
    TheoremReport,
    as_prime,
    build_matrix,
    check_propositions,
    check_remark_n1,
    check_row_period_np,
    check_t3_1,
    check_t3_2,
    check_t3_3,
    check_t3_4,
    check_t3_5,
    check_t3_6,
    check_t3_7,
    check_table_period,
    determinant,
    next_primitive_root,
    odd_primes_up_to,
    primitive_root,
    report_lines,
    report_text,
    verify_all,
)
from cubres.verify import _t3_4_notes


def test_a_standalone_checker_names_the_form_of_prime_it_needs():
    with pytest.raises(ValueError, match=r"^T3_1 needs a prime of the form 3k\+2, got 7$"):
        check_t3_1(7)
    with pytest.raises(ValueError, match=r"^T3_7 needs a prime of the form 12k\+5 or 12k\+11, got 13$"):
        check_t3_7(13)


def test_report_passed_tracks_counterexamples():
    r = TheoremReport("T3_1", Prime(5), 5)
    assert r.passed
    r.counterexamples.append(Counterexample(1, 0, 0, 1))
    assert not r.passed


def test_checkers_reject_wrong_prime_class():
    for checker in (check_t3_1, check_t3_2, check_t3_3, check_t3_4,
                    check_t3_5, check_t3_6, check_row_period_np,
                    check_table_period, check_remark_n1):
        with pytest.raises(ValueError):
            checker(7)  # 3k+1
        with pytest.raises(ValueError):
            checker(3)
    with pytest.raises(ValueError):
        check_t3_7(7)


def test_t3_1_alternating_formula():
    for p in (5, 11, 17):
        r = check_t3_1(p)
        assert r.passed and r.cases_checked == p
    # the formula anchors the shared corner with the full-order claim
    assert determinant(build_matrix(DiffPlusC(0), 11, 11).rows()) == 10


def test_t3_2_unit_determinants():
    for p in (5, 11):
        r = check_t3_2(p)
        assert r.passed
        assert r.cases_checked == 2 * (p - 2)


def test_t3_3_full_order():
    for p in (5, 11):
        r = check_t3_3(p)
        assert r.passed
        assert r.cases_checked == p - 1


def test_t3_4_interior_zeros_and_mechanism():
    r5 = check_t3_4(5)
    assert r5.passed and r5.cases_checked == 4
    r11 = check_t3_4(11)
    assert r11.passed and r11.cases_checked == 64
    # every in-range case exhibits at least two all-ones columns
    assert any("64/64" in note for note in r11.notes)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 23, 59])
def test_t3_4_notes_match_one_build_per_cell(p):
    # the notes read column runs of one D(2(p - 2), 0); rebuild
    # every D(n, c) of the box instead, in sweep order (n outer, c inner)
    interior = range(2, p - 1)
    box = [(n, c) for n in interior for c in interior]
    misses = [(n, c) for n, c in box
              if (np.array(build_matrix(DiffPlusC(c), p, n).rows()) == 1).all(axis=0).sum() < 2]
    want = [f"all-ones column pairs present in {len(box) - len(misses)}/{len(box)} cases"]
    if misses:  # at the 3k+1 primes the mechanism is absent everywhere
        want.append(f"mechanism absent at {misses[:5]}")
    assert _t3_4_notes(Prime(p)) == want


def test_t3_5_penultimate_order():
    for p in (5, 11):
        r = check_t3_5(p)
        assert r.passed
        assert r.cases_checked == p - 1


def test_t3_2_and_t3_5_agree_at_shared_cell():
    for p in (5, 11, 17):
        assert determinant(build_matrix(DiffPlusC(1), p, p - 1).rows()) == 1


def test_t3_6_entrywise_equality():
    r = check_t3_6(5)
    assert r.passed and r.cases_checked == 2
    r = check_t3_6(11)
    assert r.passed and r.cases_checked == 8


def test_t3_7_even_power_collapse():
    r = check_t3_7(11, t_max=1, n_max=4)
    assert r.passed
    # 5 even exponents, 1 t, 3 orders, plus 5 spot-check cases
    assert r.cases_checked == 5 * 1 * 3 + 5
    assert any("primitive roots used: 2" in n for n in r.notes)
    r17 = check_t3_7(17, t_max=2, n_max=5)
    assert r17.passed
    assert r17.cases_checked == 8 * 2 * 4 + 8


def test_t3_7_rejects_bad_sweep_bounds():
    with pytest.raises(ValueError):
        check_t3_7(11, t_max=0)
    with pytest.raises(ValueError):
        check_t3_7(11, n_max=1)


def _planting(real, bump):
    """A number_wall that adds bump(n, c) to every cell of its triangle,
    written into the returned Wall's rows, which every reader reads."""

    def crooked(*args, **kwargs):
        wall = real(*args, **kwargs)
        for n in range(1, wall.depth + 1):
            row = wall._rows[n + 1]
            for c in range(wall.first + n - 1, wall.first + wall.size - n + 1):
                row[c - wall.first + 2] += bump(n, c)
        return wall

    return crooked


def test_t3_7_determinant_is_read_off_the_wall(monkeypatch):
    # every block of a passing case is all ones, so only the wall's
    # determinant can fail it: add 1 at order 3 and each shift must report
    # one det counterexample there, and nothing else
    monkeypatch.setattr(tables, "number_wall", _planting(tables.number_wall, lambda n, c: n == 3))
    r = check_t3_7(11, t_max=1, n_max=4)
    assert r.cases_checked == 5 * 3 + 5
    assert r.counterexamples == [
        Counterexample(3, pow(2, e, 11), 0, 1, f"det with t=1, e={e}") for e in (2, 4, 6, 8, 10)]


def test_t3_7_builds_one_wall_per_distinct_sequence(monkeypatch):
    # every passing case reads an all-ones sequence: one wall of depth
    # n_max for the full sweep and one of depth 2 for the spot check
    walls = []

    def spy(seq, depth, *, first):
        walls.append((depth, first))
        return real(seq, depth, first=first)

    real = tables.number_wall
    monkeypatch.setattr(tables, "number_wall", spy)
    assert check_t3_7(11, t_max=1, n_max=4).passed
    assert walls == [(4, -3), (2, -1)]
    walls.clear()
    assert all(r.passed for r in verify_all(60))
    # for each of the nine 3k+2 primes from 5 to 59, the shared diff table's
    # wall, which starts at s(c_lo - n_hi + 1) with c_lo = -1 and n_hi = p + 10,
    # then T3_7's two walls, each centred on s(0)
    primes = [q for q in odd_primes_up_to(59) if q % 3 == 2]
    assert len(primes) == 9
    assert walls == [w for q in primes for w in ((q + 10, -q - 10), (8, -7), (2, -1))]


# The array versions of the three sequence checkers, kept as their oracle:
# each order's matrix is built on its own leading block and its determinant
# comes from the elimination engine rather than from a number wall.

def _t3_4_notes_on_arrays(p):
    m = p.value - 2
    ones = np.array(build_matrix(DiffPlusC(0), p, 2 * m).rows()[:m]) == 1
    run = np.where(ones.all(axis=0), m, ones.argmin(axis=0))
    interior = range(2, p.value - 1)
    box = [(n, c) for n in interior for c in interior]
    misses = [(n, c) for n, c in box if int((run[c:c + n] >= n).sum()) < 2]
    notes = [f"all-ones column pairs present in {len(box) - len(misses)}/{len(box)} cases"]
    if misses:
        notes.append(f"mechanism absent at {misses[:5]}")
    return notes


def _t3_6_on_arrays(p):
    pv = p.value
    ces = []
    a = np.array(build_matrix(DiffPlusC(1), p, pv - 2).rows())
    b = np.array(build_matrix(CubeDiffPlusOne(), p, pv - 2).rows())
    for n in range(2, pv - 1):
        differ = np.argwhere(a[:n, :n] != b[:n, :n])
        if len(differ):
            i0, j0 = (int(v) for v in differ[0])
            ces.append(Counterexample(n, 1, int(a[i0, j0]), int(b[i0, j0]),
                                      f"entries differ at ({i0 + 1}, {j0 + 1})"))
    return TheoremReport("T3_6", p, len(range(2, pv - 1)), ces)


def _t3_7_on_arrays(p, t_max, n_max):
    pv = p.value
    root = primitive_root(p)
    exponents = range(1, pv - 1, 2) if p.mod12 == 5 else range(2, pv, 2)
    ces = []
    cases = 0

    def sweep(g, ts, n_top, tag):
        nonlocal cases
        for e in exponents:
            c = pow(g, e, pv)
            for t in ts:
                formula = EvenPowerPlusC(t, c)
                full = np.array(build_matrix(formula, p, n_top).rows())
                for m in range(2, n_top + 1):
                    cases += 1
                    block = full[:m, :m]
                    if not bool((block == 1).all()):
                        i0, j0 = (int(v) for v in np.argwhere(block != 1)[0])
                        ces.append(Counterexample(m, c, 1, int(block[i0, j0]),
                                                  f"{tag}entry ({i0 + 1}, {j0 + 1}) with t={t}, e={e}"))
                        continue
                    actual = determinant(block.tolist())
                    if actual != 0:
                        ces.append(Counterexample(m, c, 0, actual, f"{tag}det with t={t}, e={e}"))

    sweep(root, range(1, t_max + 1), n_max, "")
    second = next_primitive_root(p, root)
    sweep(second, (1,), 2, f"second root {second}: ")
    notes = [
        f"primitive roots used: {root} (full sweep), {second} (spot check)",
        "shifts r**e are reduced mod p before building the matrix",
    ]
    return TheoremReport("T3_7", p, cases, ces, notes)


@pytest.mark.parametrize("flips", [(), (3, 7, 12), (-3, -7, -12)],
                         ids=["true-symbol", "flipped-symbol", "mirror-flipped-symbol"])
@pytest.mark.parametrize("primes, t_max, n_max", [
    ([q for q in odd_primes_up_to(59) if q % 3 == 2], 3, 8),
    ([101], 5, 20),
], ids=["3k2-below-60", "p101-caps"])
def test_sequence_checkers_match_the_array_oracle(monkeypatch, primes, t_max, n_max, flips):
    # flipping the symbol on classes 3, 7 and 12 mod p breaks T3_6 and T3_7
    # at many orders and thins the T3_4 mechanism; T3_6 first differs at a
    # positive offset j - i, and with the mirrored classes often at a
    # negative one. Both sides read the same patched symbol.
    if flips:
        real = matrices.cubic_residue_symbol

        def flipped(a, p):
            pv = as_prime(p).value
            v = real(a, p)
            return -v if a % pv in {f % pv for f in flips} else v

        monkeypatch.setattr(matrices, "cubic_residue_symbol", flipped)
    broken = set()
    for q in primes:
        p = Prime(q)
        got_notes, want_notes = _t3_4_notes(p), _t3_4_notes_on_arrays(p)
        assert got_notes == want_notes
        for got, want in ((check_t3_6(p), _t3_6_on_arrays(p)),
                          (check_t3_7(p, t_max, n_max), _t3_7_on_arrays(p, t_max, n_max))):
            assert (got.claim, got.cases_checked, got.counterexamples, got.notes) == \
                (want.claim, want.cases_checked, want.counterexamples, want.notes)
            if got.counterexamples:
                broken.add(got.claim)
        if len(got_notes) > 1:
            broken.add("T3_4")
    assert broken == ({"T3_4", "T3_6", "T3_7"} if flips else set())


def test_row_period_np():
    r = check_row_period_np(5)
    assert r.passed
    assert r.cases_checked == 50


def test_table_period():
    r = check_table_period(11)
    assert r.passed
    assert r.cases_checked == 121


def test_remark_n1():
    r = check_remark_n1(11)
    assert r.passed
    assert r.cases_checked == 22


def test_propositions_on_each_class():
    p23, p24, p25 = check_propositions(13)
    assert p23.claim == "P2_3" and p23.passed
    assert p24.claim == "P2_4" and p24.passed and p24.cases_checked == 2 + 12
    assert p25.claim == "P2_5" and p25.cases_checked == 0
    assert any("not applicable" in n for n in p25.notes)

    p23, p24, p25 = check_propositions(11)
    assert p23.passed and p25.passed
    assert p24.cases_checked == 0
    assert p25.cases_checked == 1 + 10


def test_propositions_handle_p3():
    p23, p24, p25 = check_propositions(3)
    assert p23.passed
    assert p24.cases_checked == 0 and p25.cases_checked == 0


def test_propositions_custom_bound():
    p23, _, _ = check_propositions(7, a_bound=7)
    assert p23.passed
    assert p23.cases_checked == 2 * 15 + 6


def test_verify_all_small():
    reports = verify_all(11)
    assert all(r.passed for r in reports)
    by_claim = {}
    for r in reports:
        by_claim.setdefault(r.claim, []).append(r.prime.value)
    assert by_claim["P2_3"] == [5, 7, 11]
    assert by_claim["T3_1"] == [5, 11]
    assert by_claim["T3_7"] == [5, 11]
    assert by_claim["REMARK_N1"] == [5, 11]
    # sorted by catalog order, then prime
    order = [(CLAIMS.index(r.claim), r.prime.value) for r in reports]
    assert order == sorted(order)


def test_verify_all_rejects_small_bound():
    with pytest.raises(ValueError):
        verify_all(4)


def test_report_lines_format():
    reports = verify_all(7)
    lines = report_lines(reports)
    assert len(lines) == len(reports)
    for line, r in zip(lines, reports):
        claim, p, cases, verdict, ces = line.split()
        assert claim == r.claim
        assert int(p) == r.prime.value
        assert int(cases) == r.cases_checked
        assert verdict == "pass"
        assert int(ces) == 0


def test_report_text_includes_notes_and_failures():
    good = TheoremReport("T3_1", Prime(5), 5, [], ["a note"])
    bad = TheoremReport("T3_3", Prime(5), 4,
                        [Counterexample(5, 2, 4, -1, "made up")])
    text = report_text([good, bad])
    assert "PASS" in text and "FAIL" in text
    assert "note: a note" in text
    assert "at (n=5, c=2): expected 4, got -1  [made up]" in text


def test_report_text_truncates_counterexamples():
    ces = [Counterexample(n, 0, 0, 1) for n in range(10)]
    text = report_text([TheoremReport("T3_4", Prime(5), 10, ces)], max_counterexamples=3)
    assert "... 7 more" in text


def test_report_text_reads_max_counterexamples_as_a_count():
    ces = [Counterexample(n, 0, 0, 1) for n in range(2)]
    reports = [TheoremReport("T3_1", Prime(5), 5, []), TheoremReport("T3_4", Prime(5), 2, ces)]
    assert report_text(reports, max_counterexamples=0).splitlines()[1:] == [
        "T3_4          p=5     cases=2       FAIL  counterexamples=2", "    ... 2 more"]
    # a negative bound would print "... 1 more" under a passing report
    with pytest.raises(ValueError, match="^max_counterexamples must be at least 0, got -1$"):
        report_text(reports, max_counterexamples=-1)
    with pytest.raises(TypeError, match="^max_counterexamples must be an integer, got float$"):
        report_text(reports, max_counterexamples=2.0)


def test_corrupted_engine_is_caught(monkeypatch):
    # sabotage every order-3 cell that generate_table reads from its
    # number wall: the sweep must collect the mismatches rather than
    # raise or stop early
    monkeypatch.setattr(tables, "number_wall", _planting(tables.number_wall, lambda n, c: n == 3))
    r = check_t3_1(11)
    assert not r.passed
    assert r.cases_checked == 11
    assert [ce.n for ce in r.counterexamples] == [3]
    ce = r.counterexamples[0]
    assert ce.expected == 2 and ce.actual == 3

    r2 = check_t3_2(11)
    assert [(-1) in [ce.c for ce in r2.counterexamples],
            1 in [ce.c for ce in r2.counterexamples]] == [True, True]
    assert len(r2.counterexamples) == 2  # one per shift, all collected

    # the shared table of verify_all sees the same sabotage
    shared = {r.claim: r for r in verify_all(11) if r.prime.value == 11}
    assert shared["T3_1"].counterexamples == r.counterexamples
    assert shared["T3_2"].counterexamples == r2.counterexamples


def _flip_symbol(monkeypatch, flips):
    """Negate the symbol of a mod p wherever flips(a, p) holds, at every
    place in the package that holds the symbol function."""
    real = residues.cubic_residue_symbol

    def flipped(a, p):
        v = real(a, p)
        return -v if flips(a, as_prime(p).value) else v

    for name, module in list(sys.modules.items()):
        if name == "cubres" or name.startswith("cubres."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, flipped)


def _flip_class_3(monkeypatch):
    """Negate the symbol on the nonzero class 3 mod p."""
    _flip_symbol(monkeypatch, lambda a, pv: a % pv == 3)


def test_p2_3_catches_a_symbol_that_is_not_a_function_of_the_class(monkeypatch):
    # flipped at a = p + 3 alone, s(14) leaves the class of 3 and breaks
    # the evenness at +-14: the class line's case comes first, then the
    # parity line's two, each with its own coordinates and detail
    _flip_symbol(monkeypatch, lambda a, pv: a == pv + 3)
    p23, p24, p25 = check_propositions(11)
    assert p23.cases_checked == 2 * 45 + 10 and p24.passed and p25.passed
    assert p23.counterexamples == [
        Counterexample(14, 3, 1, -1, "symbol not constant on the class of a"),
        Counterexample(-14, 14, 1, -1, "negating a changed the symbol"),
        Counterexample(14, -14, -1, 1, "negating a changed the symbol"),
    ]


def _sabotage(monkeypatch, kind):
    if kind == "wall":  # shift-dependent, so it breaks TABLE_PERIOD too
        monkeypatch.setattr(tables, "number_wall",
                            _planting(tables.number_wall, lambda n, c: (n + c) % 5 == 0))
    elif kind == "symbol":
        _flip_class_3(monkeypatch)


@pytest.mark.parametrize("sabotage, digest", [
    ("wall", "57fd68e362dd002dae63926cc34bc00f5a0445c9db19825e2decdc48aefcd03a"),
    ("symbol", "603382edb043b546a954239ef6e2babf6190bc20d2c9ae092356b158f6be0cc3"),
])
def test_counterexample_bytes_are_pinned(monkeypatch, sabotage, digest):
    # every counterexample of every claim, in order, with its coordinates
    # and detail, under a sabotage that breaks most claims
    _sabotage(monkeypatch, sabotage)
    text = report_text(verify_all(29), max_counterexamples=10**6)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _checker_report(claim, p):
    if claim.startswith("P2_"):
        return next(r for r in check_propositions(p) if r.claim == claim)
    return getattr(verify, f"check_{claim.lower()}")(p)


# The claims each sabotage must break. The wall plant reaches every claim
# read off a number wall: the table claims and T3_7. Flipping a class
# reaches every claim but the two periodicity claims, which hold for any
# function of the residue class, flipped or not.
_BROKEN_BY = {
    "none": set(),
    "wall": set(CLAIMS) - {"P2_3", "P2_4", "P2_5", "T3_6"},
    "symbol": set(CLAIMS) - {"ROW_PERIOD_NP", "TABLE_PERIOD"},
}


@pytest.mark.parametrize("sabotage", list(_BROKEN_BY))
def test_verify_all_matches_standalone_checkers(monkeypatch, sabotage):
    # verify_all shares one diff table per prime among its claims, and each
    # checker builds its own: every claim must report the same either way,
    # counterexamples and notes included
    _sabotage(monkeypatch, sabotage)
    reports = verify_all(17)
    assert {r.claim for r in reports} == set(CLAIMS)
    for shared in reports:
        alone = _checker_report(shared.claim, shared.prime)
        assert (shared.claim, shared.cases_checked, shared.counterexamples, shared.notes) == \
            (alone.claim, alone.cases_checked, alone.counterexamples, alone.notes)
    assert {r.claim for r in reports if r.counterexamples} == _BROKEN_BY[sabotage]
    assert set().union(*_BROKEN_BY.values()) == set(CLAIMS)


@pytest.mark.parametrize("a_bound, error", [
    (2.7, TypeError),  # int() would sweep +-2
    ("3", TypeError),
    (-5, ValueError),  # an empty sweep would pass
])
def test_propositions_reject_a_bound_that_is_not_a_count(a_bound, error):
    with pytest.raises(error, match="a_bound"):
        check_propositions(7, a_bound=a_bound)


def test_propositions_accept_a_zero_bound_and_an_index():
    p23, _, _ = check_propositions(7, a_bound=0)
    assert p23.passed and p23.cases_checked == 2 + 6
    assert check_propositions(7, a_bound=np.int64(7))[0].cases_checked == 2 * 15 + 6


@pytest.mark.parametrize("name, kwargs", [
    ("p_max", {"p_max": "60"}),
    ("p_max", {"p_max": 60.0}),
    ("t_max", {"p_max": 11, "t_max": 2.5}),
    ("n_max", {"p_max": 11, "n_max": "8"}),
], ids=["p_max-str", "p_max-float", "t_max-float", "n_max-str"])
def test_verify_all_reads_its_bounds_as_integers(name, kwargs):
    with pytest.raises(TypeError, match=f"{name} must be an integer"):
        verify_all(**kwargs)


_TABLE_CHECKERS = [check_t3_1, check_t3_2, check_t3_3, check_t3_4, check_t3_5,
                   check_row_period_np, check_table_period, check_remark_n1]


def _spy_on_tables(monkeypatch) -> list:
    """Record each generate_table call that verify makes."""
    calls, real = [], verify.generate_table

    def spy(family, p, *box, **kwargs):
        calls.append((family, as_prime(p).value, box, kwargs))
        return real(family, p, *box, **kwargs)

    monkeypatch.setattr(verify, "generate_table", spy)
    return calls


def _one_box(p: int) -> tuple:
    """The one diff table the table claims read: orders 1..p + 10 and
    shifts -1..2p - 1."""
    return "diff", p, ((1, p + 10), (-1, 2 * p - 1)), {}


def test_verify_all_builds_one_table_per_3k2_prime(monkeypatch):
    calls = _spy_on_tables(monkeypatch)
    verify_all(61)
    assert calls == [_one_box(p) for p in odd_primes_up_to(61) if p % 3 == 2]


@pytest.mark.parametrize("check", _TABLE_CHECKERS, ids=lambda check: check.__name__)
def test_each_table_checker_builds_the_same_one_table(monkeypatch, check):
    calls = _spy_on_tables(monkeypatch)
    for p in (5, 11, 29):
        assert check(p).passed
    assert calls == [_one_box(p) for p in (5, 11, 29)]
    # a prime of the wrong form is rejected before any table is built
    with pytest.raises(ValueError):
        check(13)
    assert len(calls) == 3


def test_runs_with_no_table_claim_build_no_table(monkeypatch):
    calls = _spy_on_tables(monkeypatch)
    for p in (5, 7, 11, 13, 29, 31):
        check_propositions(p)
    for p in (5, 11, 29):
        check_t3_6(p)
    for p in (5, 11, 17, 29):
        check_t3_7(p, t_max=2, n_max=5)
    assert calls == []


@pytest.mark.parametrize("n, c", [(1, -2), (1, 22), (22, 0), (0, 0)])
def test_a_table_claim_reading_outside_the_box_raises_key_error(n, c):
    # the box is one for every claim: a claim that needs more must widen it
    outside = verify._Claim("OUTSIDE", (3, (2,)), verify._table(lambda pv, d: [
        verify._down(n, c, [0], d.column(c, n, n))]))
    with pytest.raises(KeyError):
        verify._run([outside], Prime(11))
    inside = outside._replace(lines=verify._table(lambda pv, d: [
        verify._down(pv + 10, 2 * pv - 1, [0], d.column(2 * pv - 1, pv + 10, pv + 10))]))
    assert verify._run([inside], Prime(11))[0].passed


def test_every_claim_but_t3_7_runs_with_no_inputs():
    # a claim defaults what it reads: only T3_7's sweep bounds have no private default
    for entry in verify._CATALOG:
        if entry.claim != "T3_7":
            assert verify._run([entry], 11)[0].passed
    with pytest.raises(TypeError, match="t_max"):
        verify._run([verify._CATALOG[CLAIMS.index("T3_7")]], 11)


@pytest.mark.parametrize("run, error, message", [
    (lambda: check_t3_7(11, t_max=2.5), TypeError, "t_max must be an integer, got float"),
    (lambda: verify_all(11, t_max=0), ValueError, r"need t_max >= 1 and n_max >= 2, got \(0, 8\)"),
    # the form of the prime is checked before the claim reads its inputs
    (lambda: check_t3_7(13, t_max=0), ValueError, r"T3_7 needs a prime of the form 12k\+5 or 12k\+11, got 13"),
], ids=["t_max-float", "all-t_max-0", "form-first"])
def test_a_claim_reports_a_bad_input_with_its_type_and_text(run, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        run()


@pytest.mark.parametrize("expected, actual", [([0], [0, 5, 7]), ([0, 0, 0], [0])])
def test_a_line_whose_sides_differ_in_length_raises(expected, actual):
    # zip would compare only the shorter side's cases and could pass the rest unseen
    uneven = verify._Claim("UNEVEN", None, lambda p, **_: [verify._down(1, 0, expected, actual)])
    with pytest.raises(ValueError, match=rf"^UNEVEN: line lengths differ \({len(expected)} expected, {len(actual)} actual\)$"):
        verify._run([uneven], 11)
