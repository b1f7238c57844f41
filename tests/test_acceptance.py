"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
The expensive full sweep is computed once and shared.
"""

import hashlib
import random

import pytest

from cubres import (
    DiffPlusC,
    build_matrix,
    cubic_residue_set,
    cubic_residue_symbol,
    check_propositions,
    determinant,
    determinant_oracle,
    emit_csv,
    emit_svg,
    generate_table,
    odd_primes_up_to,
    parse_csv,
    report_lines,
    report_text,
    verify_all,
)

FORM_3K2_BELOW_60 = [5, 11, 17, 23, 29, 41, 47, 53, 59]


def _verdict(ok: bool, label: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {label}")
    assert ok, label


@pytest.fixture(scope="module")
def full_sweep():
    return verify_all(60, t_max=3, n_max=8)


def test_criterion_1_theorem_suite_exhaustive(full_sweep):
    wanted = {claim: list(FORM_3K2_BELOW_60)
              for claim in ("T3_1", "T3_2", "T3_3", "T3_4", "T3_5", "T3_6")}
    seen = {}
    ok = True
    for r in full_sweep:
        if r.claim in wanted and r.prime.value in wanted[r.claim]:
            seen.setdefault(r.claim, []).append(r.prime.value)
            ok = ok and r.passed and not r.counterexamples and r.cases_checked > 0
    ok = ok and all(sorted(seen.get(c, [])) == wanted[c] for c in wanted)
    _verdict(ok, "criterion 1: T3_1..T3_6 exact for all nine 3k+2 primes below 60")


def test_criterion_2_even_power_sweep(full_sweep):
    odd_class = [17, 29, 41, 53]   # 12k+5: odd exponents
    even_class = [11, 23, 47, 59]  # 12k+11: even exponents
    reports = {r.prime.value: r for r in full_sweep if r.claim == "T3_7"}
    ok = True
    for p in odd_class + even_class:
        r = reports.get(p)
        ok = ok and r is not None and r.passed
        # full sweep is exponents x 3 values of t x 7 orders, plus spot checks
        exponents = (p - 1) // 2
        ok = ok and r.cases_checked == exponents * 3 * 7 + exponents
    _verdict(ok, "criterion 2: T3_7 all-ones collapse, t in 1..3, orders 2..8")


def test_criterion_3_propositions():
    ok = True
    for p in odd_primes_up_to(99):
        p23, _, _ = check_propositions(p, a_bound=2 * p)
        ok = ok and p23.passed
    for p in odd_primes_up_to(499):
        if p % 3 == 1:
            ok = ok and len(cubic_residue_set(p)) == (p - 1) // 3
            _, p24, _ = check_propositions(p, a_bound=0)
            ok = ok and p24.passed and p24.cases_checked > 0
        elif p % 3 == 2:
            ok = ok and cubic_residue_set(p) == set(range(1, p))
            _, _, p25 = check_propositions(p, a_bound=0)
            ok = ok and p25.passed and p25.cases_checked > 0
    _verdict(ok, "criterion 3: symbol propositions exact (p<100 sweep, p<500 counts)")


def test_criterion_4_worked_examples():
    m3 = build_matrix(DiffPlusC(0), 7, 3)
    ok = m3.rows() == [[0, 1, -1], [1, 0, 1], [-1, 1, 0]]
    m10 = build_matrix(DiffPlusC(4), 11, 10)
    expected_rows = [[0 if (j - i) % 11 == 7 else 1 for j in range(10)] for i in range(10)]
    ok = ok and m10.rows() == expected_rows
    ok = ok and m10.row(1) == [1, 1, 1, 1, 1, 1, 1, 0, 1, 1]
    ok = ok and determinant(m10.rows()) == 1
    _verdict(ok, "criterion 4: worked 3x3 (p=7) and 10x10 (p=11, c=4) matrices bit-exact")


def test_criterion_5_figure_structure():
    t11 = generate_table("diff", 11)
    ok = all(t11.column(c) == t11.column(c + 11) for c in range(11))
    for p in (5, 11):
        ext = generate_table("diff", p, extended=True)
        ok = ok and all(v == 0 for n in range(p + 1, p + 11) for v in ext.row(n))
        ok = ok and all(ext.cell(1, c) == (0 if c % p == 0 else 1) for c in ext.shifts())
    # 3k+1 tables carry no falsifiable cells; generation must simply succeed
    t7 = generate_table("diff", 7)
    ok = ok and len(t7.cells) == 7 * 14
    _verdict(ok, "criterion 5: table periodicity, extended zero band, order-1 row")


def test_criterion_6_engine_cross_validation():
    rng = random.Random(48910)
    ok = True
    swap_rng = random.Random(1)
    for _ in range(1000):
        n = rng.randint(1, 6)
        rows = [[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(n)]
        d = determinant(rows)
        ok = ok and d == determinant_oracle(rows)
        t = [list(col) for col in zip(*rows)]
        ok = ok and determinant(t) == d
        if n >= 2:
            i, j = swap_rng.sample(range(n), 2)
            swapped = [list(r) for r in rows]
            swapped[i], swapped[j] = swapped[j], swapped[i]
            ok = ok and determinant(swapped) == -d
            dup = [list(r) for r in rows]
            dup[j] = list(dup[i])
            ok = ok and determinant(dup) == 0
    _verdict(ok, "criterion 6: engine vs oracle on 1000 seeded matrices plus invariants")


def test_criterion_7_symbol_fast_path():
    ok = True
    for p in odd_primes_up_to(199):
        cubes = {pow(x, 3, p) for x in range(p)}  # linear scan, independent of cubres
        for a in range(p):
            brute = 0 if a == 0 else (1 if a in cubes else -1)
            ok = ok and cubic_residue_symbol(a, p) == brute
    _verdict(ok, "criterion 7: symbol agrees with brute-force cube search for p < 200")


def test_criterion_8_emit_determinism():
    a = generate_table("diff", 11)
    b = generate_table("diff", 11)
    csv_a, csv_b = emit_csv(a), emit_csv(b)
    svg_a, svg_b = emit_svg(a), emit_svg(b)
    ok = csv_a == csv_b and svg_a == svg_b
    ok = ok and parse_csv(csv_a) == dict(a.cells)
    _verdict(ok, "criterion 8: byte-identical CSV/SVG re-emits and CSV round-trip")


def test_report_bytes_are_pinned(full_sweep):
    # the bytes `cubres verify --p-max 60` writes in each format, notes included;
    # recorded from an earlier engine, so no rewrite of a checker may move one
    text = report_text(full_sweep).encode()
    lines = ("\n".join(report_lines(full_sweep)) + "\n").encode()
    assert hashlib.sha256(text).hexdigest() == (
        "20c63e20a3fd9e88a7576b1edb630984c00b702d1e8a4761abbc4a41c73e0cfa")
    assert hashlib.sha256(lines).hexdigest() == (
        "de49aebb0067dfd0fa23387f3e40c416a942aa16b6c2ac94d089ff3e36c0991d")
