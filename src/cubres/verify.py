"""Exhaustive verification of the determinant identities and symbol facts.

Each checker sweeps the full stated parameter range of one claim for one
prime, comparing the value predicted by the claim's closed form against
the value computed from the symbol itself, the symbol sequences of the
formulas, or determinants that the tables module reads off number walls.
No checker builds a matrix or runs an elimination, and none imports
numpy. Eight of the matrix claims are predicates over cells of one
difference-family determinant table, which verify_all computes once per
prime and shares between them. Checkers never abort early: every
counterexample in range is collected, and a report passes exactly when
none were found.

Claims are cataloged by stable ids (the CLAIMS tuple); preconditions on
the prime's residue class are enforced with ValueError so a checker can
never silently run outside its domain.

T3_6, T3_7 and the T3_4 note read the symbol sequences of Toeplitz
families: the order-n block reads the offsets j - i with |j - i| < n, so
one sequence per case serves every order. T3_7 takes each case's terms
and determinants from `tables.even_power_minors`.
"""

from itertools import accumulate
from typing import Callable, Iterable, NamedTuple

from .matrices import CubeDiffPlusOne, DiffPlusC, sequence
from .residues import (
    Prime,
    Record,
    as_prime,
    cubic_residue_set,
    cubic_residue_symbol,
    next_primitive_root,
    odd_primes_up_to,
    primitive_root,
)
from .tables import EXTENDED_EXTRA_ORDERS, DeterminantTable, even_power_minors, generate_table

__all__ = [
    "CLAIMS",
    "Counterexample",
    "TheoremReport",
    "check_propositions",
    "check_t3_1",
    "check_t3_2",
    "check_t3_3",
    "check_t3_4",
    "check_t3_5",
    "check_t3_6",
    "check_t3_7",
    "check_row_period_np",
    "check_table_period",
    "check_remark_n1",
    "verify_all",
    "report_lines",
    "report_text",
]

CLAIMS = (
    "P2_3",
    "P2_4",
    "P2_5",
    "T3_1",
    "T3_2",
    "T3_3",
    "T3_4",
    "T3_5",
    "T3_6",
    "T3_7",
    "ROW_PERIOD_NP",
    "TABLE_PERIOD",
    "REMARK_N1",
)


class Counterexample(Record):
    """One case where the computed value contradicts the claim. The first
    two fields are the claim's own sweep coordinates (order and shift for
    the matrix claims, symbol arguments for the proposition claims)."""

    __slots__ = ("n", "c", "expected", "actual", "detail")

    def __init__(self, n: int, c: int, expected: int, actual: int, detail: str = "") -> None:
        self._store(n, c, expected, actual, detail)


class TheoremReport(Record):
    """Outcome of sweeping one claim for one prime. Unlike the other
    records, a report's fields may be reassigned, so it is not hashable.
    counterexamples and notes default to a new empty list each."""

    __slots__ = ("claim", "prime", "cases_checked", "counterexamples", "notes")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, claim: str, prime: Prime, cases_checked: int,
                 counterexamples: "list | None" = None, notes: "list | None" = None) -> None:
        self._store(claim, prime, cases_checked,
                    [] if counterexamples is None else counterexamples,
                    [] if notes is None else notes)

    @property
    def passed(self) -> bool:
        return not self.counterexamples


def _require_form_3k2(p: Prime, claim: str) -> None:
    if p.mod3 != 2:
        raise ValueError(f"{claim} needs a prime of the form 3k+2, got {p.value}")


def check_propositions(p: "Prime | int", a_bound: "int | None" = None) -> list[TheoremReport]:
    """Symbol facts, as three sub-reports.

    P2_3: the symbol is constant on residue classes, maps every nonzero
    cube to 1, and is even; swept for a in [-a_bound, a_bound] (default
    2p) plus all of [1, p-1] for the cube fact.
    P2_4 (p = 3k+1 only): exactly (p-1)/3 nonzero classes are residues and
    2(p-1)/3 are nonresidues, with the symbol agreeing with brute-force
    cube enumeration everywhere.
    P2_5 (p = 3k+2 only): every nonzero class is a residue, again checked
    against the enumerated cube set rather than the symbol's own shortcut.
    Inapplicable sub-reports are returned with zero cases and a note.
    """
    p = as_prime(p)
    pv = p.value
    bound = 2 * pv if a_bound is None else int(a_bound)

    ces: list[Counterexample] = []
    cases = 0
    for a in range(-bound, bound + 1):
        s = cubic_residue_symbol(a, p)
        cases += 1
        sr = cubic_residue_symbol(a % pv, p)
        if s != sr:
            ces.append(Counterexample(a, a % pv, sr, s, "symbol not constant on the class of a"))
        cases += 1
        sn = cubic_residue_symbol(-a, p)
        if s != sn:
            ces.append(Counterexample(a, -a, s, sn, "negating a changed the symbol"))
    for a in range(1, pv):
        cases += 1
        sc = cubic_residue_symbol(a**3, p)
        if sc != 1:
            ces.append(Counterexample(a, (a**3) % pv, 1, sc, "nonzero cube with symbol != 1"))
    out = [TheoremReport("P2_3", p, cases, ces)]

    if p.mod3 == 1:
        residues = cubic_residue_set(p)
        ces = []
        cases = 1
        if len(residues) != (pv - 1) // 3:
            ces.append(Counterexample(0, 0, (pv - 1) // 3, len(residues), "residue count"))
        nonresidues = sum(1 for a in range(1, pv) if cubic_residue_symbol(a, p) == -1)
        cases += 1
        if nonresidues != 2 * (pv - 1) // 3:
            ces.append(Counterexample(0, 0, 2 * (pv - 1) // 3, nonresidues, "nonresidue count"))
        for a in range(1, pv):
            cases += 1
            want = 1 if a in residues else -1
            got = cubic_residue_symbol(a, p)
            if got != want:
                ces.append(Counterexample(a, 0, want, got, "symbol vs cube enumeration"))
        out.append(TheoremReport("P2_4", p, cases, ces))
    else:
        out.append(TheoremReport("P2_4", p, 0, [], [f"not applicable: {pv} % 3 == {p.mod3}"]))

    if p.mod3 == 2:
        residues = cubic_residue_set(p)
        ces = []
        cases = 1
        if residues != set(range(1, pv)):
            ces.append(Counterexample(0, 0, pv - 1, len(residues), "cube enumeration missed classes"))
        for a in range(1, pv):
            cases += 1
            got = cubic_residue_symbol(a, p)
            if got != 1:
                ces.append(Counterexample(a, 0, 1, got, "nonzero class with symbol != 1"))
        out.append(TheoremReport("P2_5", p, cases, ces))
    else:
        out.append(TheoremReport("P2_5", p, 0, [], [f"not applicable: {pv} % 3 == {p.mod3}"]))

    return out


class _Line(NamedTuple):
    """A run of table cells that a claim compares with its closed form:
    expected and actual, from (n, c) along a row, or down a column."""

    n: int
    c: int
    down: bool
    expected: list
    actual: list


def _along(table: DeterminantTable, n: int, shifts: range, expected: list) -> _Line:
    return _Line(n, shifts[0], False, expected, table.row(n, shifts[0], shifts[-1]))


def _down(table: DeterminantTable, c: int, orders: range, expected: list) -> _Line:
    return _Line(orders[0], c, True, expected, table.column(c, orders[0], orders[-1]))


class _TableClaim(NamedTuple):
    """A claim read off the difference-family table: the box of cells it
    reads, and its cases as lines of that table in sweep order."""

    claim: str
    n_range: tuple[int, int]
    c_range: tuple[int, int]
    lines: Callable[[DeterminantTable], Iterable[_Line]]
    detail: Callable[[int], str] = lambda c: ""
    notes: Callable[[], list[str]] = list


def _t3_4_notes(p: Prime) -> list[str]:
    """Count the (n, c) of the T3_4 box whose matrix has at least two
    all-ones columns. Entry (i, j) of D(n, c) is s(j - i + c), so column j
    of D(n, c) is all ones exactly when at least n ones of s run down from
    s(j - 1 + c)."""
    m = p.value - 2
    # run[k] for k = 0..2m - 1: the ones in s(k), s(k - 1), ..., read from
    # s(1 - m) on, which is exact wherever it is below m >= n
    run, length = [], 0
    for v in sequence(DiffPlusC(0), p, 1 - m, 2 * m - 1):
        length = length + 1 if v == 1 else 0
        run.append(length)
    run = run[m - 1:]
    interior = range(2, p.value - 1)
    misses = []
    for n in interior:
        # full[k]: columns before k whose top n entries are all ones
        full = list(accumulate([r >= n for r in run], initial=0))
        misses += [(n, c) for c in interior if full[c + n] - full[c] < 2]
    cases = len(interior) ** 2
    notes = [f"all-ones column pairs present in {cases - len(misses)}/{cases} cases"]
    if misses:
        notes.append(f"mechanism absent at {misses[:5]}")
    return notes


def _table_claims(p: Prime) -> tuple[_TableClaim, ...]:
    """The eight table claims for one prime, in catalog order. Expected
    values come from the closed forms, never from the cell under test;
    TABLE_PERIOD compares two cells computed independently."""
    pv = p.value
    interior = range(2, pv - 1)
    band = range(pv + 1, pv + EXTENDED_EXTRA_ORDERS + 1)
    period = range(pv)
    return (
        _TableClaim("T3_1", (1, pv), (0, 0), lambda d: [
            _down(d, 0, range(1, pv + 1), [(-1) ** (n - 1) * (n - 1) for n in range(1, pv + 1)])]),
        _TableClaim("T3_2", (2, pv - 1), (-1, 1), lambda d: [
            _down(d, c, range(2, pv), [1] * (pv - 2)) for c in (1, -1)]),
        _TableClaim("T3_3", (pv, pv), (1, pv - 1), lambda d: [
            _along(d, pv, range(1, pv), [pv - 1] * (pv - 1))]),
        _TableClaim("T3_4", (2, pv - 2), (2, pv - 2), lambda d: (
            _along(d, n, interior, [0] * len(interior)) for n in interior),
            notes=lambda: _t3_4_notes(p)),
        _TableClaim("T3_5", (pv - 1, pv - 1), (1, pv - 1), lambda d: [
            _along(d, pv - 1, range(1, pv), [1] * (pv - 1))]),
        _TableClaim("ROW_PERIOD_NP", (band[0], band[-1]), (0, pv - 1), lambda d: (
            _along(d, n, period, [0] * pv) for n in band)),
        _TableClaim("TABLE_PERIOD", (1, pv), (0, 2 * pv - 1), lambda d: (
            _Line(1, c, True, d.column(c, 1, pv), d.column(c + pv, 1, pv)) for c in period),
            detail=lambda c: f"column {c} vs {c + pv}"),
        _TableClaim("REMARK_N1", (1, 1), (0, 2 * pv - 1), lambda d: [
            _along(d, 1, range(2 * pv), [0 if c % pv == 0 else 1 for c in range(2 * pv)])]),
    )


def _evaluate(spec: _TableClaim, p: Prime, table: DeterminantTable) -> TheoremReport:
    ces = []
    cases = 0
    for n, c, down, expected, actual in spec.lines(table):
        cases += len(actual)
        if actual != expected:
            for i, (want, got) in enumerate(zip(expected, actual)):
                if want != got:
                    at = (n + i, c) if down else (n, c + i)
                    ces.append(Counterexample(*at, want, got, spec.detail(at[1])))
    return TheoremReport(spec.claim, p, cases, ces, spec.notes())


def _check_table_claim(claim: str, p: "Prime | int") -> TheoremReport:
    """One table claim on its own, over a table of just its box."""
    p = as_prime(p)
    _require_form_3k2(p, claim)
    spec = next(s for s in _table_claims(p) if s.claim == claim)
    return _evaluate(spec, p, generate_table("diff", p, spec.n_range, spec.c_range))


def check_t3_1(p: "Prime | int") -> TheoremReport:
    """Shift 0: det equals (-1)**(n-1) * (n-1) for every order 1 <= n <= p."""
    return _check_table_claim("T3_1", p)


def check_t3_2(p: "Prime | int") -> TheoremReport:
    """Shifts +1 and -1: det equals 1 for every order 1 < n <= p - 1."""
    return _check_table_claim("T3_2", p)


def check_t3_3(p: "Prime | int") -> TheoremReport:
    """Full order n = p: det equals p - 1 for every shift 1 <= c <= p - 1."""
    return _check_table_claim("T3_3", p)


def check_t3_4(p: "Prime | int") -> TheoremReport:
    """Interior rectangle 2 <= n <= p - 2, 2 <= c <= p - 2: det equals 0.

    Also counts, per case, the mechanism behind the rank collapse (at
    least two all-ones columns); a case without it is noted, never failed,
    since the determinant value is the claim under test.
    """
    return _check_table_claim("T3_4", p)


def check_t3_5(p: "Prime | int") -> TheoremReport:
    """Order n = p - 1: det equals 1 for every shift 1 <= c <= p - 1."""
    return _check_table_claim("T3_5", p)


def _first_entry(n: int, bad: set[int]) -> tuple[int, int]:
    """The first 1-based (i, j), in row-major order, of an order-n
    Toeplitz block whose offset j - i is in bad."""
    return next((i, j) for i in range(1, n + 1) for j in range(1, n + 1) if j - i in bad)


def check_t3_6(p: "Prime | int") -> TheoremReport:
    """The shift-1 matrix and the cubed-difference-plus-one matrix agree
    entrywise (hence in determinant) for every order 2 <= n <= p - 2."""
    p = as_prime(p)
    _require_form_3k2(p, "T3_6")
    top = p.value - 2
    # both are Toeplitz: the order-n blocks read the offsets |k| < n of two sequences
    a = sequence(DiffPlusC(1), p, 1 - top, top - 1)
    b = sequence(CubeDiffPlusOne(), p, 1 - top, top - 1)
    bad = {k for k in range(1 - top, top) if a[k + top - 1] != b[k + top - 1]}
    nearest = min(map(abs, bad), default=top)
    ces = []
    cases = 0
    for n in range(2, top + 1):
        cases += 1
        if n > nearest:
            i, j = _first_entry(n, bad)
            ces.append(Counterexample(n, 1, a[j - i + top - 1], b[j - i + top - 1],
                                      f"entries differ at ({i}, {j})"))
    return TheoremReport("T3_6", p, cases, ces)


def check_t3_7(p: "Prime | int", t_max: int = 3, n_max: int = 8) -> TheoremReport:
    """Even-power families collapse to the all-ones matrix.

    With r the smallest primitive root mod p, shifts c = r**e mod p use
    odd exponents e in [1, p-2] when p = 12k+5 and even exponents in
    [2, p-1] when p = 12k+11. For each such c, every t in [1, t_max] and
    every order 2 <= m <= n_max, the matrix must be all ones and its
    determinant 0. A second primitive root spot-check (t = 1, order 2)
    guards against the choice of r mattering.

    Each case's terms and determinants come from `tables.even_power_minors`,
    with one number wall per distinct sequence within each sweep.
    """
    p = as_prime(p)
    if p.mod12 not in (5, 11):
        raise ValueError(f"T3_7 needs a prime of the form 12k+5 or 12k+11, got {p.value}")
    if t_max < 1 or n_max < 2:
        raise ValueError(f"need t_max >= 1 and n_max >= 2, got ({t_max}, {n_max})")
    pv = p.value
    root = primitive_root(p)
    exponents = range(1, pv - 1, 2) if p.mod12 == 5 else range(2, pv, 2)
    ces = []
    cases = 0

    def sweep(g: int, ts, n_top: int, tag: str) -> None:
        # the order-m matrix of a case reads the offsets |k| < m of one
        # sequence, and its determinant is W(m, 0) of that sequence's wall
        nonlocal cases
        runs = [(e, pow(g, e, pv), t) for e in exponents for t in ts]
        minors = even_power_minors(p, ((t, c) for _, c, t in runs), n_top)
        for (e, c, t), (terms, dets) in zip(runs, minors):
            bad = {k for k in range(1 - n_top, n_top) if terms[k + n_top - 1] != 1}
            nearest = min(map(abs, bad), default=n_top)
            cases += n_top - 1
            for m, actual in enumerate(dets[1:], 2):
                if m > nearest:
                    i, j = _first_entry(m, bad)
                    ces.append(
                        Counterexample(m, c, 1, terms[j - i + n_top - 1],
                                       f"{tag}entry ({i}, {j}) with t={t}, e={e}")
                    )
                elif actual != 0:
                    ces.append(Counterexample(m, c, 0, actual, f"{tag}det with t={t}, e={e}"))

    sweep(root, range(1, t_max + 1), n_max, "")
    second = next_primitive_root(p, root)
    sweep(second, (1,), 2, f"second root {second}: ")
    notes = [
        f"primitive roots used: {root} (full sweep), {second} (spot check)",
        "shifts r**e are reduced mod p before building the matrix",
    ]
    return TheoremReport("T3_7", p, cases, ces, notes)


def check_row_period_np(p: "Prime | int") -> TheoremReport:
    """Orders past p: rows repeat with period p, so det equals 0 for every
    order of the extended band p < n <= p + EXTENDED_EXTRA_ORDERS and every
    shift 0 <= c <= p - 1."""
    return _check_table_claim("ROW_PERIOD_NP", p)


def check_table_period(p: "Prime | int") -> TheoremReport:
    """Table columns repeat horizontally: cell(n, c) = cell(n, c + p) over
    the default two-period table."""
    return _check_table_claim("TABLE_PERIOD", p)


def check_remark_n1(p: "Prime | int") -> TheoremReport:
    """Order 1: the lone entry is the symbol of c, so det equals 1 for
    every shift not divisible by p and 0 otherwise; swept over both
    periods 0 <= c <= 2p - 1."""
    return _check_table_claim("REMARK_N1", p)


def verify_all(p_max: int, t_max: int = 3, n_max: int = 8) -> list[TheoremReport]:
    """Run every applicable checker for every odd prime 5 <= p <= p_max.

    The symbol propositions run for every prime; the determinant claims
    require the 3k+2 form and are skipped elsewhere. For each such prime
    the eight table claims read one shared difference-family table, the
    smallest box holding every claim's box, from one `generate_table`
    call; columns c and c + p are separate cells, computed from different
    terms of the symbol sequence.
    Failures are collected in the reports, never raised. Reports come
    back sorted by claim id (catalog order) and then prime.
    """
    if p_max < 5:
        raise ValueError(f"p_max must be at least 5, got {p_max}")
    reports: list[TheoremReport] = []
    for q in odd_primes_up_to(p_max):
        if q < 5:
            continue
        p = Prime(q)
        reports.extend(check_propositions(p))
        if p.mod3 == 2:
            specs = _table_claims(p)
            box = [(min(lo for lo, _ in ranges), max(hi for _, hi in ranges))
                   for ranges in ([s.n_range for s in specs], [s.c_range for s in specs])]
            table = generate_table("diff", p, *box)
            reports.extend(_evaluate(spec, p, table) for spec in specs)
            reports.append(check_t3_6(p))
            reports.append(check_t3_7(p, t_max, n_max))
    reports.sort(key=lambda r: (CLAIMS.index(r.claim), r.prime.value))
    return reports


def report_lines(reports: list[TheoremReport]) -> list[str]:
    """Machine-readable verdicts: claim, prime, cases, pass/fail,
    counterexample count; one line per report."""
    return [
        f"{r.claim} {r.prime.value} {r.cases_checked} {'pass' if r.passed else 'fail'} {len(r.counterexamples)}"
        for r in reports
    ]


def report_text(reports: list[TheoremReport], max_counterexamples: int = 5) -> str:
    """Human-readable verdicts with notes and counterexample details."""
    lines = []
    for r in reports:
        verdict = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{r.claim:<13} p={r.prime.value:<5} cases={r.cases_checked:<7} {verdict}"
            f"  counterexamples={len(r.counterexamples)}"
        )
        for note in r.notes:
            lines.append(f"    note: {note}")
        for ce in r.counterexamples[:max_counterexamples]:
            where = f"(n={ce.n}, c={ce.c})"
            tail = f"  [{ce.detail}]" if ce.detail else ""
            lines.append(f"    at {where}: expected {ce.expected}, got {ce.actual}{tail}")
        if len(r.counterexamples) > max_counterexamples:
            lines.append(f"    ... {len(r.counterexamples) - max_counterexamples} more")
    return "\n".join(lines) + "\n"
