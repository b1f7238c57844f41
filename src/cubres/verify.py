"""Exhaustive verification of the determinant identities and symbol facts.

Each claim is one entry of the private `_CATALOG`, in CLAIMS order: its
id, the form of prime it needs, its cases as lines of expected and actual
values with their sweep coordinates, and its notes. Expected values come
from a closed form, the symbol or the enumerated cubes, never from the
value under test; actual values from a symbol sweep, Toeplitz symbol
sequences or number walls read by the tables module, never from a built
matrix or an elimination. Each claim reads, defaults and checks its own
inputs. One evaluator, `_evaluate`, counts every case, compares each line
as one list, and only on a mismatch builds a Counterexample per differing
case, in sweep order; a report passes exactly when it has none. A line
whose sides differ in length is a defect of the catalog or of the code it
reads, and raises ValueError. The table claims read one diff table per
prime, built on the first read over orders 1..p + EXTENDED_EXTRA_ORDERS
and shifts -1..2p - 1; a read outside that box raises KeyError.
"""

from functools import cache
from itertools import accumulate
from typing import Callable, Iterable, NamedTuple

from .matrices import CubeDiffPlusOne, DiffPlusC, sequence
from .residues import (Prime, Record, as_int, as_prime, cubic_residue_set, cubic_residue_symbol,
                       next_primitive_root, odd_primes_up_to, primitive_root)
from .tables import EXTENDED_EXTRA_ORDERS, DeterminantTable, even_power_minors, generate_table

__all__ = ["CLAIMS", "Counterexample", "TheoremReport", "check_propositions", "check_t3_1",
           "check_t3_2", "check_t3_3", "check_t3_4", "check_t3_5", "check_t3_6", "check_t3_7",
           "check_row_period_np", "check_table_period", "check_remark_n1", "verify_all",
           "report_lines", "report_text"]


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
        self._store(claim, prime, cases_checked, [] if counterexamples is None else counterexamples,
                    [] if notes is None else notes)

    @property
    def passed(self) -> bool:
        return not self.counterexamples


class _Line(NamedTuple):
    """A run of a claim's cases in sweep order: expected and actual values,
    and where(i), the (n, c, detail) of case i, asked only when it fails."""

    expected: list
    actual: list
    where: Callable[[int], tuple[int, int, str]]


def _down(n: int, c: int, expected: list, actual: list, detail: "str | list" = "") -> _Line:
    """Cases at (n, c), (n + 1, c), ..., with one detail or a list of one per case."""
    return _Line(expected, actual,
                 lambda i: (n + i, c, detail if isinstance(detail, str) else detail[i]))


def _along(n: int, c: int, expected: list, actual: list, detail: str = "") -> _Line:
    """Cases at (n, c), (n, c + 1), ...: a table row."""
    return _Line(expected, actual, lambda i: (n, c + i, detail))


class _Claim(NamedTuple):
    """One catalog entry. For form (m, classes) the claim needs p % m in
    classes (None: any prime); outside it, it raises ValueError, or reports
    zero cases and a note when noted. lines(p, **inputs) yields its cases;
    it reads, defaults and checks the inputs it names, and ignores the rest."""

    claim: str
    form: "tuple[int, tuple[int, ...]] | None"
    lines: Callable[..., Iterable[_Line]]
    notes: Callable[[Prime], list] = lambda p: []
    noted: bool = False


def _p2_3(p: Prime, a_bound: "int | None" = None, **_) -> Iterable[_Line]:
    pv = p.value
    a_bound = 2 * pv if a_bound is None else as_int(a_bound, "a_bound")
    if a_bound < 0:
        raise ValueError(f"a_bound must be at least 0, got {a_bound}")
    # s(a) against s(a mod p), then s(-a), for a in [-a_bound, a_bound]: s(-a) is s read backwards
    s = [cubic_residue_symbol(a, p) for a in range(-a_bound, a_bound + 1)]
    same = [cubic_residue_symbol(a % pv, p) for a in range(-a_bound, a_bound + 1)]
    yield _Line(same, s, lambda i: (i - a_bound, (i - a_bound) % pv, "symbol not constant on the class of a"))
    yield _Line(s, s[::-1], lambda i: (i - a_bound, a_bound - i, "negating a changed the symbol"))
    yield _Line([1] * (pv - 1), [cubic_residue_symbol(a**3, p) for a in range(1, pv)],
                lambda i: (i + 1, (i + 1) ** 3 % pv, "nonzero cube with symbol != 1"))


def _p2_4(p: Prime, **_) -> Iterable[_Line]:
    pv = p.value
    residues = cubic_residue_set(p)
    s = [cubic_residue_symbol(a, p) for a in range(1, pv)]
    yield _along(0, 0, [(pv - 1) // 3], [len(residues)], "residue count")
    yield _along(0, 0, [2 * (pv - 1) // 3], [s.count(-1)], "nonresidue count")
    yield _down(1, 0, [1 if a in residues else -1 for a in range(1, pv)], s,
                "symbol vs cube enumeration")


def _p2_5(p: Prime, **_) -> Iterable[_Line]:
    # the enumerated cubes lie in 1..p - 1: they miss a class when fewer than p - 1
    pv = p.value
    yield _along(0, 0, [pv - 1], [len(cubic_residue_set(p))], "cube enumeration missed classes")
    yield _down(1, 0, [1] * (pv - 1), [cubic_residue_symbol(a, p) for a in range(1, pv)],
                "nonzero class with symbol != 1")


def _table(lines: Callable[[int, DeterminantTable], Iterable[_Line]]) -> Callable:
    """A table claim's lines, read off the prime's shared diff table."""
    return lambda p, table, **_: lines(p.value, table())


def _t3_4_notes(p: Prime) -> list[str]:
    """Count the (n, c) of the T3_4 box whose matrix has at least two
    all-ones columns. Entry (i, j) of D(n, c) is s(j - i + c), so column j
    of D(n, c) is all ones exactly when at least n ones of s run down from
    s(j - 1 + c)."""
    m = p.value - 2
    # run[k] for k = 0..2m - 1: the ones in s(k), s(k - 1), ..., read from
    # s(1 - m) on, which is exact wherever it is below m >= n
    run = list(accumulate(sequence(DiffPlusC(0), p, 1 - m, 2 * m - 1),
                          lambda length, v: length + 1 if v == 1 else 0, initial=0))[m:]
    interior = range(2, p.value - 1)
    misses = []
    for n in interior:
        # full[k]: columns before k whose top n entries are all ones
        full = list(accumulate([r >= n for r in run], initial=0))
        misses += [(n, c) for c in interior if full[c + n] - full[c] < 2]
    cases = len(interior) ** 2
    notes = [f"all-ones column pairs present in {cases - len(misses)}/{cases} cases"]
    return notes + [f"mechanism absent at {misses[:5]}"] if misses else notes


def _first_differences(bad: set, top: int) -> list[tuple[int, int]]:
    """The first 1-based (i, j), in row-major order, with j - i in bad, of
    each order-n Toeplitz block, 2 <= n <= top, that reads such an offset."""
    nearest = min(map(abs, bad), default=top)
    return [next((i, j) for i in range(1, n + 1) for j in range(1, n + 1) if j - i in bad)
            for n in range(max(nearest + 1, 2), top + 1)]


def _t3_6(p: Prime, **_) -> Iterable[_Line]:
    top = p.value - 2
    a = sequence(DiffPlusC(1), p, 1 - top, top - 1)
    b = sequence(CubeDiffPlusOne(), p, 1 - top, top - 1)
    # each order compares its first differing entry, or (1, 1) when there is none
    firsts = _first_differences({k for k, (u, v) in enumerate(zip(a, b), 1 - top) if u != v}, top)
    probes = [(1, 1)] * (top - 1 - len(firsts)) + firsts
    at = [j - i + top - 1 for i, j in probes]
    yield _down(2, 1, [a[k] for k in at], [b[k] for k in at],
                [f"entries differ at {ij}" for ij in probes])


def _roots(p: Prime) -> tuple[int, int]:
    """T3_7's primitive roots: the smallest and the next."""
    root = primitive_root(p)
    return root, next_primitive_root(p, root)


def _t3_7(p: Prime, t_max: int, n_max: int, **_) -> Iterable[_Line]:
    t_max, n_max = as_int(t_max, "t_max"), as_int(n_max, "n_max")
    if t_max < 1 or n_max < 2:
        raise ValueError(f"need t_max >= 1 and n_max >= 2, got ({t_max}, {n_max})")
    pv = p.value
    root, second = _roots(p)
    exponents = range(1, pv - 1, 2) if p.mod12 == 5 else range(2, pv, 2)
    for g, ts, top, tag in ((root, range(1, t_max + 1), n_max, ""),
                            (second, (1,), 2, f"second root {second}: ")):
        runs = [(e, pow(g, e, pv), t) for e in exponents for t in ts]
        minors = even_power_minors(p, ((t, c) for _, c, t in runs), top)
        for (e, c, t), (terms, dets) in zip(runs, minors):
            # an all-ones block must have det 0, read as W(m, 0) off the
            # case's wall; any other fails on its first entry that is not 1
            bad = {k for k, v in enumerate(terms, 1 - top) if v != 1}
            firsts = _first_differences(bad, top)
            ones = top - 1 - len(firsts)
            yield _down(2, c, [0] * ones, dets[1:ones + 1], f"{tag}det with t={t}, e={e}")
            if firsts:
                yield _down(ones + 2, c, [1] * len(firsts), [terms[j - i + top - 1] for i, j in firsts],
                            [f"{tag}entry {ij} with t={t}, e={e}" for ij in firsts])


_3K2 = (3, (2,))

_CATALOG = (
    _Claim("P2_3", None, _p2_3),
    _Claim("P2_4", (3, (1,)), _p2_4, noted=True),
    _Claim("P2_5", _3K2, _p2_5, noted=True),
    _Claim("T3_1", _3K2, _table(lambda pv, d: [
        _down(1, 0, [(-1) ** (n - 1) * (n - 1) for n in range(1, pv + 1)], d.column(0, 1, pv))])),
    _Claim("T3_2", _3K2, _table(lambda pv, d: [
        _down(2, c, [1] * (pv - 2), d.column(c, 2, pv - 1)) for c in (1, -1)])),
    _Claim("T3_3", _3K2, _table(lambda pv, d: [
        _along(pv, 1, [pv - 1] * (pv - 1), d.row(pv, 1, pv - 1))])),
    _Claim("T3_4", _3K2, _table(lambda pv, d: (
        _along(n, 2, [0] * (pv - 3), d.row(n, 2, pv - 2)) for n in range(2, pv - 1))), _t3_4_notes),
    _Claim("T3_5", _3K2, _table(lambda pv, d: [
        _along(pv - 1, 1, [1] * (pv - 1), d.row(pv - 1, 1, pv - 1))])),
    _Claim("T3_6", _3K2, _t3_6),
    _Claim("T3_7", (12, (5, 11)), _t3_7, notes=lambda p: [
        "primitive roots used: {} (full sweep), {} (spot check)".format(*_roots(p)),
        "shifts r**e are reduced mod p before building the matrix"]),
    _Claim("ROW_PERIOD_NP", _3K2, _table(lambda pv, d: (
        _along(n, 0, [0] * pv, d.row(n, 0, pv - 1))
        for n in range(pv + 1, pv + EXTENDED_EXTRA_ORDERS + 1)))),
    _Claim("TABLE_PERIOD", _3K2, _table(lambda pv, d: (
        _down(1, c, d.column(c, 1, pv), d.column(c + pv, 1, pv), f"column {c} vs {c + pv}")
        for c in range(pv)))),
    _Claim("REMARK_N1", _3K2, _table(lambda pv, d: [
        _along(1, 0, [0 if c % pv == 0 else 1 for c in range(2 * pv)], d.row(1, 0, 2 * pv - 1))])),
)

CLAIMS = tuple(entry.claim for entry in _CATALOG)


def _fits(entry: _Claim, p: Prime) -> bool:
    return entry.form is None or p.value % entry.form[0] in entry.form[1]


def _evaluate(entry: _Claim, p: Prime, inputs: dict) -> TheoremReport:
    """The report of one claim for one prime, every case counted and every
    counterexample collected in sweep order."""
    if not _fits(entry, p):
        m, classes = entry.form
        if not entry.noted:
            forms = " or ".join(f"{m}k+{r}" for r in classes)
            raise ValueError(f"{entry.claim} needs a prime of the form {forms}, got {p.value}")
        return TheoremReport(entry.claim, p, 0, [], [f"not applicable: {p.value} % {m} == {p.value % m}"])
    ces, cases = [], 0
    for expected, actual, where in entry.lines(p, **inputs):
        if len(expected) != len(actual):
            raise ValueError(f"{entry.claim}: line lengths differ ({len(expected)} expected, {len(actual)} actual)")
        cases += len(actual)
        if actual != expected:
            for i, (want, got) in enumerate(zip(expected, actual)):
                if want != got:
                    n, c, detail = where(i)
                    ces.append(Counterexample(n, c, want, got, detail))
    return TheoremReport(entry.claim, p, cases, ces, entry.notes(p))


def _run(entries: list, p: "Prime | int", **inputs) -> list[TheoremReport]:
    """Evaluate entries for one prime over one diff table, built on the first
    read, and the inputs as given; each claim defaults and checks its own."""
    p = as_prime(p)
    inputs["table"] = cache(lambda: generate_table("diff", p, (1, p.value + EXTENDED_EXTRA_ORDERS),
                                                   (-1, 2 * p.value - 1)))
    return [_evaluate(entry, p, inputs) for entry in entries]


def _checker(claim: str, doc: str) -> Callable[["Prime | int"], TheoremReport]:
    def check(p: "Prime | int") -> TheoremReport:
        return _run([_CATALOG[CLAIMS.index(claim)]], p)[0]

    check.__name__ = check.__qualname__ = f"check_{claim.lower()}"
    check.__doc__ = doc
    return check


def check_propositions(p: "Prime | int", a_bound: "int | None" = None) -> list[TheoremReport]:
    """Symbol facts, as three sub-reports.

    P2_3: the symbol is constant on residue classes, maps every nonzero
    cube to 1, and is even; swept for a in [-a_bound, a_bound] (default
    2p) plus all of [1, p-1] for the cube fact; a_bound must be at least 0.
    P2_4 (p = 3k+1 only): exactly (p-1)/3 nonzero classes are residues and
    2(p-1)/3 are nonresidues, with the symbol agreeing with brute-force
    cube enumeration everywhere.
    P2_5 (p = 3k+2 only): every nonzero class is a residue, again checked
    against the enumerated cube set rather than the symbol's own shortcut.
    Inapplicable sub-reports are returned with zero cases and a note.
    """
    return _run([entry for entry in _CATALOG if entry.claim.startswith("P2_")], p, a_bound=a_bound)


check_t3_1 = _checker("T3_1", "Shift 0: det equals (-1)**(n-1) * (n-1) for every order 1 <= n <= p.")
check_t3_2 = _checker("T3_2", "Shifts +1 and -1: det equals 1 for every order 1 < n <= p - 1.")
check_t3_3 = _checker("T3_3", "Full order n = p: det equals p - 1 for every shift 1 <= c <= p - 1.")
check_t3_4 = _checker("T3_4", """Interior rectangle 2 <= n <= p - 2, 2 <= c <= p - 2: det equals 0.

    Also counts, per case, the mechanism behind the rank collapse (at
    least two all-ones columns); a case without it is noted, never failed,
    since the determinant value is the claim under test.
    """)
check_t3_5 = _checker("T3_5", "Order n = p - 1: det equals 1 for every shift 1 <= c <= p - 1.")
check_t3_6 = _checker("T3_6", """The shift-1 matrix and the cubed-difference-plus-one matrix agree
    entrywise (hence in determinant) for every order 2 <= n <= p - 2.""")


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
    return _run([_CATALOG[CLAIMS.index("T3_7")]], p, t_max=t_max, n_max=n_max)[0]


check_row_period_np = _checker("ROW_PERIOD_NP", """Orders past p: rows repeat with period p, so
    det equals 0 for every order of the extended band
    p < n <= p + EXTENDED_EXTRA_ORDERS and every shift 0 <= c <= p - 1.""")
check_table_period = _checker("TABLE_PERIOD", """Table columns repeat horizontally:
    cell(n, c) = cell(n, c + p) over the default two-period table.""")
check_remark_n1 = _checker("REMARK_N1", """Order 1: the lone entry is the symbol of c, so det
    equals 1 for every shift not divisible by p and 0 otherwise; swept over
    both periods 0 <= c <= 2p - 1.""")


def verify_all(p_max: int, t_max: int = 3, n_max: int = 8) -> list[TheoremReport]:
    """Run every applicable claim for every odd prime 5 <= p <= p_max.

    The symbol propositions run for every prime; the determinant claims
    require the 3k+2 form and are skipped elsewhere. For each such prime
    the eight table claims read one shared difference-family table from
    one `generate_table` call; columns c and c + p are separate cells,
    computed from different terms of the symbol sequence. The reports,
    sorted by claim id then prime, hold every failure; a line whose sides
    differ in length raises ValueError.
    """
    p_max = as_int(p_max, "p_max")
    if p_max < 5:
        raise ValueError(f"p_max must be at least 5, got {p_max}")
    reports: list[TheoremReport] = []
    for p in map(Prime, odd_primes_up_to(p_max)[1:]):  # from 5: 3 is neither 3k+1 nor 3k+2
        reports += _run([entry for entry in _CATALOG if entry.noted or _fits(entry, p)],
                        p, t_max=t_max, n_max=n_max)
    return sorted(reports, key=lambda r: (CLAIMS.index(r.claim), r.prime.value))


def report_lines(reports: list[TheoremReport]) -> list[str]:
    """Machine-readable verdicts: claim, prime, cases, pass/fail,
    counterexample count; one line per report."""
    return [f"{r.claim} {r.prime.value} {r.cases_checked} {'pass' if r.passed else 'fail'} "
            f"{len(r.counterexamples)}" for r in reports]


def report_text(reports: list[TheoremReport], max_counterexamples: int = 5) -> str:
    """Human-readable verdicts with notes and the details of at most
    max_counterexamples counterexamples per report; below 0 it raises
    ValueError."""
    max_counterexamples = as_int(max_counterexamples, "max_counterexamples")
    if max_counterexamples < 0:
        raise ValueError(f"max_counterexamples must be at least 0, got {max_counterexamples}")
    lines = []
    for r in reports:
        lines.append(f"{r.claim:<13} p={r.prime.value:<5} cases={r.cases_checked:<7} "
                     f"{'PASS' if r.passed else 'FAIL'}  counterexamples={len(r.counterexamples)}")
        lines += [f"    note: {note}" for note in r.notes]
        for ce in r.counterexamples[:max_counterexamples]:
            tail = f"  [{ce.detail}]" if ce.detail else ""
            lines.append(f"    at (n={ce.n}, c={ce.c}): expected {ce.expected}, got {ce.actual}{tail}")
        if len(r.counterexamples) > max_counterexamples:
            lines.append(f"    ... {len(r.counterexamples) - max_counterexamples} more")
    return "\n".join(lines) + "\n"
