"""The mutation corpus: deliberate bugs that the tier-1 tests must catch.

Each entry names a file under src/cubres, an exact snippet of it, the
snippet's replacement and a test selection. The runner first requires the
unmutated source to pass every selection. Then, for each entry, it
replaces the snippet in a fresh copy of src/ and requires the entry's
selection to fail. A snippet that does not occur exactly once fails the
run loudly, so a refactor that rewrites mutated code must carry its
mutants along. Entries are only added; removing one needs a reason in
CHANGES.md.

pytest does not collect this file. Run it as `python tests/mutants.py`; it
prints each verdict with the time its run took.

Selections run under -W error, as tier-1 does, with the one filter that
README's Tests section names: where libcst is installed beside
hypothesis, a failing hypothesis test would otherwise end the session
with INTERNALERROR instead of failing.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "-W", "error",
          "-W", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"]
WALL, VERIFY = "tests/test_wall.py", "tests/test_verify.py"
TABLES, DETERMINANT = "tests/test_tables.py", "tests/test_determinant.py"
RESIDUES, RENDER = "tests/test_residues.py", "tests/test_render.py"
MATRICES = "tests/test_matrices.py"


class Mutant(NamedTuple):
    name: str
    what: str
    file: str
    snippet: str
    replacement: str
    selection: str


CORPUS = (
    Mutant("M1", "a window opened at row n - 1 is taken to hold row n - 2", "wall.py",
           "if t <= n - 2:", "if t <= n - 1:", WALL),
    Mutant("M2", "every top starts a run of its own", "wall.py",
           "tops[i - 1] != j - 1", "tops[i - 1] != j", WALL),
    Mutant("M3", "the zero divisors are taken to be the window cells", "wall.py",
           "zeros = up2[j_lo:j_hi + 1].count(0)", "zeros = owned", WALL),
    Mutant("M4", "P2_3 compares s(a) with itself for parity", "verify.py",
           "_Line(s, s[::-1],", "_Line(s, s,", VERIFY),
    Mutant("M5", "P2_3 compares s(a) with itself for the class", "verify.py",
           "_Line(same, s,", "_Line(s, s,", VERIFY),
    Mutant("T3_7-bounds", "T3_7 takes any t_max and n_max", "verify.py",
           "    if t_max < 1 or n_max < 2:\n"
           '        raise ValueError(f"need t_max >= 1 and n_max >= 2, got ({t_max}, {n_max})")\n',
           "", VERIFY),
    Mutant("P2_3-bound", "P2_3 takes a negative a_bound", "verify.py",
           "    if a_bound < 0:\n"
           '        raise ValueError(f"a_bound must be at least 0, got {a_bound}")\n',
           "", VERIFY),
    Mutant("line-lengths", "the evaluator compares lines of different lengths", "verify.py",
           "        if len(expected) != len(actual):\n"
           '            raise ValueError(f"{entry.claim}: line lengths differ ({len(expected)} expected, '
           '{len(actual)} actual)")\n',
           "", VERIFY),
    Mutant("memo-key", "even-power walls are shared by order, not by terms", "tables.py",
           "        if terms not in walls:\n"
           "            walls[terms] = number_wall(terms, n, first=1 - n).column(0, 1, n)\n"
           "        yield terms, walls[terms]\n",
           "        if n not in walls:\n"
           "            walls[n] = number_wall(terms, n, first=1 - n).column(0, 1, n)\n"
           "        yield terms, walls[n]\n", TABLES),
    Mutant("mirror", "the even-power mirror repeats s(0)", "tables.py",
           "terms = (*half[:0:-1], *half)", "terms = (*half[::-1], *half)", TABLES),
    Mutant("dodgson-cell", "one Dodgson cell of row 3 is off by one", "wall.py",
           "                row[j] = q\n", "                row[j] = q + (n == 3 and j == j_lo)\n", WALL),
    Mutant("inversions", "the elimination drops the inversion sign", "determinant.py",
           "minors[k] = -piv if inversions & 1 else piv", "minors[k] = piv", DETERMINANT),
    Mutant("rightmost-pivot", "the elimination pivots on the rightmost nonzero column", "determinant.py",
           "pos = next((j for j, v in enumerate(top) if v), None)",
           "pos = next((j for j, v in reversed(list(enumerate(top))) if v), None)", DETERMINANT),
    Mutant("in-block", "every pivot is taken for a leading minor", "determinant.py",
           "        if reach == k:\n", "        if True:\n", DETERMINANT),
    Mutant("rows-from-top", "a table's rows are sliced from order 1, not from n_lo", "tables.py",
           "_RowCells(rows[n_lo - 1:], *box)", "_RowCells(rows, *box)", TABLES),
    Mutant("hankel-offset", "the Hankel offset moves for a negative c_lo", "tables.py",
           "at = n + 1 if hankel else 0", "at = n + 1 + (c_lo < 0) if hankel else 0", TABLES),
    Mutant("shift-sabotage", "diff cells past the first period are off by one at order 2", "tables.py",
           "        row = wall.row(n, c_lo + at, c_hi + at)\n",
           "        row = [v + (n == 2 and c >= p.value) for c, v in\n"
           "               enumerate(wall.row(n, c_lo + at, c_hi + at), c_lo)]\n", VERIFY),
    Mutant("T3_6-self", "T3_6 compares b with b", "verify.py",
           "[a[k] for k in at], [b[k] for k in at]", "[b[k] for k in at], [b[k] for k in at]", VERIFY),
    Mutant("period-self", "TABLE_PERIOD compares a column with itself", "verify.py",
           "d.column(c, 1, pv), d.column(c + pv, 1, pv)", "d.column(c, 1, pv), d.column(c, 1, pv)", VERIFY),
    Mutant("first-only", "the evaluator stops at a line's first counterexample", "verify.py",
           "                    ces.append(Counterexample(n, c, want, got, detail))\n",
           "                    ces.append(Counterexample(n, c, want, got, detail))\n"
           "                    break\n", VERIFY),
    Mutant("H-column", "H reads D_k one column off", "wall.py",
           "_exact(at(t + g, j) * cg * num", "_exact(at(t + g, j - 1) * cg * num", WALL),
    Mutant("S-sign", "S has its sign flipped in _solve_frame", "wall.py",
           "s_num, s_den = (-1) ** g * b1 * ag1", "s_num, s_den = (-1) ** (g + 1) * b1 * ag1", WALL),
    Mutant("symbol", "the symbol of 2 mod a 3k+2 prime is -1", "residues.py",
           "    if p.mod3 != 1:\n        return 1\n",
           "    if p.mod3 != 1:\n        return -1 if r == 2 else 1\n", VERIFY),
    Mutant("as_int-int", "as_int reads with int(), so 2.0 and \"2\" pass", "residues.py",
           "return operator.index(value)", "return int(value)", RESIDUES),
    Mutant("table-prime", "DeterminantTable stores its prime as given", "tables.py",
           "prime, t, family = as_prime(prime),", "prime, t, family = prime,", TABLES),
    Mutant("sign-order", "positive and negative cells swap colors", "render.py",
           "_BY_SIGN = (SignClass.ZERO, SignClass.POSITIVE, SignClass.NEGATIVE)",
           "_BY_SIGN = (SignClass.ZERO, SignClass.NEGATIVE, SignClass.POSITIVE)", RENDER),
    Mutant("base-41", "the strong test drops its last base, 41", "residues.py",
           "29, 31, 37, 41)", "29, 31, 37)", RESIDUES),
    Mutant("float-dodgson", "the Dodgson division rounds through a float", "wall.py",
           "q, r = divmod(x * x - up[j - 1] * up[j + 1], d)",
           "q, r = round((x * x - up[j - 1] * up[j + 1]) / d), 0", WALL),
    Mutant("even-power-sign", "the even-power argument is k**(2t) - c", "matrices.py",
           "pow(k, 2 * self.t, p) + self.c", "pow(k, 2 * self.t, p) - self.c", TABLES),
    Mutant("cubic-euler", "the cubic symbol of a 3k+1 prime tests squares", "residues.py",
           "return 1 if pow(r, (p.value - 1) // 3, p.value) == 1 else -1",
           "return 1 if pow(r, (p.value - 1) // 2, p.value) == 1 else -1", TABLES),
    Mutant("matrix-prime", "ResidueMatrix stores its prime as given", "matrices.py",
           "prime, order = as_prime(prime), _order(order)", "prime, order = prime, _order(order)", MATRICES),
    Mutant("sum-kind", "the sum family is read as Toeplitz, j - i + c", "matrices.py",
           "    kind = HANKEL\n", "    kind = TOEPLITZ\n", MATRICES),
    Mutant("composite-piece", "a composite piece of p - 1 is taken as prime", "residues.py",
           "        if is_prime(m):\n            factors.add(m)\n",
           "        if True:\n            factors.add(m)\n", RESIDUES),
)


def _fresh_source(work: Path) -> Path:
    """A copy of src/ at work/src, replacing any earlier one."""
    src = work / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src / "cubres"


def _run(work: Path, selection: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(PYTEST + [selection], cwd=work, env=env, capture_output=True, text=True)


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "tests", work / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work)
        _fresh_source(work)
        for selection in dict.fromkeys(m.selection for m in CORPUS):
            start = time.perf_counter()
            done = _run(work, selection)
            if done.returncode != 0:
                print(f"unmutated source fails {selection}:\n{done.stdout[-2000:]}")
                return 1
            print(f"{'unmutated':<15} passed  ({selection}, {time.perf_counter() - start:.0f} s)")
        for m in CORPUS:
            start = time.perf_counter()
            path = _fresh_source(work) / m.file
            text = path.read_text()
            if text.count(m.snippet) != 1:
                verdict = f"snippet occurs {text.count(m.snippet)} times, not once"
            else:
                path.write_text(text.replace(m.snippet, m.replacement))
                done = _run(work, m.selection)
                verdict = {0: "SURVIVED", 1: "caught"}.get(
                    done.returncode, f"pytest exit {done.returncode}:\n{done.stdout[-2000:]}")
            bad += verdict != "caught"
            print(f"{m.name:<15} {verdict}  ({m.file}: {m.what}; {time.perf_counter() - start:.0f} s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
