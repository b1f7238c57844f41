"""The mutation corpus: deliberate bugs that the tier-1 tests must catch.

Each entry names a file under src/cubres, an exact snippet of it, the
snippet's replacement and a test selection. The runner first requires the
unmutated source to pass every selection. Then, for each entry, it
replaces the snippet in a fresh copy of src/ and requires the entry's
selection to fail. A snippet that does not occur exactly once fails the
run loudly, so a refactor that rewrites mutated code must carry its
mutants along. Entries are only added; removing one needs a reason in
CHANGES.md.

pytest does not collect this file. Run it as `python tests/mutants.py`.

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
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "-W", "error",
          "-W", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"]
WALL, VERIFY = "tests/test_wall.py", "tests/test_verify.py"


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
            done = _run(work, selection)
            if done.returncode != 0:
                print(f"unmutated source fails {selection}:\n{done.stdout[-2000:]}")
                return 1
        for m in CORPUS:
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
            print(f"{m.name:<13} {verdict}  ({m.file}: {m.what})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
