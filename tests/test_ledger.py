"""The work ledger: counts of the engine's work on fixed inputs.

The counts are deterministic, unlike timings on a shared host. A change
that claims a speedup shows here which count it moved, and a change that
raises a count says why.
"""

import pytest

import cubres.tables as tables_module
from cubres import generate_table, verify_all


def _spy_walls(monkeypatch):
    """Collect every wall that tables builds."""
    built = []
    real = tables_module.number_wall

    def spy(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(tables_module, "number_wall", spy)
    return built


@pytest.mark.parametrize("args, kwargs, ledger", [
    # the table-3k2 benchmark workload, `table -p 71 --diff --extended`:
    # one wall of 302 terms, 81 rows deep, whose zero band starts at row 72
    (("diff", 71), {"extended": True}, (1, 1562, 12, 13)),
    # verify's diff box at p = 389, the largest 3k+2 prime under the 400
    # cap: one wall of 1,575 terms, 399 rows deep, whose zero band starts
    # at row 390. Its rows 2..399 hold 468,048 cells; 1.8 % are condensed,
    # the 795 zeros of row 391 among them, and the rows below it lie under
    # the band's span
    (("diff", 389, (1, 399), (-1, 777)), {}, (1, 8247, 12, 13)),
    # `table -p 101 --even-power --t 1`: shifts 0..201, one wall per
    # distinct tuple of terms, each 201 terms and 101 rows deep. Every unit
    # is a cube mod 101 = 3k+2, so s(k) = [k**2 + c] is 0 just where
    # k**2 = -c: c = 0 mod p gives one tuple, the 50 classes with -c a
    # nonzero square one each, and the 50 with -c a non-square share the
    # all-ones tuple. The wall count grows if walls are shared by less than
    # their terms; c and c + p share one today
    (("even-power", 101), {"t": 1}, (52, 59086, 1043, 1251)),
    # `table -p 199 --sum`: shifts 0..397 of a 3k+1 prime read off one
    # Hankel wall of 794 terms, 199 rows deep, whose cells reach 635 bits
    (("sum", 199), {}, (1, 114679, 527, 731)),
], ids=["table-3k2", "verify-box-389", "even-power-101", "sum-199"])
def test_wall_ledger(monkeypatch, args, kwargs, ledger):
    walls = _spy_walls(monkeypatch)
    generate_table(*args, **kwargs)
    built, cells, windows, solves = ledger
    # walls built: one per diff or sum table, and one per distinct tuple of
    # even-power terms
    assert len(walls) == built
    # cells condensed: those of rows 2..depth whose divisor is nonzero, the
    # cells outside every window's span. It grows if the loop visits window
    # interiors again, and moves if the wall's depth does
    assert sum(w.cells_computed for w in walls) == cells
    # windows registered by the run scan: moves if the scan misses tops, or
    # splits or merges runs
    assert sum(w.windows_opened for w in walls) == windows
    # bottom-row solves, one per window and per bottom row whose span,
    # clipped to that row, holds a cell: moves if windows are missed, or if
    # a bottom row with no cell to solve is counted again
    assert sum(w.frame_solves for w in walls) == solves


@pytest.mark.parametrize("p_max, ledger, cases, reports", [
    # `verify --p-max 60`, the CLI default: for each of the nine 3k+2
    # primes, its diff box and T3_7's two even-power walls (orders 8 and 2)
    (60, (27, 6888, 131, 124), 34797, 135),
    # the CI sweep `verify --p-max 200`: the same three walls for each of
    # its 23 3k+2 primes
    (200, (69, 47978, 327, 306), 671081, 362),
], ids=["verify-p60", "verify-p200"])
def test_verify_ledger(monkeypatch, p_max, ledger, cases, reports):
    walls = _spy_walls(monkeypatch)
    done = verify_all(p_max)
    # the walls and their counters move as in test_wall_ledger
    assert (len(walls), sum(w.cells_computed for w in walls), sum(w.windows_opened for w in walls),
            sum(w.frame_solves for w in walls)) == ledger
    # claim cases checked, summed over the reports: moves if a claim reads
    # more or fewer cells, or a prime's reports come or go
    assert (sum(r.cases_checked for r in done), len(done)) == (cases, reports)
