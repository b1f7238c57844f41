"""The work ledger: counts of the engine's work on fixed inputs.

The counts are deterministic, unlike timings on a shared host. A change
that claims a speedup shows here which count it moved, and a change that
raises a count says why.
"""

import pytest

import cubres.tables as tables_module
from cubres import generate_table


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
    # one wall of 302 terms, 81 rows deep
    (("diff", 71), {"extended": True}, (1404, 12, 13)),
    # verify's diff box at p = 389, the largest 3k+2 prime under the 400
    # cap: one wall of 1,575 terms, ended by the zero band at row 390. Its
    # rows 2..390 hold 389 * 1,185 = 460,965 cells; 1.6 % are condensed
    (("diff", 389, (1, 399), (-1, 777)), {}, (7452, 12, 13)),
], ids=["table-3k2", "verify-box-389"])
def test_wall_ledger(monkeypatch, args, kwargs, ledger):
    walls = _spy_walls(monkeypatch)
    generate_table(*args, **kwargs)
    [w] = walls
    cells, windows, solves = ledger
    # cells condensed: those outside every window's span, in the rows down
    # to the stop. It grows if the loop visits window interiors again, or if
    # the stop moves down
    assert w.cells_computed == cells
    # windows registered by the run scan: moves if the scan misses tops, or
    # splits or merges runs
    assert w.windows_opened == windows
    # bottom-row solves, one per uncut window and bottom row inside the
    # triangle: moves if cut windows get frames, or windows are missed
    assert w.frame_solves == solves

