"""Emitters: CSV, text grid, ANSI, SVG."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubres import (
    ColorScheme,
    DEFAULT_SCHEME,
    DiffPlusC,
    build_matrix,
    emit_ansi,
    emit_csv,
    emit_svg,
    generate_table,
    odd_primes_up_to,
    matrix_text,
    parse_csv,
    table_text,
)


class _StandIn:
    """A table of chosen cells, with only what the emitters read:
    n_range, c_range, orders(), shifts() and row(n)."""

    def __init__(self, cells, n_range, c_range):
        self._cells, self.n_range, self.c_range = dict(cells), n_range, c_range

    def orders(self):
        return range(self.n_range[0], self.n_range[1] + 1)

    def shifts(self):
        return range(self.c_range[0], self.c_range[1] + 1)

    def row(self, n):
        return [self._cells[n, c] for c in self.shifts()]


def test_matrix_text():
    m = build_matrix(DiffPlusC(0), 7, 3)
    assert matrix_text(m) == "0 1 -1\n1 0 1\n-1 1 0"


def test_csv_minimal():
    t = _StandIn({(1, 1): 1}, (1, 1), (1, 1))
    assert emit_csv(t) == "n\\c,1\n1,1\n"


def test_csv_layout():
    t = _StandIn({(1, 0): 0, (1, 1): 1, (2, 0): -1, (2, 1): 1}, (1, 2), (0, 1))
    assert emit_csv(t) == "n\\c,0,1\n1,0,1\n2,-1,1\n"


def test_csv_negative_shifts():
    t = _StandIn({(1, -1): 1, (1, 0): 0}, (1, 1), (-1, 0))
    text = emit_csv(t)
    assert text == "n\\c,-1,0\n1,1,0\n"
    assert parse_csv(text) == {(1, -1): 1, (1, 0): 0}


def test_csv_round_trip():
    t = generate_table("diff", 11)
    assert parse_csv(emit_csv(t)) == dict(t.cells)


@pytest.mark.parametrize("family, t", [("diff", 1), ("sum", 1), ("even-power", 2)])
def test_a_table_from_a_plain_dict_renders_the_same_bytes(family, t):
    # the stand-in renders what a table renders: over a plain dict of a
    # real table's cells, every emitter writes that table's bytes
    made = generate_table(family, 11, (2, 14), (-3, 12), t=t)
    given = _StandIn(dict(made.cells), made.n_range, made.c_range)
    for emit in (emit_csv, table_text, emit_ansi, emit_svg,
                 lambda table: emit_ansi(table, color=False)):
        assert emit(given) == emit(made)


def test_parse_csv_rejects_garbage():
    with pytest.raises(ValueError):
        parse_csv("")
    with pytest.raises(ValueError):
        parse_csv("a,b\n1,2\n")
    with pytest.raises(ValueError):
        parse_csv("n\\c,0,1\n1,5\n")


@pytest.mark.parametrize("text, message", [
    ("n\\c,0,1\n1,5,6\n1,7,8\n", "order n=1 has more than one row"),
    ("n\\c,0,0\n1,5,6\n", "shift c=0 heads more than one column"),
])
def test_parse_csv_rejects_a_repeated_order_or_shift(text, message):
    # the repeat would overwrite the cells read first
    with pytest.raises(ValueError, match=f"^{message}$"):
        parse_csv(text)


def test_table_text_grid():
    t = _StandIn({(1, 0): 0, (1, 1): 1, (2, 0): -1, (2, 1): 1}, (1, 2), (0, 1))
    lines = table_text(t).split("\n")
    assert lines[0].split() == ["n\\c", "0", "1"]
    assert lines[1].split() == ["1", "0", "1"]
    assert lines[2].split() == ["2", "-1", "1"]
    # fixed width: all rows align
    assert len({len(line) for line in lines[:3]}) == 1


# one cell of each sign, and a scheme of its own beside the default one
_SIGNED = {(1, 0): 0, (1, 1): -3, (1, 2): 7}
_DISTINCT = ColorScheme(zero=(1, 2, 3), negative=(4, 5, 6), positive=(7, 8, 9))


def test_ansi_color_codes_by_sign():
    t = _StandIn(_SIGNED, (1, 1), (0, 2))
    for scheme in (DEFAULT_SCHEME, _DISTINCT):
        out = emit_ansi(t, scheme=scheme)
        z, n, p = ("\x1b[48;2;{};{};{}m".format(*rgb) for rgb in (scheme.zero, scheme.negative, scheme.positive))
        # each cell, right-justified to the grid's width of 3, carries its own sign's color
        assert out.split("\n")[1] == f"  1  {z}  0\x1b[0m  {n} -3\x1b[0m  {p}  7\x1b[0m"
        assert out.count("\x1b[0m") == 3


def test_svg_fill_by_sign():
    t = _StandIn(_SIGNED, (1, 1), (0, 2))
    for scheme in (DEFAULT_SCHEME, _DISTINCT):
        z, n, p = ("#{:02x}{:02x}{:02x}".format(*rgb) for rgb in (scheme.zero, scheme.negative, scheme.positive))
        cells = re.findall(r'fill="(#[0-9a-f]{6})"><title>n=1 c=(\d): (-?\d+)</title>', emit_svg(t, scheme=scheme))
        assert cells == [(z, "0", "0"), (n, "1", "-3"), (p, "2", "7")]


def test_ansi_no_color_uses_glyphs():
    t = _StandIn(_SIGNED, (1, 1), (0, 2))
    out = emit_ansi(t, color=False)
    assert "\x1b[" not in out
    cells = out.split("\n")[1].split()[1:]
    assert cells == ["0", "-", "+"]


def test_custom_scheme_validation():
    with pytest.raises(ValueError):
        ColorScheme(zero=(0, 0, 300))
    with pytest.raises(ValueError):
        ColorScheme(zero=(1, 2), negative=(0, 0, 0), positive=(1, 1, 1))
    with pytest.raises(ValueError):
        ColorScheme(zero=(1, 1, 1), negative=(1, 1, 1), positive=(2, 2, 2))
    s = ColorScheme(zero=(0, 0, 0), negative=(10, 10, 10), positive=(250, 250, 250))
    t = _StandIn({(1, 0): 0}, (1, 1), (0, 0))
    assert "#000000" in emit_svg(t, scheme=s)


def test_svg_rect_per_cell():
    t = generate_table("diff", 11, c_range=(0, 10))
    out = emit_svg(t)
    assert out.count("<rect ") == 121
    assert out.startswith("<svg xmlns=")
    assert out.rstrip().endswith("</svg>")


def test_svg_geometry_and_hover_text():
    t = _StandIn({(1, 0): 0, (1, 1): 1, (2, 0): -1, (2, 1): 1}, (1, 2), (0, 1))
    out = emit_svg(t, cell_px=10)
    assert 'width="20" height="20"' in out
    assert '<rect x="0" y="0" width="10" height="10"' in out
    assert '<rect x="10" y="10" width="10" height="10"' in out
    assert "<title>n=2 c=0: -1</title>" in out
    assert "<title>n=1 c=1: 1</title>" in out
    # x and y count from the box's corner, here a negative shift
    t = _StandIn({(3, -2): 5, (3, -1): 0}, (3, 3), (-2, -1))
    out = emit_svg(t, cell_px=10)
    assert '<rect x="0" y="0" width="10" height="10"' in out and "<title>n=3 c=-2: 5</title>" in out
    assert '<rect x="10" y="0" width="10" height="10"' in out


def test_svg_extended_zero_band_color():
    t = generate_table("diff", 5, extended=True)
    out = emit_svg(t)
    zero_fill = "#{:02x}{:02x}{:02x}".format(*DEFAULT_SCHEME.zero)
    # rows past p are entirely zero-colored: 10 rows x 10 shifts
    assert out.count(zero_fill) >= 100


def test_svg_rejects_bad_cell_px():
    t = _StandIn({(1, 0): 0}, (1, 1), (0, 0))
    with pytest.raises(ValueError):
        emit_svg(t, cell_px=0)


def test_svg_reads_cell_px_as_an_integer():
    t = _StandIn({(1, 0): 0}, (1, 1), (0, 0))
    with pytest.raises(ValueError, match="^cell_px must be >= 1, got -3$"):
        emit_svg(t, cell_px=-3)
    # a float would write float geometry, x="0.0"
    for bad in (1.5, 12.0, "12"):
        with pytest.raises(TypeError, match=f"^cell_px must be an integer, got {type(bad).__name__}$"):
            emit_svg(t, cell_px=bad)


def test_emitters_are_deterministic():
    a = generate_table("diff", 11)
    b = generate_table("diff", 11)
    assert emit_csv(a) == emit_csv(b)
    assert emit_svg(a) == emit_svg(b)
    assert emit_ansi(a) == emit_ansi(b)
    assert table_text(a) == table_text(b)


def _plain_svg(table, scheme, cell_px):
    """emit_svg as one plain loop over the cells, with every field of every
    rectangle formatted in place and the sign rule written out."""
    n_lo, n_hi = table.n_range
    c_lo, c_hi = table.c_range
    w, h = (c_hi - c_lo + 1) * cell_px, (n_hi - n_lo + 1) * cell_px
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">']
    for n in table.orders():
        for c in table.shifts():
            v = table.cell(n, c)
            rgb = scheme.zero if v == 0 else scheme.positive if v > 0 else scheme.negative
            parts.append(f'<rect x="{(c - c_lo) * cell_px}" y="{(n - n_lo) * cell_px}" '
                         f'width="{cell_px}" height="{cell_px}" fill="#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}">'
                         f"<title>n={n} c={c}: {v}</title></rect>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


_RGB = st.tuples(*[st.integers(0, 255)] * 3)


@settings(max_examples=80, deadline=None)
@given(
    family=st.sampled_from(["diff", "sum", "even-power"]),
    p=st.sampled_from(odd_primes_up_to(31)[1:]),
    t=st.integers(1, 3),
    n_lo=st.integers(1, 6),
    n_len=st.integers(0, 8),
    c_lo=st.integers(-12, 12),
    c_len=st.integers(0, 14),
    colors=st.none() | st.lists(_RGB, min_size=3, max_size=3, unique=True),
    cell_px=st.integers(1, 20),
)
def test_svg_matches_a_plain_per_cell_loop(family, p, t, n_lo, n_len, c_lo, c_len, colors, cell_px):
    # boxes off the origin, with orders from n_lo > 1 and negative shifts,
    # and a scheme of its own or the default one
    table = generate_table(family, p, (n_lo, n_lo + n_len), (c_lo, c_lo + c_len), t=t)
    scheme = DEFAULT_SCHEME if colors is None else ColorScheme(*colors)
    # compared line by line: a failure then names the first rectangle that
    # differs without a text diff of the whole document
    assert emit_svg(table, scheme, cell_px).split("\n") == _plain_svg(table, scheme, cell_px).split("\n")
