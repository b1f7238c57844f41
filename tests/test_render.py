"""Emitters: CSV, text grid, ANSI, SVG."""

from types import MappingProxyType

import pytest

from cubres import (
    ColorScheme,
    DEFAULT_SCHEME,
    DeterminantTable,
    DiffPlusC,
    Prime,
    build_matrix,
    emit_ansi,
    emit_csv,
    emit_svg,
    generate_table,
    matrix_text,
    parse_csv,
    table_text,
)


def _tiny_table(cells, n_range, c_range, p=5):
    return DeterminantTable(Prime(p), "diff", 1, n_range, c_range, MappingProxyType(dict(cells)))


def test_matrix_text():
    m = build_matrix(DiffPlusC(0), 7, 3)
    assert matrix_text(m) == "0 1 -1\n1 0 1\n-1 1 0"


def test_csv_minimal():
    t = _tiny_table({(1, 1): 1}, (1, 1), (1, 1))
    assert emit_csv(t) == "n\\c,1\n1,1\n"


def test_csv_layout():
    t = _tiny_table({(1, 0): 0, (1, 1): 1, (2, 0): -1, (2, 1): 1}, (1, 2), (0, 1))
    assert emit_csv(t) == "n\\c,0,1\n1,0,1\n2,-1,1\n"


def test_csv_negative_shifts():
    t = _tiny_table({(1, -1): 1, (1, 0): 0}, (1, 1), (-1, 0))
    text = emit_csv(t)
    assert text == "n\\c,-1,0\n1,1,0\n"
    assert parse_csv(text) == {(1, -1): 1, (1, 0): 0}


def test_csv_round_trip():
    t = generate_table("diff", 11)
    assert parse_csv(emit_csv(t)) == dict(t.cells)


@pytest.mark.parametrize("family, t", [("diff", 1), ("sum", 1), ("even-power", 2)])
def test_a_table_from_a_plain_dict_renders_the_same_bytes(family, t):
    made = generate_table(family, 11, (2, 14), (-3, 12), t=t)
    given = DeterminantTable(made.prime, family, t, made.n_range, made.c_range, dict(made.cells))
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
    t = _tiny_table({(1, 0): 0, (1, 1): 1, (2, 0): -1, (2, 1): 1}, (1, 2), (0, 1))
    lines = table_text(t).split("\n")
    assert lines[0].split() == ["n\\c", "0", "1"]
    assert lines[1].split() == ["1", "0", "1"]
    assert lines[2].split() == ["2", "-1", "1"]
    # fixed width: all rows align
    assert len({len(line) for line in lines[:3]}) == 1


def test_ansi_color_codes_by_sign():
    t = _tiny_table({(1, 0): 0, (1, 1): -3, (1, 2): 7}, (1, 1), (0, 2))
    out = emit_ansi(t)
    z = DEFAULT_SCHEME.zero
    n = DEFAULT_SCHEME.negative
    p = DEFAULT_SCHEME.positive
    assert f"\x1b[48;2;{z[0]};{z[1]};{z[2]}m" in out
    assert f"\x1b[48;2;{n[0]};{n[1]};{n[2]}m" in out
    assert f"\x1b[48;2;{p[0]};{p[1]};{p[2]}m" in out
    assert out.count("\x1b[0m") == 3


def test_ansi_no_color_uses_glyphs():
    t = _tiny_table({(1, 0): 0, (1, 1): -3, (1, 2): 7}, (1, 1), (0, 2))
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
    t = _tiny_table({(1, 0): 0}, (1, 1), (0, 0))
    assert "#000000" in emit_svg(t, scheme=s)


def test_svg_rect_per_cell():
    t = generate_table("diff", 11, c_range=(0, 10))
    out = emit_svg(t)
    assert out.count("<rect ") == 121
    assert out.startswith("<svg xmlns=")
    assert out.rstrip().endswith("</svg>")


def test_svg_geometry_and_hover_text():
    t = _tiny_table({(1, 0): 0, (1, 1): 1, (2, 0): -1, (2, 1): 1}, (1, 2), (0, 1))
    out = emit_svg(t, cell_px=10)
    assert 'width="20" height="20"' in out
    assert '<rect x="0" y="0" width="10" height="10"' in out
    assert '<rect x="10" y="10" width="10" height="10"' in out
    assert "<title>n=2 c=0: -1</title>" in out
    assert "<title>n=1 c=1: 1</title>" in out


def test_svg_extended_zero_band_color():
    t = generate_table("diff", 5, extended=True)
    out = emit_svg(t)
    zero_fill = "#{:02x}{:02x}{:02x}".format(*DEFAULT_SCHEME.zero)
    # rows past p are entirely zero-colored: 10 rows x 10 shifts
    assert out.count(zero_fill) >= 100


def test_svg_rejects_bad_cell_px():
    t = _tiny_table({(1, 0): 0}, (1, 1), (0, 0))
    with pytest.raises(ValueError):
        emit_svg(t, cell_px=0)


def test_svg_reads_cell_px_as_an_integer():
    t = _tiny_table({(1, 0): 0}, (1, 1), (0, 0))
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
