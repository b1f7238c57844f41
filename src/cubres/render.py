"""CSV, fixed-width text, ANSI and SVG views of matrices and tables.

All emitters are pure: identical inputs produce byte-identical output.
CSV is the interchange format and parse_csv inverts it exactly; the SVG
emitter reproduces the color-coded table figures; the ANSI view is for
terminals. A cell's sign class picks its color.
"""

import enum
from typing import TYPE_CHECKING

from .residues import Record, as_int

if TYPE_CHECKING:
    from .matrices import ResidueMatrix
    from .tables import DeterminantTable

__all__ = [
    "SignClass",
    "sign_classify",
    "ColorScheme",
    "DEFAULT_SCHEME",
    "matrix_text",
    "emit_csv",
    "parse_csv",
    "table_text",
    "emit_ansi",
    "emit_svg",
]


class SignClass(enum.Enum):
    """Ternary cell classification used for color coding."""

    ZERO = "zero"
    NEGATIVE = "negative"
    POSITIVE = "positive"


# The one sign rule: a value's sign (v > 0) - (v < 0), that is 0, 1 or -1,
# indexes its class here, and each emitter indexes its per-class list alike.
_BY_SIGN = (SignClass.ZERO, SignClass.POSITIVE, SignClass.NEGATIVE)


def sign_classify(v: int) -> SignClass:
    """ZERO, NEGATIVE or POSITIVE according to the sign of v."""
    return _BY_SIGN[(v > 0) - (v < 0)]


class ColorScheme(Record):
    """Fill colors per sign class; defaults are blue / orange / green. Each
    color is three components in 0..255, read by `as_int` into a tuple."""

    __slots__ = ("zero", "negative", "positive")

    def __init__(self, zero: tuple = (59, 117, 196), negative: tuple = (230, 126, 34),
                 positive: tuple = (46, 139, 87)) -> None:
        rgbs = [tuple(as_int(x, "color component") for x in rgb) for rgb in (zero, negative, positive)]
        for rgb in rgbs:
            if len(rgb) != 3 or not all(0 <= x <= 255 for x in rgb):
                raise ValueError(f"not an RGB triple: {rgb!r}")
        if len(set(rgbs)) != 3:
            raise ValueError("scheme colors must be pairwise distinct")
        self._store(*rgbs)

    def for_sign(self, s: SignClass) -> tuple:
        """The color of sign class s; each class's value names its field."""
        return getattr(self, s.value)


DEFAULT_SCHEME = ColorScheme()


def matrix_text(matrix: "ResidueMatrix") -> str:
    """One line per row, entries space-separated."""
    return "\n".join(" ".join(str(v) for v in row) for row in matrix.rows())


def emit_csv(table: "DeterminantTable") -> str:
    """Grid as CSV: corner cell ``n\\c``, shifts across, orders down.
    Every line is newline-terminated and carries no trailing delimiter."""
    lines = ["n\\c," + ",".join(str(c) for c in table.shifts())]
    for n in table.orders():
        lines.append(str(n) + "," + ",".join(map(str, table.row(n))))
    return "\n".join(lines) + "\n"


def parse_csv(text: str) -> dict[tuple[int, int], int]:
    """Exact inverse of emit_csv, returning the {(n, c): value} cells. A
    shift or an order that appears twice raises ValueError, since the
    second would overwrite the first's cells."""
    lines = [line for line in text.split("\n") if line]
    if not lines:
        raise ValueError("empty table CSV")
    head = lines[0].split(",")
    if head[0] != "n\\c":
        raise ValueError("missing n\\c corner cell; not a determinant-table CSV")
    shifts = [int(tok) for tok in head[1:]]
    if len(set(shifts)) != len(shifts):
        c = next(c for c in shifts if shifts.count(c) > 1)
        raise ValueError(f"shift c={c} heads more than one column")
    cells: dict[tuple[int, int], int] = {}
    orders = set()
    for line in lines[1:]:
        tokens = line.split(",")
        n = int(tokens[0])
        if n in orders:
            raise ValueError(f"order n={n} has more than one row")
        orders.add(n)
        if len(tokens) != len(shifts) + 1:
            raise ValueError(f"row n={n} has {len(tokens) - 1} cells, expected {len(shifts)}")
        for c, tok in zip(shifts, tokens[1:]):
            cells[n, c] = int(tok)
    return cells


def _grid(table: "DeterminantTable", paint) -> str:
    """The fixed-width grid of table_text and emit_ansi, with order and
    shift labels. One cell width, wide enough for every label and value,
    keeps both views aligned; paint(v, cell) draws the cell of value v
    from its text right-justified to that width."""
    values = [table.row(n) for n in table.orders()]
    texts = [[str(n), *map(str, row)] for n, row in zip(table.orders(), values)]
    head = ["n\\c", *map(str, table.shifts())]
    width = max(len(s) for row in [head, *texts] for s in row)
    lines = ["  ".join(s.rjust(width) for s in head)]
    for row, (label, *cells) in zip(values, texts):
        painted = (paint(v, s.rjust(width)) for v, s in zip(row, cells))
        lines.append("  ".join([label.rjust(width), *painted]))
    return "\n".join(lines) + "\n"


def table_text(table: "DeterminantTable") -> str:
    """Fixed-width numeric grid with order and shift labels."""
    return _grid(table, lambda v, cell: cell)


def emit_ansi(table: "DeterminantTable", scheme: ColorScheme = DEFAULT_SCHEME, color: bool = True) -> str:
    """The table_text grid with sign-colored cell backgrounds. With
    color=False each cell shows its sign glyph (0 / - / +) instead, same
    geometry, no escape codes."""
    if not color:
        glyphs = ["0", "+", "-"]
        return _grid(table, lambda v, cell: glyphs[(v > 0) - (v < 0)].rjust(len(cell)))
    codes = ["\x1b[48;2;{};{};{}m".format(*scheme.for_sign(s)) for s in _BY_SIGN]
    return _grid(table, lambda v, cell: f"{codes[(v > 0) - (v < 0)]}{cell}\x1b[0m")


def _hex(rgb: tuple) -> str:
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def emit_svg(table: "DeterminantTable", scheme: ColorScheme = DEFAULT_SCHEME, cell_px: int = 12) -> str:
    """One sign-colored rectangle per cell, orders running downward and
    shifts rightward; each rectangle carries its exact value as hover
    text. Output bytes are a pure function of the inputs. A cell_px below
    1 raises ValueError."""
    cell_px = as_int(cell_px, "cell_px")
    if cell_px < 1:
        raise ValueError(f"cell_px must be >= 1, got {cell_px}")
    n_lo, n_hi = table.n_range
    c_lo, c_hi = table.c_range
    w = (c_hi - c_lo + 1) * cell_px
    h = (n_hi - n_lo + 1) * cell_px
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">'
    ]
    fills = [_hex(scheme.for_sign(s)) for s in _BY_SIGN]
    for n in table.orders():
        y = (n - n_lo) * cell_px
        for c, v in zip(table.shifts(), table.row(n)):
            x = (c - c_lo) * cell_px
            fill = fills[(v > 0) - (v < 0)]
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell_px}" height="{cell_px}" fill="{fill}">'
                f"<title>n={n} c={c}: {v}</title></rect>"
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
