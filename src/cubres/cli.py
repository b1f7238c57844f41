"""Command-line front end.

Subcommands: symbol, matrix, det, table, verify. Results go to stdout (or
a file via -o); diagnostics go to stderr. Exit codes: 0 on success, 1
when verify finds a failing claim, 2 on invalid input or when the output
file cannot be written.

Each command imports only the modules it runs; at module level this file
imports `residues` alone, which every command needs. No command loads
numpy or the engine module `cubres.determinant`. Beyond `cubres` and
`cubres.residues`, a command loads:

- `symbol`: nothing;
- `det`: `matrices`, `tables` and `wall`, since `det` prints the last of
  `tables.formula_minors`, read off one number wall;
- `table`: those three and `render`;
- `verify`: those three and `verify`, which checks its claims on symbol
  sequences and walls;
- `matrix`: `matrices` and `render`.

No command loads `dataclasses`, nor the `inspect` and `ast` it imports:
the value classes are slotted records on `residues.Record`, since a
dataclass would cost every command that import and an `exec` per class.
"""

import argparse
import os
import sys
from pathlib import Path

from .residues import Prime, cube_root, cubic_residue_symbol

__all__ = ["main", "build_parser"]

DEFAULT_MAX_ORDER = 200
PRIME_CAP = 2**31
# verify caps: with all three at once the sweep takes about 1.1 s on a 2-vCPU
# x86 host. T3_7 reads one number wall of depth --n-max per distinct sequence.
P_MAX_CAP = 400
T_MAX_CAP = 5
N_MAX_CAP = 20


def _prime_arg(value: int) -> Prime:
    if value >= PRIME_CAP:
        raise ValueError(f"p must be below 2**31, got {value}")
    return Prime(value)


def _check_order(n: int, max_order: int) -> None:
    if n > max_order:
        raise ValueError(f"order {n} exceeds the cap of {max_order}; raise it with --max-order")


def _formula_args(parser: argparse.ArgumentParser, single_matrix: bool) -> None:
    """The family flags and --t; a single matrix (matrix, det) also takes
    --cube-diff and a shift, which a table sweeps instead."""
    group = parser.add_mutually_exclusive_group(required=True)
    for family, help_text in (("diff", "entries from j - i + c"), ("sum", "entries from j + i + c"),
                              ("cube-diff", "entries from (j - i)**3 + 1"),
                              ("even-power", "entries from (j - i)**(2t) + c")):
        if single_matrix or family != "cube-diff":
            group.add_argument(f"--{family}", action="store_const", dest="family", const=family,
                               help=help_text)
    if single_matrix:
        parser.add_argument("-c", "--shift", type=int, default=0, metavar="C",
                            help="shift c in the formula (default 0)")
    parser.add_argument("--t", type=int, default=1, metavar="T",
                        help="half-exponent t for --even-power (default 1)")


def _single(args: argparse.Namespace) -> tuple:
    """The (formula, prime, order) of the one matrix that matrix and det read."""
    from .matrices import family_formula

    p = _prime_arg(args.p)
    _check_order(args.n, args.max_order)
    return family_formula(args.family, args.shift, args.t), p, args.n


def _write(text: str, path: "str | None") -> None:
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_symbol(args: argparse.Namespace) -> int:
    p = _prime_arg(args.p)
    value = cubic_residue_symbol(args.a, p)
    print(value)
    if args.verbose and value == 1:
        x = cube_root(args.a, p)
        print(f"witness: {x}**3 = {args.a % p.value} (mod {p.value})")
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    from .matrices import build_matrix
    from .render import matrix_text

    print(matrix_text(build_matrix(*_single(args))))
    return 0


def _cmd_det(args: argparse.Namespace) -> int:
    from .tables import formula_minors

    print(formula_minors(*_single(args))[-1])
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from .render import emit_ansi, emit_csv, emit_svg, table_text
    from .tables import generate_table, table_box

    if args.cell_px < 1:
        raise ValueError(f"--cell-px must be at least 1, got {args.cell_px}")
    p = _prime_arg(args.p)
    if args.extended and (args.n_min is not None or args.n_max is not None):
        raise ValueError("--extended replaces the default order range; drop --n-min/--n-max")
    n_range, c_range = table_box(p, None if args.extended else (args.n_min, args.n_max),
                                 (args.c_min, args.c_max), extended=args.extended)
    _check_order(n_range[1], args.max_order)
    shifts = c_range[1] - c_range[0] + 1
    if shifts > 2 * args.max_order:
        raise ValueError(f"{shifts} shifts exceed the cap of {2 * args.max_order} "
                         "(twice the order cap); raise it with --max-order")
    table = generate_table(args.family, p, n_range, c_range, t=args.t)
    if args.format == "csv":
        out = emit_csv(table)
    elif args.format == "svg":
        out = emit_svg(table, cell_px=args.cell_px)
    elif args.format == "ansi":
        # no-color.org: only a non-empty NO_COLOR turns color off
        color = not args.no_color and not os.environ.get("NO_COLOR")
        out = emit_ansi(table, color=color)
    else:
        out = table_text(table)
    _write(out, args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import report_lines, report_text, verify_all

    for flag, value, floor, cap in (("--p-max", args.p_max, 5, P_MAX_CAP),
                                    ("--t-max", args.t_max, 1, T_MAX_CAP),
                                    ("--n-max", args.n_max, 2, N_MAX_CAP)):
        if value < floor:
            raise ValueError(f"{flag} must be at least {floor}, got {value}")
        if value > cap:
            raise ValueError(f"{flag} {value} exceeds the cap of {cap}")
    reports = verify_all(args.p_max, args.t_max, args.n_max)
    if args.format == "lines":
        out = "\n".join(report_lines(reports)) + "\n"
    else:
        out = report_text(reports)
    _write(out, args.output)
    failed = [r for r in reports if not r.passed]
    if failed:
        print(f"{len(failed)} of {len(reports)} claim/prime reports failed", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubres",
        description="Cubic residue symbol matrices, exact determinants, and identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("symbol", help="cubic residue symbol of a mod p")
    s.add_argument("a", type=int)
    s.add_argument("p", type=int)
    s.add_argument("-v", "--verbose", action="store_true",
                   help="also print a cube-root witness when the symbol is 1")
    s.set_defaults(func=_cmd_symbol)

    for name, help_text, func in (("matrix", "print the symbol matrix for a formula", _cmd_matrix),
                                  ("det", "exact determinant of the symbol matrix", _cmd_det)):
        m = sub.add_parser(name, help=help_text)
        _formula_args(m, single_matrix=True)
        m.add_argument("-p", type=int, required=True, help="odd prime modulus")
        m.add_argument("-n", type=int, required=True, help="matrix order")
        m.add_argument("--max-order", type=int, default=DEFAULT_MAX_ORDER,
                       help=f"order cap (default {DEFAULT_MAX_ORDER})")
        m.set_defaults(func=func)

    t = sub.add_parser("table", help="determinant table over orders and shifts")
    _formula_args(t, single_matrix=False)
    t.add_argument("-p", type=int, required=True, help="odd prime modulus")
    t.add_argument("--n-min", type=int, default=None, help="first order (default 1)")
    t.add_argument("--n-max", type=int, default=None, help="last order (default p)")
    t.add_argument("--c-min", type=int, default=None, help="first shift (default 0)")
    t.add_argument("--c-max", type=int, default=None, help="last shift (default 2p-1)")
    t.add_argument("--extended", action="store_true",
                   help="orders 1..p and the all-zero band past p, instead of 1..p")
    t.add_argument("--format", choices=("csv", "text", "ansi", "svg"), default="csv")
    t.add_argument("--cell-px", type=int, default=12, help="SVG cell size in pixels")
    t.add_argument("--no-color", action="store_true",
                   help="ANSI format without colors (NO_COLOR in the environment does the same)")
    t.add_argument("-o", "--output", default=None, help="write to a file instead of stdout")
    t.add_argument("--max-order", type=int, default=DEFAULT_MAX_ORDER,
                   help=f"order cap (default {DEFAULT_MAX_ORDER})")
    t.set_defaults(func=_cmd_table)

    v = sub.add_parser("verify", help="sweep the identity catalog over primes up to a bound")
    v.add_argument("--p-max", type=int, default=60,
                   help=f"largest prime to check (default 60, at most {P_MAX_CAP})")
    v.add_argument("--t-max", type=int, default=3,
                   help=f"largest half-exponent t (default 3, at most {T_MAX_CAP})")
    v.add_argument("--n-max", type=int, default=8,
                   help="largest order for the even-power sweeps "
                        f"(default 8, at most {N_MAX_CAP})")
    v.add_argument("--format", choices=("text", "lines"), default="text")
    v.add_argument("-o", "--output", default=None, help="write to a file instead of stdout")
    v.set_defaults(func=_cmd_verify)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
