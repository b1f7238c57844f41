"""End-to-end CLI behavior via main(argv)."""

import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import cubres.cli as cli
import cubres.tables
import cubres.verify
from cubres import Counterexample, Prime, TheoremReport, parse_csv


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_symbol_basic(capsys):
    code, out, err = run(capsys, "symbol", "12", "13")
    assert code == 0
    assert out == "1\n"
    code, out, _ = run(capsys, "symbol", "2", "7")
    assert (code, out) == (0, "-1\n")
    code, out, _ = run(capsys, "symbol", "0", "7")
    assert (code, out) == (0, "0\n")


def test_symbol_verbose_witness(capsys):
    code, out, _ = run(capsys, "symbol", "12", "13", "--verbose")
    assert code == 0
    assert out.splitlines() == ["1", "witness: 4**3 = 12 (mod 13)"]
    # no witness line for nonresidues
    code, out, _ = run(capsys, "symbol", "2", "7", "-v")
    assert out == "-1\n"


def test_symbol_rejects_bad_prime(capsys):
    code, out, err = run(capsys, "symbol", "3", "10")
    assert code == 2
    assert out == ""
    assert "error:" in err
    code, _, err = run(capsys, "symbol", "1", str(2**31 + 11))
    assert code == 2
    assert "2**31" in err


def test_matrix_output(capsys):
    code, out, _ = run(capsys, "matrix", "--diff", "-c", "0", "-p", "7", "-n", "3")
    assert code == 0
    assert out == "0 1 -1\n1 0 1\n-1 1 0\n"


def test_matrix_cube_diff_equals_shift_one(capsys):
    _, a, _ = run(capsys, "matrix", "--cube-diff", "-p", "11", "-n", "5")
    _, b, _ = run(capsys, "matrix", "--diff", "-c", "1", "-p", "11", "-n", "5")
    assert a == b


def test_matrix_even_power(capsys):
    code, out, _ = run(capsys, "matrix", "--even-power", "--t", "1", "-c", "3", "-p", "17", "-n", "3")
    assert code == 0
    assert out == "1 1 1\n1 1 1\n1 1 1\n"


def test_det_examples(capsys):
    code, out, _ = run(capsys, "det", "--diff", "-c", "0", "-p", "11", "-n", "4")
    assert (code, out) == (0, "-3\n")
    code, out, _ = run(capsys, "det", "--diff", "-c", "4", "-p", "11", "-n", "10")
    assert (code, out) == (0, "1\n")
    code, out, _ = run(capsys, "det", "--sum", "-c", "0", "-p", "7", "-n", "3")
    assert code == 0


def test_order_cap_and_override(capsys, monkeypatch):
    code, _, err = run(capsys, "det", "--diff", "-c", "0", "-p", "5", "-n", "201")
    assert code == 2
    assert "--max-order" in err
    code, out, _ = run(capsys, "det", "--diff", "-c", "0", "-p", "5", "-n", "201",
                       "--max-order", "250")
    assert (code, out) == (0, "0\n")  # order past p duplicates rows
    # the extended box of p = 193 tops out at order 203; refused before any table work
    monkeypatch.setattr(cubres.tables, "generate_table", None)
    code, out, err = run(capsys, "table", "--diff", "-p", "193", "--extended")
    assert (code, out) == (2, "")
    assert err == "error: order 203 exceeds the cap of 200; raise it with --max-order\n"
    # a range that is both invalid and over the cap reports the range first
    code, _, err = run(capsys, "table", "--diff", "-p", "11", "--n-min", "0", "--n-max", "300")
    assert code == 2
    assert err == "error: orders start at 1, got n_range (0, 300)\n"


def test_table_shift_cap_follows_the_order_cap(capsys):
    # the 2p default shifts of p = 11 are 22: over twice an order cap of 10
    code, out, err = run(capsys, "table", "--diff", "-p", "11", "--n-max", "2", "--max-order", "10")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: 22 shifts") and "--max-order" in err
    code, _, err = run(capsys, "table", "--diff", "-p", "11", "--n-max", "2", "--c-min", "-1",
                       "--c-max", "21", "--max-order", "11")
    assert code == 2 and "23 shifts" in err
    code, out, _ = run(capsys, "table", "--diff", "-p", "11", "--n-max", "2", "--max-order", "11")
    assert code == 0 and len(parse_csv(out)) == 2 * 22


def test_table_csv_default(capsys):
    code, out, _ = run(capsys, "table", "--diff", "-p", "11")
    assert code == 0
    cells = parse_csv(out)
    assert cells[(1, 0)] == 0
    assert [cells[(n, 0)] for n in range(1, 12)] == [0, -1, 2, -3, 4, -5, 6, -7, 8, -9, 10]
    assert cells[(11, 3)] == 10


def test_table_output_file(tmp_path, capsys):
    path = tmp_path / "t.csv"
    code, out, _ = run(capsys, "table", "--diff", "-p", "5", "-o", str(path))
    assert code == 0
    assert out == ""
    assert parse_csv(path.read_text())[(5, 1)] == 4


def test_table_svg(capsys):
    code, out, _ = run(capsys, "table", "--diff", "-p", "11", "--c-max", "10", "--format", "svg")
    assert code == 0
    assert out.count("<rect ") == 121


def test_table_ansi_color_modes(capsys, monkeypatch):
    monkeypatch.delenv("NO_COLOR", raising=False)
    code, out, _ = run(capsys, "table", "--diff", "-p", "5", "--format", "ansi")
    assert code == 0
    assert "\x1b[48;2;" in out
    code, out, _ = run(capsys, "table", "--diff", "-p", "5", "--format", "ansi", "--no-color")
    assert "\x1b[" not in out
    monkeypatch.setenv("NO_COLOR", "1")
    code, out, _ = run(capsys, "table", "--diff", "-p", "5", "--format", "ansi")
    assert "\x1b[" not in out
    # no-color.org: an empty NO_COLOR is unset; any other value, "0" too, turns color off
    monkeypatch.setenv("NO_COLOR", "")
    code, out, _ = run(capsys, "table", "--diff", "-p", "5", "--format", "ansi")
    assert "\x1b[48;2;" in out
    monkeypatch.setenv("NO_COLOR", "0")
    code, out, _ = run(capsys, "table", "--diff", "-p", "5", "--format", "ansi")
    assert "\x1b[" not in out


@pytest.mark.parametrize("fmt", ["csv", "text", "ansi", "svg"])
@pytest.mark.parametrize("cell_px", ["0", "-4"])
def test_table_checks_cell_px_for_every_format(capsys, monkeypatch, tmp_path, fmt, cell_px):
    # checked before any table work, and the output file is never written;
    # text, CSV and ANSI once printed the table for --cell-px 0
    monkeypatch.setattr(cubres.tables, "generate_table", None)
    path = tmp_path / "out"
    for argv in ((), ("-o", str(path))):
        assert run(capsys, "table", "-p", "11", "--diff", "--format", fmt, "--cell-px", cell_px,
                   *argv) == (2, "", f"error: --cell-px must be at least 1, got {cell_px}\n")
    assert not path.exists()


def test_table_text_format(capsys):
    code, out, _ = run(capsys, "table", "--diff", "-p", "5", "--format", "text")
    assert code == 0
    assert out.split("\n")[0].split()[0] == "n\\c"


def test_table_extended_conflicts_with_explicit_orders(capsys):
    code, _, err = run(capsys, "table", "--diff", "-p", "5", "--extended", "--n-max", "3")
    assert code == 2
    assert "extended" in err


def test_table_rejects_p3(capsys):
    code, _, err = run(capsys, "table", "--diff", "-p", "3")
    assert code == 2
    assert "3" in err


def test_table_custom_ranges(capsys):
    code, out, _ = run(capsys, "table", "--diff", "-p", "11",
                       "--n-min", "2", "--n-max", "4", "--c-min", "0", "--c-max", "2")
    cells = parse_csv(out)
    assert set(cells) == {(n, c) for n in (2, 3, 4) for c in (0, 1, 2)}
    # --n-min alone keeps the default top order p and the default shifts
    code, out, _ = run(capsys, "table", "--diff", "-p", "11", "--n-min", "9")
    assert code == 0
    assert set(parse_csv(out)) == {(n, c) for n in (9, 10, 11) for c in range(22)}


def test_verify_small_sweep(capsys):
    code, out, err = run(capsys, "verify", "--p-max", "11")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") == 29


def test_verify_lines_format(capsys):
    code, out, _ = run(capsys, "verify", "--p-max", "11", "--format", "lines")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 29
    assert all(line.split()[3] == "pass" for line in lines)
    assert lines[0].startswith("P2_3 5 ")


@pytest.mark.parametrize(
    "argv, sha256",
    [
        (("verify", "--p-max", "30", "--format", "lines"),
         "cd1afd985ed6adbc70e428439f47877707af909e49755035396941dbe30f41ef"),
        # a 3k+1 table: its largest cells have 27 digits
        (("table", "-p", "37", "--sum", "--format", "csv"),
         "6643ee3d98dc9e9d61ce6ab006eefd4044382f2534a595a86957d14ad2a779dd"),
        # a large 3k+2 wall with its zero band
        (("table", "-p", "101", "--diff", "--extended", "--format", "csv"),
         "f66509e01723a5fedc4c404f906149d6cba8016904b356295e3113a23e139f63"),
        # 3k+1, with cells past 2**63
        (("table", "-p", "61", "--diff", "--format", "csv"),
         "e70b6e26a6434b17621862336b2230b17dc3ede7dce86396a43a45f063df5479"),
        # box offsets and negative shifts on the sum wall
        (("table", "-p", "43", "--sum", "--n-min", "5", "--c-min", "-7", "--c-max", "20",
          "--format", "csv"),
         "a43a38ef07904af353b53e671e3c0568876cfd9e84a8e21c7cbddf92cc4acb10"),
        (("table", "-p", "29", "--even-power", "--t", "2", "--format", "csv"),
         "e75a339f633f30e34ba7addd3251118e544476507c497d186897868a7dea2668"),
        # a default two-period even-power table: columns c and c + p share a wall
        (("table", "-p", "101", "--even-power", "--t", "1"),
         "c02b43594799b4fe5bbc958b77a512a2afb6686967a3db141b2765ebc60a74df"),
        # 3k+1 determinants of about 170 digits
        (("det", "--diff", "-p", "439", "-n", "195", "-c", "272"),
         "a5bad7926e2b36756fd95ad49decdf0c7c60da9c14821a504dc77a7bc802f857"),
        (("det", "--cube-diff", "-p", "433", "-n", "200"),
         "bee4eea0e7002098c16458ddbdd3788ec3d0293cb012a3440c35c0c1d94023c4"),
        (("det", "--even-power", "--t", "2", "-c", "5", "-p", "433", "-n", "200"),
         "fad8d18274c35d4a403e530c4c7bcbf353fc10ef78a138f637ff2a2b5cf17659"),
        # p = 3, which no table accepts, and an order deep in the zero band
        (("det", "--diff", "-p", "3", "-n", "4"),
         "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
        (("det", "--diff", "-p", "5", "-n", "40", "-c", "2"),
         "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
        # a Hankel grid at its largest prime under the order cap, taken when
        # the entries were still a numpy array
        (("matrix", "--sum", "-p", "199", "-n", "199"),
         "48abf80264ebdf96a9e978a9c58944a69e78c9ad118ad50238854ec3c90e4295"),
        # the text and ANSI grids, colored and plain, and an SVG at another cell size
        (("table", "-p", "11", "--diff", "--format", "text"),
         "9792fc23c475d465ed054b581bfaa8ef734789e116e5f58ea457bcdd682af8f3"),
        (("table", "-p", "37", "--sum", "--format", "text"),
         "f1f21bf3bc79d04fbcd11086e438aaf95438ebf718c6f9bbee18386535770448"),
        (("table", "-p", "37", "--sum", "--format", "ansi"),
         "c76aae4cf6cf7df006c808a50c1c9705d4bd91be4627cc18959660b6e5eb05d7"),
        (("table", "-p", "13", "--diff", "--extended", "--format", "ansi", "--no-color"),
         "306ca85ca67f9d53ff850d92f0591a1c3ad7a18860ca15bf02da7363e92ba634"),
        (("table", "-p", "29", "--even-power", "--t", "2", "--format", "svg", "--cell-px", "7"),
         "546ac52c92bafbb8ec0cd5494ed09bf55156bd43070d32bb9ae8f563d372446b"),
        # the table-3k2 benchmark workload, with the benchmark's pin
        (("table", "-p", "71", "--diff", "--extended", "--format", "svg"),
         "32914d35b1ce3ee41b81af31507f198bb98a90e0b3d4544ff9c0fcd962448ac0"),
        # a 3k+1 SVG over a box of negative shifts, with negative and
        # multi-digit cells, at a small cell size
        (("table", "-p", "31", "--diff", "--n-min", "3", "--n-max", "20", "--c-min", "-9",
          "--c-max", "40", "--format", "svg", "--cell-px", "5"),
         "9a54c7cb924c647859e927d08f2844674d500fb72186f50f89d5e3480ba8bd4f"),
    ],
    ids=["verify-lines", "table-3k1-csv", "table-3k2-p101-extended", "table-3k1-diff",
         "table-sum-offset-box", "table-even-power-t2", "table-even-power-p101",
         "det-3k1-diff-195",
         "det-3k1-cube-diff-200", "det-3k1-even-power-200", "det-p3", "det-zero-band",
         "matrix-sum-199", "table-text-p11", "table-3k1-text", "table-3k1-ansi",
         "table-ansi-no-color-extended", "table-even-power-svg-cell-px-7", "table-3k2-svg",
         "table-3k1-svg-negative-shifts-cell-px-5"],
)
def test_output_bytes_are_pinned(capsys, monkeypatch, argv, sha256):
    # recorded from an earlier engine; a faster engine must not move a byte
    monkeypatch.delenv("NO_COLOR", raising=False)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse's help layout differs between Python versions")
@pytest.mark.parametrize("argv, sha256", [
    ((), "9a379a774abe3cb797d5d53a3ce67674b1b98a95ac6094a9ac63334db9a16c8a"),
    (("symbol",), "3dbc6edf931dd8cf83ad76427aa04793c466920cae413d876433b7e5779a1055"),
    (("matrix",), "98c4a347fe43de4adad9dfae8fa00b12460a5840b8eadc4e5c61f096ad377370"),
    (("det",), "cded3d8119a2fea09cc0ea359093624b56bc8fb54abcfc8f985671cec37f46b1"),
    (("table",), "a76606539fbdf792f5df1eca34516a0202f755f5ba5c92ad513793cc81daf76b"),
    (("verify",), "e9c2079bd1047022c82aced87bd7d50f1417a822349b1f632e349020f666a80e"),
], ids=["cubres", "symbol", "matrix", "det", "table", "verify"])
def test_help_bytes_are_pinned(capsys, monkeypatch, argv, sha256):
    # the usage lines, flags, groups and defaults of every command, at an
    # 80-column terminal; a parser refactor must not move a byte
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--help"])
    assert exc.value.code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256


def test_family_flags_store_their_family():
    parser = cli.build_parser()
    for command, extra in (("matrix", ["-n", "3"]), ("det", ["-n", "3"]), ("table", [])):
        flags = ["diff", "sum", "even-power"] + (["cube-diff"] if command != "table" else [])
        for family in flags:
            args = parser.parse_args([command, f"--{family}", "-p", "7", *extra])
            assert args.family == family
    with pytest.raises(SystemExit):
        parser.parse_args(["table", "--cube-diff", "-p", "7"])


def test_det_on_a_3k1_prime_is_pinned(capsys):
    code, out, _ = run(capsys, "det", "--sum", "-p", "61", "-n", "60", "-c", "5")
    assert (code, out) == (0, "-149944540661702121879\n")


def test_det_rejects_order_zero(capsys):
    assert run(capsys, "det", "--diff", "-p", "7", "-n", "0") == (
        2, "", "error: matrix order must be >= 1, got 0\n")


def test_verify_rejects_tiny_p_max(capsys):
    code, _, err = run(capsys, "verify", "--p-max", "4")
    assert code == 2


def test_verify_caps(capsys, monkeypatch):
    # checked before any work: verify_all is never called beyond a cap or
    # below a floor
    monkeypatch.setattr(cubres.verify, "verify_all", None)
    for argv, err in (
            (("--p-max", "401"), "error: --p-max 401 exceeds the cap of 400\n"),
            (("--t-max", "6"), "error: --t-max 6 exceeds the cap of 5\n"),
            (("--n-max", "21"), "error: --n-max 21 exceeds the cap of 20\n"),
            (("--p-max", "1000", "--n-max", "30"), "error: --p-max 1000 exceeds the cap of 400\n"),
            (("--p-max", "4"), "error: --p-max must be at least 5, got 4\n"),
            (("--t-max", "0"), "error: --t-max must be at least 1, got 0\n"),
            (("--n-max", "1"), "error: --n-max must be at least 2, got 1\n"),
            (("--t-max", "-3", "--n-max", "40"), "error: --t-max must be at least 1, got -3\n")):
        assert run(capsys, "verify", *argv) == (2, "", err)
    calls = []
    monkeypatch.setattr(cubres.verify, "verify_all", lambda *args: calls.append(args) or [])
    code, _, _ = run(capsys, "verify", "--p-max", "400", "--t-max", "5", "--n-max", "20")
    assert code == 0 and calls == [(400, 5, 20)]
    with pytest.raises(SystemExit):
        cli.main(["verify", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert all(f"at most {cap})" in help_text for cap in (400, 5, 20))


def test_verify_reports_failure_with_nonzero_exit(capsys, monkeypatch):
    bad = TheoremReport("T3_1", Prime(5), 5, [Counterexample(2, 0, -1, 7)])

    def fake(p_max, t_max=3, n_max=8):
        return [bad]

    monkeypatch.setattr(cubres.verify, "verify_all", fake)
    code, out, err = run(capsys, "verify", "--p-max", "11")
    assert code == 1
    assert "FAIL" in out
    assert "expected -1, got 7" in out
    assert "1 of 1" in err


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "--cube-diff", "-p", "5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "--diff", "-c", "1", "-p", "5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        cli.main(["matrix", "--diff", "--sum", "-p", "5", "-n", "2"])
    with pytest.raises(SystemExit):
        cli.main([])


def test_unwritable_output_exits_2(tmp_path, capsys):
    for argv in (("table", "-p", "5", "--diff", "-o", str(tmp_path / "missing" / "x.csv")),
                 ("verify", "--p-max", "11", "-o", str(tmp_path / "missing" / "x.txt"))):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(tmp_path / "missing") in err


def test_even_power_rejects_bad_t(capsys):
    code, _, err = run(capsys, "det", "--even-power", "--t", "0", "-c", "1", "-p", "11", "-n", "2")
    assert code == 2
    assert "positive" in err


_NUMPY_FREE = textwrap.dedent("""
    import contextlib, importlib, io, sys

    import cubres
    import cubres.cli as cli

    cli.build_parser()
    commands = [
        ["symbol", "8", "11", "--verbose"],
        *(["matrix", family, "-p", "11", "-n", "5"] for family in ("--diff", "--sum", "--cube-diff")),
        ["matrix", "--even-power", "--t", "2", "-c", "3", "-p", "199", "-n", "199"],
        ["det", "--diff", "-p", "439", "-n", "195", "-c", "272"],
        ["det", "--sum", "-p", "11", "-n", "200", "-c", "3"],
        ["det", "--cube-diff", "-p", "3", "-n", "5"],
        ["det", "--even-power", "--t", "2", "-c", "5", "-p", "13", "-n", "9"],
        *(["table", "--diff", "-p", "7", "--format", f] for f in ("csv", "svg", "text", "ansi")),
        ["table", "--even-power", "-p", "5", "--format", "csv"],
        *(["verify", "--p-max", "30", "--format", f] for f in ("text", "lines")),
    ]
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
    assert "numpy" not in sys.modules, "a numpy-free command imported numpy"

    assert all(hasattr(cubres, name) for name in cubres.__all__)
    module = sys.modules["cubres.determinant"]
    assert cubres.determinant is module.determinant
    assert cubres.verify_all(11) and "numpy" not in sys.modules
    # a ResidueMatrix reads its formula's wall, so its minors need no numpy
    m = cubres.build_matrix(cubres.SumPlusC(5), 13, 9)
    assert cubres.determinant(m) == cubres.leading_minors(m)[-1]
    assert cubres.matrices_equal(m, m) and "numpy" not in sys.modules
    # general input runs the elimination over Python ints; only
    # `determinant`'s int64 path loads numpy
    assert cubres.leading_minors([[2, 1], [1, 1]]) == [2, 1]
    assert cubres.determinant_oracle([[2, 1], [1, 1]]) == 1 and "numpy" not in sys.modules
    assert cubres.determinant([[2, 1], [1, 1]]) == 1 and "numpy" in sys.modules
    assert cubres.determinant is module.determinant
    assert importlib.import_module("cubres.determinant") is module
    assert cubres.determinant is module.determinant and callable(cubres.determinant)
    assert cubres.determinant([[2, 1], [1, 1]]) == 1
""")


def _fresh(*args: str) -> subprocess.CompletedProcess:
    """Runs `python *args` in a fresh interpreter that imports cubres from src."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def test_symbol_det_and_table_never_import_numpy():
    # a fresh interpreter: no command, no ResidueMatrix and no nested list
    # in `leading_minors` loads numpy, `determinant`'s int64 path does,
    # and the package attribute `determinant` stays the function throughout
    result = _fresh("-c", _NUMPY_FREE)
    assert result.returncode == 0, result.stderr


_LOADED_PER_COMMAND = textwrap.dedent("""
    import contextlib, io, json, sys

    def heavy():
        return sorted(m for m in ("dataclasses", "inspect", "ast") if m in sys.modules)

    before = heavy()

    import cubres.cli as cli

    def loaded():
        return sorted(m for m in sys.modules if m.split(".")[0] == "cubres")

    cli.build_parser()
    steps, heavies = [loaded()], [before, heavy()]
    for argv in json.loads(sys.argv[1]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
        steps.append(loaded())
        heavies.append(heavy())
    print(json.dumps([steps, heavies]))
""")


@pytest.mark.parametrize("commands, added", [
    ((["symbol", "8", "11", "--verbose"],
      ["det", "--sum", "-p", "11", "-n", "5", "-c", "3"],
      ["table", "--diff", "-p", "7", "--format", "svg"]),
     ([], ["matrices", "tables", "wall"], ["render"])),
    ((["verify", "--p-max", "11"],),
     (["matrices", "tables", "verify", "wall"],)),
    ((["matrix", "--diff", "-p", "11", "-n", "5"],),
     (["matrices", "render"],)),
], ids=["symbol-det-table", "verify", "matrix"])
def test_each_command_imports_only_the_modules_it_runs(commands, added):
    # the parser and `symbol` need only residues; `table` never loads
    # verify, and `verify` never loads render
    result = _fresh("-c", _LOADED_PER_COMMAND, json.dumps(commands))
    assert result.returncode == 0, result.stderr
    steps, heavies = json.loads(result.stdout)
    assert steps[0] == ["cubres", "cubres.cli", "cubres.residues"]
    for argv, before, after, new in zip(commands, steps, steps[1:], added):
        assert sorted(set(after) - set(before)) == [f"cubres.{m}" for m in new], argv
    # no command pays for dataclasses and the inspect and ast it imports,
    # and none was loaded before cubres, where it would hide a regression
    assert heavies == [[]] * (len(commands) + 2)


_NAMESPACE = textwrap.dedent("""
    import importlib, sys

    import cubres

    def loaded():
        return sorted(m for m in sys.modules if m.split(".")[0] == "cubres")

    assert loaded() == ["cubres"], loaded()
    submodules = ("residues", "matrices", "tables", "wall", "render", "verify")
    for name in submodules:
        assert getattr(cubres, name) is sys.modules[f"cubres.{name}"], name
    homes = [importlib.import_module(f"cubres.{name}") for name in (*submodules, "determinant")]
    for name in cubres.__all__:
        home, = (m for m in homes if name in getattr(m, "__all__", ()))
        assert getattr(cubres, name) is getattr(home, name), name
    star = {}
    exec("from cubres import *", star)
    assert sorted(set(star) - {"__builtins__"}) == sorted(cubres.__all__)
    assert set(cubres.__all__) <= set(dir(cubres))
    try:
        cubres.nope
    except AttributeError as exc:
        assert str(exc) == "module 'cubres' has no attribute 'nope'", exc
    else:
        raise AssertionError("cubres.nope resolved")
    assert not hasattr(cubres, "nope")
""")


def test_the_lazy_namespace_matches_the_home_modules():
    result = _fresh("-c", _NAMESPACE)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("first", [
    "import cubres.determinant",
    "from cubres.determinant import leading_minors",
    "import cubres",
    "import importlib; importlib.import_module('cubres.determinant')",
    "from cubres import determinant",
])
def test_package_determinant_is_the_function_in_any_import_order(first):
    script = (f"{first}\nimport sys\nimport cubres\nimport cubres.determinant\n"
              "assert cubres.determinant is sys.modules['cubres.determinant'].determinant\n")
    result = _fresh("-c", script)
    assert result.returncode == 0, result.stderr


def test_package_determinant_keeps_a_value_that_is_not_a_module():
    # a tracer replaces the function with a wrapper and then restores it;
    # only a module bound to the name is swapped for its function
    script = textwrap.dedent("""
        import sys
        import cubres, cubres.determinant
        module, real = sys.modules["cubres.determinant"], cubres.determinant
        wrapper = lambda *args: real(*args)
        cubres.determinant = wrapper
        assert cubres.determinant is wrapper
        cubres.determinant = module
        assert cubres.determinant is real
        cubres.determinant = wrapper
        cubres.determinant = real
        assert cubres.determinant is real is module.determinant
        cubres.other = module
        assert cubres.other is module
    """)
    result = _fresh("-c", script)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("argv", [
    ("symbol", "8", "11", "--verbose"),
    ("det", "--sum", "-p", "11", "-n", "5", "-c", "3"),
])
def test_the_console_script_prints_what_python_m_prints(argv):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["cubres"]
    module, func = target.split(":")
    # what the installed `cubres` wrapper runs
    entry = f"import sys; from {module} import {func}; sys.exit({func}())"
    script, python_m = _fresh("-c", entry, *argv), _fresh("-m", "cubres", *argv)
    assert script.returncode == python_m.returncode == 0, script.stderr + python_m.stderr
    assert script.stdout == python_m.stdout != ""
