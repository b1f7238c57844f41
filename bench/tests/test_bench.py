"""Fast checks of the benchmark itself. Kept out of the package's test
paths; run with `python3 -m pytest -q bench/tests`."""

import contextlib
import io
import json
import re
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

import cubres.cli  # noqa: E402
from cubres import DiffPlusC, SumPlusC, build_matrix, determinant  # noqa: E402

SMALL = ("table", "-p", "11", "--diff", "--format", "svg")


def _stdout(argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cubres.cli.main(list(argv)) == 0
    return out.getvalue().encode()


def test_metric_names_are_well_formed_and_match_the_benchmark_file():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_tracing_leaves_output_bytes_unchanged_and_restores_the_package():
    plain = _stdout(SMALL)
    determinant_before = cubres.tables.determinant
    with tracer.Tracer() as t:
        traced = _stdout(SMALL)
    assert traced == plain
    assert cubres.tables.determinant is determinant_before
    assert t.absent == []
    m = t.metrics(0.0)
    assert set(m) == {name for name, _, _ in tracer.PER_LAYER}
    assert m["tables.cells"] == 11 * 22
    assert m["determinant.calls"] == m["matrices.build.calls"] == 11 * 22
    assert m["determinant.bigint.calls"] == 0 and m["render.bytes_out"] == len(plain)


def test_a_flipped_output_byte_is_a_failed_operation():
    good = run._sha(_stdout(SMALL))
    flipped = bytearray(_stdout(SMALL))
    flipped[-2] ^= 1
    ops = [run.Op(SMALL, good), run.Op(SMALL, run._sha(bytes(flipped)))]
    metrics, attempted, failed, _ = run.measure(ops, seconds=0, deadline=time.monotonic() + 60)
    assert (attempted, failed) == (2 + 2 * run.SETUP_PROBES, 1)
    assert run._run_in_process(ops)[1] == 1


def test_a_missing_elimination_helper_is_reported_absent(monkeypatch):
    engine = sys.modules["cubres.determinant"]
    monkeypatch.delattr(engine, "_eliminate_bigint")
    with tracer.Tracer() as t:
        pass
    assert t.absent == ["determinant.bigint"]
    m = t.metrics(0.0)
    assert "determinant.bigint.calls" not in m and "determinant.bail_ratio" not in m
    assert m["determinant.int64.calls"] == 0


@pytest.mark.parametrize("family, formula, p, n, c", [
    ("diff", DiffPlusC, 43, 30, 7), ("sum", SumPlusC, 43, 30, 50),
    ("diff", DiffPlusC, 59, 40, 0), ("sum", SumPlusC, 13, 20, 3),
])
def test_the_determinant_oracle_agrees_with_the_engine(family, formula, p, n, c):
    a = oracle.residue_matrix(family, p, n, c)
    m = build_matrix(formula(c), p, n)
    assert (a == m.entries).all()
    assert oracle.det(a) == determinant(m)


def test_query_answers_are_independent_and_seeded():
    ops = run.queries(7)
    assert ops == run.queries(7)
    symbols = [op for op in ops if op.argv[0] == "symbol"]
    assert len(symbols) == 2 and len(ops) == 8
    for op in symbols:
        a, p = int(op.argv[1]), int(op.argv[2])
        assert op.stdout_sha256 == run._sha(_stdout(op.argv))
        assert oracle.symbol(a, p) == 1
