"""Benchmark of the cubres command-line program.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program under test is the `src/cubres` beside this
directory. With --trace 0 it runs the workload's commands as child
processes, one at a time (a closed loop with one client), repeating the
whole command list until --seconds have passed, and reports the
end-to-end metrics. With --trace 1 it runs the command list once in this
process through `cubres.cli.main`, untraced and then with the per-layer
tracer installed, and reports the per-layer metrics. Every command's exit
code and the sha256 of its stdout are compared with answers fixed in
advance; a mismatch or a timeout counts as a failed operation.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The line before it records the machine,
the versions, the inputs and the raw samples.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

# The whole run must end within 180 s; children are killed past this.
RUN_LIMIT_S = 160.0
SETUP_PROBES = 4  # per pass, and once more at the end
SETUP_PROBE = ("-c", "import cubres.cli; cubres.cli.build_parser()")

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the stdout it must print, with exit code 0."""

    argv: tuple[str, ...]
    stdout_sha256: str


# sha256 of stdout recorded at the commit that introduced this benchmark.
FIXED = {
    # The CLI default sweep; about 42.7k small determinants and 2.0M symbol calls.
    "verify-p60": Op(("verify", "--p-max", "60"),
                     "20c63e20a3fd9e88a7576b1edb630984c00b702d1e8a4761abbc4a41c73e0cfa"),
    # A 3k+2 table with the zero band past n = p: int64 path only, Toeplitz builds, SVG.
    "table-3k2": Op(("table", "-p", "71", "--diff", "--extended", "--format", "svg"),
                    "32914d35b1ce3ee41b81af31507f198bb98a90e0b3d4544ff9c0fcd962448ac0"),
}
WORKLOADS = (*FIXED, "queries")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _random_prime(rng: random.Random, lo: int, hi: int, mod3: int) -> int:
    while True:
        p = rng.randrange(lo, hi)
        if p % 3 == mod3 and oracle.is_prime(p):
            return p


def _det_op(rng: random.Random, family: str, mod3: int, n: int) -> Op:
    # p > n keeps rows from repeating; a 3k+2 prime gets a shift whose
    # determinant is nonzero (T3_1 and T3_2), so elimination runs to the end.
    p = _random_prime(rng, 211, 600, mod3)
    c = rng.randrange(2 * p) if mod3 == 1 else rng.choice((0, 1, p - 1))
    d = oracle.det(oracle.residue_matrix(family, p, n, c))
    return Op(("det", f"--{family}", "-p", str(p), "-n", str(n), "-c", str(c)),
              _sha(f"{d}\n".encode()))


def _symbol_op(rng: random.Random, mod3: int) -> Op:
    # The smallest cube root sits in a fixed band, so the O(p) root scan
    # does the same work whatever the seed. For a 3k+1 prime the three
    # roots sum to p or 2p, so the smallest is below 2p/3 > 6.0e6.
    p = _random_prime(rng, 9_000_000, 10_000_000, mod3)
    while True:
        x = rng.randrange(5_400_000, 5_700_000)
        if min(oracle.cube_roots(x, p)) == x:
            break
    a = pow(x, 3, p)
    if oracle.symbol(a, p) != 1:
        raise ArithmeticError(f"{a} is a cube mod {p} but fails Euler's criterion")
    return Op(("symbol", str(a), str(p), "--verbose"),
              _sha(f"1\nwitness: {x}**3 = {a} (mod {p})\n".encode()))


def queries(seed: int) -> list[Op]:
    """Short interactive calls: determinants of orders 150-200 over 3k+1
    primes (bigint path) and 3k+2 primes (int64 path) in both families,
    and symbol --verbose with a large cube root. Orders come in pairs with
    a fixed sum of cubes, so every seed asks for the same elimination work."""
    rng = random.Random(seed)
    ops = []
    for mod3, pairs in ((1, 2), (2, 1)):
        for _ in range(pairs):
            n1 = rng.randint(150, 200)
            n2 = round((150**3 + 200**3 - n1**3) ** (1 / 3))
            families = ["diff", "sum"]
            rng.shuffle(families)
            ops += [_det_op(rng, f, mod3, n) for f, n in zip(families, (n1, n2))]
    ops += [_symbol_op(rng, mod3) for mod3 in (1, 2)]
    rng.shuffle(ops)
    return ops


def workload_ops(name: str, seed: int) -> list[Op]:
    if name == "queries":
        return queries(seed)
    return [FIXED[name]]


@dataclass
class Sample:
    """One child process, timed by the clock and by os.wait4."""

    wall_s: float
    cpu_s: float
    maxrss_kb: int
    ok: bool


class Runner:
    """Runs child processes one at a time and reaps each with os.wait4,
    which gives that child's own CPU time and peak RSS."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC),
                        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
        WORK.mkdir(exist_ok=True)
        self.out_path = WORK / f"stdout-{os.getpid()}"

    def run(self, args: tuple[str, ...], expect: "Op | None" = None) -> Sample:
        timeout = max(1.0, self.deadline - time.monotonic())
        killed = threading.Event()
        with open(self.out_path, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen((sys.executable, *args), stdout=out,
                                    stderr=subprocess.DEVNULL, env=self.env, cwd=ROOT)
            timer = threading.Timer(timeout, lambda: (killed.set(), proc.kill()))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        ok = not killed.is_set() and (
            code == 0 if expect is None else
            code == 0 and _sha(self.out_path.read_bytes()) == expect.stdout_sha256)
        self.out_path.unlink()
        return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, ok)


def measure(ops: list[Op], seconds: float, deadline: float):
    """Untraced end-to-end metrics, from fresh child processes. Set-up
    probes are spread over the run, a few before each pass and a few
    after the last, so that they see the same drift as the passes."""
    runner = Runner(deadline)
    runner.run(SETUP_PROBE)  # fills the page cache and writes bytecode
    setup: list[Sample] = []
    passes: list[list[Sample]] = []
    start = time.perf_counter()
    while True:
        setup += [runner.run(SETUP_PROBE) for _ in range(SETUP_PROBES)]
        passes.append([runner.run(("-m", "cubres", *op.argv), op) for op in ops])
        if time.perf_counter() - start >= seconds or time.monotonic() >= deadline:
            break
    setup += [runner.run(SETUP_PROBE) for _ in range(SETUP_PROBES)]
    samples = [s for p in passes for s in p]
    pass_wall = [sum(s.wall_s for s in p) for p in passes]
    pass_cpu = [sum(s.cpu_s for s in p) for p in passes]
    metrics = {
        "wall_s": statistics.median(pass_wall),
        "cpu_s": statistics.median(pass_cpu),
        "peak_rss_mb": max(s.maxrss_kb for s in samples) / 1024,
        "setup_s": statistics.median(s.wall_s for s in setup),
    }
    raw = {"pass_wall_s": pass_wall, "pass_cpu_s": pass_cpu,
           "setup_s": [s.wall_s for s in setup]}
    failed = sum(not s.ok for s in samples + setup)
    return metrics, len(samples) + len(setup), failed, raw


def _run_in_process(ops: list[Op]) -> tuple[float, int]:
    """Runs the ops through cubres.cli.main, looked up on each call so an
    installed Tracer's wrapper is used; returns wall time and failures."""
    import cubres.cli

    failed = 0
    start = time.perf_counter()
    for op in ops:
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = cubres.cli.main(list(op.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is one failed operation
            print(f"{' '.join(op.argv)}: {exc!r}", file=sys.stderr)
            code = None
        failed += code != 0 or _sha(out.getvalue().encode()) != op.stdout_sha256
    return time.perf_counter() - start, failed


def trace(ops: list[Op]):
    """Per-layer metrics from one untraced and one traced in-process pass."""
    sys.path.insert(0, str(SRC))
    untraced_s, failed_plain = _run_in_process(ops)
    with tracer.Tracer() as t:
        traced_s, failed_traced = _run_in_process(ops)
    raw = {"untraced_s": untraced_s, "traced_s": traced_s, "absent": t.absent}
    return t.metrics(traced_s - untraced_s), 2 * len(ops), failed_plain + failed_traced, raw


def environment(args: argparse.Namespace, ops: list[Op]) -> dict:
    cpu_model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    git_sha = None
    if (ROOT / ".git").exists():
        git_sha = subprocess.run(("git", "rev-parse", "HEAD"), cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha,
        "source_sha256": source.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commands": [" ".join(op.argv) for op in ops],
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "cubres" / "__init__.py").is_file():
        print(f"error: no cubres package under {SRC}", file=sys.stderr)
        return 2

    ops = workload_ops(args.workload, args.seed)
    if args.trace:
        metrics, attempted, failed, raw = trace(ops)
        units = {name: unit for name, unit, _ in tracer.PER_LAYER}
    else:
        metrics, attempted, failed, raw = measure(ops, args.seconds, deadline)
        units = dict(END_TO_END)
    record = environment(args, ops)
    record.update(raw, fail_frac=failed / attempted)
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
