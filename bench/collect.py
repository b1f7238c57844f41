"""Run the benchmark on every workload and print every metric with its unit.

    python3 bench/collect.py --label seed

For each workload: one untraced run per seed (1..SEEDS), then one traced run
with seed 1. Prints one line per metric: workload, name, unit, median,
first and third quartile, and the quartile spread as a share of the
median. Writes every run's result to bench/results/BENCH_<label>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

sys.path.insert(0, str(BENCH))
from run import WORKLOADS  # noqa: E402

SEEDS = 10


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        (sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)),
        capture_output=True, text=True, check=True, cwd=ROOT).stdout.splitlines()
    return {"record": json.loads(out[-2]), "result": json.loads(out[-1])}


def summary(runs: list[dict]) -> dict:
    values: dict[str, list[float]] = {}
    units = {}
    for r in runs:
        for name, m in r["result"]["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    out = {}
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], med, v[0])
        out[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else None, "values": v}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    report = {}
    for workload in WORKLOADS:
        runs = [bench(workload, seed, seconds, 0) for seed in range(1, SEEDS + 1)]
        traced = bench(workload, 1, seconds, 1)
        report[workload] = {
            "end_to_end": summary(runs),
            "per_layer": traced["result"]["metrics"],
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "runs": runs,
            "traced_run": traced,
        }
        for name, s in report[workload]["end_to_end"].items():
            spread = "-" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"{workload:<11} {name:<34} {s['unit']:<6} median {s['median']:.4f}"
                  f"  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  spread {spread}", flush=True)
        for name, m in traced["result"]["metrics"].items():
            print(f"{workload:<11} {name:<34} {m['unit']:<6} {m['value']}", flush=True)
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    (results / f"BENCH_{args.label}.json").write_text(json.dumps(report, indent=1) + "\n")
    failed = sum(w["failed"] + w["traced_run"]["result"]["failed"] for w in report.values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
