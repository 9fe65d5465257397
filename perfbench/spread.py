"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workload media ...] [--trace 0|1] [--out FILE]

For every workload and seed it runs ``run.py`` once, in sequence, and
prints per metric the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (third minus first
quartile, over the median) next to the bound in BENCHMARK.json. With
``--out`` it also writes every value and the environment to a JSON file.
Exits 1 when a run fails or reports incorrect output.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="a range lo-hi or a comma-separated list")
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the values and summary to this JSON file")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    report: dict = {"run_seconds": SPEC["run_seconds"], "trace": args.trace, "workloads": {}}
    ok = True
    for workload in workloads:
        values: dict[str, list[float]] = {}
        seeds = parse_seeds(args.seeds)
        for seed in seeds:
            cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(SPEC["run_seconds"]), "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            elapsed = time.perf_counter() - start
            lines = proc.stdout.splitlines()
            report.setdefault("env", json.loads(lines[0][4:]) if lines and lines[0].startswith("env ") else None)
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                ok = False
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed} ({elapsed:.1f} s): " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)
        summary = {}
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median, 0, median)
            spread = (q3 - q1) / median if median else 0.0
            summary[name] = {"values": vals, "median": median, "q1": q1, "q3": q3, "spread": spread}
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}" + ("  OVER A THIRD" if spread > bound / 3 else "")
            print(f"  {workload:<18} {name:<40} median {median:<12.6g} spread {spread:.4f}{flag}")
        report["workloads"][workload] = {"seeds": seeds, "metrics": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
