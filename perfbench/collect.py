"""Run the benchmark over several seeds and summarise each metric's spread.

Run from the repository root, one run at a time:

    python3 perfbench/collect.py --seeds 1-10 --seconds 20
    python3 perfbench/collect.py --workload mine-deep --seeds 1-5 --trace 1
    python3 perfbench/collect.py --seeds 1-10 --out perfbench/baseline.json

For each workload and metric it prints the median of the per-run values,
their quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median. ``--out`` merges
the same summary into a JSON file, under ``end_to_end`` or ``per_layer``,
with each workload's reason, shape and the digest of its first seed's
inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS, make_inputs

RUN = Path(__file__).resolve().parent / "run.py"
BENCHMARK = RUN.parent.parent / "BENCHMARK.json"


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                   help="repeatable; default: every workload")
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"), help="e.g. 1-10")
    p.add_argument("--seconds", type=float, default=24)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = p.parse_args(argv)

    whys = {w["name"]: w["why"] for w in json.loads(BENCHMARK.read_text(encoding="utf-8"))["workloads"]}
    summary = json.loads(args.out.read_text(encoding="utf-8")) if args.out and args.out.exists() else {}
    section = "per_layer" if args.trace else "end_to_end"
    for name in args.workload or list(WORKLOADS):
        results = [run_once(name, seed, args.seconds, args.trace) for seed in args.seeds]
        metrics = {
            metric: dict(summarise([r["metrics"][metric]["value"] for r in results]),
                         unit=results[0]["metrics"][metric]["unit"])
            for metric in results[0]["metrics"]
        }
        w = WORKLOADS[name]
        entry = summary.setdefault(name, {})
        entry["why"] = whys[name]
        entry["shape"] = {k: v for k, v in dataclasses.asdict(w).items() if k != "name"}
        entry["input_sha256"] = {"seed": args.seeds[0], "digest": make_inputs(w, args.seeds[0]).digest}
        entry[section] = {
            "seeds": args.seeds,
            "seconds": args.seconds,
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics,
        }
        print(f"{name}: correct={entry[section]['correct']} failed={entry[section]['failed']}"
              f"/{entry[section]['attempted']}")
        for metric, m in metrics.items():
            print(f"  {metric:28s} median {m['median']:14.6f} {m['unit']:6s} "
                  f"q1 {m['q1']:14.6f} q3 {m['q3']:14.6f} spread {m['spread']:7.2%}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
