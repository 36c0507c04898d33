#!/usr/bin/env python3
"""Run the benchmark repeatedly and record its run-to-run spread.

    python3 bench/noise.py --runs 10 --seconds 25 [--workloads odometer,...] [--trace] [--record bench/RECORD.json]

Runs ``bench/run.py`` once per (workload, seed), one run at a time, with
seeds --first-seed, --first-seed + 1, ...  For each end-to-end metric it
prints the quartiles of its values and the spread (q3 - q1) / median, the
figure the benchmark's bounds are checked against.  With --trace it runs the
traced run instead and reports whether the exact counts of each seed repeat
when that seed is run a second time.  --record writes the environment and the
figures to a JSON file, keeping the figures of the other mode if the file
already holds them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("stage-maps", "odometer", "fock-cyclic", "cli-roundtrip")
#: Count- and ratio-valued metrics that depend on host speed rather than on the work done.
NOT_EXACT = {"trace.jobs_per_s_ratio", "scalar.cyclotomic_over_budget"}


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=HERE.parent,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    result["digest"] = next((line.split("sha256=")[1] for line in lines if line.startswith("digest ")), None)
    return result


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"q1": q1, "median": median, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu_model(),
            "platform": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--record", default=None)
    args = parser.parse_args(argv)

    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    record = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        results = [run_once(workload, seed, args.seconds, int(args.trace)) for seed in seeds]
        entry = {"digests": {str(s): r["digest"] for s, r in zip(seeds, results)},
                 "correct": all(r["correct"] and r["exit"] == 0 for r in results)}
        ok &= entry["correct"]
        if args.trace:
            again = run_once(workload, seeds[0], args.seconds, 1)
            counts = {k: v["value"] for k, v in results[0]["metrics"].items()
                      if v["unit"] in ("count", "ratio", "B") and k not in NOT_EXACT}
            repeat = {k: v["value"] for k, v in again["metrics"].items() if k in counts}
            entry["counts_seed"] = seeds[0]
            entry["counts"] = counts
            entry["counts_repeat"] = counts == repeat and again["digest"] == results[0]["digest"]
            ok &= entry["counts_repeat"]
            print(f"{workload}: correct={entry['correct']} counts and digest repeat={entry['counts_repeat']}")
        names = results[0]["metrics"]
        entry["metrics"] = {}
        for name in names:
            values = [r["metrics"][name]["value"] for r in results]
            if len(values) >= 2:
                entry["metrics"][name] = {"unit": names[name]["unit"], **spread(values), "values": values}
        record["workloads"][workload] = entry
        if not args.trace:
            print(f"{workload}: correct={entry['correct']}")
            for name, s in entry["metrics"].items():
                print(f"  {name:12s} median {s['median']:10.4f} {names[name]['unit']:4s} "
                      f"q1 {s['q1']:10.4f} q3 {s['q3']:10.4f} spread {s['spread']:.4f}")
        sys.stdout.flush()
    if args.record:
        # untraced and traced figures share one file, each under its own key
        path = Path(args.record)
        merged = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        merged["environment"] = environment()
        merged["traced" if args.trace else "untraced"] = record
        path.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
