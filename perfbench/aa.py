"""A/A steadiness record: two sets of runs of the same commit.

Usage, from the root of a checkout:

    python3 perfbench/aa.py --out perfbench/aa_record.json

Runs ``perfbench/run.py --trace 0`` once per (set, seed, workload), in
SETS sets of seeds 1..RUNS, workloads interleaved, one run at a time.
For every end-to-end metric it records each set's median and quartiles,
the spread (q3 - q1) / median, and the change of the second set's median
against the first, and checks them against the bounds in BENCHMARK.json:
each spread must stay within the metric's bound, and the median may not
move by more than the bound either way.  Raw seconds per pass (``raw_s``)
and per set-up (``raw_setup_s``), not normalized, are recorded next to
``norm_time`` and ``setup_s`` to show what normalization removes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
RUNS = 10  # seeds per set
RAW = ("raw_s", "raw_setup_s")


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, ".perfbench", f"run-{workload}-seed{seed}-trace0.json")) as f:
        record = json.load(f)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    values["raw_s"] = record["raw_time_s"]
    values["raw_setup_s"] = statistics.median(record["setup_times_s"])
    return {"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
            "elapsed_s": elapsed, "values": values}


def main(argv: list[str]) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=None, help="write the record here as JSON")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]

    runs: dict[str, list[list[dict]]] = {w: [[] for _ in range(SETS)] for w in names}
    for s in range(SETS):
        for seed in range(1, RUNS + 1):
            for w in names:
                r = one_run(w, seed, seconds)
                runs[w][s].append(r)
                print(f"set {s + 1} seed {seed} {w}: {json.dumps(r['values'])} "
                      f"correct={r['correct']} {r['elapsed_s']:.1f}s", file=sys.stderr)

    record = {"runs": RUNS, "sets": SETS, "seconds": seconds, "bounds": bounds,
              "loadavg": os.getloadavg(), "workloads": {}}
    ok = True
    for w in names:
        entry: dict[str, dict] = {}
        for metric in list(bounds) + list(RAW):
            sets = [quartiles([r["values"][metric] for r in runs[w][s]]) for s in range(SETS)]
            m = {"sets": sets, "change": sets[1]["median"] / sets[0]["median"] - 1}
            if metric in bounds:
                b = bounds[metric]
                m["ok"] = all(x["spread"] <= b for x in sets) and abs(m["change"]) <= b
                ok = ok and m["ok"]
            entry[metric] = m
            line = " ".join(f"med {x['median']:.4g} spread {x['spread']:.3f}" for x in sets)
            print(f"{w:14s} {metric:13s} {line} change {m['change']:+.3f}"
                  f"{'' if m.get('ok', True) else '  OUT OF BOUND'}")
        entry["failed"] = sum(r["failed"] for s in runs[w] for r in s)
        entry["elapsed_s"] = [r["elapsed_s"] for s in runs[w] for r in s]
        ok = ok and entry["failed"] == 0
        record["workloads"][w] = entry
    record["ok"] = ok
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    print("A/A", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
