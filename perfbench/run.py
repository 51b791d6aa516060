"""Benchmark of linkhom: time to a checked result, in reference-kernel units.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload kh-torus --seed 1 --seconds 15 --trace 0

One process, one thread, closed loop: ops (calls into linkhom's public
functions, or ``linkhom.cli.run``) run one at a time on inputs generated
from the seed, each output is checked outside the timed region, and the
last stdout line is a JSON object {correct, attempted, failed, metrics}.

The host's speed changes by up to 2x within seconds, so raw seconds do
not repeat.  A fixed reference kernel (refkernel.py) therefore runs
between the ops (after each op, or after a workload's ref_every_s of op
time), and each op's wall time is divided by the mean of the reference
times that bracket it.

--trace 0 reports the end-to-end metrics:
  norm_time     sum over the ops of each op's median normalized time
                across passes: one pass, in reference-kernel runs ("ref")
  op_p50_norm   median of all normalized op samples
  op_tail_norm  a fixed nearest-rank percentile of them per workload
                (workloads.py), with at least 10 samples beyond it
  peak_rss_mb   peak resident set size of the process
  setup_s       median of SETUPS set-ups (import, input generation, one
                warm-up op), each normalized like an op and given in
                seconds at REF_NOMINAL_S per reference-kernel run
--trace 1 runs each op twice, untraced and traced (with spans around the
calls into each layer, tracer.py) in turns of order from pass to pass,
and reports per-layer times (same
per-pass sums as norm_time), exact counts from the first pass, and raw
diagnostics.  Layers a workload does not run read 0.  A full record of
the run, spans and per-block SNF statistics included, is written once at
the end to .perfbench/run-<workload>-seed<seed>-trace<0|1>.json.
There is no queue or lock in the program, so no wait-time metric exists.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import threading
import time
import traceback

import refkernel
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
DIGESTS = os.path.join(HERE, "digests.json")

# Set-ups per run; setup_s is their median.  The first one provides the
# measured inputs; the others are spread over the run, since back-to-back
# set-ups would all land in the same burst of host slowness.
SETUPS = 11
# setup_s is normalized like the ops, since raw set-up seconds follow the
# host's speed, and then read in seconds at this time per kernel run (about
# the kernel's time on an unloaded 2-vCPU x86-64 host with Python 3.11).
REF_NOMINAL_S = 0.025
TAIL_SAMPLES = 10  # samples required beyond the op_tail_norm percentile

# per-layer time metrics: (span name, "total" for outermost-span time or
# "self" for time not covered by child spans)
LAYER_TIMES = {
    "homcore.snf_norm": ("homcore.snf", "total"),
    "homcore.d2_norm": ("homcore.d2", "total"),
    "homcore.homology_norm": ("homcore.homology", "total"),
    "khovanov.build_norm": ("khovanov.build", "total"),
    "khovanov.bracket_norm": ("khovanov.bracket", "total"),
    "khovanov.les_norm": ("khovanov.les", "total"),
    "graphhom.build_norm": ("graphhom.build", "total"),
    "graphhom.poly_norm": ("graphhom.poly", "total"),
    "homflypt.hecke_norm": ("homflypt.hecke", "total"),
    "homflypt.trace_norm": ("homflypt.trace", "total"),
    "homflypt.specialize_norm": ("homflypt.specialize", "total"),
    "cli.overhead_norm": ("cli.run", "self"),
}
# exact per-pass counts: metric -> summed span count key
LAYER_COUNTS = {
    "homcore.snf_nonunit": "homcore.snf.nonunit",
    "khovanov.generators": "khovanov.build.generators",
    "khovanov.nnz": "khovanov.build.nnz",
    "graphhom.generators": "graphhom.build.generators",
    "homflypt.perms": "homflypt.hecke.perms",
}
REF = "ref"  # unit of normalized times: reference-kernel runs


class BenchError(Exception):
    """The benchmark itself cannot run or its own invariants broke."""


class RefClock:
    """Reference-kernel runs interleaved with the ops."""

    def __init__(self):
        self.seconds: list[float] = []

    def run(self) -> float:
        # a collection of the workload's heap inside the kernel would be
        # timed as host speed
        gc.disable()
        try:
            t0 = time.perf_counter()
            result = refkernel.kernel()
            dt = time.perf_counter() - t0
        finally:
            gc.enable()
        if result != refkernel.EXPECTED:
            raise BenchError(f"reference kernel returned {result}, expected {refkernel.EXPECTED}")
        self.seconds.append(dt)
        return dt


class Checker:
    """Output checks, outside the timed region.

    An op's output text is compared with its stored digest when one
    exists.  The first output of each op key in a run also goes through
    the op's exact identity; later outputs must repeat its digest.
    """

    def __init__(self, stored: dict[str, str]):
        self.stored = stored
        self.seen: dict[str, tuple[str, bool]] = {}
        self.failures: list[dict] = []
        self.checked = 0
        self.digest_hits = 0

    def check(self, op: workloads.Op, out, error: str | None) -> bool:
        self.checked += 1
        if error is not None:
            return self._fail(op, error)
        try:
            digest = hashlib.sha256(op.text(out).encode()).hexdigest()
            want = self.stored.get(op.key)
            if want is not None:
                self.digest_hits += 1
                if digest != want:
                    return self._fail(op, "output differs from the stored digest")
            first = self.seen.get(op.key)
            if first is None:
                ok = bool(op.check(out))
                self.seen[op.key] = (digest, ok)
                return ok or self._fail(op, "identity check failed")
            if digest != first[0]:
                return self._fail(op, "output differs from this run's first output")
            return first[1] or self._fail(op, "identity check failed")
        except Exception:
            return self._fail(op, traceback.format_exc(limit=3))

    def _fail(self, op: workloads.Op, reason: str) -> bool:
        self.failures.append({"key": op.key, "reason": reason})
        return False


def load_linkhom():
    """Import linkhom afresh from the checkout's src/."""
    for name in [n for n in sys.modules if n == "linkhom" or n.startswith("linkhom.")]:
        del sys.modules[name]
    lh = importlib.import_module("linkhom")
    for sub in ("cli", "corpus", "verify"):
        importlib.import_module(f"linkhom.{sub}")
    return lh


def set_up(name: str, seed: int, checker: Checker,
           clock: RefClock) -> tuple[object, workloads.Workload, tuple[float, float]]:
    """Import, input generation and one warm-up op, between two
    reference-kernel runs; returns their (raw, normalized) time."""
    gc.collect()
    ref_before = clock.run()
    t0 = time.perf_counter()
    lh = load_linkhom()
    wl = workloads.WORKLOADS[name](lh, seed)
    out, error = None, None
    try:
        out = wl.warmup.call()
    except Exception:
        error = traceback.format_exc(limit=3)
    seconds = time.perf_counter() - t0
    ref_after = clock.run()
    checker.check(wl.warmup, out, error)
    return lh, wl, (seconds, seconds / ((ref_before + ref_after) / 2))


def run_op(op: workloads.Op, tr: tracer.Tracer | None):
    """One timed call; returns (output, error, wall s, cpu s, root span)."""
    gc.collect()
    out, error, root = None, None, None
    if tr is not None:
        root = len(tr.spans)
        tr.install()
    c0 = time.process_time()
    t0 = time.perf_counter()
    span = tr.open(op.kind) if tr is not None else None
    try:
        out = op.call()
    except Exception:
        error = traceback.format_exc(limit=3)
    finally:
        if span is not None:
            tr.close(span)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    if tr is not None:
        tr.uninstall()
        wall = span[2] - span[1]
    return out, error, wall, cpu, root


def measure(wl: workloads.Workload, seconds: float, trace: bool, clock: RefClock,
            checker: Checker, tr: tracer.Tracer | None,
            setups: list[tuple[float, float]], set_up_again) -> tuple[list[dict], int, float, float]:
    """Whole passes over the op list until ``seconds`` have passed and
    at least TAIL_SAMPLES samples lie beyond the op_tail_norm percentile,
    with the remaining set-ups spread over that time.  Returns (samples,
    passes, wall s, cpu s)."""
    setup_every = seconds / SETUPS
    samples: list[dict] = []
    pending: list[dict] = []
    last_ref = clock.run()
    since_ref = 0.0
    passes = 0
    t_start = time.perf_counter()
    c_start = time.process_time()

    def bracket() -> None:
        nonlocal last_ref, since_ref
        now = clock.run()
        for s in pending:
            s["ref_before"], s["ref_after"] = last_ref, now
            s["ref"] = (last_ref + now) / 2
        pending.clear()
        last_ref, since_ref = now, 0.0

    while True:
        for k, op in enumerate(wl.ops):
            # alternating the order keeps run order out of trace_overhead
            order = ((False, True) if passes % 2 == 0 else (True, False)) if trace else (False,)
            for traced in order:
                if traced:
                    tr.op_id = len(samples)
                out, error, wall, cpu, root = run_op(op, tr if traced else None)
                sample = {"op": k, "pass": passes, "traced": traced, "wall": wall, "cpu": cpu, "root": root}
                samples.append(sample)
                pending.append(sample)
                since_ref += wall
                if since_ref >= wl.ref_every_s:
                    bracket()
                sample["ok"] = checker.check(op, out, error)
            if len(setups) < SETUPS and time.perf_counter() - t_start >= setup_every * len(setups):
                setups.append(set_up_again())
        if pending:
            bracket()
        passes += 1
        if (beyond_tail(passes * len(wl.ops), wl.tail) >= TAIL_SAMPLES
                and time.perf_counter() - t_start >= seconds):
            break
    wall, cpu = time.perf_counter() - t_start, time.process_time() - c_start
    while len(setups) < SETUPS:
        setups.append(set_up_again())
    return samples, passes, wall, cpu


def per_op_median_sum(samples: list[dict], value) -> float:
    """Sum over ops of the op's median value across passes: one pass."""
    by_op: dict[int, list[float]] = {}
    for s in samples:
        by_op.setdefault(s["op"], []).append(value(s))
    return sum(statistics.median(v) for v in by_op.values())


def tail_rank(n: int, pct: int) -> int:
    """Index of the nearest-rank percentile among n sorted samples."""
    return max(0, math.ceil(pct / 100 * n) - 1)


def beyond_tail(n: int, pct: int) -> int:
    """Number of samples beyond the nearest-rank percentile of n."""
    return n - tail_rank(n, pct) - 1


def tail(values: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    return sorted(values)[tail_rank(len(values), pct)], beyond_tail(len(values), pct)


def end_to_end(wl: workloads.Workload, untraced: list[dict], setup_s: float) -> tuple[dict, dict]:
    norm = [s["wall"] / s["ref"] for s in untraced]
    tail_value, beyond = tail(norm, wl.tail)
    if beyond < TAIL_SAMPLES:
        raise BenchError(f"p{wl.tail} of {len(norm)} samples has only {beyond} beyond it")
    metrics = {
        "norm_time": {"value": per_op_median_sum(untraced, lambda s: s["wall"] / s["ref"]), "unit": REF},
        "op_p50_norm": {"value": statistics.median(norm), "unit": REF},
        "op_tail_norm": {"value": tail_value, "unit": REF},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }
    detail = {"op_p50_samples": len(norm), "op_tail_pct": wl.tail, "op_tail_samples_beyond": beyond}
    return metrics, detail


def per_layer(samples: list[dict], spans: list[list], clock: RefClock) -> tuple[dict, dict]:
    """Per-layer metrics, and for the record every span name's
    normalized total and self time per pass plus the first pass's counts."""
    untraced = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    for s in traced:
        s["total"], s["self"], s["counts"] = tracer.op_summary(spans, s["root"])
    names = sorted({name for s in traced for name in s["total"]})
    detail = {
        mode + "_norm": {
            name: per_op_median_sum(traced, lambda s: s[mode].get(name, 0.0) / s["ref"]) for name in names
        }
        for mode in ("total", "self")
    }
    metrics: dict[str, dict] = {}
    for name, (span, mode) in LAYER_TIMES.items():
        metrics[name] = {
            "value": per_op_median_sum(traced, lambda s: s[mode].get(span, 0.0) / s["ref"]),
            "unit": REF,
        }
    metrics["homcore.snf_top_block_norm"] = {
        "value": per_op_median_sum(traced, lambda s: top_block_seconds(spans, s) / s["ref"]),
        "unit": REF,
    }
    first_pass = [s for s in traced if s["pass"] == 0]
    counts: dict[str, float] = {}
    for s in first_pass:
        for key, v in s["counts"].items():
            counts[key] = counts.get(key, 0) + v
    for name, key in LAYER_COUNTS.items():
        metrics[name] = {"value": counts.get(key, 0), "unit": "count"}
    rank = counts.get("homcore.snf.rank", 0)
    metrics["homcore.snf_unit_share"] = {
        "value": (rank - counts.get("homcore.snf.nonunit", 0)) / rank if rank else 0.0,
        "unit": "ratio",
    }
    untraced_norm = per_op_median_sum(untraced, lambda s: s["wall"] / s["ref"])
    traced_norm = per_op_median_sum(traced, lambda s: s["wall"] / s["ref"])
    refs_ms = sorted(1000 * x for x in clock.seconds)
    metrics.update({
        "bench.wall_s": {"value": per_op_median_sum(untraced, lambda s: s["wall"]), "unit": "s"},
        "bench.cpu_s": {"value": per_op_median_sum(untraced, lambda s: s["cpu"]), "unit": "s"},
        "bench.ref_ms_p10": {"value": tail(refs_ms, 10)[0], "unit": "ms"},
        "bench.ref_ms_p50": {"value": statistics.median(refs_ms), "unit": "ms"},
        "bench.trace_overhead": {"value": traced_norm / untraced_norm, "unit": "ratio"},
    })
    detail["counts"] = counts
    return metrics, detail


def snf_blocks(spans: list[list], root: int) -> list[dict]:
    """Per-block statistics of the SNF calls made by one op."""
    return [
        dict(sp[5] or {}, seconds=sp[2] - sp[1])
        for sp in tracer.subtree(spans, root)
        if sp[0] == "homcore.snf"
    ]


def top_block_seconds(spans: list[list], sample: dict) -> float:
    """SNF time of the op's block with the most nonzeros (0 without SNF)."""
    blocks = snf_blocks(spans, sample["root"])
    return max(blocks, key=lambda b: b.get("nnz", 0))["seconds"] if blocks else 0.0


def unscored(wl: workloads.Workload, tr: tracer.Tracer, checker: Checker) -> list[dict]:
    """Trace wl.extra once each; their per-block SNF statistics go to the record."""
    out = []
    for op in wl.extra:
        tr.op_id = f"extra:{op.key}"
        result, error, wall, cpu, root = run_op(op, tr)
        ok = checker.check(op, result, error)
        total, self_s, counts = tracer.op_summary(tr.spans, root)
        out.append({"key": op.key, "ok": ok, "wall_s": wall, "total_s": total, "self_s": self_s,
                    "counts": counts, "snf_blocks": snf_blocks(tr.spans, root)})
    return out


def source_identity() -> dict:
    """Git commit if the checkout has one, and a digest of src/linkhom."""
    sha = None
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                sha = f.read().strip()
        else:
            sha = ref
    except OSError:
        pass
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "linkhom")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return {"git_sha": sha, "src_sha256": h.hexdigest()}


def load_digests() -> dict[str, str]:
    with open(DIGESTS) as f:
        return json.load(f)["digests"]


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # The GIL-bound LINKHOM_THREADS pool must not change what is measured.
    inherited_threads = os.environ.pop("LINKHOM_THREADS", None)
    if not os.path.isfile(os.path.join(SRC, "linkhom", "__init__.py")):
        print(f"perfbench: no linkhom sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inherited_LINKHOM_THREADS": inherited_threads,
        "threads_at_start": threading.active_count(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_start": os.getloadavg(),
        **source_identity(),
    }
    if record["threads_at_start"] != 1:
        raise BenchError(f"{record['threads_at_start']} threads at start, expected 1")

    checker = Checker(load_digests())
    clock = RefClock()
    clock.run()  # the first run pays for page faults and lazy set-up
    clock.seconds.clear()
    _, wl, first_setup = set_up(args.workload, args.seed, checker, clock)
    setups = [first_setup]
    tr = tracer.Tracer() if args.trace else None
    samples, passes, wall_s, cpu_s = measure(
        wl, args.seconds, bool(args.trace), clock, checker, tr,
        setups, lambda: set_up(args.workload, args.seed, checker, clock)[2])
    untraced = [s for s in samples if not s["traced"]]
    setup_s = statistics.median(norm for _, norm in setups) * REF_NOMINAL_S
    e2e, tail_detail = end_to_end(wl, untraced, setup_s)
    if args.trace:
        metrics, record["layers"] = per_layer(samples, tr.spans, clock)
        record["unscored"] = unscored(wl, tr, checker)
    else:
        metrics = e2e

    # every checked output counts: measured ops, warm-ups and unscored ops
    attempted = checker.checked
    failed = len(checker.failures)
    record.update({
        "threads_at_end": threading.active_count(),
        "loadavg_end": os.getloadavg(),
        "setup_times_s": [raw for raw, _ in setups],
        "setup_norm": [norm for _, norm in setups],
        "passes": passes,
        "ops_per_pass": len(wl.ops),
        "loop_wall_s": wall_s,
        "loop_cpu_s": cpu_s,
        "raw_time_s": per_op_median_sum(untraced, lambda s: s["wall"]),
        "raw_cpu_s": per_op_median_sum(untraced, lambda s: s["cpu"]),
        "ref_ms": [1000 * x for x in clock.seconds],
        "end_to_end": e2e,
        **tail_detail,
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted,
        "failures": checker.failures[:50],
        "measured_ops": len(samples),
        "digest_hits": checker.digest_hits,
        "ops": [op.key for op in wl.ops],
        "samples": [{k: s[k] for k in ("op", "pass", "traced", "wall", "cpu", "ref_before", "ref_after", "ok")} for s in samples],
    })
    if tr is not None:
        record["per_layer"] = metrics
        record["spans"] = tr.spans
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f)
    print(json.dumps({k: record[k] for k in ("workload", "seed", "passes", "raw_time_s", "fail_share",
                                             "inherited_LINKHOM_THREADS", "nproc", "loadavg_start")}),
          file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
