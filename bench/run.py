"""braidgamma benchmark: one command, three workloads, checked outputs.

    python3 bench/run.py --workload check-literal --seed 1 --seconds 30 --trace 0

Workloads (inputs from the benchmark's own seeded generator, see inputs.py):

  check-literal  `braidgamma check --format json`, one fresh process per call
  trace-mixed    `braidgamma trace --format json` on planar and spatial loops,
                 one fresh process per call
  map-long       parse -> map -> free_reduce -> invariant on long braid words
                 in a warm process

Load is a closed loop from one process, one operation at a time.  Every time
is corrected for host speed (refloop.py).  With --trace 0 the last line of
stdout is the JSON result with the end-to-end metrics; with --trace 1 it
carries the per-layer metrics of a traced run, which also reports its own
overhead.  Details of every run go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
from tracing import CALL_COUNTS, COUNTERS, LAYERS  # noqa: E402

WORKLOADS = ("check-literal", "trace-mixed", "map-long")
OP_TIMEOUT_S = 120
# map-long runs its measured loop in this many fresh processes, one set-up each
MAP_PROCESSES = 3


def child(job: dict) -> dict:
    """Run bench/worker.py on one job; returns its reply, or {"died": why}."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py")],
            input=json.dumps(job), capture_output=True, text=True,
            timeout=OP_TIMEOUT_S, env=env, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"died": f"timed out after {OP_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"died": f"worker exit code {proc.returncode}: {proc.stderr[-1500:]}"}
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


class Record:
    """Everything a run keeps about its operations."""

    def __init__(self):
        self.ops = []  # dicts: time (corrected), raw, factor, items, problems
        self.setups = []  # Window dicts
        self.rss_kb = 0
        self.traced = []  # trace summaries
        self.traced_ops = 0
        self.overhead = [0.0, 0.0]  # corrected seconds: traced, untraced

    def add_op(self, window, items, problems, traced=False):
        entry = {"problems": problems, "items": items, "traced": traced}
        if window:
            entry.update(time=window["raw"] * window["factor"], raw=window["raw"],
                         factor=window["factor"])
        self.ops.append(entry)


def cli_op(op: dict, trace: bool, op_id: int, spans: str):
    """One CLI operation in a fresh process: (reply, window, problems)."""
    reply = child({"kind": "cli", "argv": op["argv"], "trace": trace,
                   "spans": spans, "op_ids": [op_id]})
    if "died" in reply:
        return reply, None, [reply["died"]]
    if reply["crash"]:
        return reply, None, ["crashed: " + reply["crash"].strip().splitlines()[-1]]
    try:
        payload = json.loads(reply["stdout"])
    except ValueError:
        payload = None
    try:
        if op["argv"][0] == "check":
            problems = checks.check_check(op, reply["code"], payload)
        else:
            problems = checks.check_trace(op["choreo"], reply["code"], payload)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        problems = [f"malformed output: {exc!r}"]
    return reply, reply.get("op"), problems


def cli_round(workload: str, rng, op_dir: str) -> list[dict]:
    if workload == "check-literal":
        ops = inputs.check_round(rng)
        for op in ops:
            op["items"] = inputs.relation_count(op["n"])
        return ops
    ops = inputs.trace_round(rng)
    for k, op in enumerate(ops):
        path = os.path.join(op_dir, f"choreo-{k}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(op["choreo"], fh)
        op["argv"] = ["trace", path, "--format", "json"]
        op["items"] = len(op["choreo"]["moves"])
    return ops


def run_cli_workload(workload, rng, seconds, trace, rec: Record, spans):
    op_dir = os.path.join(OUT, "inputs", workload)
    os.makedirs(op_dir, exist_ok=True)
    for _ in inputs.rounds(seconds):
        for op in cli_round(workload, rng, op_dir):
            modes = (False, True) if trace else (False,)
            times = {}
            for traced in modes:
                reply, window, problems = cli_op(op, traced, len(rec.ops), spans)
                rec.add_op(window, op["items"], problems, traced)
                if window:
                    times[traced] = window["raw"] * window["factor"]
                if not traced:
                    if "setup" in reply:
                        rec.setups.append(reply["setup"])
                    rec.rss_kb = max(rec.rss_kb, reply.get("rss_kb", 0))
                elif reply.get("trace"):
                    rec.traced.append(reply["trace"])
                    rec.traced_ops += 1
            if trace and len(times) == 2:
                rec.overhead[0] += times[True]
                rec.overhead[1] += times[False]


def run_map_workload(rng, seconds, trace, rec: Record, spans):
    configs = inputs.map_configs(rng)

    def one(seed, secs, traced):
        reply = child({"kind": "map", "configs": configs, "seed": seed, "seconds": secs,
                       "trace": traced, "spans": spans, "op_ids": [len(rec.ops)]})
        if "died" in reply:
            rec.add_op(None, 0, [reply["died"]], traced)
            return None
        for op in reply["ops"]:
            problems = op.get("problems", [])
            if "crash" in op:
                problems = ["crashed: " + op["crash"].strip().splitlines()[-1]]
            rec.add_op(op.get("window"), op.get("items", 0), problems, traced)
        if traced:
            rec.traced.append(reply["trace"])
            rec.traced_ops += len(reply["ops"])
        else:
            rec.setups.append(reply["setup"])
            rec.rss_kb = max(rec.rss_kb, reply["rss_kb"])
        return sum(o["window"]["raw"] * o["window"]["factor"] for o in reply["ops"]
                   if "window" in o)

    if not trace:
        for _ in range(MAP_PROCESSES):
            one(rng.randrange(2**32), seconds / MAP_PROCESSES, False)
        return
    for _ in inputs.rounds(seconds):
        seed = rng.randrange(2**32)
        plain = one(seed, 0, False)  # seconds 0: exactly one round
        traced = one(seed, 0, True)
        if plain and traced:
            rec.overhead[0] += traced
            rec.overhead[1] += plain


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(rec: Record) -> tuple[dict, list[str]]:
    timed = [o for o in rec.ops if "time" in o and not o["traced"] and not o["problems"]]
    if not timed or not rec.setups:
        return {}, ["no operation completed"]
    setup = [s["raw"] * s["factor"] for s in rec.setups]
    lat = statistics.median(o["time"] for o in timed)
    lat_raw = statistics.median(o["raw"] for o in timed)
    items = sum(o["items"] for o in timed)
    busy = sum(o["time"] for o in timed)
    busy_raw = sum(o["raw"] for o in timed)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "latency_p50_s": (lat, "s"),
        "items_per_s": (items / busy, "1/s"),
        "peak_rss_mb": (rec.rss_kb / 1024, "MB"),
    }
    factors = [o["factor"] for o in timed]
    notes = [
        f"operations timed: {len(timed)}; set-ups timed: {len(setup)}",
        f"raw (uncorrected): setup_s {statistics.median(s['raw'] for s in rec.setups):.4f} s, "
        f"latency_p50_s {lat_raw:.4f} s, items_per_s {items / busy_raw:.2f} 1/s",
        f"speed factor per operation: median {statistics.median(factors):.4f}, "
        f"min {min(factors):.4f}, max {max(factors):.4f}",
    ]
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, notes


# observed counters reported per operation; the others only enter ratios
PER_OP_OBSERVED = ("words.free_reduce.letters_in", "gf2.echelon.rows", "geom2d.segments",
                   "geom2d.events", "geom3d.segments", "geom3d.events")


def per_layer(rec: Record) -> dict:
    """Per traced operation: self seconds per layer and the counters, plus
    the ratios.  Set-up work traced in a process (map-long's warm-up) counts
    towards that process's operations."""
    ops = max(rec.traced_ops, 1)
    self_s = [0.0] * len(LAYERS)
    counts = dict.fromkeys(COUNTERS, 0)
    for summary in rec.traced:
        for k, v in enumerate(summary["self_s"]):
            self_s[k] += v
        for key, v in summary["counts"].items():
            counts[key] += v

    def ratio(a, b):
        return counts[a] / counts[b] if counts[b] else 0.0

    out = {f"{layer}.self_s": (self_s[k] / ops, "s") for k, layer in enumerate(LAYERS)}
    for key in tuple(CALL_COUNTS) + PER_OP_OBSERVED:
        out[key] = (counts[key] / ops, "count")
    out["homs.generator_image.distinct_ratio"] = (
        ratio("homs.generator_image.distinct", "homs.generator_image.calls"), "ratio")
    out["words.free_reduce.kept_ratio"] = (
        ratio("words.free_reduce.letters_out", "words.free_reduce.letters_in"), "ratio")
    out["roots.found_ratio"] = (ratio("roots.isolate.found", "roots.isolate.calls"), "ratio")
    out["geom3d.special_ratio"] = (ratio("geom3d.special", "geom3d.events"), "ratio")
    traced, plain = rec.overhead
    out["trace_overhead"] = (traced / plain if plain else 0.0, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "braidgamma", "cli.py")):
        print(f"error: no braidgamma sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, f"spans-{args.workload}.bin")
    if os.path.exists(spans):
        os.remove(spans)
    # one unmeasured import first, so that byte-code compilation is never timed
    primed = child({"kind": "cli", "argv": ["canon", "d(1,2,3,4)"], "trace": False,
                    "spans": spans, "op_ids": [-1]})
    if "died" in primed or primed.get("code") != 0:
        print(f"error: braidgamma does not start: {primed}", file=sys.stderr)
        return 2

    rng = random.Random(f"{args.workload}:{args.seed}")
    rec = Record()
    if args.workload == "map-long":
        run_map_workload(rng, args.seconds, bool(args.trace), rec, spans)
    else:
        run_cli_workload(args.workload, rng, args.seconds, bool(args.trace), rec, spans)

    failed = sum(1 for o in rec.ops if o["problems"])
    for o in rec.ops:
        for p in o["problems"][:3]:
            print(f"FAILED: {p}")
    e2e, notes = end_to_end(rec)
    metrics = per_layer(rec) if args.trace else e2e
    for note in notes:
        print(note)
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(rec.ops),
        "failed": failed,
        "metrics": metrics,
    }
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, notes=notes, end_to_end=e2e, ops=rec.ops,
                  setups=rec.setups)
    with open(os.path.join(OUT, f"result-{args.workload}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
