"""One benchmark process.  Reads a job (JSON) on stdin, prints its reply
(JSON) as the last line of stdout.

  {"kind": "cli", ...}  a fresh `braidgamma` invocation: import the package,
                        then one call of the CLI entry with stdout/stderr
                        captured.  Nothing else runs in the process, so no
                        cache of the program survives between operations.
  {"kind": "map", ...}  map-long: import plus warm-up (the set-up), then
                        rounds of parse -> map -> free_reduce -> invariant in
                        the same warm process until its time is up.

Every timing goes through `refloop.Sampler`.  With "trace" set, spans are
recorded (see `tracing`) and appended to the job's "spans" file at the end.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import resource
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from refloop import Sampler  # noqa: E402


def _rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Timed:
    """Runs calls through the sampler and, when tracing, remembers which
    spans each call produced and its speed factor."""

    def __init__(self, sampler, tracer=None):
        self.sampler = sampler
        self.tracer = tracer
        self.windows = []

    def run(self, fn, *args):
        lo = self.tracer.mark() if self.tracer else 0
        result, window = self.sampler.run(fn, *args)
        if self.tracer:
            self.windows.append((lo, self.tracer.mark(), window.factor))
        return result, window

    def finish(self, job):
        if self.tracer is None:
            return None
        self.tracer.write(job["spans"], job["op_ids"])
        return self.tracer.summary(self.windows)


def _tracer(job, sampler):
    if not job["trace"]:
        return None
    from tracing import Tracer

    tracer = Tracer(sampler.clock)
    tracer.install()
    return tracer


def run_cli(job, sampler) -> dict:
    _, setup = sampler.run(importlib.import_module, "braidgamma.cli")
    cli = sys.modules["braidgamma.cli"]
    timed = Timed(sampler, _tracer(job, sampler))
    out, err = io.StringIO(), io.StringIO()
    reply = {"setup": setup.as_dict(), "code": None, "crash": None}
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code, window = timed.run(cli.main, job["argv"])
        reply["code"] = code
        reply["op"] = window.as_dict()
    except SystemExit as exc:
        reply["code"] = exc.code
    except Exception:  # the program died: record it as a failed operation
        reply["crash"] = traceback.format_exc(limit=8)
    reply["stdout"] = out.getvalue()
    reply["stderr"] = err.getvalue()[-2000:]
    reply["rss_kb"] = _rss_kb()
    reply["trace"] = timed.finish(job)
    return reply


def run_map(job, sampler) -> dict:
    # imported here so that CLI processes, whose peak RSS is a metric, do not
    # carry the benchmark's own modules
    import checks
    import inputs

    configs = job["configs"]
    timed = Timed(sampler)

    def setup():
        importlib.import_module("braidgamma")
        # installed inside the set-up window, so the warm-up is traced too
        timed.tracer = _tracer(job, sampler)
        for op in inputs.warmup_words(configs):
            _map_once(op)

    _, setup_window = sampler.run(setup)
    if timed.tracer:
        timed.windows.append((0, timed.tracer.mark(), setup_window.factor))
    rng = random.Random(job["seed"])
    ops = []
    for _ in inputs.rounds(job["seconds"]):
        raw_of_word = None
        for op in inputs.map_round(rng, configs):
            try:
                (raw, red, inv), window = timed.run(_map_once, op)
            except Exception:
                ops.append({"role": op["role"], "crash": traceback.format_exc(limit=8)})
                continue
            words = sys.modules["braidgamma.words"]
            raw_tokens = words.word_to_text(raw).split()
            red_tokens = words.word_to_text(red).split()
            problems = checks.check_map(op, raw_tokens, red_tokens, inv.is_zero(), raw_of_word)
            if op["role"] == "word":
                raw_of_word = raw_tokens
            ops.append({"role": op["role"], "n": op["n"], "target": op["target"],
                        "window": window.as_dict(), "items": len(raw_tokens),
                        "problems": problems})
    reply = {"setup": setup_window.as_dict(), "ops": ops, "rss_kb": _rss_kb()}
    reply["trace"] = timed.finish(job)
    return reply


def _map_once(op):
    """The timed map-long operation, through the modules' public functions."""
    braids = sys.modules["braidgamma.braids"]
    homs = sys.modules["braidgamma.homs"]
    words = sys.modules["braidgamma.words"]
    n = op["n"]
    cfg = homs.HomConfig(n, target=op["target"], r=op["r"], assembly=op["assembly"])
    raw = homs.map_braid(cfg, braids.parse_braid(op["text"], n), reduced=False)
    red = words.free_reduce(raw)
    return raw, red, words.invariant(red, n)


def main() -> int:
    job = json.loads(sys.stdin.read())
    sampler = Sampler()
    reply = run_cli(job, sampler) if job["kind"] == "cli" else run_map(job, sampler)
    sys.stdout.write(json.dumps(reply) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
