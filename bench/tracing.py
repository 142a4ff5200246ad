"""Spans around braidgamma's public functions, installed from outside.

Each wrapped function is replaced wherever a caller looks it up: in every
loaded braidgamma module that binds it by name, or on its class for methods.
A call records a span (name, start, end, parent span) in compact arrays; the
owning process writes them out when it ends.  A call made while a span of the
same layer is open is counted but records no span: its time is that layer's
self time either way, and the hot generator constructors would otherwise
record a span per letter.

A layer's self time is the time of its spans minus the time their child
spans cover.  Times come from `Sampler.clock`, which leaves out the host
speed probes.
"""

from __future__ import annotations

import json
import sys
from array import array

LAYERS = ("cli", "braids", "homs", "generators", "words", "gf2", "geom2d", "roots", "geom3d")

# (layer, module, attribute) of every wrapped callable; "Class.method" wraps
# a method on its class.
TARGETS = (
    ("cli", "cli", "run"),
    ("braids", "braids", "parse_braid"),
    ("braids", "braids", "print_braid"),
    ("braids", "braids", "relation_instances"),
    ("homs", "homs", "map_braid"),
    ("homs", "homs", "generator_image"),
    ("generators", "generators", "select_quad"),
    ("generators", "generators", "GammaGen.__init__"),
    ("generators", "generators", "GGen.__init__"),
    ("words", "words", "free_reduce"),
    ("words", "words", "invert"),
    ("words", "words", "invariant"),
    ("words", "words", "invariant_equal"),
    ("words", "words", "pentagon_rows"),
    ("words", "words", "GWord.__mul__"),
    ("words", "words", "GammaWord.__mul__"),
    ("words", "words", "MultiWord.__mul__"),
    ("gf2", "gf2", "echelon"),
    ("gf2", "gf2", "reduce"),
    ("geom2d", "geom2d", "load_choreography"),
    ("geom2d", "geom2d", "trace"),
    ("geom2d", "geom2d", "incircle_sign"),
    ("geom2d", "geom2d", "events_to_word"),
    ("roots", "roots", "isolate_unit_roots"),
    ("roots", "roots", "AlgebraicRoot.refine"),
    ("roots", "roots", "AlgebraicRoot.compare"),
    ("geom3d", "geom3d", "trace3"),
)
NAMES = tuple(f"{mod}.{attr}" for _, mod, attr in TARGETS)

# per-layer counters read off call counts: counter -> wrapped name
CALL_COUNTS = {
    "generators.GammaGen.calls": "generators.GammaGen.__init__",
    "generators.select_quad.calls": "generators.select_quad",
    "homs.generator_image.calls": "homs.generator_image",
    "words.invariant.calls": "words.invariant",
    "gf2.reduce.calls": "gf2.reduce",
    "geom2d.incircle_sign.calls": "geom2d.incircle_sign",
    "roots.isolate.calls": "roots.isolate_unit_roots",
    "roots.refine.calls": "roots.AlgebraicRoot.refine",
}
# counters added up from arguments and results
OBSERVED = (
    "homs.generator_image.distinct",
    "words.free_reduce.letters_in", "words.free_reduce.letters_out",
    "gf2.echelon.rows", "roots.isolate.found",
    "geom2d.segments", "geom2d.events",
    "geom3d.segments", "geom3d.events", "geom3d.special",
)
COUNTERS = tuple(CALL_COUNTS) + OBSERVED


class Tracer:
    """Span recorder for one process.  `install` patches braidgamma;
    `summary` gives per-layer self times and the counters."""

    def __init__(self, clock):
        self.clock = clock
        self.names = array("H")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts = dict.fromkeys(OBSERVED, 0)
        self._calls = [0] * len(NAMES)
        self._image_keys: set = set()
        self._stack_span = [-1]
        self._stack_layer = [-1]

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name_id: int, layer_id: int, observe):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack_span, stack_layer, calls, clock = (
            self._stack_span, self._stack_layer, self._calls, self.clock
        )

        def wrapper(*args, **kwargs):
            calls[name_id] += 1
            if stack_layer[-1] == layer_id:
                result = fn(*args, **kwargs)
            else:
                idx = len(starts)
                names.append(name_id)
                parents.append(stack_span[-1])
                ends.append(0.0)
                stack_span.append(idx)
                stack_layer.append(layer_id)
                starts.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    stack_span.pop()
                    stack_layer.pop()
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def _observers(self) -> dict:
        c = self.counts

        def image(args, result):
            cfg, i, j = args
            self._image_keys.add((cfg, i, j))

        def reduce_words(args, result):
            c["words.free_reduce.letters_in"] += len(args[0].letters)
            c["words.free_reduce.letters_out"] += len(result.letters)

        def echelon(args, result):
            c["gf2.echelon.rows"] += len(args[0])

        def isolate(args, result):
            c["roots.isolate.found"] += len(result[0])

        def trace2(args, result):
            c["geom2d.segments"] += len(args[0].moves)
            c["geom2d.events"] += len(result)

        def trace3(args, result):
            c["geom3d.segments"] += len(args[0].moves)
            c["geom3d.events"] += len(result)
            c["geom3d.special"] += sum(1 for e in result if e.special)

        return {
            "homs.generator_image": image,
            "words.free_reduce": reduce_words,
            "gf2.echelon": echelon,
            "roots.isolate_unit_roots": isolate,
            "geom2d.trace": trace2,
            "geom3d.trace3": trace3,
        }

    def install(self) -> None:
        """Wrap every target in the braidgamma modules loaded so far."""
        observers = self._observers()
        modules = [m for key, m in list(sys.modules.items())
                   if key == "braidgamma" or key.startswith("braidgamma.")]
        for name_id, (layer, mod, attr) in enumerate(TARGETS):
            owner = sys.modules.get(f"braidgamma.{mod}")
            if owner is None:  # not loaded, so not used: map-long never loads cli
                continue
            layer_id = LAYERS.index(layer)
            observe = observers.get(NAMES[name_id])
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(getattr(cls, meth), name_id, layer_id, observe))
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(fn, name_id, layer_id, observe)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapped)

    # -- results -----------------------------------------------------------

    def mark(self) -> int:
        """Number of spans so far; spans of one operation are contiguous."""
        return len(self.starts)

    def self_times(self, lo: int, hi: int) -> list[float]:
        """Self seconds per layer (index into LAYERS) of spans lo..hi-1, which
        must hold whole trees of spans.  Probe time is already excluded."""
        layer_of = [LAYERS.index(t[0]) for t in TARGETS]
        durations = [self.ends[i] - self.starts[i] for i in range(lo, hi)]
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parents[i]
            if p >= lo:
                child[p - lo] += durations[i - lo]
        out = [0.0] * len(LAYERS)
        for i in range(lo, hi):
            out[layer_of[self.names[i]]] += durations[i - lo] - child[i - lo]
        return out

    def summary(self, windows) -> dict:
        """Counters plus self times, each window's spans scaled by its speed
        factor; `windows` lists (first span, end span, factor)."""
        calls = dict(zip(NAMES, self._calls))
        c = {key: calls[name] for key, name in CALL_COUNTS.items()}
        c.update(self.counts)
        c["homs.generator_image.distinct"] = len(self._image_keys)
        self_s = [0.0] * len(LAYERS)
        for lo, hi, factor in windows:
            for k, v in enumerate(self.self_times(lo, hi)):
                self_s[k] += v * factor
        return {"self_s": self_s, "counts": c, "spans": len(self.starts)}

    def write(self, path: str, op_ids) -> None:
        """Append this process's spans to `path`: one JSON header line, then
        the columns name (uint16), parent (int32), start and end (float64)."""
        with open(path, "ab") as fh:
            header = {"ops": list(op_ids), "count": len(self.starts), "names": NAMES,
                      "columns": ["name:H", "parent:i", "start:d", "end:d"]}
            fh.write((json.dumps(header) + "\n").encode())
            for col in (self.names, self.parents, self.starts, self.ends):
                col.tofile(fh)
