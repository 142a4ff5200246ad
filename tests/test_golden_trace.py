"""Golden gate for `braidgamma trace`: exit code and output digest per plan.

Every planar `generator_choreography` with n = 4..6, 100 seeded
small-integer plans (half planar, half spatial; about a third of them are
rejected with exit code 3, so error messages are pinned too), 40 seeded
plans whose coordinates have denominators 1..7 (half planar, half spatial;
the tracers rescale each plan onto one integer grid, and these rows pin
that rescaling) and 8 seeded loops at the largest sizes the benchmark
traces (planar n = 7, spatial n = 7 and 8) are traced through `cli.main`
with targets g and gamma, and the planar ones with gammar at r = 2 too
(spatial traces have no inside counts).
The SHA-256 of stdout followed by stderr, and the exit code, must match the
stored table.  An irrational event time prints its canonical dyadic cell,
which depends on the root alone, so one table serves every supported Python.

After an intended change of output, rewrite the digests with
`PYTHONPATH=src python tests/test_golden_trace.py` and review the changed
rows.
"""

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from braidgamma import cli
from braidgamma.geom2d import choreography_to_json, generator_choreography

GOLDEN = Path(__file__).with_name("data") / "golden_trace.json"
# the key suffix and the target flags of every golden call
TARGETS = {"g": ["--target", "g"], "gamma": ["--target", "gamma"]}
PLANAR_TARGETS = {**TARGETS, "gammar-r2": ["--target", "gammar", "--r", "2"]}


def small_plan(rng, dim):
    """n = 4..6 distinct integer points and 1..3 moves to integer points, in
    a box small enough that walls are often hit exactly."""
    n = rng.randrange(4, 7)
    span = 4 if dim == 2 else 3

    def point():
        return [str(rng.randrange(-span, span + 1)) for _ in range(dim)]

    pts = []
    while len(pts) < n:
        p = point()
        if p not in pts:
            pts.append(p)
    moves = [
        {"point": rng.randrange(1, n + 1), "to": point()}
        for _ in range(rng.randrange(1, 4))
    ]
    return {"n": n, "dim": dim, "points": pts, "moves": moves, "loop": False}


def rational_plan(rng, dim):
    """n = 4..6 distinct points and 1..3 moves, each coordinate a rational
    with its own denominator 1..7 in a box like small_plan's."""
    n = rng.randrange(4, 7)
    span = 4 if dim == 2 else 3

    def coord():
        q = rng.randrange(1, 8)
        x = Fraction(rng.randrange(-span * q, span * q + 1), q)
        return f"{x.numerator}/{x.denominator}"

    def point():
        return [coord() for _ in range(dim)]

    pts = []
    while len(pts) < n:
        p = point()
        if p not in pts:
            pts.append(p)
    moves = [
        {"point": rng.randrange(1, n + 1), "to": point()}
        for _ in range(rng.randrange(1, 4))
    ]
    return {"n": n, "dim": dim, "points": pts, "moves": moves, "loop": False}


def loop_plan(rng, dim, n):
    """n distinct integer points in a wide box and two excursions: a point
    goes out to two waypoints and back home, so the plan is a loop."""
    span = 40 if dim == 2 else 20

    def point():
        return [str(rng.randrange(-span, span + 1)) for _ in range(dim)]

    pts = []
    while len(pts) < n:
        p = point()
        if p not in pts:
            pts.append(p)
    moves = []
    for mover in rng.sample(range(1, n + 1), 2):
        moves += [{"point": mover, "to": point()} for _ in range(2)]
        moves.append({"point": mover, "to": pts[mover - 1]})
    return {"n": n, "dim": dim, "points": pts, "moves": moves, "loop": True}


def plans():
    for n in range(4, 7):
        for i, j in itertools.combinations(range(1, n + 1), 2):
            yield f"gen-{n}-{i}-{j}", choreography_to_json(generator_choreography(n, i, j))
    rng = random.Random(2019)
    for k in range(100):
        dim = 2 if k % 2 == 0 else 3
        yield f"small{dim}d-{k:03d}", small_plan(rng, dim)
    rng = random.Random(2026)
    for k in range(40):
        dim = 2 if k % 2 == 0 else 3
        yield f"rational{dim}d-{k:03d}", rational_plan(rng, dim)
    rng = random.Random(2030)
    for k, (dim, n) in enumerate(((2, 7), (3, 7), (3, 8), (2, 7)) * 2):
        yield f"loop{dim}d-{n}-{k:03d}", loop_plan(rng, dim, n)


def outputs(workdir: Path) -> dict:
    """Exit code and stdout followed by stderr of every golden call."""
    out = {}
    for name, data in plans():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        for target, flags in (PLANAR_TARGETS if data["dim"] == 2 else TARGETS).items():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(["trace", "--format", "json", *flags, str(path)])
            out[f"{name}/{target}"] = (code, stdout.getvalue() + stderr.getvalue())
    return out


def digests(outs: dict) -> dict:
    return {
        key: [code, hashlib.sha256(text.encode()).hexdigest()]
        for key, (code, text) in outs.items()
    }


@pytest.fixture(scope="module")
def golden_outputs(tmp_path_factory):
    return outputs(tmp_path_factory.mktemp("plans"))


def test_trace_output_matches_golden_digests(golden_outputs):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = digests(golden_outputs)
    assert sorted(got) == sorted(expected)
    changed = [key for key in expected if got[key] != expected[key]]
    assert not changed, f"{len(changed)} trace outputs differ: {changed[:10]}"
    codes = [code for code, _ in got.values()]
    assert 0.2 < codes.count(3) / len(codes) < 0.5  # errors stay covered


def _poly_sign(poly, t: Fraction) -> int:
    v = sum(c * t**i for i, c in enumerate(poly))
    return (v > 0) - (v < 0)


def _cells_ok(times, halve: bool) -> bool:
    """Whether the printed cells of one segment's times (dicts as printed,
    in order), or with `halve` their parent cells of twice the width,
    isolate their roots and keep consecutive distinct times apart."""
    spans = []
    for time in times:
        if "exact" in time:
            t = Fraction(time["exact"])
            spans.append((t, t))
            continue
        lo, hi = (Fraction(v) for v in time["interval"])
        if halve:
            w = 2 * (hi - lo)
            lo = (lo // w) * w
            hi = lo + w
        # c2 > 0: the polynomial falls through the left root, rises through the right
        branch = time["branch"]
        if (_poly_sign(time["poly"], lo), _poly_sign(time["poly"], hi)) != (-branch, branch):
            return False
        spans.append((lo, hi))
    return all(u[1] <= v[0] for u, v in zip(spans, spans[1:]))


def test_printed_cells_isolate_and_separate(golden_outputs):
    """Per planar segment, every irrational time prints a dyadic cell of one
    width 2^-k that holds its root and no other root of its polynomial;
    consecutive distinct times do not overlap; and k is the least k >= 1 for
    which both hold."""
    irrational = 0
    for key, (code, text) in golden_outputs.items():
        payload = json.loads(text) if code == 0 else None
        if payload is None or payload["dim"] != 2:
            continue
        by_segment: dict = {}
        for e in payload["events"]:
            times = by_segment.setdefault(e["segment"], [])
            if not times or times[-1] != e["time"]:
                times.append(e["time"])
        for seg, times in by_segment.items():
            cells = [t for t in times if "interval" in t]
            if not cells:
                continue
            irrational += len(cells)
            widths = {Fraction(t["interval"][1]) - Fraction(t["interval"][0]) for t in cells}
            assert len(widths) == 1, (key, seg)
            (width,) = widths
            assert width.numerator == 1 and width.denominator.bit_count() == 1, (key, seg)
            assert all(Fraction(t["interval"][0]) % width == 0 for t in cells), (key, seg)
            assert all(t["poly"][2] > 0 for t in cells), (key, seg)
            assert _cells_ok(times, halve=False), (key, seg)
            assert width == Fraction(1, 2) or not _cells_ok(times, halve=True), (key, seg)
    assert irrational > 100


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = digests(outputs(Path(tmp)))
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {GOLDEN}", file=sys.stderr)
