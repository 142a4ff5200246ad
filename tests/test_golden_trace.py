"""Golden gate for `braidgamma trace`: exit code and output digest per plan.

Every planar `generator_choreography` with n = 4..6, 100 seeded
small-integer plans (half planar, half spatial; about a third of them are
rejected with exit code 3, so error messages are pinned too) and 40 seeded
plans whose coordinates have denominators 1..7 (half planar, half spatial;
the tracers rescale each segment onto one integer grid, and these rows pin
that rescaling) are traced through `cli.main` with targets g and gamma.  The SHA-256 of stdout followed
by stderr, and the exit code, must match the stored table.

An irrational event time prints with its isolating interval, which holds
whatever refinement the comparisons made while sorting.  `list.sort` makes a
different sequence of comparisons from CPython 3.13 on, so some intervals
print differently there; 3.13 and later have their own table.

After an intended change of output, rewrite the digests with
`PYTHONPATH=src python tests/test_golden_trace.py` (once per table, with a
Python on each side of 3.13) and review the changed rows.
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

from braidgamma import cli
from braidgamma.geom2d import choreography_to_json, generator_choreography

GOLDEN = Path(__file__).with_name("data") / (
    "golden_trace_py313.json" if sys.version_info >= (3, 13) else "golden_trace.json"
)
TARGETS = ("g", "gamma")


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


def digests(workdir: Path) -> dict:
    out = {}
    for name, data in plans():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        for target in TARGETS:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(["trace", "--format", "json", "--target", target, str(path)])
            text = stdout.getvalue() + stderr.getvalue()
            out[f"{name}/{target}"] = [code, hashlib.sha256(text.encode()).hexdigest()]
    return out


def test_trace_output_matches_golden_digests(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = digests(tmp_path)
    assert sorted(got) == sorted(expected)
    changed = [key for key in expected if got[key] != expected[key]]
    assert not changed, f"{len(changed)} trace outputs differ: {changed[:10]}"
    codes = [code for code, _ in got.values()]
    assert 0.2 < codes.count(3) / len(codes) < 0.5  # errors stay covered


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = digests(Path(tmp))
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {GOLDEN}", file=sys.stderr)
