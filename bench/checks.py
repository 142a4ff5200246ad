"""Output checks.  Each returns a list of problems; an empty list passes.

The checks test properties the method must have, or compare against the
benchmark's own exact computation (`geometry`), never against stored output.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction

from geometry import Root, compare_roots, incircle_poly, orient3d, poly_eval, sign

# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------


def cancel(tokens) -> list[str]:
    """Free reduction of a word of involutions: a stack that drops a letter
    equal to the one on top.  Printed letters are canonical, so equal text
    means equal letters."""
    stack: list[str] = []
    for tok in tokens:
        if stack and stack[-1] == tok:
            stack.pop()
        else:
            stack.append(tok)
    return stack


# ---------------------------------------------------------------------------
# check-literal
# ---------------------------------------------------------------------------


def _b(*terms) -> str:
    return " ".join(
        f"b({i},{j})" if e == 1 else f"b({i},{j})^{e}" for i, j, e in terms
    )


def presentation(n: int) -> Counter:
    """(family, indices, lhs, rhs) of every printed relation on n strands:

      (1) b(i,j) b(k,l) = b(k,l) b(i,j) for i<j<k<l, and for i<k<l<j;
      (2) b(i,j) b(i,k) b(j,k) = b(i,k) b(j,k) b(i,j) = b(j,k) b(i,j) b(i,k)
          for i<j<k, as the two equalities 2a and 2b;
      (3) b(i,k) b(j,k) b(j,l) b(j,k) = b(j,k) b(j,l) b(j,k) b(i,k)
          for i<j<k<l.
    """
    out: Counter = Counter()
    quads = list(itertools.combinations(range(1, n + 1), 4))
    for i, j, k, l in quads:
        out[("1", (i, j, k, l), _b((i, j, 1), (k, l, 1)), _b((k, l, 1), (i, j, 1)))] += 1
    for i, k, l, j in quads:  # nested: i < k < l < j
        out[("1", (i, j, k, l), _b((i, j, 1), (k, l, 1)), _b((k, l, 1), (i, j, 1)))] += 1
    for i, j, k in itertools.combinations(range(1, n + 1), 3):
        first = _b((i, j, 1), (i, k, 1), (j, k, 1))
        second = _b((i, k, 1), (j, k, 1), (i, j, 1))
        third = _b((j, k, 1), (i, j, 1), (i, k, 1))
        out[("2a", (i, j, k), first, second)] += 1
        out[("2b", (i, j, k), second, third)] += 1
    for i, j, k, l in quads:
        out[(
            "3", (i, j, k, l),
            _b((i, k, 1), (j, k, 1), (j, l, 1), (j, k, 1)),
            _b((j, k, 1), (j, l, 1), (j, k, 1), (i, k, 1)),
        )] += 1
    return out


def check_check(op: dict, code, payload) -> list[str]:
    """Output of `check --format json` against the recomputed presentation.

    The verdicts themselves are not judged: only that they are counted and
    that the exit code follows them."""
    if not isinstance(payload, dict):
        return [f"no JSON payload (exit code {code})"]
    problems = []
    for key in ("n", "target", "assembly"):
        if payload.get(key) != op[key]:
            problems.append(f"{key} is {payload.get(key)!r}, expected {op[key]!r}")
    instances = payload.get("instances", [])
    got = Counter(
        (i.get("family"), tuple(i.get("indices", ())), i.get("lhs"), i.get("rhs"))
        for i in instances
    )
    want = presentation(op["n"])
    if got != want:
        missing = sum((want - got).values())
        extra = sum((got - want).values())
        problems.append(f"instances differ from the presentation: {missing} missing, {extra} extra")
    failed = sum(1 for i in instances if i.get("ok") is not True)
    if payload.get("passed", -1) + payload.get("failed", -1) != sum(want.values()):
        problems.append(
            f"passed + failed = {payload.get('passed')} + {payload.get('failed')}, "
            f"expected {sum(want.values())}"
        )
    if payload.get("failed") != failed:
        problems.append(f"failed = {payload.get('failed')} but {failed} instances are not ok")
    expected_code = 0 if payload.get("failed") == 0 else 1
    if code != expected_code:
        problems.append(f"exit code {code}, expected {expected_code}")
    return problems


# ---------------------------------------------------------------------------
# trace-mixed
# ---------------------------------------------------------------------------


def _rat(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


def _configs(choreo: dict):
    """(mover index, start point, end point, static points by index) per segment."""
    cur = [tuple(_rat(v) for v in p) for p in choreo["points"]]
    out = []
    for m in choreo["moves"]:
        k = m["point"] - 1
        dest = tuple(_rat(v) for v in m["to"])
        out.append((k, cur[k], dest, list(cur)))
        cur[k] = dest
    return out


def _event_root(time: dict, poly) -> tuple[Root | None, str | None]:
    """The event time as a Root, checked to be a root of `poly` in (0, 1)."""
    if "exact" in time:
        t = _rat(time["exact"])
        if not 0 < t < 1 or poly_eval(poly, t) != 0:
            return None, f"time {time['exact']} is not a root of the incircle polynomial in (0,1)"
        return Root(exact=t), None
    reported = [int(c) for c in time["poly"]]
    lo, hi = (_rat(v) for v in time["interval"])
    # the reported polynomial must be a nonzero multiple of our own
    if any(a * q != b * p for (a, b), (p, q) in itertools.combinations(zip(reported, poly), 2)) \
            or not any(reported):
        return None, f"polynomial {reported} is not proportional to {list(poly)}"
    if not 0 <= lo < hi <= 1 or sign(poly_eval(poly, lo)) * sign(poly_eval(poly, hi)) >= 0:
        return None, f"interval [{time['interval']}] does not isolate a root in (0,1)"
    return Root(poly=tuple(poly), lo=lo, hi=hi), None


def check_trace(choreo: dict, code, payload) -> list[str]:
    """Output of `trace --format json` (target gamma) against the benchmark's
    own exact incircle / orient3d determinants."""
    if code != 0 or not isinstance(payload, dict):
        return [f"exit code {code}, expected 0 with a JSON payload"]
    dim = choreo["dim"]
    segments = _configs(choreo)
    events = payload.get("events", [])
    problems = []
    if payload.get("n") != choreo["n"] or payload.get("dim") != dim:
        problems.append("n or dim differs from the input")
    per_segment: dict[int, list] = {}
    for e in events:
        seg = e.get("segment")
        if not isinstance(seg, int) or not 0 <= seg < len(segments):
            problems.append(f"event in segment {seg!r} of {len(segments)}")
            continue
        per_segment.setdefault(seg, []).append(e)
    segs = [e.get("segment") for e in events if isinstance(e.get("segment"), int)]
    if segs != sorted(segs):
        problems.append("events are not ordered by segment")
    for seg, (mover, m0, m1, cfg) in enumerate(segments):
        seg_events = per_segment.get(seg, [])
        check = _check_planar_segment if dim == 2 else _check_spatial_segment
        problems += check(seg, mover, m0, m1, cfg, seg_events)
    chosen = events if dim == 2 else [e for e in events if e.get("special")]
    word = [e.get("quad") for e in chosen]
    if payload.get("word", "").split() != word:
        problems.append("word is not the events' quadruples in order")
    if payload.get("reduced", "").split() != cancel(word):
        problems.append("reduced word is not the free reduction of the word")
    return problems


def _subset(e) -> tuple[int, ...] | None:
    text = e.get("subset", "")
    if not (text.startswith("a{") and text.endswith("}")):
        return None
    return tuple(int(v) for v in text[2:-1].split(","))


def _quad_subset(e) -> tuple[int, ...] | None:
    text = e.get("quad") or ""
    if not (text.startswith("d(") and text.endswith(")")):
        return None
    return tuple(sorted(int(v) for v in text[2:-1].split(",")))


def _check_planar_segment(seg, mover, m0, m1, cfg, seg_events) -> list[str]:
    problems = []
    others = [k for k in range(len(cfg)) if k != mover]
    polys = {}
    for triple in itertools.combinations(others, 3):
        subset = tuple(sorted(k + 1 for k in triple + (mover,)))
        polys[subset] = incircle_poly(*(cfg[k] for k in triple), m0, m1)
    counts: Counter = Counter()
    roots = []
    for e in seg_events:
        subset = _subset(e)
        if subset not in polys:
            problems.append(f"segment {seg}: subset {e.get('subset')} lacks mover {mover + 1}")
            continue
        counts[subset] += 1
        if _quad_subset(e) != subset:
            problems.append(f"segment {seg}: quadruple {e.get('quad')} is not on {subset}")
        root, why = _event_root(e.get("time", {}), polys[subset])
        if why:
            problems.append(f"segment {seg}: {why}")
        else:
            roots.append(root)
    for u, v in zip(roots, roots[1:]):
        if compare_roots(u, v) > 0:
            problems.append(f"segment {seg}: events not ordered by time")
            break
    for subset, poly in polys.items():
        crosses = sign(poly[0]) != sign(sum(poly))
        if (counts[subset] % 2 == 1) != crosses:
            problems.append(
                f"segment {seg}: subset {subset} has {counts[subset]} events, "
                f"but its incircle sign {'changes' if crosses else 'does not change'}"
            )
    return problems


def _check_spatial_segment(seg, mover, m0, m1, cfg, seg_events) -> list[str]:
    problems = []
    others = [k for k in range(len(cfg)) if k != mover]
    expected = {}
    for triple in itertools.combinations(others, 3):
        pts = [cfg[k] for k in triple]
        d0, d1 = orient3d(*pts, m0), orient3d(*pts, m1)
        if sign(d0) != sign(d1):
            subset = tuple(sorted(k + 1 for k in triple + (mover,)))
            expected[subset] = d0 / (d0 - d1)
    got = {}
    for e in seg_events:
        subset = _subset(e)
        if subset is None or mover + 1 not in subset:
            problems.append(f"segment {seg}: subset {e.get('subset')} lacks mover {mover + 1}")
            continue
        if subset in got:
            problems.append(f"segment {seg}: subset {subset} crosses twice")
        got[subset] = _rat(e.get("time", "0/1"))
    if set(got) != set(expected):
        problems.append(
            f"segment {seg}: events on {sorted(got)}, orient3d changes sign on {sorted(expected)}"
        )
    elif any(got[s] != expected[s] for s in got):
        problems.append(f"segment {seg}: an event time is not the orient3d root")
    times = [got.get(_subset(e)) for e in seg_events if _subset(e) in got]
    if times != sorted(times):
        problems.append(f"segment {seg}: events not ordered by time")
    return problems


# ---------------------------------------------------------------------------
# map-long
# ---------------------------------------------------------------------------


def check_map(op: dict, raw: list[str], reduced: list[str], inv_zero: bool,
              raw_of_word: list[str] | None) -> list[str]:
    """One map-long result.  `raw_of_word` is the raw image of w when op is
    w^-1 (its image must be that one reversed)."""
    problems = []
    if reduced != cancel(raw):
        problems.append("reduced word is not the stack cancellation of the raw image")
    if op["role"] == "inverse" and raw != list(reversed(raw_of_word or [])):
        problems.append("image of w^-1 is not the reverse of the image of w")
    if op["role"] == "cancel" and (reduced or not inv_zero):
        problems.append("u u^-1 does not reduce to the empty word with zero invariant")
    return problems
