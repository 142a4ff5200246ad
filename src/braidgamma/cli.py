"""Command-line surface: map, trace, check, invariant, canon, render.

Exact event times never print as floats: a rational root prints as "p/q",
an irrational one as its integer polynomial, its branch and a dyadic cell
[m/2^k, (m+1)/2^k].  Per planar segment, k is the least k >= 1 at which every
cell isolates its root and consecutive distinct times do not overlap, so the
printout depends on the roots alone and certifies their order.  Planar and
spatial events print through one printer, their JSON keys their fields.
`invariant` and `canon` leave r to `parse_word`: without --r it is one more
than the largest slot tag.  Set BRAIDGAMMA_MAX_N to lift or lower the
strand-count cap (default 10).  Each subcommand takes only the flags it
reads: any other flag, like every usage error and every bad input, prints
"error: ..." and exits with code 3.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys
import warnings
from json.encoder import encode_basestring_ascii

from . import geom2d, geom3d
from .braids import BraidWord, parse_braid, print_braid, relation_instances
from .errors import BraidGammaError, UnstableWarning, WordSyntaxError
from .exact import rat_from_str, rat_to_str
from .generators import BraidGen
from .homs import HomConfig, image_invariant, map_braid
from .roots import dyadic_level
from .words import (
    check_target,
    free_reduce,
    invariant,
    invariant_equal,
    letter_text,
    parse_uint,
    parse_word,
    word_to_text,
)


def _hom(args) -> HomConfig:
    return HomConfig(args.n, args.target, args.r, args.mode, args.assembly)


def _max_n() -> int:
    raw = os.environ.get("BRAIDGAMMA_MAX_N", "10")
    try:
        return int(raw)
    except ValueError:
        raise BraidGammaError(f"BRAIDGAMMA_MAX_N must be an integer, got {raw!r}") from None


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):  # every subcommand parser is one too
        super().__init__(*args, allow_abbrev=False, **kwargs)  # no prefix aliases

    def error(self, message):  # usage errors exit 3 like every other bad input
        raise BraidGammaError(message)


def _json_text(value, pad: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True), byte for byte, without
    the pure-Python encoder that an indent selects: dicts (str keys), lists
    and tuples nest here, strings go through the C string encoder, and any
    other scalar than int, bool and None through json.dumps."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if type(value) is int:
        return repr(value)
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + f",{inner}".join([_json_text(v, inner) for v in value]) + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f"{encode_basestring_ascii(k)}: {_json_text(value[k], inner)}" for k in sorted(value)
        ]
        return "{" + inner + f",{inner}".join(items) + pad + "}"
    return json.dumps(value)


def _emit(args, payload, text_lines):
    body = (
        _json_text(payload) + "\n"
        if args.fmt == "json"
        else "\n".join(text_lines) + "\n"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


def _invariant_payload(cls):
    return {"zero": cls.is_zero(), "coords": list(map(letter_text, cls.nonzero_letters()))}


def _read_word_arg(args) -> str:
    if args.word is not None:
        return args.word
    if args.infile is not None:
        with open(args.infile, "r", encoding="utf-8") as fh:
            try:
                return fh.read()
            except UnicodeDecodeError as exc:
                raise BraidGammaError(f"{args.infile} is not UTF-8 text: {exc}") from None
    raise BraidGammaError("provide a word argument or --in FILE")


def _image(word, n: int) -> tuple[dict, list[str]]:
    """The word, reduced and invariant entries of an image's payload, and
    their three text lines."""
    red = free_reduce(word)
    cls = invariant(red, n)
    word_text, red_text = word_to_text(word), word_to_text(red)
    payload = {"word": word_text, "reduced": red_text, "invariant": _invariant_payload(cls)}
    return payload, [f"word:      {word_text}", f"reduced:   {red_text}", f"invariant: {cls}"]


def _cmd_map(args) -> int:
    braid_word = parse_braid(_read_word_arg(args), args.n)
    image, lines = _image(map_braid(_hom(args), braid_word, reduced=False), args.n)
    text = print_braid(braid_word)
    payload = {"input": text, "n": args.n, "target": args.target, "r": args.r, "mode": args.mode}
    _emit(args, {**payload, **image}, [f"input:     {text}", *lines])
    return 0


def _dyadic_str(m: int, k: int) -> str:
    """rat_to_str(Fraction(m, 2^k)), reduced by the trailing zero bits of m."""
    z = min((m & -m).bit_length() - 1, k) if m else k
    return f"{m >> z}/{1 << (k - z)}"


def _time_payload(root, k: int) -> dict:
    """An exact time, or an irrational one with its dyadic cell of width 2^-k."""
    if root.is_rational():
        return {"exact": rat_to_str(root.exact)}
    m = root.refine(k)
    return {
        "poly": list(root.poly),
        "interval": [_dyadic_str(m, k), _dyadic_str(m + 1, k)],
        "branch": root.sigma,
    }


def _event_payload(e, level: dict | None) -> dict:
    """The JSON of a planar or spatial event: its fields, letters as text.  A
    planar time prints in the dyadic cell of its segment's level (`level`,
    segment -> k); a spatial time (level None) as p/q, beside the event's
    special flag."""
    payload = {field: getattr(e, field) for field in e._fields}
    payload["subset"] = str(e.subset)
    payload["quad"] = None if e.quad is None else str(e.quad)
    if level is None:
        payload["time"] = rat_to_str(e.time)
        payload["special"] = e.special
    else:
        payload["time"] = _time_payload(e.time, level[e.segment])
    return payload


def _cmd_trace(args) -> int:
    ch = geom2d.load_choreography(args.choreo)
    cap = _max_n()
    if ch.n > cap:
        raise BraidGammaError(f"choreography has n={ch.n} above the cap {cap}")
    if ch.dim == 3 and args.target == "gammar":
        raise BraidGammaError("target gammar needs inside counts; spatial traces have none")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UnstableWarning)
        events = (geom3d.trace3 if ch.dim == 3 else geom2d.trace)(ch)
    level = None
    if ch.dim == 2:  # one cell width per segment, fixed by its distinct times alone
        level = {
            seg: dyadic_level([e.time for e in group])
            for seg, group in itertools.groupby(events, key=lambda e: e.segment)
        }
    ev_payload = [_event_payload(e, level) for e in events]
    image, image_lines = _image(geom2d.events_to_word(events, args.target, args.r), ch.n)
    warned = [str(w.message) for w in caught]
    payload = {"n": ch.n, "dim": ch.dim, "loop": ch.loop, "target": args.target}
    payload |= {"events": ev_payload, **image, "warnings": warned}
    lines = []  # json output prints the payload alone
    if args.fmt != "json":
        lines = [f"{len(ev_payload)} events"]
        lines += [f"  {json.dumps(e, sort_keys=True)}" for e in ev_payload]
        lines += image_lines + [f"warning: {w}" for w in warned]
    _emit(args, payload, lines)
    return 0


def _cmd_check(args) -> int:
    cfg = _hom(args)
    # families 1, 2a, 2b and 3 (or 3inv); "both" then adds the 3inv instances
    instances = relation_instances(args.n, family3_inverted=args.relation3 == "inverted")
    if args.relation3 == "both":
        inverted = relation_instances(args.n, family3_inverted=True)
        instances += [inst for inst in inverted if inst.family == "3inv"]
    results = [
        {
            "family": inst.family,
            "indices": list(inst.indices),
            "lhs": print_braid(inst.lhs),
            "rhs": print_braid(inst.rhs),
            "ok": image_invariant(cfg, inst.lhs) == image_invariant(cfg, inst.rhs),
        }
        for inst in instances
    ]
    failed = sum(1 for r in results if not r["ok"])
    payload = {
        "n": args.n,
        "target": args.target,
        "r": args.r,
        "mode": args.mode,
        "assembly": args.assembly,
        "relation3": args.relation3,
        "instances": results,
        "passed": len(results) - failed,
        "failed": failed,
    }
    lines = [
        f"{r['family']} {tuple(r['indices'])}: {'ok' if r['ok'] else 'FAIL'}"
        for r in results
    ]
    lines.append(f"passed {payload['passed']} / {len(results)}")
    if args.compare_modes:
        rows = _compare_modes(cfg, args.assembly, args.seed)
        payload["compare_modes"] = rows
        for row in rows:
            lines.append(
                "compare {}: letters={} multiset={} invariant={}".format(
                    row["input"], row["letters_equal"],
                    row["multiset_equal"], row["invariant_equal"],
                )
            )
    _emit(args, payload, lines)
    return 0 if failed == 0 else 1


def _compare_modes(cfg: HomConfig, assembly: str, seed: int) -> list[dict]:
    """Literal images in `assembly` vs traced ones, whatever cfg's mode: every
    generator, then a few seeded random words.  Disagreements are reported, never reconciled."""
    n = cfg.n
    lit, tra = (HomConfig(n, cfg.target, cfg.r, m, assembly) for m in ("literal", "traced"))
    inputs = [
        BraidWord(n, (BraidGen(i, j),)) for i, j in itertools.combinations(range(1, n + 1), 2)
    ]
    rng = random.Random(seed)
    for _ in range(5):
        letters = []
        for _ in range(rng.randrange(1, 4)):
            i, j = sorted(rng.sample(range(1, n + 1), 2))
            letters.append(BraidGen(i, j, rng.choice((-1, 1))))
        inputs.append(BraidWord(n, tuple(letters)))
    out = []
    for w in inputs:
        a = map_braid(lit, w)
        b = map_braid(tra, w)
        out.append(
            {
                "input": print_braid(w) or "(empty)",
                "letters_equal": a.letters == b.letters,
                "multiset_equal": sorted(map(str, a.letters)) == sorted(map(str, b.letters)),
                "invariant_equal": invariant_equal(a, b, n),
                "literal_length": len(a.letters),
                "traced_length": len(b.letters),
            }
        )
    return out


def _cmd_invariant(args) -> int:
    word = parse_word(_read_word_arg(args), args.r, args.target)
    cls = invariant(word, args.n)
    payload = {
        "n": args.n,
        "kind": cls.kind,
        "r": cls.r,
        "word": word_to_text(word),
        "invariant": _invariant_payload(cls),
    }
    _emit(args, payload, [f"word:      {payload['word']}", f"invariant: {cls}"])
    return 0


def _cmd_canon(args) -> int:
    word = parse_word(args.word, args.r, args.target)
    payload = {"word": word_to_text(word)}
    _emit(args, payload, [payload["word"]])
    return 0


def _parse_circle(text: str) -> tuple[int, ...]:
    """The point indices of --circle "j,p,q": three runs of ASCII digits."""
    parts = text.split(",")
    try:
        parsed = [parse_uint(part, 0) for part in parts]
    except WordSyntaxError:
        parsed = []
    if len(parsed) != 3 or any(end != len(part) for part, (_, end) in zip(parts, parsed)):
        raise BraidGammaError('--circle wants three comma-separated indices "j,p,q"')
    return tuple(value for value, _ in parsed)


def _cmd_render(args) -> int:
    ch = geom2d.load_choreography(args.choreo)
    from .svg import render_frame

    circle = _parse_circle(args.circle) if args.circle else None
    data = render_frame(ch, rat_from_str(args.t), circle)
    with open(args.out, "wb") as fh:
        fh.write(data)
    return 0


# name: (handler, help, the keywords of _add_shared_flags or None, the
# subcommand's own arguments as (flags, keywords))
_SUBCOMMANDS = {
    "map": (_cmd_map, "image of a braid word under the chosen map", dict(n=True, hom=True), (
        (("word",), dict(nargs="?", default=None, help="braid word text")),
        (("--in",), dict(dest="infile", default=None, help="file with the braid word")),
    )),
    "check": (_cmd_check, "verify relation preservation", dict(n=True, hom=True), (
        (("--relation3",), dict(
            choices=("printed", "inverted", "both"),
            default="printed",
            help="which form of the third relation family to check",
        )),
        (("--compare-modes",), dict(
            action="store_true",
            help="also report literal vs traced images (generators plus seeded words)",
        )),
        (("--seed",), dict(type=int, default=0, help="seed for --compare-modes words")),
    )),
    "trace": (_cmd_trace, "trace a choreography JSON file", {}, (
        (("choreo",), dict(help="choreography JSON path")),
    )),
    "invariant": (_cmd_invariant, "invariant class of a group word", dict(n=True, target=None), (
        (("word",), dict(nargs="?", default=None)),
        (("--in",), dict(dest="infile", default=None)),
    )),
    "canon": (_cmd_canon, "canonicalize a group word", dict(target=None), (
        (("word",), {}),
    )),
    "render": (_cmd_render, "render one SVG frame of a choreography", None, (
        (("choreo",), dict(help="choreography JSON path")),
        (("--t",), dict(required=True, help='frame time, rational "p/q"')),
        (("--circle",), dict(default=None, help='overlay circumcircle of "j,p,q"')),
        (("--out",), dict(required=True, help="SVG file to write")),
    )),
}


def _add_shared_flags(p, *, n=False, target="gamma", hom=False):
    if n:
        p.add_argument("-n", type=int, required=True, help="strand count")
    p.add_argument("--target", choices=("g", "gamma", "gammar"), default=target)
    # where the target is inferred from the word (target=None), so is r
    p.add_argument("--r", type=int, default=None if target is None else 1,
                   help="slot count for target gammar")
    if hom:
        p.add_argument("--mode", choices=("literal", "traced"), default="literal")
        p.add_argument("--assembly", choices=("flip", "doubled"), default="flip")
    p.add_argument("--format", choices=("text", "json"), default="text", dest="fmt")
    p.add_argument("--out", default=None, help="write output here instead of stdout")


def _build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of `only` alone, which parses an
    argv that starts with `only` as the full parser does, errors included."""
    top = _Parser(prog="braidgamma", description=__doc__)
    top.set_defaults(n=None, target=None, r=1)  # what run() checks, for every subcommand
    sub = top.add_subparsers(dest="subcommand", required=True)
    for name, (handler, help, shared, own) in _SUBCOMMANDS.items():
        if only not in (None, name):
            continue
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=handler)
        if shared is not None:
            _add_shared_flags(p, **shared)
        for flags, keywords in own:
            p.add_argument(*flags, **keywords)
    return top


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a named subcommand needs only its own parser
    only = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    args = _build_parser(only).parse_args(argv)
    # every flag is checked before any computation starts
    if args.n is not None:
        cap = _max_n()
        if not 1 <= args.n <= cap:
            raise BraidGammaError(f"n={args.n} outside 1..{cap} (cap from BRAIDGAMMA_MAX_N)")
    # the one check of a given --r, its cap included (parse_word's, if no --target)
    if args.target is not None:
        check_target(args.target, 1 if args.r is None else args.r)
    return args.run(args)


def main(argv=None) -> int:
    try:
        return run(argv)
    except (BraidGammaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
