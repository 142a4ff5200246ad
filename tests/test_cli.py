import itertools
import json
import random
import tracemalloc
import warnings
from fractions import Fraction

import pytest

from braidgamma import cli, geom2d, geom3d, homs
from braidgamma.braids import parse_braid
from braidgamma.cli import main
from braidgamma.errors import BraidGammaError, IndexRangeError, UnstableWarning
from braidgamma.exact import rat_to_str
from braidgamma.roots import dyadic_level
from braidgamma.geom2d import (
    Choreography,
    Move,
    choreography_to_json,
    generator_choreography,
)
from braidgamma.geom3d import pt3
from braidgamma.words import MAX_R
from test_golden_trace import PLANAR_TARGETS, TARGETS, plans


@pytest.fixture()
def choreo_path(tmp_path):
    path = tmp_path / "b12.json"
    path.write_text(json.dumps(choreography_to_json(generator_choreography(4, 1, 2))))
    return str(path)


@pytest.fixture()
def choreo3_path(tmp_path):
    A, B, C = pt3(0, 0, 0), pt3(10, 1, 0), pt3(3, 9, 0)
    ch = Choreography(
        6,
        (A, B, C, pt3(2, 3, 7), pt3(6, 2, 5), pt3(11, 9, -4)),
        (Move(6, pt3(11, 9, 6)), Move(6, pt3(11, 9, -4))),
        loop=True,
    )
    path = tmp_path / "space.json"
    path.write_text(json.dumps(choreography_to_json(ch)))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_map_text_and_json(capsys):
    assert main(["map", "-n", "3", "--target", "g", "b(1,2)"]) == 0
    assert "reduced:" in capsys.readouterr().out
    code, data = run_json(capsys, ["map", "-n", "5", "--format", "json", "b(1,3)"])
    assert code == 0
    assert data["target"] == "gamma" and data["word"]
    assert data["invariant"]["zero"] is False
    code, data2 = run_json(
        capsys,
        ["map", "-n", "5", "--target", "gammar", "--r", "1", "--format", "json", "b(1,3)"],
    )
    assert code == 0
    # slot erasure at r=1: same letters with [0] tags
    assert data2["word"].replace("[0]", "") == data["word"]


def test_map_parse_error_has_position(capsys):
    assert main(["map", "-n", "4", "b(1,3) nope"]) == 3
    err = capsys.readouterr().err
    assert "position 7" in err


@pytest.mark.parametrize(
    "target, r, message",
    [("gamma", "3", "r > 1 requires target 'gammar'"), ("g", "0", "need 1 <= r <= 1024, got 0")],
)
def test_r_is_checked_for_every_target(capsys, target, r, message):
    assert main(["map", "-n", "5", "--target", target, "--r", r, "b(1,2)"]) == 3
    assert message in capsys.readouterr().err


def test_map_respects_max_n(capsys, monkeypatch):
    monkeypatch.setenv("BRAIDGAMMA_MAX_N", "6")
    assert main(["map", "-n", "7", "b(1,2)"]) == 3
    assert "cap" in capsys.readouterr().err
    monkeypatch.setenv("BRAIDGAMMA_MAX_N", "12")
    assert main(["map", "-n", "7", "b(1,2)"]) == 0
    capsys.readouterr()


def test_trace_2d(capsys, choreo_path):
    code, data = run_json(capsys, ["trace", "--format", "json", choreo_path])
    assert code == 0
    assert data["dim"] == 2 and data["loop"] is True
    assert len(data["events"]) == 2
    for e in data["events"]:
        assert "exact" in e["time"] or "poly" in e["time"]
    assert data["word"] == "d(1,2,4,3) d(1,2,3,4)"


def test_dyadic_cells_print_as_reduced_fractions():
    # an irrational time's cell ends m / 2^k print reduced, without a Fraction
    for k in range(1, 71):
        for m in range(301):
            assert cli._dyadic_str(m, k) == rat_to_str(Fraction(m, 1 << k)), (m, k)


def test_trace_3d(capsys, choreo3_path):
    code, data = run_json(capsys, ["trace", "--format", "json", choreo3_path])
    assert code == 0
    assert data["dim"] == 3
    assert data["reduced"] == ""
    assert all("special" in e for e in data["events"])
    assert main(["trace", "--target", "gammar", "--r", "2", choreo3_path]) == 3
    # the order-free target letters every coplanarity moment, special or not
    code, forgetful = run_json(
        capsys, ["trace", "--target", "g", "--format", "json", choreo3_path]
    )
    assert code == 0
    assert len(forgetful["word"].split()) == len(forgetful["events"])


@pytest.mark.parametrize(
    "plan",
    [
        # planar: a tangential touch, then two crossings of the same circle
        {"n": 4, "dim": 2, "points": [["0", "0"], ["4", "0"], ["0", "4"], ["2", "6"]],
         "moves": [{"point": 4, "to": ["6", "2"]}, {"point": 4, "to": ["1", "1"]},
                   {"point": 4, "to": ["2", "6"]}], "loop": True},
        {"n": 5, "dim": 3, "points": [["0", "0", "0"], ["4", "0", "0"], ["0", "4", "0"],
                                      ["3", "3", "-1"], ["1", "1", "5"]],
         "moves": [{"point": 4, "to": ["3", "3", "1"]}]},
    ],
)
def test_trace_text_prints_the_json_run_line_by_line(tmp_path, capsys, plan):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    code, data = run_json(capsys, ["trace", "--format", "json", str(path)])
    assert code == 0 and data["events"]
    assert bool(data["warnings"]) == (plan["dim"] == 2)
    inv = data["invariant"]
    expected = [
        f"{len(data['events'])} events",
        *(f"  {json.dumps(e, sort_keys=True)}" for e in data["events"]),
        f"word:      {data['word']}",
        f"reduced:   {data['reduced']}",
        f"invariant: {' + '.join(inv['coords']) or '0'}",
        *(f"warning: {w}" for w in data["warnings"]),
    ]
    assert main(["trace", str(path)]) == 0
    assert capsys.readouterr().out == "\n".join(expected) + "\n"


@pytest.mark.parametrize("moves", [True, False])
def test_gammar_on_a_spatial_plan_exits_3_before_tracing(tmp_path, capsys, monkeypatch, moves):
    # the library's rule and message; a plan without moves has no events,
    # so only the check before tracing can refuse it
    ch = Choreography(4, (pt3(0, 0, 0), pt3(4, 0, 0), pt3(0, 4, 0), pt3(1, 1, 5)),
                      (Move(4, pt3(1, 1, -5)),) if moves else ())
    path = tmp_path / "space.json"
    path.write_text(json.dumps(choreography_to_json(ch)))

    def untraced(ch):
        raise AssertionError("traced")

    monkeypatch.setattr(geom3d, "trace3", untraced)
    assert main(["trace", "--target", "gammar", "--r", "2", str(path)]) == 3
    assert capsys.readouterr() == ("", "error: spatial traces have no inside counts\n")


@pytest.mark.parametrize("point", [0, 7])
def test_trace_rejects_move_of_missing_point(tmp_path, capsys, choreo_path, choreo3_path, point):
    for path in (choreo_path, choreo3_path):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        data["moves"][0]["point"] = point
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["trace", str(bad)]) == 3
        assert f"move 0 names point {point} outside 1..{data['n']}" in capsys.readouterr().err


# Each entry edits a decoded choreography into JSON that must be refused.
LOOSE_JSON = {
    "point 1.9": lambda d: d["moves"][0].update(point=1.9),
    "point true": lambda d: d["moves"][0].update(point=True),
    "n 4.7": lambda d: d.update(n=d["n"] + 0.7),
    "n true": lambda d: d.update(n=True),
    "loop 'no'": lambda d: d.update(loop="no"),
    "loop 1": lambda d: d.update(loop=1),
    "dim 2.0": lambda d: d.update(dim=float(d["dim"])),
    "move with dim+1 coordinates": lambda d: d["moves"][0]["to"].append("0/1"),
    "move with dim-1 coordinates": lambda d: d["moves"][0]["to"].pop(),
    "point with dim+1 coordinates": lambda d: d["points"][0].append("0/1"),
    "coordinate 1_0": lambda d: d["points"][0].__setitem__(0, "1_0"),
    "coordinate ' 7 '": lambda d: d["points"][0].__setitem__(0, " 7 "),
    "coordinate arabic-indic 3": lambda d: d["points"][0].__setitem__(0, "\u0663"),
    "coordinate +3": lambda d: d["points"][0].__setitem__(0, "+3"),
    "negative denominator": lambda d: d["points"][0].__setitem__(0, "1/-2"),
    "JSON number coordinate": lambda d: d["points"][0].__setitem__(0, 3),
}


@pytest.mark.parametrize("edit", LOOSE_JSON.values(), ids=LOOSE_JSON.keys())
def test_trace_rejects_loose_json(tmp_path, capsys, choreo_path, choreo3_path, edit):
    for path in (choreo_path, choreo3_path):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        edit(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["trace", str(bad)]) == 3
        err = capsys.readouterr().err
        assert "malformed choreography JSON" in err or "bad rational literal" in err


# Files that are no JSON document at all: bytes that are not UTF-8, a cut-off
# object, and nesting deeper than the JSON decoder recurses.
UNREADABLE = {
    "not utf-8": b"\xff\xfe",
    "cut off": b'{"dim": 2,',
    "deep nesting": b"[" * 100000,
}


@pytest.mark.parametrize("command", ["trace", "render"])
@pytest.mark.parametrize("content", UNREADABLE.values(), ids=UNREADABLE.keys())
def test_an_unreadable_choreography_file_exits_3(tmp_path, capsys, command, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    flags = ["--t", "0", "--out", str(tmp_path / "frame.svg")] if command == "render" else []
    assert main([command, str(bad), *flags]) == 3
    assert capsys.readouterr().err.startswith("error: malformed choreography JSON")


@pytest.mark.parametrize("command", [["map", "-n", "4"], ["invariant", "-n", "4"]])
def test_a_word_file_that_is_not_utf8_exits_3(tmp_path, capsys, command):
    bad = tmp_path / "word.txt"
    bad.write_bytes(b"b(1,2) \xff\xfe")
    assert main([*command, "--in", str(bad)]) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_check_passes(capsys):
    code, data = run_json(capsys, ["check", "-n", "4", "--format", "json"])
    assert code == 0
    assert data["failed"] == 0
    assert data["passed"] == len(data["instances"]) > 0
    # inverted commutation variant as well
    code, data = run_json(
        capsys, ["check", "-n", "4", "--relation3", "both", "--format", "json"]
    )
    assert code == 0
    families = {r["family"] for r in data["instances"]}
    assert "3" in families and "3inv" in families


def test_check_relation3_inverted_checks_every_family(capsys):
    code, printed = run_json(capsys, ["check", "-n", "5", "--format", "json"])
    code_inv, inverted = run_json(
        capsys, ["check", "-n", "5", "--relation3", "inverted", "--format", "json"]
    )
    assert code == code_inv == 0
    assert len(inverted["instances"]) == len(printed["instances"]) == 35
    assert {r["family"] for r in inverted["instances"]} == {"1", "2a", "2b", "3inv"}
    for a, b in zip(printed["instances"], inverted["instances"]):
        assert (a["family"] == "3") == (b["family"] == "3inv")
        if a["family"] != "3":
            assert a == b
    _, both = run_json(capsys, ["check", "-n", "5", "--relation3", "both", "--format", "json"])
    inv3 = [r for r in inverted["instances"] if r["family"] == "3inv"]
    assert both["instances"] == printed["instances"] + inv3


@pytest.mark.parametrize("target", [("gamma",), ("g",), ("gammar", "--r", "2")])
def test_compare_modes_is_literal_against_traced_in_either_mode(capsys, target):
    argv = ["check", "-n", "5", "--target", *target, "--compare-modes", "--format", "json"]
    _, plain = run_json(capsys, argv)
    _, traced = run_json(capsys, argv + ["--mode", "traced"])
    assert traced["mode"] == "traced"
    assert traced["compare_modes"] == plain["compare_modes"]
    if target == ("gamma",):
        assert not any(row["letters_equal"] for row in plain["compare_modes"])


@pytest.mark.parametrize(
    "argv",
    [
        ["invariant", "-n", "5", "[100000000000000000000000000000]d(1,2,3,4)"],
        ["map", "-n", "5", "--target", "gammar", "--r", "5000", "b(1,2)"],
        ["check", "-n", "5", "--target", "gammar", "--r", "1025"],
    ],
)
def test_r_above_max_r_exits_3_before_allocating(capsys, argv):
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"r <= {MAX_R}" in err
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "argv",
    [
        ["invariant", "-n", "5", "[5000]d(1,2,3,4)"],
        ["canon", "[5000]d(1,2,3,4)"],
    ],
)
def test_an_inferred_r_names_the_slot_past_max_r(capsys, argv):
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: slot 5000 out of range for r <= {MAX_R} (at position 0)\n"


def test_check_compare_modes(capsys):
    code, data = run_json(
        capsys,
        ["check", "-n", "4", "--target", "g", "--compare-modes", "--format", "json"],
    )
    assert code == 0
    rows = data["compare_modes"]
    assert len(rows) > 6
    for row in rows:
        assert row["invariant_equal"] in (True, False)


def test_invariant_and_canon(capsys):
    code, data = run_json(
        capsys,
        ["invariant", "-n", "5", "--format", "json",
         "d(1,2,3,4) d(1,2,3,5) d(1,2,4,5) d(1,3,4,5) d(2,3,4,5)"],
    )
    assert code == 0
    assert data["invariant"]["zero"] is True
    assert main(["canon", "d(2,3,4,1)"]) == 0
    assert capsys.readouterr().out.strip() == "d(1,2,3,4)"
    assert main(["canon", "a{4,3,2,1}"]) == 0
    assert capsys.readouterr().out.strip() == "a{1,2,3,4}"


@pytest.mark.parametrize(
    "argv, shape",
    [
        (["invariant", "--target", "g", "-n", "5", "d(1,2,3,4)"], "a{...}"),
        (["canon", "--target", "gammar", "--r", "2", "a{1,2,3,4}"], "[slot]d(...)"),
        (["canon", "--target", "gamma", "a{1,2,3,4}"], "d(...)"),
    ],
)
def test_invariant_and_canon_honour_an_explicit_target(capsys, argv, shape):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    message = f"only {shape} letters are allowed in this word (at position 0)"
    assert captured.err == f"error: {message}\n"


def test_group_word_kind_with_and_without_target(capsys):
    assert main(["canon", "a{4,3,2,1}"]) == 0
    assert main(["canon", "--target", "g", "a{4,3,2,1}"]) == 0
    assert capsys.readouterr().out == "a{1,2,3,4}\n" * 2
    code, data = run_json(
        capsys, ["invariant", "-n", "4", "--target", "gammar", "--r", "2", "--format", "json", ""]
    )
    assert code == 0 and data["kind"] == "gammar" and data["r"] == 2


@pytest.mark.parametrize("word", ["[1]d(1,2,3,4)", "[2]d(1,2,3,4)"])
def test_gammar_without_r_infers_r_from_the_slots(capsys, word):
    assert main(["canon", "--target", "gammar", word]) == 0
    assert capsys.readouterr().out == f"{word}\n"
    code, data = run_json(
        capsys, ["invariant", "-n", "5", "--target", "gammar", "--format", "json", word]
    )
    assert code == 0 and data["kind"] == "gammar" and data["r"] == int(word[1]) + 1
    assert data["word"] == word


@pytest.mark.parametrize("command", [["canon"], ["invariant", "-n", "5", "--format", "json"]])
def test_an_explicit_r_without_target_is_checked_against_the_words_kind(capsys, command):
    # the word's kind, not a default target, decides whether r > 1 is allowed
    assert main([*command, "--r", "2", "[1]d(1,2,3,4)"]) == 0
    out = capsys.readouterr().out
    if command == ["canon"]:
        assert out == "[1]d(1,2,3,4)\n"
    else:
        data = json.loads(out)
        assert data["kind"] == "gammar" and data["r"] == 2 and data["word"] == "[1]d(1,2,3,4)"
    assert main([*command, "--r", "2", "d(1,2,3,4)"]) == 3
    assert capsys.readouterr().err == "error: r > 1 requires target 'gammar'\n"


@pytest.mark.parametrize("word", ["[1]d(1,2,3,4)", "[2]d(1,2,3,4)"])
@pytest.mark.parametrize("target", [["--target", "gammar"], []])
@pytest.mark.parametrize("command", [["canon"], ["invariant", "-n", "5"]])
def test_an_explicit_r_still_refuses_a_slot_past_it(capsys, command, target, word):
    # a given r is never replaced by an inferred one, with or without --target
    assert main([*command, *target, "--r", "1", word]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: slot {word[1]} out of range for r=1 (at position 0)\n"


def test_render_deterministic(tmp_path, choreo_path):
    out1 = tmp_path / "f1.svg"
    out2 = tmp_path / "f2.svg"
    argv = ["render", choreo_path, "--t", "1/2", "--circle", "2,3,4"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    assert b1.startswith(b"<svg") and b"circle" in b1
    # base configuration frame at t=0: five dots on the parabola
    assert main(["render", choreo_path, "--t", "0/1", "--out", str(out1)]) == 0
    assert out1.read_bytes().count(b"<circle") == 4


def test_invariant_slot_words(capsys):
    code, data = run_json(
        capsys,
        ["invariant", "-n", "5", "--target", "gammar", "--r", "2", "--format", "json",
         "[0]d(1,2,3,4) [0]d(2,3,4,1)"],
    )
    assert code == 0
    assert data["invariant"]["zero"] is True and data["r"] == 2
    # slot out of range for the declared r
    assert main(["invariant", "-n", "5", "--target", "gammar", "--r", "2",
                 "[3]d(1,2,3,4)"]) == 3


def test_map_traced_mode(capsys):
    code, data = run_json(
        capsys, ["map", "-n", "4", "--mode", "traced", "--format", "json", "b(1,2)"]
    )
    assert code == 0
    assert data["mode"] == "traced"
    assert data["word"] == "d(1,2,4,3) d(1,2,3,4)"


@pytest.mark.parametrize(
    "cap, argv, message",
    [
        ("abc", ["map", "-n", "4", "b(1,2)"], "BRAIDGAMMA_MAX_N must be an integer, got 'abc'"),
        ("3", ["trace", "PLAN"], "choreography has n=4 above the cap 3"),
        (None, ["map", "-n", "4"], "provide a word argument or --in FILE"),
        (None, ["render", "PLAN", "--t", "1/2", "--circle", "1,2,9", "--out", "OUT"],
         "circle index 9 outside 1..4"),
    ],
)
def test_bad_input_at_the_cli_boundary_exits_3(
    tmp_path, capsys, monkeypatch, choreo_path, cap, argv, message
):
    if cap is None:
        monkeypatch.delenv("BRAIDGAMMA_MAX_N", raising=False)
    else:
        monkeypatch.setenv("BRAIDGAMMA_MAX_N", cap)
    out = tmp_path / "frame.svg"
    argv = [{"PLAN": choreo_path, "OUT": str(out)}.get(a, a) for a in argv]
    assert main(argv) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_render_rejects_spatial_input(tmp_path, choreo3_path):
    out = tmp_path / "frame.svg"
    assert main(["render", choreo3_path, "--t", "1/2", "--out", str(out)]) == 3


@pytest.mark.parametrize(
    "circle", ["1,2,x", "1, 2,\u0663", "1,2,\u0663", "1,2", "1,2,3,4", "1,,3", "1,2,3 "]
)
def test_render_rejects_bad_circle(tmp_path, capsys, choreo_path, circle):
    out = tmp_path / "frame.svg"
    assert main(["render", choreo_path, "--t", "1/2", "--circle", circle, "--out", str(out)]) == 3
    assert "--circle wants three comma-separated indices" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("t", ["1_0", " 1 ", "\u0663", "1.5"])
def test_render_rejects_non_ascii_rational_time(tmp_path, capsys, choreo_path, t):
    out = tmp_path / "frame.svg"
    assert main(["render", choreo_path, "--t", t, "--out", str(out)]) == 3
    assert "bad rational literal" in capsys.readouterr().err


def test_overlong_integer_is_a_syntax_error(capsys):
    assert main(["map", "-n", "4", "b(1," + "9" * 5000 + ")"]) == 3
    assert "integer too long" in capsys.readouterr().err


def test_map_from_file(tmp_path, capsys):
    path = tmp_path / "word.txt"
    path.write_text("b(1,2) b(2,3)^-1\n")
    code, data = run_json(
        capsys, ["map", "-n", "4", "--in", str(path), "--format", "json"]
    )
    assert code == 0
    assert data["input"] == "b(1,2) b(2,3)^-1"


def test_out_flag_writes_file(tmp_path, choreo_path):
    out = tmp_path / "report.json"
    assert main(["check", "-n", "3", "--format", "json", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["failed"] == 0


@pytest.mark.parametrize(
    "plan, message",
    [
        ({"dim": 2, "n": 1, "points": [], "moves": []}, "expected 1 start points, got 0"),
        ({"dim": 2, "n": 0, "points": [], "moves": []}, "need n >= 1, got 0"),
        ({"dim": 2, "n": -2, "points": [], "moves": []}, "need n >= 1, got -2"),
        (
            {
                "dim": 2,
                "n": 4,
                "points": [["0", "0"], ["1", "0"], ["0", "1"]],
                "moves": [{"point": 4, "to": ["2", "2"]}],
            },
            "expected 4 start points, got 3",
        ),
    ],
)
def test_render_and_trace_reject_a_bad_point_count(tmp_path, capsys, plan, message):
    path, out = tmp_path / "short.json", tmp_path / "frame.svg"
    path.write_text(json.dumps(plan))
    assert main(["render", str(path), "--t", "0", "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
    assert main(["trace", str(path)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


# (subcommand argv, a flag it does not read, with its value)
UNREAD_FLAGS = [
    (["map", "-n", "4", "b(1,2)"], ["--seed", "1"]),
    *((["trace", "plan.json"], flag) for flag in (
        ["-n", "5"], ["--mode", "traced"], ["--assembly", "doubled"], ["--seed", "1"])),
    *((["invariant", "-n", "4", "d(1,2,3,4)"], flag) for flag in (
        ["--mode", "traced"], ["--assembly", "doubled"], ["--seed", "1"])),
    *((["canon", "d(1,2,3,4)"], flag) for flag in (
        ["-n", "5"], ["--mode", "traced"], ["--assembly", "doubled"], ["--seed", "1"])),
    *((["render", "plan.json", "--t", "0", "--out", "frame.svg"], flag) for flag in (
        ["-n", "5"], ["--target", "g"], ["--r", "1"], ["--mode", "traced"],
        ["--assembly", "doubled"], ["--format", "json"], ["--seed", "1"])),
]


@pytest.mark.parametrize(
    "argv, flag", UNREAD_FLAGS, ids=[f"{argv[0]} {flag[0]}" for argv, flag in UNREAD_FLAGS]
)
def test_a_flag_the_subcommand_does_not_read_exits_3(tmp_path, monkeypatch, capsys, argv, flag):
    monkeypatch.chdir(tmp_path)  # nothing is read or written: parsing fails first
    assert main(argv + flag) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unrecognized arguments: {' '.join(flag)}\n"
    assert list(tmp_path.iterdir()) == []


# (argv with prefixes of real flags, the arguments argparse leaves unread)
PREFIXED_FLAGS = [
    (["check", "-n", "4", "--comp", "--ass", "doubled", "--form", "json"],
     "--comp --ass doubled --form json"),
    (["canon", "--tar", "gammar", "--r", "2", "d(1,2,3,4)"], "--tar d(1,2,3,4)"),
    (["trace", "--targ", "g", "plan.json"], "--targ plan.json"),
]


@pytest.mark.parametrize("argv, unread", PREFIXED_FLAGS, ids=[a[0] for a, _ in PREFIXED_FLAGS])
def test_a_prefix_of_a_flag_is_an_unknown_flag(tmp_path, monkeypatch, capsys, argv, unread):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unrecognized arguments: {unread}\n"


def random_text(rng):
    return "".join(rng.choice('ab d(1,2)"\\/\n\té€😀\x00') for _ in range(rng.randrange(6)))


def random_payload(rng, depth=0):
    """A JSON-ready value of the kinds the CLI emits, and a few it does not."""
    kinds = ["str", "int", "bool", "none", "float"] + ["list", "tuple", "dict"] * (depth < 4)
    kind = rng.choice(kinds)
    if kind == "str":
        return random_text(rng)
    if kind == "int":
        return rng.choice((0, -1, rng.randrange(-10**6, 10**6), 3**80))
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "none":
        return None
    if kind == "float":
        return rng.choice((0.5, -2.0, 1e300, 1 / 3))
    items = [random_payload(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind == "list":
        return items
    if kind == "tuple":
        return tuple(items)
    return {random_text(rng): v for v in items}


def test_json_writer_matches_json_dumps():
    # the writer replaces json.dumps(indent=2, sort_keys=True) byte for byte
    rng = random.Random(1504)
    payloads = [{}, [], {"a": {}, "b": [], "c": [{}]}] + [
        random_payload(rng) for _ in range(400)
    ]
    for payload in payloads:
        assert cli._json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "the following arguments are required: subcommand"),
        (["map", "b(1,2)"], "the following arguments are required: -n"),
        (["check", "-n", "x"], "argument -n: invalid int value: 'x'"),
        (["check", "-n", "4", "--target", "foo"], "argument --target: invalid choice: 'foo'"),
        (["canon"], "the following arguments are required: word"),
        (["frobnicate"], "argument subcommand: invalid choice: 'frobnicate'"),
    ],
)
def test_usage_errors_exit_3(capsys, argv, message):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # --help
        code = ("exit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["check", "--help"],
        ["map", "-h"],
        ["render", "--help"],
        [],
        ["map", "b(1,2)"],
        ["check", "-n", "x"],
        ["check", "-n", "4", "--target", "foo"],
        ["canon"],
        ["frobnicate"],
        ["-n", "4", "map"],
        ["canon", "d(1,2,3,4)", "extra"],
    ],
)
def test_one_subcommand_parser_prints_what_the_full_parser_prints(capsys, monkeypatch, argv):
    # help, usage errors and the unknown-subcommand message, byte for byte
    lazy = _outcome(capsys, argv)
    full = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda only=None: full())
    assert _outcome(capsys, argv) == lazy


def test_a_named_subcommand_builds_only_its_parser(capsys, monkeypatch):
    built = []
    full = cli._build_parser

    def build(only=None):
        parser = full(only)
        (action,) = [a for a in parser._actions if a.dest == "subcommand"]
        built.append(list(action.choices))
        return parser

    monkeypatch.setattr(cli, "_build_parser", build)
    assert main(["canon", "d(2,3,4,1)"]) == 0
    assert main(["frobnicate"]) == 3
    assert main([]) == 3
    every = ["map", "check", "trace", "invariant", "canon", "render"]
    assert built == [["canon"], every, every]
    # the unknown-subcommand message names every subcommand, in table order
    assert "frobnicate" in capsys.readouterr().err
    assert list(cli._SUBCOMMANDS) == every


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--help"])
    assert exc.value.code == 0
    assert "--compare-modes" in capsys.readouterr().out


def test_render_needs_out_before_it_renders(capsys, choreo_path):
    assert main(["render", choreo_path, "--t", "1/2"]) == 3
    assert capsys.readouterr().err == "error: the following arguments are required: --out\n"


def test_image_length_is_capped(capsys, monkeypatch):
    monkeypatch.setattr(homs, "MAX_IMAGE_LETTERS", 40, raising=False)
    cfg = homs.HomConfig(4)
    assert len(homs.map_braid(cfg, parse_braid("b(1,2)^2", 4), reduced=False).letters) <= 40
    with pytest.raises(IndexRangeError, match="image longer than the cap of 40 letters"):
        homs.map_braid(cfg, parse_braid("b(1,2) b(1,2)^-1000", 4))
    assert main(["map", "-n", "4", "b(1,2)^1000"]) == 3
    assert capsys.readouterr().err == "error: image longer than the cap of 40 letters\n"


# ---------------------------------------------------------------------------
# the trace event printer against the dict builder it replaced
# ---------------------------------------------------------------------------

_dyadic_str = cli._dyadic_str  # pinned against rat_to_str above


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


def oracle_trace(path: str) -> tuple:
    """The choreography, events, event payloads and warnings of a trace, as
    the dict-building `trace` made them."""
    ch = geom2d.load_choreography(path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UnstableWarning)
        events = (geom3d.trace3 if ch.dim == 3 else geom2d.trace)(ch)
    level = None
    if ch.dim == 2:
        level = {
            seg: dyadic_level([e.time for e in group])
            for seg, group in itertools.groupby(events, key=lambda e: e.segment)
        }
    return ch, events, [_event_payload(e, level) for e in events], [str(w.message) for w in caught]


def oracle_trace_payload(traced: tuple, target: str, r: int) -> dict:
    ch, events, ev_payload, warned = traced
    image, _ = cli._image(geom2d.events_to_word(events, target, r), ch.n)
    payload = {"n": ch.n, "dim": ch.dim, "loop": ch.loop, "target": target}
    return payload | {"events": ev_payload, **image, "warnings": warned}


_NO_EVENTS = {
    "quiet2d": {"n": 4, "dim": 2, "points": [["0", "0"], ["4", "0"], ["0", "4"], ["1", "1"]],
                "moves": [{"point": 4, "to": ["2", "1"]}]},
    "quiet3d": {"n": 4, "dim": 3,
                "points": [["0", "0", "0"], ["4", "0", "0"], ["0", "4", "0"], ["1", "1", "1"]],
                "moves": [{"point": 4, "to": ["1", "1", "2"]}]},
}


def test_trace_prints_what_the_event_dicts_printed(tmp_path, capsys):
    """Every golden plan, in every target it is golden for, and two plans
    with no event: the JSON output is json.dumps of the old payload, and the
    text output's event lines are the old compact dumps."""
    calls = no_events = 0
    for name, data in [*plans(), *_NO_EVENTS.items()]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        try:
            traced = oracle_trace(str(path))
        except BraidGammaError:
            traced = None
        for target, flags in (PLANAR_TARGETS if data["dim"] == 2 else TARGETS).items():
            code = main(["trace", "--format", "json", *flags, str(path)])
            json_out = capsys.readouterr().out
            assert main(["trace", *flags, str(path)]) == code
            text_out = capsys.readouterr().out
            if traced is None:
                assert code == 3 and json_out == text_out == "", (name, target)
                continue
            calls += 1
            no_events += not traced[1]
            r = int(flags[-1]) if "--r" in flags else 1
            payload = oracle_trace_payload(traced, flags[1], r)
            expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
            assert (code, json_out) == (0, expected), (name, target)
            lines = text_out.split("\n")
            assert lines[0] == f"{len(payload['events'])} events", (name, target)
            assert lines[1:1 + len(payload["events"])] == [
                f"  {json.dumps(e, sort_keys=True)}" for e in payload["events"]
            ], (name, target)
    assert calls > 350 and no_events >= 2
