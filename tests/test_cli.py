import json

import pytest

from braidgamma.cli import main
from braidgamma.geom2d import (
    Choreography,
    Move,
    choreography_to_json,
    generator_choreography,
)
from braidgamma.geom3d import pt3


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
    [("gamma", "3", "--r above 1 needs --target gammar"), ("g", "0", "need --r >= 1, got 0")],
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
def test_render_rejects_a_short_point_list(tmp_path, capsys, plan, message):
    path, out = tmp_path / "short.json", tmp_path / "frame.svg"
    path.write_text(json.dumps(plan))
    assert main(["render", str(path), "--t", "0", "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
