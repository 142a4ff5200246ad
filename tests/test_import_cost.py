"""Importing the CLI loads no code-generating helper modules: the value
types are plain classes, so a cold process sets up without `dataclasses`
(which pulls in `inspect` and `ast`)."""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
HEAVY = ("dataclasses", "inspect", "ast")


def test_cli_import_loads_no_dataclasses_inspect_or_ast():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import sys, braidgamma.cli; print(' '.join(m for m in %r if m in sys.modules))" % (HEAVY,)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert out.stdout.split() == []


def test_source_imports_neither_dataclasses_nor_namedtuple():
    for path in sorted((SRC / "braidgamma").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for banned in ("import dataclasses", "from dataclasses", "NamedTuple"):
            assert banned not in text, f"{path.name} uses {banned}"
