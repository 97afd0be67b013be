"""Byte-for-byte CLI output on fixed runs.

tests/golden/runs.json lists each run's arguments and exit code; its
`--no-timings` standard output is tests/golden/<name>.out.  An argument
naming a file in tests/golden/ (the cone ring) is passed as that file's
path.  A change that alters any of these outputs, even in whitespace or
key order, fails here.
"""

import json
import os

import pytest
from click.testing import CliRunner

from frobgrow.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

with open(os.path.join(GOLDEN, "runs.json")) as fh:
    RUNS = json.load(fh)


@pytest.mark.parametrize("run", RUNS, ids=[r["name"] for r in RUNS])
def test_output_is_byte_identical(run):
    argv = [
        os.path.join(GOLDEN, a) if os.path.isfile(os.path.join(GOLDEN, a)) else a
        for a in run["argv"]
    ]
    res = CliRunner().invoke(main, argv + ["--no-timings"], catch_exceptions=False)
    with open(os.path.join(GOLDEN, run["name"] + ".out"), "rb") as fh:
        assert res.stdout_bytes == fh.read()
    assert res.exit_code == run["exit_code"]
