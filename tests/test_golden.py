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


# Every run that exits 0 prints the same output under other seeds.  The
# exit-1 runs are left out: the witness of a failed primary-sanity check
# is the first random panel draw that fails, so its text depends on the
# seed (ss7 p=2 q=2 names t^3 + t^2 + t at --seed 0 and t at --seed 7).
SEEDED = [
    pytest.param(run, extra, id=run["name"] + (f"-seed{extra[1]}" if extra else ""))
    for run in RUNS
    for extra in [()] + [("--seed", s) for s in ("1", "1142") if run["exit_code"] == 0]
]


@pytest.mark.parametrize("run,extra", SEEDED)
def test_output_is_byte_identical(run, extra):
    argv = [
        os.path.join(GOLDEN, a) if os.path.isfile(os.path.join(GOLDEN, a)) else a
        for a in run["argv"]
    ]
    res = CliRunner().invoke(main, [*argv, *extra, "--no-timings"], catch_exceptions=False)
    with open(os.path.join(GOLDEN, run["name"] + ".out"), "rb") as fh:
        assert res.stdout_bytes == fh.read()
    assert res.exit_code == run["exit_code"]
