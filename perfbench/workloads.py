"""The benchmark's workloads: fixed lists of CLI jobs.

Each job is the argument list a user would type after `frobgrow`, plus
what the independent checks need to know about it.  The benchmark seed
picks the order of the cases and, for every round, each job's `--seed`;
the cases themselves are fixed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

# the cone z^2 = xy over F_2, saturated by y with respect to (x, z)
CONE_RING = {
    "prime": 2,
    "variables": [
        {"name": "x", "weight": 1},
        {"name": "y", "weight": 1},
        {"name": "z", "weight": 1},
    ],
    "relations": ["z^2+x*y"],
    "ideal": ["x", "z"],
    "minimal_prime": ["x", "z"],
}
CONE_FILE = "cone.json"


@dataclass(frozen=True)
class Case:
    label: str
    argv: tuple  # arguments after `frobgrow`, without --seed and --no-timings
    family: str | None = None
    p: int | None = None
    q: int | None = None
    # the one known fault: ss5 p=2 q=4 exhausts its minors budget and
    # returns a PARTIAL certificate; it fails every time, whatever the seed
    known_fault: bool = False
    # recompute the lcm of the nonzero minors of every M_d from the definition
    minors_by_definition: bool = False
    # also run on the certified route and compare (groebner decompositions)
    cross_route: bool = False
    extra: dict = field(default_factory=dict)


def _decompose(family, p, q, *flags, **kw):
    tail = " ".join(flags)
    label = f"decompose {family} p={p} q={q}" + (f" {tail}" if tail else "")
    argv = ("decompose", "--family", family, "--p", str(p), "--q", str(q)) + flags
    return Case(label, argv, family, p, q, **kw)


def _hq(family, p, q, **kw):
    argv = ("hq", "--family", family, "--p", str(p), "--q", str(q))
    return Case(f"hq {family} p={p} q={q}", argv, family, p, q, **kw)


def _witness(p, q):
    argv = ("witness", "--family", "ss5", "--p", str(p), "--q", str(q),
            "--method", "groebner")
    return Case(f"witness ss5 p={p} q={q} --method groebner", argv, "ss5", p, q)


CF = ("--h", "closed-form")
GB = ("--method", "groebner")

WORKLOADS = {
    "certified": (
        _decompose("ss5", 2, 4, *CF),
        _decompose("ss5", 3, 3, *CF),
        _decompose("katzman", 3, 9),
        _decompose("katzman", 2, 8),
        Case(
            "verify-lemmas p=3 r=1,t,1 n=4",
            ("verify-lemmas", "--p", "3", "--r", "1,t,1", "--n", "4"),
            p=3, extra={"n": 4, "panel": 5},
        ),
    ),
    "groebner": (
        _decompose("katzman", 5, 5, *GB, cross_route=True),
        _decompose("katzman", 2, 4, *GB, cross_route=True),
        _decompose("ss5", 2, 2, *CF, *GB, cross_route=True),
        _witness(5, 5),
        _witness(2, 4),
        Case(
            "saturate cone z^2+x*y p=2 --z y q=2,4,8,16",
            ("saturate", "--ring-file", CONE_FILE, "--p", "2", "--z", "y",
             "--q-list", "2,4,8,16"),
            p=2, extra={"q_list": [2, 4, 8, 16]},
        ),
    ),
    "minors": (
        _hq("katzman", 3, 9),
        _hq("ss5", 3, 3),
        _hq("brenner_monsky", 2, 4),
        _hq("katzman", 7, 7, minors_by_definition=True),
        _hq("katzman", 2, 8),
        _hq("ss5", 2, 4, known_fault=True),
    ),
}


@dataclass(frozen=True)
class Job:
    case: Case
    seed: int

    def argv(self, ring_dir: str) -> list:
        args = [
            os.path.join(ring_dir, a) if a == CONE_FILE else a for a in self.case.argv
        ]
        return args + ["--seed", str(self.seed), "--no-timings"]


def make_cases(workload: str, seed: int, ring_dir: str) -> list:
    """The workload's cases in this seed's order; writes the ring files
    the jobs read into ring_dir."""
    cases = list(WORKLOADS[workload])
    random.Random(seed).shuffle(cases)
    os.makedirs(ring_dir, exist_ok=True)
    with open(os.path.join(ring_dir, CONE_FILE), "w") as fh:
        json.dump(CONE_RING, fh, indent=2, sort_keys=True)
    return cases


def round_jobs(cases, seed: int, round_index: int) -> list:
    """The jobs of one round.  Each round draws fresh job seeds, so every
    job's output is compared across seeds and its time is a median over
    seeds; the known fault keeps --seed 0."""
    rng = random.Random(f"{seed}/{round_index}")
    return [Job(c, 0 if c.known_fault else rng.randrange(1, 2**31)) for c in cases]
