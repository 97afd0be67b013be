import ast
import json
import pathlib
import time
from dataclasses import fields

import pytest
from click.testing import CliRunner

from frobgrow import hq, ktmodule
from frobgrow.budgets import Budgets, check_deadline, limits
from frobgrow.cli import main
from frobgrow.decomposer import family
from frobgrow.errors import BudgetExceeded, InputError
from frobgrow.fpoly import PrimeModulus, PrimePower, RingSpec, UniPoly, parse_poly, parse_unipoly
from frobgrow.groebner import (
    IdealHandle,
    member_bounded_oracle,
    power_containment,
    saturate,
    saturation_exponent,
)
from frobgrow.hq import MinorMatrix, minors_lcm
from frobgrow.ktmodule import DegreeSlice, SliceCache, slice_power_containment

SMALL = Budgets(gb_pairs=3, gb_basis=7, minor_subsets=10, oracle_dim=1,
                saturation_steps=5, power_products=100, wall_seconds=2.0)


class TestScaled:
    # integer limits round down and stay at least 1; wall_seconds is a float
    @pytest.mark.parametrize(
        "base, factor, expected",
        [
            (Budgets(), 1e-9, (1, 1, 1, 1, 1, 1, 6e-7)),
            (Budgets(), 0.37, (74_000, 7_400, 92_500, 7_400, 94, 1_850_000, 222.0)),
            (Budgets(), 2.5, (500_000, 50_000, 625_000, 50_000, 640, 12_500_000, 1500.0)),
            (SMALL, 1e-9, (1, 1, 1, 1, 1, 1, 2e-9)),
            (SMALL, 0.37, (1, 2, 3, 1, 1, 37, 0.74)),
            (SMALL, 2.5, (7, 17, 25, 2, 12, 250, 5.0)),
        ],
    )
    def test_hand_computed(self, base, factor, expected):
        got = base.scaled(factor)
        values = tuple(getattr(got, f.name) for f in fields(got))
        assert values[:-1] == expected[:-1]
        assert all(type(v) is int for v in values[:-1])
        assert values[-1] == pytest.approx(expected[-1])

    @pytest.mark.parametrize("factor", [0, -1.0, float("nan"), -float("inf")])
    def test_factor_must_be_positive(self, factor):
        with pytest.raises(InputError, match="budget scale must be positive"):
            Budgets().scaled(factor)

    def test_factor_must_be_finite(self):
        with pytest.raises(InputError, match="budget scale must be finite"):
            Budgets().scaled(float("inf"))

    def test_factor_must_leave_every_limit_finite(self):
        # a finite factor whose product overflows a float
        with pytest.raises(InputError, match="budget scale 1e\\+305 makes gb_pairs infinite"):
            Budgets().scaled(1e305)


@pytest.mark.parametrize("name", [f.name for f in fields(Budgets)])
def test_zero_limit_names_its_field(name):
    with pytest.raises(InputError) as exc:
        Budgets(**{name: 0})
    assert str(exc.value) == f"budget {name} must be positive"


def test_nan_limit_is_refused():
    # NaN compares false with everything, so "<= 0" alone would pass it
    with pytest.raises(InputError) as exc:
        Budgets(wall_seconds=float("nan"))
    assert str(exc.value) == "budget wall_seconds must be positive"


def test_environment_scale_applies_to_cli_runs():
    runner = CliRunner()
    argv = ["hq", "--family", "katzman", "--p", "3", "--q", "9", "--no-timings"]
    bad = runner.invoke(main, argv, env={"FROBGROW_BUDGET_SCALE": "lots"})
    assert bad.exit_code == 2
    assert bad.stdout == ""
    assert bad.stderr == "error: FROBGROW_BUDGET_SCALE must be numeric, got 'lots'\n"
    # 250 000 * 1e-4 = 25 minors per M_d: the scan stops short
    tiny = runner.invoke(main, argv, env={"FROBGROW_BUDGET_SCALE": "1e-4"})
    assert tiny.exit_code == 0
    assert json.loads(tiny.stdout)["certificate"]["partial"]


R3 = RingSpec(PrimeModulus(3), (("t", 0), ("x", 1), ("y", 1)))
KATZMAN_2 = family("katzman", 2).ring


def _basis():
    # its Buchberger run reduces several S-pairs and adds basis elements
    return IdealHandle(R3, ["x^2+t*x*y+y^2", "x^3+y^3", "t^2*x*y^2+x^2*y"]).groebner_basis()


def _square(search):
    # (x, y)^2 lies in (x^2, xy, y^2), found after six products
    P, Q = IdealHandle(R3, ["x", "y"]), IdealHandle(R3, ["x^2", "x*y", "y^2"])
    return search(P, Q)


def _by_y(saturation):
    # (x^2 y) : y^infinity = (x^2), reached at exponent 1
    return saturation(IdealHandle(R3, ["x^2*y"]), parse_poly("y", R3))


# the calls each Budgets field bounds, none of them given a budget
CHECK_SITES = {
    "gb_pairs": [_basis],
    "gb_basis": [_basis],
    "minor_subsets": [lambda: hq.h_q(KATZMAN_2, PrimePower(PrimeModulus(2), 2))],
    "oracle_dim": [
        lambda: member_bounded_oracle(parse_poly("x*y", R3), IdealHandle(R3, ["x", "y"]), 1, 1)
    ],
    "saturation_steps": [lambda: _by_y(saturate), lambda: _by_y(saturation_exponent)],
    "power_products": [
        lambda: _square(power_containment),
        lambda: _square(lambda P, Q: slice_power_containment(P.generators, SliceCache(Q))),
    ],
    "wall_seconds": [
        _basis,
        lambda: _square(power_containment),
        lambda: _by_y(saturation_exponent),
        lambda: hq.h_q(KATZMAN_2, PrimePower(PrimeModulus(2), 2)),
        lambda: SliceCache(IdealHandle(R3, ["x^2+t*x*y", "y^2"])).at(2),
    ],
}


def _exhausted(call):
    """The budget a call exhausts: the one it raises, minor_subsets for
    a PARTIAL certificate, None when it finishes."""
    try:
        result = call()
    except BudgetExceeded as exc:
        return exc.budget_name
    return "minor_subsets" if getattr(result, "partial", False) else None


@pytest.mark.parametrize("name", [f.name for f in fields(Budgets)])
def test_limits_reach_their_check_sites(name):
    # each call finishes under DEFAULT outside any block, and exhausts
    # the field inside a limits block that sets only that field tiny
    tiny = Budgets(**{name: 1e-9 if name == "wall_seconds" else 1})
    for call in CHECK_SITES[name]:
        assert _exhausted(call) is None
        with limits(tiny):
            time.sleep(0.001)  # past a 1e-9 s deadline
            assert _exhausted(call) == name


def test_no_function_takes_budgets():
    # limits reach their check sites from the enclosing block only
    taken = []
    for path in sorted(pathlib.Path(hq.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                if any(arg is not None and arg.arg == "budgets" for arg in params):
                    taken.append(f"{path.name}:{node.lineno}")
    assert taken == []


class TestWallClock:
    def test_deadline_holds_only_inside_its_block(self):
        check_deadline()  # no deadline: a no-op
        with limits(Budgets(wall_seconds=1e-9)):
            time.sleep(0.001)
            with pytest.raises(BudgetExceeded) as exc:
                check_deadline()
            assert exc.value.budget_name == "wall_seconds"
        check_deadline()
        with limits(Budgets(wall_seconds=60.0)):
            check_deadline()

    def test_groebner_engine_checks_it(self):
        R = RingSpec(PrimeModulus(3), (("t", 0), ("x", 1), ("y", 1)))
        gens = ["x^2+t*x*y+y^2", "x^3+y^3", "t^2*x*y^2+x^2*y"]
        P, Q = IdealHandle(R, ["x", "y"]), IdealHandle(R, ["x^2", "y^2"])
        Q.groebner_basis()
        with limits(Budgets(wall_seconds=1e-9)):
            time.sleep(0.001)
            with pytest.raises(BudgetExceeded, match="wall_seconds"):
                IdealHandle(R, gens).groebner_basis()
            with pytest.raises(BudgetExceeded, match="wall_seconds"):
                power_containment(P, Q)
        assert power_containment(P, Q) == 3

    def test_growth_tau_chains_check_it(self):
        # with no other radical generator, every product is one by tau:
        # both the deadline and the product budget fire inside the chain
        R = RingSpec(PrimeModulus(3), (("t", 0), ("x", 1), ("y", 1)))
        P, Q, t = IdealHandle(R, []), IdealHandle(R, ["x", "y", "t^5"]), parse_poly("t", R)
        Q.groebner_basis()
        with limits(Budgets(wall_seconds=1e-9)):
            time.sleep(0.001)
            with pytest.raises(BudgetExceeded, match="wall_seconds"):
                power_containment(P, Q, tau=t)
        assert power_containment(P, Q, tau=t) == 5
        # the chain 1, t, ..., t^5 takes five products
        with limits(Budgets(power_products=5)):
            assert power_containment(P, Q, tau=t) == 5
        with limits(Budgets(power_products=4)):
            with pytest.raises(BudgetExceeded, match="power_products"):
                power_containment(P, Q, tau=t)

    def test_saturation_exponent_checks_it(self):
        # I^[8] of the cone's ruling (x, z) in k[x,y,z]/(z^2 + xy), by y
        R = RingSpec(PrimeModulus(2), (("x", 1), ("y", 1), ("z", 1)), ("z^2+x*y",))
        I, y = IdealHandle(R, ["x^8", "z^8"]), parse_poly("y", R)
        with limits(Budgets(wall_seconds=1e-9)):
            time.sleep(0.001)
            with pytest.raises(BudgetExceeded, match="wall_seconds"):
                saturation_exponent(I, y)
        assert saturation_exponent(I, y) == 4

    def test_slice_engine_checks_it(self):
        R = RingSpec(PrimeModulus(3), (("t", 0), ("x", 1), ("y", 1)))
        I = IdealHandle(R, ["x^2+t*x*y", "y^2"])
        # every degree-2 monomial of (x^2, xy, y^2) is covered, so `at`
        # meets no row component there and only its per-degree check can fire
        full = SliceCache(IdealHandle(R, ["x^2", "x*y", "y^2"]))
        with limits(Budgets(wall_seconds=1e-9)):
            time.sleep(0.001)
            with pytest.raises(BudgetExceeded, match="wall_seconds"):
                DegreeSlice(I, 2, [(1, 1)])
            with pytest.raises(BudgetExceeded, match="wall_seconds"):
                full.at(2)
            # degree 2 of I has the standard rows x^2 and x*y
            with pytest.raises(BudgetExceeded, match="wall_seconds"):
                SliceCache(I).at(2)
        assert DegreeSlice(I, 2, [(1, 1)]).rows
        assert full.at(2).full
        assert SliceCache(I).at(2) == (1, UniPoly.one(PrimeModulus(3)))

    def test_slice_invariants_check_it_per_component(self, monkeypatch):
        # past the per-degree check, each row component checks again: a
        # deadline that passes at the second check stops the first component
        R = RingSpec(PrimeModulus(3), (("t", 0), ("x", 1), ("y", 1)))
        cache = SliceCache(IdealHandle(R, ["x^2+t*x*y", "y^2"]))
        checks = []

        def deadline():
            checks.append(None)
            if len(checks) > 1:
                raise BudgetExceeded("wall_seconds", 0.0)

        monkeypatch.setattr(ktmodule, "check_deadline", deadline)
        with pytest.raises(BudgetExceeded, match="wall_seconds"):
            cache.at(2)
        assert len(checks) == 2 and 2 not in cache._degrees

    def test_minors_scan_checks_it(self):
        P3 = PrimeModulus(3)
        t, t1 = parse_unipoly("t", P3), parse_unipoly("t+1", P3)
        M = MinorMatrix(P3, 0, (0, 1), (0, 1), {(0, 0): t, (0, 1): t1, (1, 1): t})
        with limits(Budgets(wall_seconds=1e-9)):
            time.sleep(0.001)
            with pytest.raises(BudgetExceeded, match="wall_seconds"):
                minors_lcm(M)
        assert minors_lcm(M).lcm == t * t * t1  # lcm of t, t+1 and the det t^2

    def test_h_q_checks_it_inside_a_block_scan(self, monkeypatch):
        # a deadline that passes once the first degree of brenner_monsky
        # q=4 with several row components is walked stops the scan of its
        # first block; the budget cuts no degree, so no M_d is built
        fam = family("brenner_monsky", 2)
        split, built = [], []
        real_walk, real_build = hq._row_components, hq.build_Md

        def walk(*args):
            components = list(real_walk(*args))
            split.append(sum(bool(columns) for _, _, columns in components))
            return iter(components)

        def deadline():
            if split and split[-1] > 1:
                raise BudgetExceeded("wall_seconds", 0.0)

        monkeypatch.setattr(hq, "_row_components", walk)
        monkeypatch.setattr(hq, "build_Md", lambda *a: built.append(a[2]) or real_build(*a))
        monkeypatch.setattr(hq, "check_deadline", deadline)
        with pytest.raises(BudgetExceeded, match="wall_seconds") as info:
            hq.h_q(fam.ring, PrimePower(PrimeModulus(2), 2))
        assert [entry.name for entry in info.traceback][-2:] == ["minors_lcm", "deadline"]
        assert split == [1, 3] and built == []

    def test_h_q_checks_it_while_counting_degrees(self, monkeypatch):
        # katzman p=3 q=9 scans degrees 8-11; a deadline that passes at
        # the check for degree 12 stops the closed-form count of that
        # outer degree, before any M_d is built
        fam = family("katzman", 3)
        checks, built = [], []

        def deadline():
            checks.append(None)
            if len(checks) == 12:
                raise BudgetExceeded("wall_seconds", 0.0)

        monkeypatch.setattr(hq, "build_Md", lambda *a: built.append(a[2]))
        monkeypatch.setattr(hq, "check_deadline", deadline)
        with pytest.raises(BudgetExceeded, match="wall_seconds") as info:
            hq.h_q(fam.ring, PrimePower(PrimeModulus(3), 2))
        assert [entry.name for entry in info.traceback][-2:] == ["_positions", "deadline"]
        assert built == []
