import json
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

from frobgrow.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


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


class TestPseq:
    def test_text_output(self, runner):
        res = invoke(runner, "pseq", "--p", "2", "--r", "1,t,1", "--n", "2",
                     "--format", "text")
        assert res.exit_code == 0
        assert "P_1 = t" in res.output
        assert "P_2 = t^2 + 1 = (t + 1)^2" in res.output

    def test_json_deterministic_without_timings(self, runner):
        args = ("pseq", "--p", "3", "--r", "1,t,1", "--n", "5", "--no-timings")
        a = invoke(runner, *args)
        b = invoke(runner, *args)
        assert a.exit_code == 0 and a.output == b.output
        payload = json.loads(a.output)
        assert "timings" not in payload and len(payload["rows"]) == 5

    def test_csv_has_header(self, runner):
        res = invoke(runner, "pseq", "--p", "2", "--r", "1,t,1", "--n", "1",
                     "--format", "csv")
        assert res.exit_code == 0
        assert res.output.splitlines()[0] == "n,P,degree,factors"

    def test_no_rows_in_text_and_csv(self, runner):
        # --n 0 has no rows: text prints no line, csv only its header
        argv = ("pseq", "--p", "5", "--r", "1,t,1", "--n", "0", "--no-timings")
        text = invoke(runner, *argv, "--format", "text")
        assert text.exit_code == 0 and text.stdout == ""
        csv_out = invoke(runner, *argv, "--format", "csv")
        assert csv_out.exit_code == 0
        assert csv_out.stdout.splitlines() == ["n,P,degree,factors"]

    def test_negative_n_is_input_error(self, runner):
        res = invoke(runner, "pseq", "--p", "2", "--r", "1,t,1", "--n", "-1")
        assert res.exit_code == 2

    def test_bad_rspec_is_input_error(self, runner):
        res = invoke(runner, "pseq", "--p", "2", "--r", "1,t", "--n", "1")
        assert res.exit_code == 2

    def test_unwritable_output_is_input_error(self, runner, tmp_path):
        out = tmp_path / "missing" / "out.json"
        res = invoke(runner, "pseq", "--p", "5", "--r", "1,t,1", "--n", "2",
                     "--output", str(out))
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == f"error: cannot write {out}: No such file or directory\n"


class TestCensus:
    def test_cumulative_counts_increase(self, runner):
        res = invoke(runner, "census", "--p", "2", "--r", "1,t,1", "--e", "2..5",
                     "--no-timings")
        assert res.exit_code == 0
        counts = [
            r["new_and_old_distinct_irreducibles"]
            for r in json.loads(res.output)["rows"]
        ]
        assert counts == sorted(counts) and len(set(counts)) == len(counts)

    def test_needs_family_or_rspec(self, runner):
        res = invoke(runner, "census", "--p", "2", "--e", "2..3")
        assert res.exit_code == 2

    def test_bad_range_is_input_error(self, runner):
        res = invoke(runner, "census", "--p", "2", "--r", "1,t,1", "--e", "5..2")
        assert res.exit_code == 2

    def test_q_one_has_h_one(self, runner):
        # q = 1 has no degree to scan
        res = invoke(runner, "census", "--family", "brenner_monsky", "--p", "2", "--e", "0",
                     "--no-timings")
        assert res.exit_code == 0
        assert json.loads(res.output)["rows"] == [{
            "factors": "1", "label": "h_1", "new_and_old_distinct_irreducibles": 0, "poly": "1",
        }]


class TestHq:
    def test_katzman_q4(self, runner):
        res = invoke(runner, "hq", "--family", "katzman", "--p", "2", "--q", "4",
                     "--no-timings")
        assert res.exit_code == 0
        cert = json.loads(res.output)["certificate"]
        assert cert["h_text"] == "t^4 + t" and not cert["partial"]

    def test_family_xor_ring_file(self, runner):
        res = invoke(runner, "hq", "--p", "2", "--q", "2")
        assert res.exit_code == 2

    @pytest.mark.parametrize("t_vars", [(), ("s", "t")])
    def test_ring_file_needs_one_weight_zero_variable(self, runner, tmp_path, t_vars):
        # M_d is a matrix over k[t]: no weight-zero variable, or two, is an
        # input error
        ring = tmp_path / "ring.json"
        ring.write_text(json.dumps({
            "prime": 2,
            "variables": [{"name": v, "weight": 0} for v in t_vars]
            + [{"name": "x", "weight": 1}, {"name": "y", "weight": 1}],
            "relations": ["x^2+" + "*".join(t_vars + ("x", "y")) + "+y^2"],
            "ideal": ["x", "y"],
        }))
        res = invoke(runner, "hq", "--ring-file", str(ring), "--p", "2", "--q", "2")
        assert res.exit_code == 2
        assert "weight-zero variable" in res.output

    def test_q_one_has_h_one(self, runner):
        # q = 1 has no degree to scan, so none of the window either
        res = invoke(runner, "hq", "--family", "ss7", "--p", "2", "--q", "1", "--no-timings")
        assert res.exit_code == 0
        cert = json.loads(res.output)["certificate"]
        assert cert["h_text"] == "1" and cert["minors_examined"] == 0 and not cert["partial"]

    def test_wall_clock_is_exit_3(self, runner):
        # the minors scan checks the deadline
        res = invoke(runner, "hq", "--family", "katzman", "--p", "3", "--q", "9",
                     "--wall-seconds", "1e-9")
        assert res.exit_code == 3
        assert "wall_seconds" in res.stderr


class TestDecompose:
    def test_katzman_verifies(self, runner):
        res = invoke(runner, "decompose", "--family", "katzman", "--p", "2",
                     "--q", "4", "--no-timings")
        assert res.exit_code == 0
        report = json.loads(res.output)["report"]
        assert report["intersection_verified"] and report["method"] == "certified"
        assert [c["tau"] for c in report["embedded"]] == ["t", "t + 1", "t^2 + t + 1"]

    def test_q_one(self, runner):
        # h_1 = 1 takes no minor, and I^[1] + (x, y) is the whole isolated
        # component
        res = invoke(runner, "decompose", "--family", "katzman", "--p", "3", "--q", "1",
                     "--no-timings")
        assert res.exit_code == 0
        report = json.loads(res.output)["report"]
        assert report["h"] == "1" and report["h_certificate"]["minors_examined"] == 0
        assert report["intersection_verified"] and report["embedded"] == []

    def test_method_option(self, runner):
        res = invoke(runner, "decompose", "--family", "katzman", "--p", "2",
                     "--q", "2", "--method", "groebner", "--no-timings")
        assert res.exit_code == 0
        assert json.loads(res.output)["report"]["method"] == "groebner"

    def test_wrong_h_fails_verification(self, runner):
        res = invoke(runner, "decompose", "--family", "katzman", "--p", "2",
                     "--q", "4", "--h", "t", "--method", "groebner")
        assert res.exit_code == 1

    def test_budget_exhaustion_is_exit_3(self, runner):
        res = invoke(runner, "decompose", "--family", "katzman", "--p", "2",
                     "--q", "4", "--method", "groebner", "--gb-pairs", "1")
        assert res.exit_code == 3

    def test_wall_clock_is_exit_3(self, runner):
        res = invoke(runner, "decompose", "--family", "katzman", "--p", "5",
                     "--q", "5", "--method", "groebner", "--wall-seconds", "0.001")
        assert res.exit_code == 3
        assert "wall_seconds" in res.stderr

    def test_certified_route_wall_clock_is_exit_3(self, runner):
        # the certified route builds no Groebner basis: the slice engine
        # checks the deadline
        res = invoke(runner, "decompose", "--family", "ss5", "--p", "3", "--q", "3",
                     "--h", "closed-form", "--wall-seconds", "1e-9")
        assert res.exit_code == 3
        assert "wall_seconds" in res.stderr

    @pytest.mark.parametrize("args,least", [
        (("--family", "katzman", "--p", "2", "--q", "4"), 16),
        (("--family", "ss5", "--p", "2", "--q", "2", "--h", "closed-form"), 20),
        (("--family", "katzman", "--p", "5", "--q", "5"), 21),
    ])
    def test_least_gb_pairs(self, runner, args, least):
        # pins the S-pair sequence: the most pairs any one basis reduces;
        # a seeded run reduces no pair inside its seed
        argv = ("decompose", *args, "--method", "groebner", "--no-timings", "--gb-pairs")
        assert invoke(runner, *argv, str(least)).exit_code == 0
        short = invoke(runner, *argv, str(least - 1))
        assert short.exit_code == 3 and "gb_pairs" in short.stderr

    @pytest.mark.parametrize("args", [
        ("--family", "katzman", "--p", "3", "--q", "3"),
        ("--family", "katzman", "--p", "2", "--q", "4", "--method", "groebner"),
        ("--family", "ss5", "--p", "2", "--q", "2", "--h", "closed-form"),
        ("--family", "katzman", "--p", "3", "--q", "3", "--h", "t+1"),
    ])
    def test_h_is_factored_once(self, runner, monkeypatch, args):
        # a minors h keeps the factorization of its certificate; any
        # other h is factored by the decomposition alone
        from frobgrow import decomposer, fpoly, hq

        seen = []

        def counting(a, seed):
            seen.append(a)
            return fpoly.uni_factor(a, seed)

        monkeypatch.setattr(hq, "uni_factor", counting)
        monkeypatch.setattr(decomposer, "uni_factor", counting)
        assert invoke(runner, "decompose", *args, "--no-timings").exit_code == 0
        assert len(seen) == 1

    def test_text_shows_partial_certificate(self, runner):
        # a tiny budget cuts the minors scan short; the h line must say so
        args = ("decompose", "--family", "ss5", "--p", "2", "--q", "4",
                "--budget", "0.001")
        res = invoke(runner, *args, "--no-timings")
        payload, _ = json.JSONDecoder().raw_decode(res.output)  # stderr follows
        assert payload["report"]["h_certificate"]["partial"]
        text = invoke(runner, *args, "--format", "text")
        assert text.exit_code == res.exit_code
        assert text.output.splitlines()[0].endswith("(minors) (PARTIAL)")
        full = invoke(runner, "decompose", "--family", "katzman", "--p", "3",
                      "--q", "3", "--format", "text")
        assert full.exit_code == 0
        assert full.output.splitlines()[0] == "I^[3] with h = t + 1 (minors)"

    def test_closed_form_needs_sequence_family(self, runner):
        res = invoke(runner, "decompose", "--family", "katzman", "--p", "2",
                     "--q", "2", "--h", "closed-form")
        assert res.exit_code == 2

    def test_output_file(self, runner, tmp_path):
        out = tmp_path / "report.json"
        res = invoke(runner, "decompose", "--family", "katzman", "--p", "2",
                     "--q", "2", "--no-timings", "--output", str(out))
        assert res.exit_code == 0 and res.output == ""
        assert json.loads(out.read_text())["command"] == "decompose"

    def test_verdict_does_not_depend_on_the_seed(self, runner):
        # the isolated component of ss7 at q = 2 has torsion exponent t
        # below K, so it fails at every seed; the panels drawn at seeds
        # 1142 and 3531 hold no multiple of t, and t is the witness
        witnesses = {}
        for seed in ("0", "1142", "3531"):
            res = invoke(runner, "decompose", "--family", "ss7", "--p", "2", "--q", "2",
                         "--seed", seed, "--no-timings")
            assert res.exit_code == 1
            payload, _ = json.JSONDecoder().raw_decode(res.output)  # stderr follows
            witnesses[seed] = payload["primary_sanity"]["witness"]
        assert witnesses == {
            "0": "colon by t^3 + t^2 + t changed the ideal",
            "1142": "colon by t changed the ideal",
            "3531": "colon by t changed the ideal",
        }

    def test_panel_below_one_is_input_error(self, runner):
        res = invoke(runner, "decompose", "--family", "katzman", "--p", "3",
                     "--q", "3", "--panel", "-1", "--no-timings")
        assert res.exit_code == 2
        assert res.stdout == "" and res.stderr == "error: panel size must be at least 1\n"


class TestVerifyLemmas:
    def test_passes(self, runner):
        res = invoke(runner, "verify-lemmas", "--p", "3", "--r", "1,t,1",
                     "--n", "2", "--panel", "3", "--no-timings")
        assert res.exit_code == 0
        assert json.loads(res.output)["report"]["all_pass"]

    def test_panel_below_one_is_input_error(self, runner):
        res = invoke(runner, "verify-lemmas", "--p", "3", "--r", "1,t,1",
                     "--n", "2", "--panel", "0", "--no-timings")
        assert res.exit_code == 2
        assert res.stdout == "" and res.stderr == "error: panel size must be at least 1\n"


class TestSaturate:
    def test_ring_file(self, runner, tmp_path):
        ring = tmp_path / "cone.json"
        ring.write_text(json.dumps(CONE_RING))
        res = invoke(runner, "saturate", "--ring-file", str(ring), "--p", "2",
                     "--z", "y", "--q-list", "2,4,8", "--no-timings")
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["rows"] == [
            {"q": 2, "N_q": 1},
            {"q": 4, "N_q": 2},
            {"q": 8, "N_q": 4},
        ]
        assert payload["max_ratio"] == 0.5

    def test_missing_ring_file(self, runner, tmp_path):
        res = invoke(runner, "saturate", "--ring-file", str(tmp_path / "no.json"),
                     "--p", "2", "--z", "y", "--q-list", "2")
        assert res.exit_code == 2

    def test_malformed_ring_file(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"prime\": 2}")
        res = invoke(runner, "saturate", "--ring-file", str(bad), "--p", "2",
                     "--z", "y", "--q-list", "2")
        assert res.exit_code == 2

    @pytest.mark.parametrize(
        "key, value",
        [
            ("weight", "a"),
            ("weight", None),
            ("weight", 1.5),
            ("weight", True),
            ("weight", 2),
            ("relations", [5]),
            ("ideal", [7]),
            ("minimal_prime", 5),
            ("minimal_prime", "xz"),
            ("minimal_prime", [None]),
        ],
    )
    def test_ill_typed_ring_file_is_input_error(self, runner, tmp_path, key, value):
        data = json.loads(json.dumps(CONE_RING))
        if key == "weight":
            data["variables"][0]["weight"] = value
        else:
            data[key] = value
        ring = tmp_path / "ring.json"
        ring.write_text(json.dumps(data))
        res = invoke(runner, "saturate", "--ring-file", str(ring), "--p", "2",
                     "--z", "y", "--q-list", "2")
        assert res.exit_code == 2
        assert "Traceback" not in res.output

    def test_bad_q_list(self, runner, tmp_path):
        ring = tmp_path / "cone.json"
        ring.write_text(json.dumps(CONE_RING))
        res = invoke(runner, "saturate", "--ring-file", str(ring), "--p", "2",
                     "--z", "y", "--q-list", "two")
        assert res.exit_code == 2


BUDGET_OPTIONS = {"--budget": "2", "--gb-pairs": "1", "--minor-subsets": "1",
                  "--wall-seconds": "1"}


class TestNonFiniteBudgets:
    ARGV = ("hq", "--family", "katzman", "--p", "3", "--q", "9", "--no-timings")

    @pytest.mark.parametrize("option,value,message", [
        ("--budget", "nan", "budget scale must be positive"),
        ("--budget", "inf", "budget scale must be finite"),
        ("--budget", "1e305", "budget scale 1e+305 makes gb_pairs infinite"),
        ("--wall-seconds", "nan", "budget wall_seconds must be positive"),
    ])
    def test_option_is_refused(self, runner, option, value, message):
        res = invoke(runner, *self.ARGV, option, value)
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == f"error: {message}\n"

    @pytest.mark.parametrize("value,message", [
        ("nan", "budget scale must be positive"),
        ("inf", "budget scale must be finite"),
    ])
    def test_environment_scale_is_refused(self, runner, value, message):
        res = runner.invoke(main, list(self.ARGV), env={"FROBGROW_BUDGET_SCALE": value})
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == f"error: {message}\n"


class TestOptionPolicy:
    def test_unbudgeted_commands_refuse_budget_options(self, runner):
        # pseq and verify-lemmas read no budget, so they take no budget option
        argvs = [
            ("pseq", "--p", "3", "--r", "1,t,1", "--n", "2"),
            ("verify-lemmas", "--p", "3", "--r", "1,t,1", "--n", "2"),
        ]
        for argv in argvs:
            for option, value in BUDGET_OPTIONS.items():
                res = invoke(runner, *argv, option, value, "--no-timings")
                assert res.exit_code == 2, (argv[0], option)
                assert res.stdout == ""
                assert "No such option" in res.stderr and option in res.stderr

    def test_only_budgeted_commands_read_the_budget_scale(self, runner):
        env = {"FROBGROW_BUDGET_SCALE": "lots"}
        for argv in (("pseq", "--p", "5", "--r", "1,t,1", "--n", "2"),
                     ("verify-lemmas", "--p", "3", "--r", "1,t,1", "--n", "2")):
            res = runner.invoke(main, [*argv, "--no-timings"], env=env)
            assert res.exit_code == 0, argv[0]
            assert res.stdout == invoke(runner, *argv, "--no-timings").stdout
        res = runner.invoke(main, ["hq", "--family", "katzman", "--p", "2", "--q", "2"],
                            env=env)
        assert res.exit_code == 2
        assert res.stderr == "error: FROBGROW_BUDGET_SCALE must be numeric, got 'lots'\n"

    @pytest.mark.parametrize("name", ["census", "hq", "decompose", "saturate", "witness"])
    def test_budgeted_commands_take_budget_options(self, name):
        # --budget and --wall-seconds everywhere, and the override of each
        # limit the command reads, no other
        reads = {
            "census": {"--minor-subsets"},
            "hq": {"--minor-subsets"},
            "decompose": {"--gb-pairs", "--minor-subsets"},
            "saturate": {"--gb-pairs"},
            "witness": {"--gb-pairs"},
        }[name]
        opts = {o for param in main.commands[name].params for o in param.opts}
        assert opts & set(BUDGET_OPTIONS) == {"--budget", "--wall-seconds"} | reads

    def test_unread_limit_option_is_refused(self, runner):
        res = invoke(runner, "hq", "--family", "katzman", "--p", "2", "--q", "2",
                     "--gb-pairs", "1", "--no-timings")
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "No such option" in res.stderr and "--gb-pairs" in res.stderr


class TestRelationErrors:
    @pytest.mark.parametrize(
        "argv, ring, message",
        [
            (("saturate", "--z", "y", "--q-list", "2"),
             dict(CONE_RING, relations=["x^2+y"]),
             "error: relation not homogeneous: x^2 + y\n"),
            (("saturate", "--z", "y", "--q-list", "2"),
             dict(CONE_RING, relations=["x-x"]),
             "error: zero relation\n"),
            (("hq", "--q", "2"),
             {"prime": 2, "relations": ["t^2+t"], "ideal": ["x", "y"],
              "variables": [{"name": "t", "weight": 0}, {"name": "x", "weight": 1},
                            {"name": "y", "weight": 1}]},
             "error: relation not homogeneous of positive degree: t^2 + t\n"),
            (("saturate", "--z", "y", "--q-list", "3"),
             dict(CONE_RING, prime=3),
             "error: ring file prime 3 differs from --p 2\n"),
        ],
    )
    def test_exit_2_with_message(self, runner, tmp_path, argv, ring, message):
        path = tmp_path / "ring.json"
        path.write_text(json.dumps(ring))
        res = invoke(runner, *argv, "--ring-file", str(path), "--p", "2", "--no-timings")
        assert res.exit_code == 2
        assert res.stdout == "" and res.stderr == message


class TestWitness:
    def test_matches_sequence(self, runner):
        res = invoke(runner, "witness", "--family", "ss5", "--p", "3", "--q", "3",
                     "--no-timings")
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["matches"] and payload["generator"] == "t"

    def test_groebner_method_agrees(self, runner):
        a = invoke(runner, "witness", "--family", "ss5", "--p", "2", "--q", "2",
                   "--method", "module", "--no-timings")
        b = invoke(runner, "witness", "--family", "ss5", "--p", "2", "--q", "2",
                   "--method", "groebner", "--no-timings")
        assert a.exit_code == b.exit_code == 0
        assert json.loads(a.output)["generator"] == json.loads(b.output)["generator"]


def test_cli_import_leaves_numpy_out():
    # frobgrow depends on click alone; loading the CLI must not pull numpy in
    import frobgrow.cli

    src = os.path.dirname(os.path.dirname(os.path.abspath(frobgrow.cli.__file__)))
    code = "import sys, frobgrow.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"
