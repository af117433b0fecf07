import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import exptree
from exptree import triods
from exptree.cli import _build_parser, main, parse_address, parse_itinerary
from exptree.errors import ParseError
from exptree.partition import Plain, PreSingular
from exptree.sequences import canonicalize
from exptree.treebuild import check_tree_invariants, tree_from_json


def run_python(*argv):
    """``python *argv`` in a fresh interpreter that imports this checkout's
    exptree, stopped after 60 s."""
    path = [str(Path(exptree.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def run_cli(*argv):
    """``python -m exptree.cli`` in a fresh interpreter, stopped after 60 s."""
    return run_python("-m", "exptree.cli", *argv)


class TestParsing:
    def test_examples(self):
        assert parse_address("0(1)") == canonicalize([0], [1])
        assert parse_address("0 (0 1)") == canonicalize([0], [0, 1])
        assert parse_address("-2,0(1)") == canonicalize([-2, 0], [1])
        assert parse_address("(1,2)") == canonicalize([], [1, 2])

    def test_canonicalizes(self):
        assert parse_address("1(2,1)") == canonicalize([], [1, 2])

    def test_unbalanced(self):
        with pytest.raises(ParseError):
            parse_address("(1")
        with pytest.raises(ParseError) as exc:
            parse_address("0(1))")
        assert exc.value.offset == 4

    def test_garbage(self):
        for bad in ("", "()", "0", "0(1)x", "0(1)(2)", "(1)2"):
            with pytest.raises(ParseError):
                parse_address(bad)

    @pytest.mark.parametrize("sep", ["\v", "\f", "\xa0", "\u2003", ",\f "])
    def test_every_whitespace_separates(self, sep):
        assert parse_address(f"0{sep}(1{sep}2)") == canonicalize([0], [1, 2])

    @pytest.mark.parametrize("text, offset", [("\u0663(1)", 0), ("0(1,\uff12)", 4)])
    def test_digits_are_ascii_only(self, text, offset):
        # int() reads other scripts' digits, so "\u0663(1)" used to parse as 3(1).
        with pytest.raises(ParseError, match="unexpected character") as exc:
            parse_address(text)
        assert exc.value.offset == offset

    def test_numeral_beyond_int_limit(self):
        with pytest.raises(ParseError) as exc:
            parse_address("0(1," + "7" * 5000 + ")")
        assert exc.value.offset == 4

    def test_itineraries(self):
        assert parse_itinerary("0(1)") == Plain(canonicalize([0], [1]))
        assert parse_itinerary("2,*") == PreSingular((2,))
        assert parse_itinerary("*") == PreSingular(())
        assert parse_itinerary("-1 2 *") == PreSingular((-1, 2))
        with pytest.raises(ParseError):
            parse_itinerary("*,2")


class TestCommands:
    def test_kneading(self, capsys):
        assert main(["kneading", "0(0,1)"]) == 0
        assert capsys.readouterr().out.strip() == "0(0,1)"

    def test_kneading_periodic_base(self, capsys):
        assert main(["kneading", "(1)"]) == 3
        assert capsys.readouterr().out.strip() == "PeriodicBase"

    def test_parse_error_exit(self, capsys):
        assert main(["kneading", "(1"]) == 2
        assert capsys.readouterr().out.strip() == "ParseError"

    def test_itinerary(self, capsys):
        assert main(["itinerary", "--base", "0(1)", "2,3,0(1)"]) == 0
        assert capsys.readouterr().out.strip() == "2,*"

    def test_same_map_exit_codes(self, capsys):
        assert main(["same-map", "0(1)", "0(1)"]) == 0
        assert capsys.readouterr().out.strip() == "true"
        assert main(["same-map", "0(1)", "0,2(1)"]) == 1
        assert capsys.readouterr().out.strip() == "false"

    def test_module_exit_codes(self):
        # The process exit code is what main returns.
        done = run_cli("kneading", "0(1)")
        assert (done.returncode, done.stdout) == (0, "0(1)\n"), done.stderr
        done = run_cli("same-map", "0(1)", "0(2)")
        assert (done.returncode, done.stdout) == (1, "false\n"), done.stderr

    def test_only_verify_loads_the_suites(self):
        code = (
            "import sys\n"
            "from exptree.cli import main\n"
            "assert main(['kneading', '0(1)']) == 0\n"
            "assert 'exptree.verify' not in sys.modules, 'exptree.verify was imported'\n"
            "assert main(['verify', '--count', '1']) == 0\n"
            "assert 'exptree.verify' in sys.modules\n"
        )
        done = run_python("-c", code)
        assert (done.returncode, done.stdout.splitlines()[0]) == (0, "0(1)"), done.stderr

    def test_tree_json(self, capsys):
        assert main(["tree", "0(1)", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["vertices"]) == 3
        assert doc["kneading"] == "0(1)"
        tree = tree_from_json(json.dumps(doc))
        check_tree_invariants(tree)

    def test_tree_check_flag(self, capsys):
        assert main(["tree", "0(0,1)", "--check"]) == 0
        out = capsys.readouterr()
        assert "check: ok" in out.err
        json.loads(out.out)

    def test_tree_indent(self, capsys):
        assert main(["tree", "0(0,1)", "--indent", "2"]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        assert out.startswith('{\n  "base": "0(0,1)",\n')

    def test_tree_dot(self, capsys):
        assert main(["tree", "0(0,1)", "--format", "dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    @pytest.mark.parametrize("base", ["0(0,1000000000)", "0(1000000000,0,2)"])
    def test_large_entries(self, base, capsys):
        # The build's work does not grow with the size of an entry.
        assert main(["tree", base]) == 0
        assert json.loads(capsys.readouterr().out)["base"] == base
        assert main(["entropy", base]) == 0
        float(capsys.readouterr().out)

    def test_entropy_format(self, capsys):
        assert main(["entropy", "0(1)"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "0.693147181"

    @pytest.mark.parametrize(
        "base, printed",
        [
            # True entropies 0.45914459149988663... and 0.68755696550002893...:
            # each lies within 1e-12 of a rounding boundary of the ninth decimal.
            ("0,0(1,1,0,1,1,0,0,0,1,0,1,1,0,1,1,1)", "0.459144591"),
            ("0(1,1,1,1,1,1,1,0,0,1,1,0,0,0,0,0,0,0,0,0,1,0,0,0,1)", "0.687556966"),
        ],
    )
    def test_entropy_prints_decided_digits_near_a_rounding_boundary(
        self, capsys, base, printed
    ):
        assert main(["entropy", base]) == 0
        assert capsys.readouterr().out.strip() == printed

    @pytest.mark.parametrize(
        "tol, printed", [(1e-6, "0.459144591"), (1e-3, "0.4591446"), (1.0, "0.459"), (1e3, "0")]
    )
    def test_entropy_with_a_coarse_tolerance_prints_fewer_digits(self, capsys, tol, printed):
        assert main(["entropy", "0,0(1,1,0,1,1,0,0,0,1,0,1,1,0,1,1,1)", "--tol", str(tol)]) == 0
        assert capsys.readouterr().out.strip() == printed

    def test_addresses_of(self, capsys):
        assert main(["addresses-of", "--base", "0(0,1)", "(0)"]) == 0
        lines = capsys.readouterr().out.split()
        assert lines == ["(0,0,1)", "(0,1,0)", "(1,0,0)"]

    def test_addresses_of_bound_exceeded_exit_code(self, capsys):
        rc = main(["addresses-of", "--base", "0(0,1)", "(0)", "--m-max", "2"])
        assert rc == 4
        assert capsys.readouterr().out.strip() == "RealizationBoundExceeded"

    def test_addresses_of_default_bound_comes_from_the_base(self, capsys):
        # Over 0((1,0,0)^21,2) the fixed itinerary (0) needs multiplier 65.
        base = "0(" + ",".join(["1,0,0"] * 21) + ",2)"
        assert main(["addresses-of", "--base", base, "(0)"]) == 0
        lines = capsys.readouterr().out.split()
        assert len(lines) == 65
        assert {len(parse_address(a).period) for a in lines} == {65}

    def test_addresses_of_presingular_needs_range(self, capsys):
        assert main(["addresses-of", "--base", "0(1)", "*"]) == 3
        assert capsys.readouterr().out.strip() == "EmptyRange"
        assert main(["addresses-of", "--base", "0(1)", "*", "--m-range", "-1", "1"]) == 0
        lines = capsys.readouterr().out.split()
        assert lines == ["-1,0(1)", "0,0(1)", "1,0(1)"]

    def test_separate(self, capsys):
        rc = main(["separate", "--base", "0(0,1)", "0(0,1)", "(0,1)", "(1,0)"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "shape: branched" in out
        assert "gap 1: (0,1,0)" in out
        assert "gap 2: (1,0,0)" in out
        assert "gap 3: (0,0,1)" in out

    def test_triod(self, capsys):
        rc = main(["triod", "--base", "0(0,1)", "*", "0(0,1)", "(0,1)"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "middle: (0)" in out and "shape: branched" in out

    def test_triod_walks_the_map_once(self, capsys, monkeypatch):
        walks = []

        class CountingMap(triods._TriodMap):
            def __init__(self, P):
                walks.append(P)
                super().__init__(P)

        monkeypatch.setattr(triods, "_TriodMap", CountingMap)
        rc = main(["triod", "--base", "0(0,1)", "(0,1)", "(1,0)", "(0,0,1)"])
        assert rc == 0 and len(walks) == 1
        assert capsys.readouterr().out == "middle: (0)\nshape: branched\n"
        # Itineraries 0(1), (1) and 2(1) start with three different
        # symbols: the stop case, answered without a map.
        walks.clear()
        rc = main(["triod", "--base", "0(1)", "0(1)", "(1)", "2(1)"])
        assert rc == 0 and walks == []
        assert capsys.readouterr().out == "middle: *\nshape: presingular-branched\n"

    @pytest.mark.parametrize(
        "args, code, out",
        [
            (["kneading", "0\v(1)"], 0, "0(1)"),
            (["kneading", "0\f(1)"], 0, "0(1)"),
            (["kneading", "0\xa0(1)"], 0, "0(1)"),
            (["kneading", "0(" + "1" * 4301 + ")"], 2, "ParseError"),
            (["entropy", "0(1)", "--tol", "-1"], 2, ""),
            (["entropy", "0(1)", "--tol", "0"], 2, ""),
            (["triod", "--base", "0(0,1)", "1,0(0,1)", "(0,1)", "(1,0)"], 3, "NotFormal"),
            # Distinct members out of positive cyclic order.
            (["separate", "--base", "0,-2(-1,0)", "(1)", "(0)", "(-1)"], 3, "NotCyclicallyOrdered"),
            (["entropy", "0(1)", "--tol", "nan"], 2, ""),
            (["addresses-of", "--base", "0(1)", "--m-max", "0", "(1)"], 2, ""),
            (["addresses-of", "--base", "0(1)", "--m-max", "-2", "(1)"], 2, ""),
        ],
    )
    def test_bad_input_exit_codes(self, args, code, out, capsys):
        assert main(args) == code
        assert capsys.readouterr().out.strip() == out

    def test_usage_error(self, capsys):
        assert main(["tree"]) == 2
        assert main(["no-such-command"]) == 2

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize(
        "option", ["--count", "--max-preperiod", "--max-period", "--entry-range"]
    )
    def test_verify_rejects_non_positive_options(self, option, value, capsys):
        # Parse only: --entry-range 0 used to hang in random_base.
        with pytest.raises(SystemExit) as exc:
            _build_parser().parse_args(["verify", option, value])
        assert exc.value.code == 2
        assert "must be positive" in capsys.readouterr().err

    def test_verify_single_base_finishes(self):
        # One base has no partner of a different map for the cross checks.
        done = run_cli("verify", "--count", "1")
        assert done.returncode == 0, done.stderr
        assert "classification: ok" in done.stdout

    def test_verify_with_too_few_bases_exits_2(self):
        # Only 0(1) and 0(-1) fit these options, so no third base can be drawn.
        options = ["--entry-range", "1", "--max-preperiod", "1", "--max-period", "1"]
        done = run_cli("verify", *options, "--count", "3")
        assert done.returncode == 2
        assert done.stdout == ""
        assert "only 2 distinct bases" in done.stderr

    def test_verify_with_too_few_bases_returns_2_in_process(self, capsys):
        options = ["--entry-range", "1", "--max-preperiod", "1", "--max-period", "1"]
        assert main(["verify", *options, "--count", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "only 2 distinct bases" in err

    def test_verify_deterministic(self, capsys):
        args = ["verify", "--count", "4", "--seed", "11"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert "classification: ok" in first
