import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import wqlat
from wqlat.cli import main
from wqlat.order import LETTER_CAP
from wqlat.presets import ACCEPTANCE_PRESETS

from conftest import ball_of, pres_of


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestElementVerbs:
    def test_nf(self, capsys):
        code, out, _ = run(capsys, "nf", "bs:2,3", "b^3 a")
        assert code == 0 and "a b^2" in out

    def test_nf_identity_token(self, capsys):
        code, out, _ = run(capsys, "nf", "free:2", "e")
        assert code == 0 and '"e"' in out

    def test_zero_exponent_parses(self, capsys):
        code, out, _ = run(capsys, "nf", "free:2", "b^0 a")
        assert code == 0 and '"a"' in out

    def test_pos_with_witness(self, capsys):
        code, out, _ = run(capsys, "pos", "bs:2,-3", "a b^-7")
        assert code == 0 and "true" in out and "witness" in out

    @pytest.mark.parametrize(
        "name,element",
        [
            ("free:2", "a b a"),
            ("scarparo", "b a^2"),
            ("bs:2,3", "b a b^2"),
            ("bs:2,-3", "a b^-1"),
            ("hnn+:x,y@x,y", "x t y t x"),
            ("hnn-:x,y@x,y", "t x t y"),
        ],
    )
    def test_pos_witness_parses_back(self, capsys, name, element):
        code, out, _ = run(capsys, "pos", name, element, "--json")
        finding = json.loads(out)["findings"][0]
        pres = pres_of(name)
        assert code == 0 and finding["positive"]
        assert pres.parse(finding["witness"]) == pres.parse(element)

    def test_leq(self, capsys):
        code, out, _ = run(capsys, "leq", "bs:2,-3", "a b^-3 a^-1", "b^3 a")
        assert code == 0 and "true" in out

    def test_join_infinite(self, capsys):
        code, out, _ = run(capsys, "join", "bs:2,-3", "b a", "b^2 a")
        assert code == 0 and "infinite" in out

    def test_join_hnn_plus_unequal_heights_is_decided(self, capsys):
        # The closed form decides what a bounded search left inconclusive.
        code, out, _ = run(capsys, "join", "hnn+:x,y@x,y", "y", "t", "--json")
        report = json.loads(out)
        assert code == 0 and report["verdict"] == "pass"
        assert report["findings"] == [{"join": "infinite"}]

    def test_join_with_oracle_cross_check(self, capsys):
        code, out, _ = run(capsys, "join", "bs:1,2", "a", "b", "--oracle", "--radius", "6")
        assert code == 0
        assert out.count("finite a b") == 2

    def test_join_decided_by_oracle_builds_one_ball(self, capsys, monkeypatch):
        # sd:nonexample has no structural join, so the oracle decides a v ab
        # and there is no separate cross-check to report.
        import wqlat.cli as cli
        from wqlat.semidirect import SemidirectProduct

        calls = {"ball": 0, "oracle": 0}
        build, oracle = SemidirectProduct.enumerate_ball, cli.oracle_join

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(SemidirectProduct, "enumerate_ball", counted("ball", build))
        monkeypatch.setattr(cli, "oracle_join", counted("oracle", oracle))
        code, out, _ = run(capsys, "join", "sd:nonexample", "a", "a b", "--oracle", "--radius", "4", "--json")
        assert code == 0 and calls == {"ball": 1, "oracle": 1}
        assert json.loads(out)["findings"] == [{"join": "finite a b"}]

    def test_join_oracle_fallback_inconclusive(self, capsys):
        code, out, _ = run(capsys, "join", "sd:nonexample", "a", "b", "--radius", "3")
        assert code == 3


class TestScanVerbs:
    def test_ball(self, capsys):
        code, out, _ = run(capsys, "ball", "scarparo", "--radius", "2", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["findings"][0]["size"] == 4

    def test_check_wql_clean(self, capsys):
        code, _, _ = run(capsys, "check-wql", "free:2", "--radius", "4")
        assert code == 0

    def test_check_wql_violation(self, capsys):
        code, out, _ = run(capsys, "check-wql", "sd:nonexample", "--radius", "4", "--json")
        assert code == 2
        report = json.loads(out)
        assert report["verdict"] == "violation"
        assert any(f["pair"] == ["a b s", "a s^2"] for f in report["findings"])

    def test_check_controlled_sigma(self, capsys):
        code, _, _ = run(capsys, "check-controlled", "bs:2,3", "--radius", "4")
        assert code == 0

    def test_check_controlled_lambda(self, capsys):
        code, _, _ = run(capsys, "check-controlled", "bs:2,-3", "--radius", "4", "--chain-depth", "6")
        assert code == 0

    def test_check_controlled_negative_control(self, capsys):
        code, out, _ = run(capsys, "check-controlled", "bs:1,-1", "--mode", "sigma", "--radius", "4", "--json")
        assert code == 2
        report = json.loads(out)
        assert any("sigma_coverage_failures" in f for f in report["findings"])

    def test_nica_verify(self, capsys):
        code, _, _ = run(capsys, "nica-verify", "free:2", "--radius", "4", "--safe-radius", "2")
        assert code == 0

    def test_nica_verify_sampled(self, capsys):
        code, _, _ = run(
            capsys, "nica-verify", "bs:1,2", "--radius", "5", "--safe-radius", "2",
            "--pairs", "sample:20", "--seed", "7",
        )
        assert code == 0

    def test_nica_verify_truncation_is_inconclusive(self, capsys):
        # At radius 6 some adjoints of bs:2,-3 shifts escape the ball; the
        # verb must refuse to certify rather than report a clean pass.
        code, _, _ = run(capsys, "nica-verify", "bs:2,-3", "--radius", "6", "--safe-radius", "3")
        assert code == 3
        code, _, _ = run(
            capsys, "nica-verify", "bs:2,-3", "--radius", "8", "--max-radius", "8", "--safe-radius", "3"
        )
        assert code == 0

    @pytest.mark.parametrize(
        "argv, undecided",
        [
            (("hnn-:x,y@x,y", "--radius", "3", "--safe-radius", "2"), [{"truncated": 25}]),
            (("bs:2,-3", "--radius", "6", "--safe-radius", "3", "--seed", "7"), [{"truncated": 29}]),
            (("sd:nonexample", "--radius", "3", "--safe-radius", "1"), [{"join_inconclusive": 16}]),
            (("bs:2,-3", "--radius", "8", "--max-radius", "8", "--safe-radius", "3"), []),
        ],
    )
    def test_nica_verify_counts_its_undecided_pairs(self, capsys, argv, undecided):
        # Truncated and join-inconclusive pairs are counted apart, one finding
        # per nonzero count, and only they make the verdict inconclusive.
        code, out, _ = run(capsys, "nica-verify", *argv, "--json")
        report = json.loads(out)
        assert report["findings"] == undecided
        assert (code, report["verdict"]) == ((3, "inconclusive") if undecided else (0, "pass"))

    def test_demo_chain_pass(self, capsys):
        code, _, _ = run(capsys, "demo-chain", "bs:2,-3", "--n", "4")
        assert code == 0

    def test_demo_chain_refused_before_its_chain(self, capsys, monkeypatch):
        # The element cap refuses the radius-6000 ball before any of the 6001
        # chain words (up to 18 000 letters each) is built.
        from wqlat.baumslag import BaumslagSolitar

        def unreachable(self, n):
            raise AssertionError("chain built before the ball")

        monkeypatch.setattr(BaumslagSolitar, "chain_element", unreachable)
        code, out, err = run(capsys, "demo-chain", "bs:2,-3", "--n", "6000")
        assert code == 64 and out == ""
        assert err == "wqlat: error: ball of radius 6000 exceeds 8192 elements\n"

    def test_demo_chain_refuses_a_negative_n(self, capsys):
        code, out, err = run(capsys, "demo-chain", "bs:2,-3", "--n", "-1")
        assert code == 64 and out == ""
        assert err == "wqlat: error: --n must be nonnegative, got -1\n"

    def test_demo_chain_divisible_case(self, capsys):
        code, out, _ = run(capsys, "demo-chain", "bs:1,-1", "--n", "4")
        assert code == 2 and "interpolants" in out

    def test_op_export(self, capsys):
        code, out, _ = run(capsys, "op", "free:2", "a", "--radius", "1", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["findings"][0]["basis"] == ["e", "a", "b"]
        assert report["findings"][0]["rows"] == [[0, 0, 0], [1, 0, 0], [0, 0, 0]]

    def test_op_rows_match_products(self, capsys):
        code, out, _ = run(capsys, "op", "hnn-:x,y@x,y", "x", "--radius", "2", "--json")
        assert code == 0
        (finding,) = json.loads(out)["findings"]
        pres = pres_of("hnn-:x,y@x,y")
        ball = ball_of("hnn-:x,y@x,y", 2)
        x = pres.parse("x")
        assert finding["basis"] == [pres.canonical_str(p) for p in ball]
        want = [[0] * len(ball) for _ in ball]
        for i, p in enumerate(ball.elements):
            j = ball.index.get(pres.mul(x, p))
            if j is not None:
                want[j][i] = 1
        assert finding["rows"] == want


class TestReports:
    def test_json_determinism(self, capsys):
        argv = ["check-wql", "sd:nonexample", "--radius", "4", "--json"]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_findings_sorted(self, capsys):
        _, out, _ = run(capsys, "check-wql", "sd:nonexample", "--radius", "4", "--json")
        findings = json.loads(out)["findings"]
        assert findings == sorted(findings, key=lambda f: (f["pair"], f["upper_bounds"]))


    def test_closed_stdout_exits_1_without_a_traceback(self):
        # The read end is closed before the child starts, so its first write fails.
        read, write = os.pipe()
        os.close(read)
        env = dict(os.environ, PYTHONPATH=str(Path(wqlat.__file__).parents[1]))
        argv = ["join", "graph:path3", "[v0: a] [v1: a]", "[v1: a^2]", "--json"]
        try:
            done = subprocess.run([sys.executable, "-m", "wqlat.cli", *argv], stdout=write, stderr=subprocess.PIPE, env=env)
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (1, b"")


class TestUsageErrors:
    def test_unknown_preset(self, capsys):
        code, _, err = run(capsys, "nf", "nosuch:9", "e")
        assert code == 64 and "unknown preset" in err

    def test_unknown_generator(self, capsys):
        code, _, err = run(capsys, "nf", "free:2", "q^2")
        assert code == 64 and "unknown generator" in err

    def test_malformed_exponent(self, capsys):
        code, _, err = run(capsys, "nf", "free:2", "a^x")
        assert code == 64

    @pytest.mark.parametrize("preset", ["free:2", "free:1", "bs:2,3", "sd:nonexample"])
    @pytest.mark.parametrize("token", ["a^+3", "a^1_000", "a^\u0663"])
    def test_exponent_that_is_not_ascii_digits(self, capsys, preset, token):
        code, out, err = run(capsys, "nf", preset, token)
        assert code == 64 and out == ""
        assert err == f"wqlat: error: malformed exponent in token {token!r}\n"

    @pytest.mark.parametrize("power", [15, 40])
    def test_image_over_the_letter_cap(self, capsys, power):
        # phi^k(a) on the nonexample grows about 2.6x per power; the 15th
        # image is the first past the cap, and no later power is computed.
        start = time.perf_counter()
        code, out, err = run(capsys, "nf", "sd:nonexample", f"s^{power} a", "--json")
        assert time.perf_counter() - start < 30
        assert code == 64 and out == ""
        assert err == f"wqlat: error: word of 1346269 letters exceeds {LETTER_CAP}\n"

    @pytest.mark.parametrize("preset,element", [("free:2", "a^99999999999999999999999"), ("free:1", "a^99999999999999999999999"),
                                                ("graph:path3", "[v1: a^-70000]"), ("sd:perm3", "a^70000 s")])
    def test_exponent_over_the_cap(self, capsys, preset, element):
        code, out, err = run(capsys, "nf", preset, element)
        assert code == 64 and out == ""
        assert err.startswith("wqlat: error: exponent in token") and err.endswith(" exceeds 65536\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "preset,element,token",
        [("free:2", "a^", "a^"), ("bs:2,3", "b^ a^", "b^"), ("graph:path3", "[v0: a^]", "a^"), ("sd:phi-ab", "s^", "s^")],
    )
    def test_empty_exponent(self, capsys, preset, element, token):
        code, out, err = run(capsys, "nf", preset, element)
        assert code == 64 and out == ""
        assert err == f"wqlat: error: malformed exponent in token {token!r}\n"

    def test_free_generators_skip_the_identity_token(self, capsys):
        code, out, _ = run(capsys, "ball", "free:5", "--radius", "1", "--json")
        assert code == 0
        assert json.loads(out)["findings"][0]["elements"] == ["e", "a", "b", "c", "d", "f"]
        code, out, _ = run(capsys, "nf", "free:5", "f", "--json")
        assert code == 0 and json.loads(out)["findings"] == [{"canonical": "f"}]
        assert run(capsys, "nf", "free:25", "z")[0] == 0
        code, out, err = run(capsys, "nf", "free:26", "a")
        assert code == 64 and out == ""
        assert err == "wqlat: error: at most 25 named generators supported\n"

    @pytest.mark.parametrize("preset", ["hnn+:x,t@x,t", "hnn+:x,y@x,y,x", "hnn-:x,e@x,e"])
    def test_hnn_alphabet_reserved_or_repeated(self, capsys, preset):
        code, out, err = run(capsys, "ball", preset, "--radius", "1")
        assert code == 64 and out == ""
        assert err.startswith("wqlat: error: hnn preset alphabet") and err.count("\n") == 1

    def test_unknown_verb(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 64

    def test_radius_cap(self, capsys):
        code, _, err = run(capsys, "ball", "free:2", "--radius", "9")
        assert code == 64 and "exceeds cap" in err
        code, _, _ = run(capsys, "ball", "free:2", "--radius", "7", "--max-radius", "7")
        assert code == 0

    def test_element_cap(self, capsys):
        # 88 573 elements uncapped; the enumeration stops at the 8193rd.
        code, out, err = run(capsys, "ball", "free:3", "--radius", "10", "--max-radius", "10")
        assert code == 64 and out == ""
        assert err == "wqlat: error: ball of radius 10 exceeds 8192 elements\n"

    def test_element_cap_of_a_huge_scarparo_radius(self, capsys):
        # The scarparo ball has 2**radius elements; the cap is checked
        # without taking that power, so a radius of 10**18 is refused at once.
        huge = str(10**18)
        code, out, err = run(capsys, "ball", "scarparo", "--radius", huge, "--max-radius", huge)
        assert code == 64 and out == ""
        assert err == f"wqlat: error: ball of radius {huge} exceeds 8192 elements\n"

    def test_op_non_positive(self, capsys):
        code, out, err = run(capsys, "op", "free:2", "a^-1")
        assert code == 64 and out == ""
        assert err == "wqlat: error: element a^-1 is not positive\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("nica-verify", "free:2", "--radius", "3", "--pairs", "sample:x"),
            ("nica-verify", "free:2", "--radius", "3", "--pairs", "sample:-1"),
            ("nica-verify", "free:2", "--radius", "3", "--pairs", "bogus"),
            ("nica-verify", "free:2", "--radius", "3", "--safe-radius", "-1"),
            ("check-controlled", "bs:2,-3", "--radius", "3", "--chain-depth", "-1"),
            ("check-controlled", "free:2", "--radius", "3", "--mode", "sigma", "--chain-depth", "-1"),
            ("check-controlled", "hnn-:x,y@x,y", "--radius", "2", "--chain-depth", "1025"),
            ("nf", "hnn+:x,xx@x,y", "x t^21"),
            ("nf", "bs:2,1", "b a^21"),
            ("nf", "bs:1,2", "b a^-15000"),
            ("pos", "bs:2,1", "b a^30"),
            ("demo-chain", "free:2"),
            ("nf", "bs:2,0", "a"),
        ],
    )
    def test_one_line_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 64 and out == ""
        assert err.startswith("wqlat: error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "content",
        ["{not json", '{"edges": []}', '{"vertices": ["free:1", "free:1"], "edges": [[0]]}', "[]"],
        ids=["not-json", "no-vertices", "bad-edge", "not-an-object"],
    )
    def test_bad_graph_file(self, capsys, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_text(content)
        code, out, err = run(capsys, "nf", f"graph:{path}", "e")
        assert code == 64 and out == ""
        assert err.startswith("wqlat: error: graph file bad.json") and err.count("\n") == 1


    @pytest.mark.parametrize("cycle", ["direct", "two-file"])
    def test_graph_file_cycle(self, capsys, tmp_path, cycle):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        if cycle == "direct":
            first.write_text(json.dumps({"vertices": ["free:1", f"graph:{first}"], "edges": []}))
        else:
            first.write_text(json.dumps({"vertices": [f"graph:{second}"], "edges": []}))
            second.write_text(json.dumps({"vertices": ["free:1", f"graph:{first}"], "edges": [[0, 1]]}))
        code, out, err = run(capsys, "nf", f"graph:{first}", "e")
        assert code == 64 and out == ""
        assert err == "wqlat: error: graph file first.json names itself through its vertices\n"

    def test_nested_graph_file(self, capsys, tmp_path):
        # A file named twice, with no cycle, is read, not refused.
        inner, outer = tmp_path / "inner.json", tmp_path / "outer.json"
        inner.write_text(json.dumps({"vertices": ["free:1", "free:1"], "edges": [[0, 1]]}))
        outer.write_text(json.dumps({"vertices": [f"graph:{inner}", f"graph:{inner}", "free:2"], "edges": []}))
        code, out, _ = run(capsys, "ball", f"graph:{outer}", "--radius", "1", "--json")
        assert code == 0
        assert json.loads(out)["findings"] == [
            {
                "size": 7,
                "elements": ["e", "[v0: [v0: a]]", "[v0: [v1: a]]", "[v1: [v0: a]]", "[v1: [v1: a]]", "[v2: a]", "[v2: b]"],
            }
        ]


# (verb, option strings, dest, default, type, choices) of every subparser
# action but -h: the verbs, options and defaults users and scripts rely on.
GRAMMAR = {
    ("ball", ("--json",), "json", False, None, None),
    ("ball", ("--max-radius",), "max_radius", 6, "int", None),
    ("ball", ("--radius",), "radius", 4, "int", None),
    ("ball", (), "preset", None, None, None),
    ("check-controlled", ("--chain-depth",), "chain_depth", 6, "int", None),
    ("check-controlled", ("--json",), "json", False, None, None),
    ("check-controlled", ("--max-radius",), "max_radius", 6, "int", None),
    ("check-controlled", ("--mode",), "mode", None, None, ("sigma", "lambda")),
    ("check-controlled", ("--radius",), "radius", 4, "int", None),
    ("check-controlled", (), "preset", None, None, None),
    ("check-wql", ("--json",), "json", False, None, None),
    ("check-wql", ("--max-radius",), "max_radius", 6, "int", None),
    ("check-wql", ("--radius",), "radius", 5, "int", None),
    ("check-wql", (), "preset", None, None, None),
    ("demo-chain", ("--json",), "json", False, None, None),
    ("demo-chain", ("--n",), "n", 4, "int", None),
    ("demo-chain", (), "preset", None, None, None),
    ("join", ("--json",), "json", False, None, None),
    ("join", ("--max-radius",), "max_radius", 6, "int", None),
    ("join", ("--oracle",), "oracle", False, None, None),
    ("join", ("--radius",), "radius", 4, "int", None),
    ("join", (), "preset", None, None, None),
    ("join", (), "x", None, None, None),
    ("join", (), "y", None, None, None),
    ("leq", ("--json",), "json", False, None, None),
    ("leq", (), "preset", None, None, None),
    ("leq", (), "x", None, None, None),
    ("leq", (), "y", None, None, None),
    ("nf", ("--json",), "json", False, None, None),
    ("nf", (), "element", None, None, None),
    ("nf", (), "preset", None, None, None),
    ("nica-verify", ("--json",), "json", False, None, None),
    ("nica-verify", ("--max-radius",), "max_radius", 6, "int", None),
    ("nica-verify", ("--pairs",), "pairs", "all", None, None),
    ("nica-verify", ("--radius",), "radius", 6, "int", None),
    ("nica-verify", ("--safe-radius",), "safe_radius", 3, "int", None),
    ("nica-verify", ("--seed",), "seed", 0, "int", None),
    ("nica-verify", (), "preset", None, None, None),
    ("op", ("--json",), "json", False, None, None),
    ("op", ("--max-radius",), "max_radius", 6, "int", None),
    ("op", ("--radius",), "radius", 3, "int", None),
    ("op", (), "element", None, None, None),
    ("op", (), "preset", None, None, None),
    ("pos", ("--json",), "json", False, None, None),
    ("pos", (), "element", None, None, None),
    ("pos", (), "preset", None, None, None),
}


class TestGrammar:
    def test_grammar_is_pinned(self):
        import argparse

        from wqlat.cli import build_parser

        (verbs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        got = {
            (verb, tuple(a.option_strings), a.dest, a.default, a.type and a.type.__name__, a.choices and tuple(a.choices))
            for verb, sub in verbs.choices.items()
            for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
        }
        assert got == GRAMMAR

    def test_grammar_built_once(self, capsys, monkeypatch):
        import wqlat.cli as cli

        builds = []
        init = cli.Parser.__init__

        def counted(self, *args, **kwargs):
            if kwargs.get("prog") == "wqlat":
                builds.append(kwargs)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli.Parser, "__init__", counted)
        for argv in (["nf", "free:2", "a b"], ["ball", "free:2", "--radius", "1"], ["leq", "free:2", "a", "a b"]):
            assert run(capsys, *argv)[0] == 0
        assert len(builds) <= 1

    def test_reused_parser_leaks_no_state(self, capsys):
        # One process, then a fresh process per call: the same bytes.  The
        # second call omits --mode, so bs:2,-3 must fall back to lambda.
        calls = [
            ("check-controlled", "bs:2,-3", "--radius", "3", "--mode", "sigma", "--json"),
            ("check-controlled", "bs:2,-3", "--radius", "3", "--json"),
            ("ball", "scarparo", "--radius", "2"),
        ]
        in_process = [run(capsys, *argv) for argv in calls]
        env = dict(os.environ, PYTHONPATH=str(Path(wqlat.__file__).parents[1]))
        script = "import sys; from wqlat.cli import main; sys.exit(main(sys.argv[1:]))"
        fresh = []
        for argv in calls:
            done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env)
            fresh.append((done.returncode, done.stdout, done.stderr))
        assert in_process == fresh
        assert [json.loads(out)["parameters"]["mode"] for _, out, _ in fresh[:2]] == ["sigma", "lambda"]


class TestParseRoundTrips:
    def test_all_presets(self):
        for name in ACCEPTANCE_PRESETS + ("hnn+:x,y@x,y", "sd:perm3", "sd:nonexample", "graph:complete2"):
            pres = pres_of(name)
            for x in ball_of(name, 3):
                assert pres.parse(pres.canonical_str(x)) == x, name
