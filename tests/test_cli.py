import dataclasses
import json
import resource
import subprocess
import sys
import time

from hypothesis import given, settings, strategies as st

from jsbaf import naive, postulates, textio
from jsbaf.cli import main
from jsbaf.formulas import MAX_FORMULA_DEPTH
from jsbaf.system import validate_system

from conftest import INSTANCES
from test_framework import _count_framework_work


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "jsbaf.cli", *argv],
        capture_output=True,
        text=True,
    )
    return proc


class TestSolve:
    def test_admissible_on_example(self, capsys):
        code = main(["solve", str(INSTANCES / "j1.jsbaf"), "--semantics", "admissible"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("3\n")
        assert out.count(" IN") >= 3

    def test_preferred_on_example(self, capsys):
        code = main(["solve", str(INSTANCES / "j1.jsbaf"), "--semantics", "preferred"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("2\n")

    def test_grounded_with_oracle(self, capsys):
        code = main(["solve", str(INSTANCES / "j3.jsbaf"), "--semantics", "grounded", "--oracle"])
        out = capsys.readouterr().out
        assert code == 0
        assert "A2 IN" in out and "B OUT" in out

    def test_grounded_builds_one_engine(self, capsys, monkeypatch):
        # a framework file and a translation are ranked: grounded semantics
        # build the rank-free engine alone, not the ranked one and its twin
        calls = _count_framework_work(monkeypatch)
        for name in ("j1.jsbaf", "as1.as"):
            calls["engine"] = 0
            assert main(["solve", str(INSTANCES / name), "--semantics", "grounded"]) == 0
            assert calls["engine"] == 1, name
        capsys.readouterr()

    def test_oracle_mode_on_admissible(self, capsys, monkeypatch):
        argv = ["solve", str(INSTANCES / "j1.jsbaf"), "--semantics", "admissible", "--oracle"]
        assert main(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(naive, "naive_enumerate_admissible", lambda framework: [])
        assert main(argv) == 3
        assert capsys.readouterr() == ("", "error: oracle mismatch: naive enumeration disagrees with the engine\n")

    def test_emit_jsbaf(self, capsys):
        code = main(["solve", str(INSTANCES / "as1.as"), "--emit-jsbaf"])
        out = capsys.readouterr().out
        assert code == 0
        assert "att " in out and "sup " in out
        assert "conclusions:" in out

    def test_conclusion_sets_have_no_repeats(self, tmp_path, capsys):
        # two IN arguments conclude p: the set is {p}
        path = tmp_path / "twice.as"
        path.write_text("atom p\naxiom p\ndefeasible d1[0]: => p\n")
        assert main(["solve", str(path)]) == 0
        assert capsys.readouterr().out == "1\na000 IN\na001 IN\n\nconclusions:\n{p}\n"

    def test_json_format(self, capsys):
        code = main(["solve", str(INSTANCES / "j1.jsbaf"), "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert len(payload["payload"]["labelings"]) == 2


class TestValidate:
    def test_valid_instance(self, capsys):
        assert main(["validate", str(INSTANCES / "as1.as")]) == 0

    def test_missing_path_is_usage_error(self, capsys):
        assert main(["validate"]) == 3

    def test_long_support_chain(self, tmp_path, capsys):
        chain = tmp_path / "chain.jsbaf"
        n = 3000
        chain.write_text(
            "".join(f"arg x{i}\n" for i in range(n))
            + "".join(f"sup x{i + 1} <- x{i}\n" for i in range(n - 1))
        )
        assert main(["validate", str(chain)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "valid"


class TestTranslate:
    def test_translation_parses_back(self, capsys, tmp_path):
        code = main(["translate", str(INSTANCES / "as1.as")])
        out = capsys.readouterr().out
        assert code == 0
        body = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
        framework = textio.parse_framework_text(body)
        assert len(framework.args) == 6

    def test_json_digest_is_the_input_files(self, capsys):
        path = INSTANCES / "as1.as"
        assert main(["translate", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["instance_digest"] == textio.instance_digest(path.read_text(encoding="utf-8"))


class TestPostulates:
    def test_single_system(self, capsys):
        code = main(["postulates", str(INSTANCES / "as1.as")])
        out = capsys.readouterr().out
        assert code == 0
        assert "closure: pass" in out
        assert "direct_consistency: pass" in out

    def test_pair(self, capsys):
        code = main(
            ["postulates", str(INSTANCES / "as1.as"), "--against", str(INSTANCES / "as_u.as")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "non_interference: pass" in out

    def test_pair_with_a_rule_named_like_a_cross_rule(self, tmp_path, capsys):
        # the generated cross rules take no id that a side already uses
        left, right = tmp_path / "l.as", tmp_path / "r.as"
        left.write_text("atom p\ndefeasible x0: => p\n")
        right.write_text("atom q\ndefeasible d2: => q\n")
        assert main(["postulates", str(left), "--against", str(right)]) == 0
        assert capsys.readouterr() == (
            "closure: pass\ndirect_consistency: pass\nindirect_consistency: pass\nnon_interference: pass\n", ""
        )

    def test_failing_pair_is_1(self, tmp_path, capsys):
        left, right = tmp_path / "left.as", tmp_path / "right.as"
        left.write_text(NON_INTERFERENCE_LEFT)
        right.write_text(NON_INTERFERENCE_RIGHT)
        assert main(["postulates", str(left), "--against", str(right)]) == 1
        reports = capsys.readouterr().out.splitlines()
        assert reports[:3] == ["closure: pass", "direct_consistency: pass", "indirect_consistency: pass"]
        assert reports[3].startswith("non_interference: fail ")


def _closure_fails_with_a_defeasible_rule(monkeypatch):
    """Patch the closure check to fail exactly on systems with a defeasible
    rule, so that a fuzz failure shrinks to a single defeasible rule."""
    check = postulates.check_closure

    def failing(system, conclusions):
        verdict = postulates.FAIL if system.defeasible_rules else postulates.PASS
        return dataclasses.replace(check(system, conclusions), verdict=verdict)

    monkeypatch.setattr(postulates, "check_closure", failing)


class TestFuzz:
    def test_failures_are_dumped_shrunk_and_exit_1(self, tmp_path, capsys, monkeypatch):
        _closure_fails_with_a_defeasible_rule(monkeypatch)
        argv = ["fuzz", "--trials", "2", "--seed", "1", "--checks", "closure", "--repro-dir", str(tmp_path)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out.endswith("trials=2 pass=0 fail=2 inconclusive=0\n")
        assert captured.err == "".join(f"fail reproduced in {tmp_path} (trial {t})\n" for t in (0, 1))
        repros = sorted(tmp_path.iterdir())
        assert [path.name.split("_")[:3] for path in repros] == [["repro", "closure", t] for t in "01"]
        for path in repros:
            system = textio.parse_instance(str(path))
            assert validate_system(system).ok
            assert len(system.defeasible_rules) == 1 and not system.strict_rules

    def test_zero_trials(self, capsys):
        code = main(["fuzz", "--trials", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "trials=0 pass=0 fail=0 inconclusive=0" in out

    def test_inconclusive_reason_names_the_bound(self, capsys, tmp_path):
        code = main(["fuzz", "--trials", "3", "--max-enum-args", "1", "--format", "json",
                     "--repro-dir", str(tmp_path)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 2
        reasons = [json.loads(line)["witness"]["reason"] for line in lines[:-1]]
        assert reasons and all("enumeration bound of 1" in r for r in reasons)

    def test_inconclusive_reports_carry_budget_and_rule_universe(self, capsys, tmp_path):
        code = main(["fuzz", "--trials", "30", "--seed", "2", "--max-args", "6", "--format", "json",
                     "--repro-dir", str(tmp_path)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 2
        inconclusive = [r for r in map(json.loads, lines[:-1]) if r["verdict"] == "inconclusive"]
        assert inconclusive
        for report in inconclusive:
            assert report["budget"] == {"max_args": 6}
            assert set(report["rule_universe"]) == {"axiomatic", "consequence", "defeasible"}

    def test_inconclusive_reports_name_only_requested_postulates(self, capsys, tmp_path):
        for checks, names in (
            ("consistency", ["direct_consistency", "indirect_consistency"]),
            ("closure", ["closure"]),
        ):
            code = main(["fuzz", "--checks", checks, "--max-enum-args", "1", "--trials", "2",
                         "--format", "json", "--repro-dir", str(tmp_path)])
            lines = capsys.readouterr().out.splitlines()
            assert code == 2
            reports = [json.loads(line) for line in lines[:-1]]
            assert [r["postulate"] for r in reports] == names * 2
            assert {r["verdict"] for r in reports} == {"inconclusive"}

    def test_small_run_passes(self, capsys, tmp_path):
        code = main(
            ["fuzz", "--trials", "5", "--seed", "3", "--checks",
             "closure,consistency,non-interference", "--repro-dir", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code in (0, 2)  # inconclusive trials are acceptable
        assert "fail=0" in out


class TestExitCodes:
    def test_parse_error_is_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.as"
        bad.write_text("atom p\naxiom p &\n")
        assert main(["solve", str(bad)]) == 3

    def test_directives_the_parser_would_drop_are_3(self, tmp_path, capsys):
        """A second name for a rule, a rank on a strict rule, an atom line
        that is not one atom name, or an arg or sup line that names no
        argument is refused rather than overwritten, ignored or read as
        an argument named '' or 'rank=0'; so is a rule without its arrow,
        an unclosed rank or parenthesis, a trailing token, an att line
        without two ids and a sup line without '<-'."""
        twice = "atom p\natom n\natom m\ndefeasible d1[0]: => p\nname d1 = n\nname d1 = m\n"
        for text, error in (
            (twice + "defeasible d2[0]: => !n\n", "second name for rule 'd1' (line 6)"),
            ("atom p\nstrict s1[5]: p -> !!p\n", "strict rules take no rank (line 2)"),
            ("atom p q\ndefeasible d1[0]: => p\n", "expected one atom name, got 'p q' (line 1)"),
            ("atom p\natom p-q\ndefeasible d1[0]: => p\n", "expected one atom name, got 'p-q' (line 2)"),
            ("atom p\nstrict s1: p\n", "expected '->' (line 2)"),
            ("atom p\ndefeasible d1[0]: p\n", "expected '=>' (line 2)"),
            ("atom p\ndefeasible d1[0: => p\n", "expected ']' after the rank (line 2)"),
            ("atom p\naxiom (p\n", "expected ')' (line 2, column 3)"),
            ("atom p\naxiom p q\n", "unexpected 'q' (line 2, column 3)"),
        ):
            path = tmp_path / "dropped.as"
            path.write_text(text)
            for command in ("validate", "solve", "translate"):
                assert main([command, str(path)]) == 3
                assert error in capsys.readouterr().err
        for text, error in (
            ("arg a\narg\n", "expected an argument name, got '' (line 2)"),
            ("arg  rank=0\n", "expected an argument name, got 'rank=0' (line 1)"),
            ("arg a\nsup <- a\n", "expected one supported argument name, got '' (line 2)"),
            ("arg a\natt a\n", "expected two argument ids (line 2)"),
            ("arg a\nsup a a\n", "expected '<-' (line 2)"),
        ):
            path = tmp_path / "dropped.jsbaf"
            path.write_text(text)
            for command in ("validate", "solve"):
                assert main([command, str(path)]) == 3
                assert error in capsys.readouterr().err

    def test_rule_ids_that_are_not_identifiers_are_3(self, tmp_path, capsys):
        # each was valid, with the rule id '', '' and 'a b'
        for text, rule_id in (
            ("atom p\nstrict : p -> p\n", ""),
            ("atom p\ndefeasible [1]: => p\n", ""),
            ("atom p\nstrict a b: p -> p\n", "a b"),
        ):
            path = tmp_path / "ids.as"
            path.write_text(text)
            for command in ("validate", "solve", "translate", "postulates"):
                assert main([command, str(path)]) == 3
                assert capsys.readouterr().err == f"error: rule id {rule_id!r} is not an identifier\n"

    def test_resource_error_is_2(self, tmp_path, capsys):
        big = tmp_path / "big.jsbaf"
        big.write_text("".join(f"arg x{i}\n" for i in range(20)))
        assert main(["solve", str(big), "--semantics", "admissible"]) == 2
        capsys.readouterr()
        # within the enumeration bound, past the naive oracle's
        big.write_text("".join(f"arg x{i}\n" for i in range(13)))
        assert main(["solve", str(big), "--max-enum-args", "20", "--oracle"]) == 2
        assert capsys.readouterr() == ("", "resource limit: 13 arguments exceed the naive bound of 12\n")

    def test_truncated_construction_is_2(self, capsys):
        assert main(["solve", str(INSTANCES / "as1.as"), "--max-args", "3"]) == 2
        assert "resource limit: argument construction truncated" in capsys.readouterr().err
        assert main(["postulates", str(INSTANCES / "as1.as"), "--max-args", "3"]) == 2
        reports = capsys.readouterr().out.splitlines()
        assert len(reports) == 3
        assert all(": inconclusive" in r and "argument construction truncated" in r for r in reports)

    def test_translate_past_the_depth_bound_is_2(self, tmp_path, capsys):
        path = tmp_path / "deep.as"
        path.write_text(DEEP_CONSISTENT_SYSTEM)
        for command in ("translate", "solve"):
            assert main([command, str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "resource limit: argument construction truncated at the max_depth bound of 6\n"
        assert main(["postulates", str(path), "--max-depth", "5"]) == 2
        reports = capsys.readouterr().out.splitlines()
        assert len(reports) == 3 and all("max_depth bound of 5" in r for r in reports)

    def test_postulates_past_a_bound_still_checks_the_pair(self, capsys):
        argv = ["postulates", str(INSTANCES / "as1.as"), "--against", str(INSTANCES / "as_u.as")]
        assert main([*argv, "--max-args", "3"]) == 2
        reports = capsys.readouterr().out.splitlines()
        assert [r.split(":")[0] for r in reports] == [
            "closure", "direct_consistency", "indirect_consistency", "non_interference"
        ]
        assert all(": inconclusive" in r and "max_args bound of 3" in r for r in reports[:3])
        assert reports[3] == "non_interference: pass"

    def test_cyclic_supports_is_3(self, tmp_path, capsys):
        cyclic = tmp_path / "cyclic.jsbaf"
        cyclic.write_text("arg a\narg b\nsup a <- b\nsup b <- a\n")
        for semantics in ("admissible", "preferred", "grounded"):
            assert main(["solve", str(cyclic), "--semantics", semantics, "--oracle"]) == 3
            err = capsys.readouterr().err
            assert "cyclic support chain through a -> b -> a" in err
            assert "Traceback" not in err

    def test_repro_dir_that_is_not_a_directory_is_3(self, tmp_path, capsys, monkeypatch):
        _closure_fails_with_a_defeasible_rule(monkeypatch)
        a_file = tmp_path / "a_file"
        a_file.write_text("")
        argv = ["fuzz", "--trials", "2", "--seed", "1", "--checks", "closure", "--repro-dir"]
        for path in (tmp_path / "missing", a_file):
            assert main([*argv, str(path)]) == 3
            assert f"--repro-dir: not an existing directory: {path}" in capsys.readouterr().err
        assert [path.name for path in tmp_path.iterdir()] == ["a_file"]

    def test_unknown_check_is_3(self, capsys):
        assert main(["fuzz", "--trials", "1", "--checks", "bogus"]) == 3

    def test_fuzz_that_checks_nothing_is_3(self, capsys):
        for argv in (["--trials", "-3"], ["--checks", ","]):
            assert main(["fuzz", *argv]) == 3
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: ")

    def test_nonpositive_construction_bound_is_3(self, capsys):
        as1 = str(INSTANCES / "as1.as")
        construction, enumeration = ("--max-args", "--max-depth"), ("--max-enum-args",)
        for argv, flags in (
            (["solve", as1], construction + enumeration),
            (["translate", as1], construction),
            (["postulates", as1], construction + enumeration),
            (["fuzz", "--trials", "1"], construction + enumeration),
            (["validate", as1], ("--atom-bound",)),
        ):
            for flag in flags:
                for value in ("0", "-1"):
                    assert main([*argv, flag, value]) == 3
                    assert f"{flag}: expected a positive integer, got {value}" in capsys.readouterr().err

    def test_unreadable_file_is_3(self, tmp_path, capsys):
        undecodable = tmp_path / "latin1.as"
        undecodable.write_bytes("atom caf\u00e9\n".encode("latin-1"))
        for path in (tmp_path / "missing.as", undecodable, tmp_path):
            assert main(["solve", str(path)]) == 3
            assert f"error: cannot read {path}" in capsys.readouterr().err

    def test_deeply_nested_formula_is_3(self, tmp_path, capsys):
        deep = tmp_path / "deep.as"
        deep.write_text("atom p\naxiom " + "!" * 3000 + "p\n")
        for command in ("validate", "solve", "translate", "postulates"):
            assert main([command, str(deep)]) == 3
            assert "formula nested too deeply (line 2)" in capsys.readouterr().err

    def test_formula_trees_too_tall_are_3(self, tmp_path, capsys):
        """A long chain and nested groups of chains are shallow to the
        parser but tall as trees; 3,000 parentheses hold a single atom."""
        chain = " & ".join(["p"] * 1500)
        groups = " & ".join(["p"] * 99)
        for _ in range(99):
            groups = f"({groups}) & " + " & ".join(["p"] * 98)
        parens = "(" * 3000 + "p" + ")" * 3000
        deep = tmp_path / "deep.as"
        for formula in (chain, groups, parens):
            deep.write_text(f"atom p\naxiom {formula}\n")
            for command in ("validate", "solve", "translate", "postulates"):
                assert main([command, str(deep)]) == 3
                err = capsys.readouterr().err
                assert err == "error: formula nested too deeply (line 2)\n"

    def test_formula_just_inside_the_nesting_limit(self, tmp_path, capsys):
        """A formula of height MAX_FORMULA_DEPTH is evaluated, built into
        arguments, translated and checked without a crash; one level more
        is refused."""
        deep = tmp_path / "deep.as"
        shapes = (
            lambda height: "!" * height + "p",  # nesting and height both `height`
            lambda height: "!(" + " & ".join(["p"] * height) + ")",  # nesting 2
        )
        for shape in shapes:
            for height, code in ((MAX_FORMULA_DEPTH, 0), (MAX_FORMULA_DEPTH + 1, 3)):
                formula = shape(height)
                deep.write_text(f"atom p\natom q\naxiom {formula}\ndefeasible d1[0]: {formula} => q\n")
                for command in ("validate", "solve", "translate", "postulates"):
                    assert main([command, str(deep)]) == code
                    err = capsys.readouterr().err
                    assert err == ("" if code == 0 else "error: formula nested too deeply (line 3)\n")

    def test_megabyte_lines_are_3_in_bounded_memory(self, tmp_path):
        """1 MB lines far past the limit are refused at the limit, not built
        whole: the child runs under a 1 GiB address-space limit, so a
        parser that builds such a line fails here rather than exhausting
        the machine."""

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        deep = tmp_path / "deep.as"
        for formula in (
            " & ".join(["p"] * 250_000),
            "!" * 1_000_000 + "p",
            "(" * 500_000 + "p" + ")" * 500_000,
        ):
            deep.write_text(f"atom p\naxiom {formula}\n")
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, "-m", "jsbaf.cli", "validate", str(deep)],
                capture_output=True,
                text=True,
                preexec_fn=limit,
                timeout=60,
            )
            assert time.monotonic() - start < 2
            assert proc.returncode == 3
            assert proc.stderr == "error: formula nested too deeply (line 2)\n"

    def test_closed_stdout_is_3(self):
        # 300 trials print about 145 KB; the reader takes one line and closes the pipe
        proc = subprocess.Popen(
            [sys.executable, "-m", "jsbaf.cli", "fuzz", "--trials", "300", "--seed", "1", "--format", "json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline().startswith(b"{")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 3
        assert b"Traceback" not in err and b"Exception ignored" not in err

    def test_flag_a_command_does_not_read_is_3(self, capsys):
        as1, j1 = str(INSTANCES / "as1.as"), str(INSTANCES / "j1.jsbaf")
        for argv in (
            ["validate", as1, "--format", "json"],
            ["validate", as1, "--max-enum-args", "5"],
            ["validate", as1, "--max-args", "5"],
            ["solve", j1, "--seed", "5"],
            ["solve", j1, "--atom-bound", "5"],
            ["translate", as1, "--max-enum-args", "5"],
            ["postulates", as1, "--seed", "5"],
            ["fuzz", "--trials", "0", "--atom-bound", "5"],
        ):
            assert main(argv) == 3
            assert "unrecognized arguments" in capsys.readouterr().err


# p reaches !p through seven strict steps, one more than the default construction depth
DEEP_INCONSISTENT_SYSTEM = """option assume-consequences
atom p
atom q
axiom p
defeasible d1[0]: => q
strict s1: p -> q
strict s2: q -> !!q
strict s3: !!q -> !!!!q
strict s4: !!!!q -> !!!!!!q
strict s5: !!!!!!q -> !!!!!!!!q
strict s6: !!!!!!!!q -> !!!!!!!!!!q
strict s7: !!!!!!!!!!q -> !p
"""
# the same chain without its last step: consistent, but deeper than the default depth
DEEP_CONSISTENT_SYSTEM = DEEP_INCONSISTENT_SYSTEM.rsplit("strict s7", 1)[0]
INVALID_SYSTEM = "atom p\natom q\naxiom p\naxiom !p\ndefeasible d1[0]: => q\nstrict s1: q -> p & q\n"
ATTACKED_STRICT = "arg a\narg b\nsup a <-\natt b a\n"
# alone the left side concludes p; in the union, one preferred conclusion set lacks p
NON_INTERFERENCE_LEFT = "atom p\ndefeasible d1[0]: => p\n"
NON_INTERFERENCE_RIGHT = "atom q\ndefeasible d2[1]: => q\ndefeasible d3[0]: => !q\n"


class TestRefusal:
    """Every subcommand validates its input first and refuses, with exit 3,
    what ``validate`` rejects."""

    def test_invalid_system_is_3(self, tmp_path, capsys):
        path = tmp_path / "invalid.as"
        path.write_text(INVALID_SYSTEM)
        assert main(["validate", str(path)]) == 3
        capsys.readouterr()
        for command in ("solve", "translate", "postulates"):
            assert main([command, str(path)]) == 3
            captured = capsys.readouterr()
            assert "axioms are jointly unsatisfiable" in captured.err
            assert captured.out == ""

    def test_inconsistency_beyond_the_construction_bounds_is_3(self, tmp_path, capsys):
        path = tmp_path / "deep.as"
        path.write_text(DEEP_INCONSISTENT_SYSTEM)
        assert main(["validate", str(path)]) == 3
        out = capsys.readouterr().out
        assert "failure: inconsistent: strict arguments conclude both !p and p" in out
        assert "truncated" not in out
        for command in ("solve", "translate", "postulates"):
            assert main([command, str(path)]) == 3
            captured = capsys.readouterr()
            assert "strict arguments conclude both !p and p" in captured.err
            assert captured.out == ""

    def test_attacked_strict_argument_is_3(self, tmp_path, capsys):
        path = tmp_path / "attacked.jsbaf"
        path.write_text(ATTACKED_STRICT)
        for argv in (["--oracle"], ["--semantics", "grounded"]):
            assert main(["solve", str(path), *argv]) == 3
            captured = capsys.readouterr()
            assert "strict argument a is attacked" in captured.err
            assert captured.out == ""

    def test_shared_rule_id_is_3(self, tmp_path, capsys):
        # the system refuses it when it is built: validate used to print an
        # invalid report, and postulates --against a union collision
        shared = tmp_path / "shared.as"
        shared.write_text("atom p\natom q\ndefeasible d1: => p\ndefeasible d1: => q\n")
        left, right = tmp_path / "left.as", tmp_path / "right.as"
        left.write_text("atom p\ndefeasible d1: => p\n")
        right.write_text("atom q\ndefeasible d1: => q\n")
        for argv in (
            *([command, str(shared)] for command in ("validate", "solve", "translate", "postulates")),
            ["postulates", str(left), "--against", str(right)],
        ):
            assert main(argv) == 3
            assert capsys.readouterr() == ("", "error: duplicate rule id d1\n")

    def test_support_naming_an_unknown_argument_is_3(self, tmp_path, capsys):
        # an unknown supporter, and an unknown supported argument
        path = tmp_path / "unknown.jsbaf"
        for text in ("arg c\nsup c <- x\n", "arg a\nsup c <- a\n"):
            path.write_text(text)
            for command in ("validate", "solve"):
                assert main([command, str(path)]) == 3
                assert capsys.readouterr() == ("", "error: support for c mentions an unknown argument\n")

    def test_invalid_second_system_is_3(self, tmp_path, capsys):
        path = tmp_path / "invalid.as"
        path.write_text(INVALID_SYSTEM)
        assert main(["postulates", str(INSTANCES / "as1.as"), "--against", str(path)]) == 3
        assert "axioms are jointly unsatisfiable" in capsys.readouterr().err

    def test_ranked_semantics_refuse_equal_ranks(self, capsys):
        # all of j3's ranks are 0; grounded ignores ranks and solves it (TestSolve)
        j3 = str(INSTANCES / "j3.jsbaf")
        for semantics in ("admissible", "preferred"):
            assert main(["solve", j3, "--semantics", semantics]) == 3
            assert "not strictly below the strict class" in capsys.readouterr().err


SEED_TEXTS = [path.read_text(encoding="utf-8") for path in sorted(INSTANCES.iterdir())]
SEED_LINES = [  # one pool per kind of instance file
    sorted({line for path in INSTANCES.glob(pattern) for line in path.read_text().splitlines()})
    for pattern in ("*.as", "*.jsbaf")
]
SMALL_BOUNDS = ["--max-args", "40", "--max-depth", "4"]


def _mutate(text, edits):
    """Apply (line, column, deleted length, inserted text) edits in order."""
    lines = text.splitlines()
    for row, column, deleted, inserted in edits:
        row %= len(lines)
        at = column % (len(lines[row]) + 1)
        lines[row] = lines[row][:at] + inserted + lines[row][at + deleted:]
    return "\n".join(lines)


def _framework_text(ranks, attacks, supports):
    lines = [f"arg {a} rank={r}" for a, r in zip("abcd", ranks)]
    lines += [f"att {a} {b}" for a, b in attacks]
    lines += [f"sup {head} <- {','.join(tail)}" for head, tail in supports.items()]
    return "\n".join(lines)


def _system_text(axioms, defeasible, strict, named):
    lines = ["atom p", "atom q"] + [f"axiom {a}" for a in axioms]
    lines += [
        f"defeasible d{i}[{rank}]: {', '.join(body)} => {head}"
        for i, (rank, body, head) in enumerate(defeasible)
    ]
    lines += [f"strict s{i}: {', '.join(body)} -> {head}" for i, (body, head) in enumerate(strict)]
    lines += [f"name d{i} = {name}" for i, name in named.items()]
    return "\n".join(lines)


_ids = st.sampled_from("abcd")
_ranks = st.sampled_from(["0", "1", "2", "-1", "x", ""])  # the last two do not parse
_formulas = st.sampled_from(["p", "!p", "q", "!q", "p & q", "!(p & q)", "!!p", "!!q"])
instance_texts = st.one_of(
    st.builds(
        _mutate,
        st.sampled_from(SEED_TEXTS),
        st.lists(
            st.tuples(
                st.integers(0, 99), st.integers(0, 99), st.integers(0, 4),
                st.text("pq !&()-<>=,:[]#\n01", max_size=3),
            ),
            max_size=3,
        ),
    ),
    # shuffled, dropped and cut lines of one kind of instance file
    st.sampled_from(SEED_LINES)
    .flatmap(lambda pool: st.lists(st.tuples(st.sampled_from(pool), st.integers(0, 60)), max_size=14))
    .map(lambda cut_lines: "\n".join(line[:cut] for line, cut in cut_lines)),
    # small frameworks, cyclic supports and attacked strict arguments included
    st.builds(
        _framework_text,
        st.lists(_ranks, min_size=4, max_size=4),
        st.lists(st.tuples(_ids, _ids), max_size=6),
        st.dictionaries(_ids, st.lists(_ids, max_size=2), max_size=3),
    ),
    # small systems, inconsistent strict rules included
    st.builds(
        _system_text,
        st.lists(_formulas, max_size=2),
        st.lists(st.tuples(_ranks, st.lists(_formulas, max_size=2), _formulas), max_size=4),
        st.lists(st.tuples(st.lists(_formulas, max_size=2), _formulas), max_size=3),
        st.dictionaries(st.integers(0, 4), _formulas, max_size=2),
    ),
    st.text("atom axiom strict defeasible name arg att sup p q !&()-<>=,:[]#\n0123", max_size=120),
)
cli_argvs = st.sampled_from(
    [
        ["validate", "--atom-bound", "8"],
        ["solve", "--semantics", "admissible", "--oracle", "--max-enum-args", "7", *SMALL_BOUNDS],
        ["solve", "--semantics", "preferred", "--emit-jsbaf", "--max-enum-args", "7", *SMALL_BOUNDS],
        ["solve", "--semantics", "grounded", "--oracle", "--format", "json", "--max-enum-args", "7"],
        ["translate", "--format", "json", *SMALL_BOUNDS],
        ["solve", "--max-enum-args", "3", "--max-args", "8"],
        ["postulates", "--max-enum-args", "7", *SMALL_BOUNDS],
        ["postulates", "--format", "json", "--max-enum-args", "3", "--max-args", "8"],
    ]
)


class TestRandomInput:
    def test_exit_codes_on_random_and_mutated_instances(self, tmp_path, capsys):
        @settings(max_examples=300, derandomize=True, database=None, deadline=None)
        @given(text=instance_texts, argv=cli_argvs, suffix=st.sampled_from([".as", ".jsbaf", ".txt"]))
        def run(text, argv, suffix):
            path = tmp_path / ("instance" + suffix)
            path.write_text(text, encoding="utf-8")
            code = main([argv[0], str(path), *argv[1:]])
            out = capsys.readouterr().out
            assert code in (0, 1, 2, 3)
            if code == 1:  # a failed postulate check on valid input, and nothing else
                assert argv[0] == "postulates" and (": fail" in out or ': "fail"' in out)
                assert main(["validate", str(path)]) == 0

        run()


class TestDeterminism:
    def test_byte_identical_reruns(self):
        argv = ["solve", str(INSTANCES / "j1.jsbaf"), "--semantics", "admissible"]
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_json_output_closes_its_files(self):
        # -X dev turns an unclosed file into a ResourceWarning on stderr
        for command, name in (("solve", "j1.jsbaf"), ("translate", "as1.as")):
            argv = [command, str(INSTANCES / name), "--format", "json"]
            proc = subprocess.run(
                [sys.executable, "-X", "dev", "-m", "jsbaf.cli", *argv], capture_output=True, text=True
            )
            assert proc.returncode == 0
            assert proc.stderr == ""

    def test_fuzz_reruns_identical(self):
        argv = ["fuzz", "--trials", "3", "--seed", "9", "--format", "json"]
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first.stdout == second.stdout
