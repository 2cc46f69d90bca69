import json
import subprocess
import sys

from jsbaf.cli import main

from conftest import INSTANCES


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

    def test_oracle_mode_on_admissible(self, capsys):
        code = main(["solve", str(INSTANCES / "j1.jsbaf"), "--semantics", "admissible", "--oracle"])
        assert code == 0

    def test_emit_jsbaf(self, capsys):
        code = main(["solve", str(INSTANCES / "as1.as"), "--emit-jsbaf"])
        out = capsys.readouterr().out
        assert code == 0
        assert "att " in out and "sup " in out
        assert "conclusions:" in out

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
        from jsbaf import textio

        body = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
        framework = textio.parse_framework_text(body)
        assert len(framework.args) == 6


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


class TestFuzz:
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

    def test_resource_error_is_2(self, tmp_path, capsys):
        big = tmp_path / "big.jsbaf"
        big.write_text("".join(f"arg x{i}\n" for i in range(20)))
        assert main(["solve", str(big), "--semantics", "admissible"]) == 2

    def test_truncated_construction_is_2(self, capsys):
        for command in ("solve", "postulates"):
            assert main([command, str(INSTANCES / "as1.as"), "--max-args", "3"]) == 2
            assert "resource limit: argument construction truncated" in capsys.readouterr().err

    def test_cyclic_supports_is_3(self, tmp_path, capsys):
        cyclic = tmp_path / "cyclic.jsbaf"
        cyclic.write_text("arg a\narg b\nsup a <- b\nsup b <- a\n")
        for semantics in ("admissible", "preferred", "grounded"):
            assert main(["solve", str(cyclic), "--semantics", semantics, "--oracle"]) == 3
            err = capsys.readouterr().err
            assert "cyclic support chain through a -> b -> a" in err
            assert "Traceback" not in err

    def test_unknown_check_is_3(self, capsys):
        assert main(["fuzz", "--trials", "1", "--checks", "bogus"]) == 3


class TestDeterminism:
    def test_byte_identical_reruns(self):
        argv = ["solve", str(INSTANCES / "j1.jsbaf"), "--semantics", "admissible"]
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_fuzz_reruns_identical(self):
        argv = ["fuzz", "--trials", "3", "--seed", "9", "--format", "json"]
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first.stdout == second.stdout
