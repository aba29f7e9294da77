import json
import subprocess
import sys
import time

import pytest

from curvegluing.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSemigroupCommand:
    def test_minimalizes(self, capsys):
        code, out, _ = run_cli(capsys, "semigroup", "2", "3", "4")
        assert code == 0
        assert "generators: [2, 3]" in out
        assert "frobenius: 1" in out

    def test_comma_separated(self, capsys):
        code, out, _ = run_cli(capsys, "semigroup", "5,12")
        assert code == 0
        assert "frobenius: 43" in out

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "semigroup", "4", "6")
        assert code == 1
        assert "GcdNotOne" in err

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["semigroup"])
        assert exc.value.code == 2

    def test_non_positive_generator_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "semigroup", "0,3")
        assert code == 1
        assert "NonPositiveGenerator" in err

    def test_oversized_multiplicity_refused_fast(self, capsys):
        # the Apéry table would hold one entry per residue mod 1000003
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "semigroup", "1000003", "1000004")
        assert time.perf_counter() - start < 1
        assert code == 1
        assert "[WorkBudget]" in err

    def test_non_integer_generator_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["semigroup", "abc"])
        assert exc.value.code == 2
        assert "'abc'" in capsys.readouterr().err


class TestIdealCommand:
    def test_curve_ideal(self, capsys):
        code, out, _ = run_cli(capsys, "ideal", "6", "7", "15")
        assert code == 0
        assert "complete_intersection: True" in out

    def test_curve_eliminated_once(self, capsys, monkeypatch):
        import curvegluing.cli as cli
        import curvegluing.toric as toric

        calls = []
        real = toric.defining_ideal

        def spy(C):
            calls.append(C.generators)
            return real(C)

        monkeypatch.setattr(cli, "defining_ideal", spy)
        monkeypatch.setattr(toric, "defining_ideal", spy)
        code, out, _ = run_cli(capsys, "ideal", "6", "7", "15")
        assert code == 0
        assert "complete_intersection: True" in out
        assert calls == [(6, 7, 15)]

    def test_raw_global_basis(self, capsys):
        code, out, _ = run_cli(capsys, "ideal", "--raw",
                               "t^2 - x1; t^3 - x2", "--vars", "t,x1,x2")
        assert code == 0
        assert "t" in out

    def test_raw_local_standard_basis(self, capsys):
        code, out, _ = run_cli(
            capsys, "ideal", "--raw", "x1^5 - x3^2; x1*x3 - x2^3",
            "--local", "--order", "x2,x3,x1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["order"] == "negdegrevlex"
        assert set(payload["leading_monomials"]) == \
            {"x3^2", "x1*x3", "x2^3*x3", "x2^6"}


class TestTangentConeCommand:
    def test_example_3_2_component(self, capsys):
        code, out, _ = run_cli(capsys, "tangent-cone", "6", "7", "15")
        assert code == 0
        assert "cohen_macaulay: False" in out
        assert "x1*x3" in out

    def test_order_override(self, capsys):
        code, out, _ = run_cli(capsys, "tangent-cone", "6", "7", "15",
                               "--order", "x2,x3,x1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["priority"] == ["x2", "x3", "x1"]
        assert payload["cohen_macaulay"] is False

    def test_bad_order_rejected(self, capsys):
        code, _, err = run_cli(capsys, "tangent-cone", "6", "7", "15",
                               "--order", "x1,x2,x3")
        assert code == 1
        assert "InvalidPriority" in err


class TestHilbertCommand:
    def test_prefix_and_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "hilbert", "6", "7", "15",
                               "--limit", "6", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["hilbert_function"] == [1, 3, 4, 5, 5, 6, 6]
        assert payload["multiplicity"] == 6
        assert "(1 - t)" in payload["closed_form"]


class TestGlueVerifyCommands:
    def test_documented_glue_line(self, capsys):
        code, out, _ = run_cli(capsys, "glue", "--s1", "5,12", "--s2", "7,8",
                               "--p", "17", "--q", "21")
        assert code == 0
        assert "nice: False" in out
        assert "glued_generators: [105, 252, 119, 136]" in out

    def test_documented_verify_line(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--s1", "5,12", "--s2", "7,8",
                               "--p", "17", "--q", "21", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["nice"] is False
        assert payload["glued_cm"] is False
        assert payload["glued_hf_nondecreasing"] is True

    def test_verify_nice_family_member(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--s1", "2,3", "--s2", "4,5",
                               "--p", "7", "--q", "8", "--json")
        payload = json.loads(out)
        assert payload["theorem1_confirmed"] is True
        assert payload["factorization_ok"] is True

    def test_gluing_error_names_clause(self, capsys):
        code, _, err = run_cli(capsys, "glue", "--s1", "2,3", "--s2", "4,5",
                               "--p", "6", "--q", "8")
        assert code == 1
        assert "GcdViolation" in err


VERIFY_PATH_LINES = [
    "verify --s1 5,12 --s2 7,8 --p 17 --q 21",
    "verify --s1 5,12 --s2 7,8 --p 17 --q 21 --no-cross-check",
    "verify --s1 2,3 --s2 4,5 --p 7 --q 8",
    "verify --s1 2,3 --s2 4,5 --p 7 --q 8 --no-cross-check",
    "verify --s1 6,7,15 --s2 1 --p 13 --q 2",
    "tangent-cone 6 7 15",
    "hilbert 6 7 15",
    "ideal 6 7 15",
]


@pytest.mark.parametrize("line", VERIFY_PATH_LINES)
def test_curve_commands_never_enter_the_polynomial_engine(line, capsys,
                                                          monkeypatch):
    # curve ideals run on exponent pairs alone; basis.py serves only
    # ideal --raw, so its completion and both normal forms must stay idle
    import curvegluing.basis as basis

    def idle(*args, **kwargs):
        raise AssertionError("the Polynomial engine ran on a curve command")

    for name in ("_complete", "_nf_mora", "_nf_global"):
        monkeypatch.setattr(basis, name, idle)
    code, out, _ = run_cli(capsys, *line.split())
    assert code == 0 and out


class TestJsonContract:
    def test_round_trip_stable(self, capsys):
        code, out, _ = run_cli(capsys, "tangent-cone", "2", "3", "--json")
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert json.dumps(payload, indent=2, sort_keys=True) == out.strip()

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "--s1", "2,3", "--s2", "4,5",
                              "--p", "7", "--q", "8", "--json")
        _, second, _ = run_cli(capsys, "verify", "--s1", "2,3", "--s2", "4,5",
                               "--p", "7", "--q", "8", "--json")
        assert first == second


class TestScanCommand:
    def test_scan_config_and_output(self, capsys, tmp_path):
        out_path = tmp_path / "records.jsonl"
        cfg = {"s1": [6, 7, 15], "s2": [1], "parameter": "q",
               "p": "6*q + 7", "q": "q", "range": [2, 9],
               "output": str(out_path)}
        cfg_path = tmp_path / "family.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(capsys, "scan", "--config", str(cfg_path),
                               "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["instances"] == 8
        assert payload["skipped"] == 1
        assert payload["all_theorems_hold"] is True
        lines = out_path.read_text().splitlines()
        assert len(lines) == 8
        assert json.loads(lines[0])["q"] == 2

    def test_repository_config_runs(self, capsys):
        from pathlib import Path

        cfg = Path(__file__).resolve().parent.parent / "configs" / "family_q.json"
        code, out, _ = run_cli(capsys, "scan", "--config", str(cfg), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verified"] == 25

    def test_repository_config_r_family(self, capsys):
        from pathlib import Path

        cfg = Path(__file__).resolve().parent.parent / "configs" / "family_r.json"
        code, out, _ = run_cli(capsys, "scan", "--config", str(cfg),
                               "--jobs", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verified"] == 25
        assert payload["skipped"] == 0
        assert payload["all_theorems_hold"] is True


class TestExitCodes:
    """Malformed input exits 1 with its clause named; usage errors exit 2."""

    CFG = {"s1": [2, 3], "s2": [4, 5], "parameter": "r",
           "p": "4*r + 3", "q": "8", "range": [1, 3]}

    def _scan(self, capsys, tmp_path, cfg, *extra):
        path = tmp_path / "family.json"
        path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
        return run_cli(capsys, "scan", "--config", str(path), *extra)

    @pytest.mark.parametrize("raw", ["(x1+x2)^2", "x1^y", "3/0*x1", "x1 $ x2",
                                     "x1 - - x2"])
    def test_malformed_polynomial(self, capsys, raw):
        code, _, err = run_cli(capsys, "ideal", "--raw", raw)
        assert code == 1
        assert "MalformedPolynomial" in err

    @pytest.mark.parametrize("raw,piece", [(";", "piece 1 of 2"),
                                           ("x1 - x2;;", "piece 2 of 3"),
                                           ("; x1", "piece 1 of 2")])
    def test_empty_raw_piece(self, capsys, raw, piece):
        code, out, err = run_cli(capsys, "ideal", "--raw", raw)
        assert code == 1
        assert "MalformedPolynomial" in err and piece in err
        assert out == ""

    @pytest.mark.parametrize("argv,flag", [
        (["6", "7", "15", "--local"], "--local"),
        (["6", "7", "15", "--order", "x2,x3,x1"], "--order"),
        (["6", "7", "15", "--vars", "a,b,c"], "--vars"),
        (["6", "7", "15", "--raw", "x1 - x2"], "--raw"),
    ])
    def test_ideal_flag_needs_its_mode(self, capsys, argv, flag):
        # --local, --order and --vars shape a --raw basis only, and --raw
        # replaces the curve; neither is ignored without a word
        with pytest.raises(SystemExit) as exc:
            main(["ideal", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert flag in captured.err and captured.out == ""

    @pytest.mark.parametrize("raw,names", [
        ("x1 + x2", "x1,x2,x2"),    # a repeated name
        ("x1 + x2", "x1,x2,"),      # an empty name
        ("x1", "x1,x_2"),           # not one variable in the grammar
        ("x1", "x1, x2"),
    ])
    def test_vars_must_be_distinct_names(self, capsys, raw, names):
        code, _, err = run_cli(capsys, "ideal", "--raw", raw, "--vars", names)
        assert code == 1
        assert "--vars" in err

    @pytest.mark.parametrize("p", ["-", "4*r +"])
    def test_dangling_operator_in_config(self, capsys, tmp_path, p):
        code, _, err = self._scan(capsys, tmp_path, {**self.CFG, "p": p})
        assert code == 1
        assert "MalformedConfig" in err and "MalformedPolynomial" in err

    def test_missing_config_key(self, capsys, tmp_path):
        cfg = {k: v for k, v in self.CFG.items() if k != "range"}
        code, _, err = self._scan(capsys, tmp_path, cfg)
        assert code == 1
        assert "MalformedConfig" in err and "range" in err

    def test_config_not_json(self, capsys, tmp_path):
        code, _, err = self._scan(capsys, tmp_path, '{"s1": [2, 3],')
        assert code == 1
        assert "MalformedConfig" in err

    def test_reversed_range(self, capsys, tmp_path):
        code, _, err = self._scan(capsys, tmp_path,
                                  {**self.CFG, "range": [5, 1]})
        assert code == 1
        assert "EmptyRange" in err

    def test_missing_config_file(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--config", str(tmp_path / "missing.json")])
        assert exc.value.code == 2
        assert "missing.json" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-1", "two"])
    def test_jobs_must_be_positive(self, capsys, tmp_path, jobs):
        with pytest.raises(SystemExit) as exc:
            self._scan(capsys, tmp_path, self.CFG, f"--jobs={jobs}")
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("command,key", [
        (["hilbert", "6", "7", "15"], "hilbert_function"),
        (["verify", "--s1", "2,3", "--s2", "4,5", "--p", "7", "--q", "8"],
         "glued_hf_prefix"),
    ])
    def test_negative_limit(self, capsys, command, key):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--limit", "-1"])
        assert exc.value.code == 2
        assert "--limit" in capsys.readouterr().err
        code, out, _ = run_cli(capsys, *command, "--limit", "0", "--json")
        assert code == 0
        assert json.loads(out)[key] == [1]

    def test_unwritable_output_fails_before_scanning(self, capsys, tmp_path,
                                                      monkeypatch):
        import curvegluing.gluing as gl

        verified = []
        monkeypatch.setattr(gl, "verify_instance",
                            lambda spec, **kw: verified.append(spec))
        output = str(tmp_path / "missing" / "x.jsonl")
        with pytest.raises(SystemExit) as exc:
            self._scan(capsys, tmp_path, {**self.CFG, "output": output})
        assert exc.value.code == 2
        assert output in capsys.readouterr().err
        assert verified == []

    def test_output_kept_when_scan_fails(self, capsys, tmp_path, monkeypatch):
        import curvegluing.gluing as gl
        from curvegluing.errors import SelfCheckFailed

        def broken(spec, cross_check_ideal=True, hf_prefix_len=None):
            raise SelfCheckFailed("planted")

        monkeypatch.setattr(gl, "verify_instance", broken)
        output = tmp_path / "records.jsonl"
        output.write_text("earlier records\n")
        code, _, _ = self._scan(capsys, tmp_path,
                                {**self.CFG, "output": str(output)})
        assert code == 1
        assert output.read_text() == "earlier records\n"

    def test_self_check_failure_prints_bundle(self, capsys, tmp_path,
                                              monkeypatch):
        import curvegluing.gluing as gl
        from curvegluing.errors import SelfCheckFailed

        def broken(spec, cross_check_ideal=True, hf_prefix_len=None):
            raise SelfCheckFailed("planted")

        monkeypatch.setattr(gl, "verify_instance", broken)
        code, _, err = self._scan(capsys, tmp_path, self.CFG)
        assert code == 1
        assert "SelfCheckFailed" in err
        assert 'reproduce: {"p": 7, "q": 8, "r": 1}' in err


SEQUENCE = [
    ["verify", "--s1", "5,12", "--s2", "7,8", "--p", "17", "--q", "21",
     "--json"],
    ["scan", "--config", "configs/family_r.json", "--json"],
    ["hilbert", "6", "7", "15", "--limit", "0", "--json"],
    ["hilbert", "6", "7", "15", "--limit", "-1"],
]


def test_one_process_runs_many_commands(capsys, monkeypatch):
    # the parser is built once per process; reusing it must not change any
    # output or exit code against a fresh interpreter per call
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    monkeypatch.chdir(root)
    in_process = []
    for argv in SEQUENCE:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        in_process.append((code, out.out, out.err))
    separate = []
    for argv in SEQUENCE:
        proc = subprocess.run([sys.executable, "-m", "curvegluing", *argv],
                              capture_output=True, text=True, cwd=root)
        separate.append((proc.returncode, proc.stdout, proc.stderr))
    assert [code for code, _, _ in in_process] == [0, 0, 0, 2]
    assert "--limit" in in_process[-1][2]
    assert in_process == separate


def test_parser_is_built_once(capsys, monkeypatch):
    import argparse

    main(["semigroup", "2", "3"])
    built = []
    original = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(["semigroup", "2", "3"]) == 0
    assert main(["hilbert", "6", "7", "15", "--limit", "0"]) == 0
    assert built == []


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "curvegluing", "semigroup", "2", "3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "frobenius: 1" in proc.stdout

