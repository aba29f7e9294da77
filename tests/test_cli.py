import json
import subprocess
import sys
import time

import pytest
from hypothesis import given, strategies as st

from curvegluing.cli import _json, main


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

    def test_generators_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ideal"])
        assert exc.value.code == 2
        assert "generators" in capsys.readouterr().err

    def test_raw_local_standard_basis(self, capsys):
        # the retired ideal --raw mode took this basis's two generators;
        # it is refused as usage, and the curve they come from gives the
        # same local standard basis
        with pytest.raises(SystemExit) as exc:
            main(["ideal", "--raw", "x1^5 - x3^2; x1*x3 - x2^3",
                  "--local", "--order", "x2,x3,x1", "--json"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        code, out, _ = run_cli(capsys, "tangent-cone", "6", "7", "15",
                               "--order", "x2,x3,x1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload["leading_monomials"]) == \
            {"x3^2", "x1*x3", "x2^3*x3", "x2^6"}
        assert {"x3^2 - x1^5", "x1*x3 - x2^3"} <= \
            set(payload["standard_basis"])

    def test_raw_local_basis_past_the_mora_budget(self, capsys):
        # Mora's normal form ran for minutes on this input before it had a
        # step budget; no command reaches it now, so the input is a usage
        # error before any engine runs
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["ideal", "--raw",
                  "x2^4 - x2^3*x3; x3^5 - x1*x2*x3; "
                  "-2*x2 + x1^3*x2*x3^2 - 3*x1*x3^2",
                  "--vars", "x1,x2,x3", "--local", "--order", "x3,x1,x2"])
        assert time.perf_counter() - start < 5
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "[WorkBudget]" not in captured.err


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

    def test_large_p_answers_fast(self, capsys):
        # listing the factorizations of p in <4,5,6,7> never finished
        gluing = ("--s1", "4,5,6,7", "--s2", "2,3", "--p", "1000000000001",
                  "--q", "5")
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "glue", *gluing)
        assert time.perf_counter() - start < 5
        assert code == 0
        assert "'x1^249999999999*x2 - y1*y2'" in out
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "verify", *gluing, "--json")
        assert time.perf_counter() - start < 5
        assert code == 0
        assert json.loads(out)["b_witness"] == [249999999999, 1, 0, 0]

    @pytest.mark.parametrize("command", ["glue", "verify"])
    def test_witness_table_past_the_budget(self, capsys, command):
        # two rows of min(p, 999 * 3006) + 1 cells, over MAX_WITNESS_CELLS
        start = time.perf_counter()
        code, out, err = run_cli(capsys, command, "--s1", "1000,1001,1002,1003",
                                 "--s2", "2,3", "--p", "1001001", "--q", "5")
        assert time.perf_counter() - start < 5
        assert code == 1 and out == ""
        assert "[WorkBudget]" in err and "MAX_WITNESS_CELLS" in err


    @pytest.mark.parametrize("command", ["glue", "verify"])
    def test_glued_multiplicity_past_the_budget(self, capsys, command):
        # m = p*n1 = 2000002 residues: refused, not reported as a bug
        from curvegluing.semigroup import MAX_MULTIPLICITY

        start = time.perf_counter()
        code, out, err = run_cli(capsys, command, "--s1", "2,3", "--s2", "2,3",
                                 "--p", "1000001", "--q", "1000003", "--json")
        assert time.perf_counter() - start < 5
        assert code == 1 and out == ""
        assert "[WorkBudget]" in err and "SelfCheckFailed" not in err
        assert f"Ap(S, 2000002) needs a table of 2000002 residues; the " \
            f"budget is multiplicity <= {MAX_MULTIPLICITY}" in err

@pytest.mark.parametrize("argv", [
    ["hilbert", "6", "7", "15", "--limit", "10000000", "--json"],
    ["verify", "--s1", "6,7,15", "--s2", "1", "--p", "13", "--q", "2",
     "--limit", "100000000000", "--json"],
])
def test_limit_past_the_budget(argv):
    # without the budget the first call builds a 10^7-entry prefix and the
    # second never ends
    proc = _run_capped(argv)
    assert proc.returncode == 1 and proc.stdout == ""
    assert "[WorkBudget]" in proc.stderr and "MAX_HF_PREFIX" in proc.stderr


@pytest.mark.parametrize("with_output", [False, True])
def test_scan_range_past_the_budget(tmp_path, with_output):
    # without the budget the scan lists 10^9 members before verifying one
    cfg = {"s1": [6, 7, 15], "s2": [1], "parameter": "q", "p": "6*q + 7",
           "q": "q", "range": [2, 1000000000]}
    output = tmp_path / "records.jsonl"
    if with_output:
        cfg["output"] = str(output)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(cfg))
    proc = _run_capped(["scan", "--config", str(path), "--json"])
    assert proc.returncode == 1 and proc.stdout == ""
    assert "[WorkBudget]" in proc.stderr and \
        "MAX_SCAN_MEMBERS = 10000" in proc.stderr
    assert not output.exists()


def _run_capped(argv):
    """Run the CLI in a separate interpreter capped at 1 GiB of address
    space, within 5 s."""
    import resource
    from pathlib import Path

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    root = Path(__file__).resolve().parent.parent
    return subprocess.run([sys.executable, "-m", "curvegluing", *argv],
                          capture_output=True, text=True, cwd=root,
                          timeout=5, preexec_fn=cap)


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
    # curve ideals run on exponent pairs alone; no command reaches
    # basis.py, so its completion and both normal forms must stay idle
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


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**80, 2**80)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20)


class TestJsonWriter:
    """``cli._json`` writes what ``json.dumps(indent=2, sort_keys=True)``
    writes."""

    @staticmethod
    def dumps(value):
        return json.dumps(value, indent=2, sort_keys=True)

    @given(JSON_VALUES)
    def test_generated_values(self, value):
        assert _json(value) == self.dumps(value)

    @pytest.mark.parametrize("value", [
        [True, 1, False, 0], None, 10**40, -(10**40),
        [float("nan"), float("inf"), float("-inf"), -0.0, 1e16, 0.1],
        {"a": [], "b": {}, "c": [[], {}, ()], "d": {"e": [{}]}},
        ["\u00e9\u4e2d\U0001f600", "\x00\x1f\n\t\"\\", ""],
        {"\u00e9": 1, "\n": 2, "a": (1, (2, [3]))},
    ])
    def test_edge_values(self, value):
        assert _json(value) == self.dumps(value)

    @pytest.mark.parametrize("value", [{1: 2}, {"a": {None: 1}}, [{1, 2}],
                                       {"a": b"x"}])
    def test_non_str_key_or_unknown_type_raises(self, value):
        with pytest.raises(TypeError):
            _json(value)


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

    def test_text_lines_only_for_text_output(self, capsys, tmp_path,
                                             monkeypatch):
        import curvegluing.cli as cli

        cfg_path = tmp_path / "family.json"
        cfg_path.write_text(json.dumps(TestExitCodes.CFG))
        real, built = cli._scan_lines, []

        def spy(template, summary):
            built.append(template.parameter)
            return real(template, summary)

        monkeypatch.setattr(cli, "_scan_lines", spy)
        code, out, _ = run_cli(capsys, "scan", "--config", str(cfg_path),
                               "--json")
        assert code == 0 and json.loads(out)["instances"] == 3
        assert built == []
        code, out, _ = run_cli(capsys, "scan", "--config", str(cfg_path))
        assert code == 0 and out.startswith("r in 1..3: ")
        assert built == ["r"]

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
    def test_malformed_polynomial(self, capsys, tmp_path, raw):
        # named x1, the parameter is a known variable of every text here
        code, _, err = self._scan(capsys, tmp_path,
                                  {**self.CFG, "parameter": "x1", "p": raw})
        assert code == 1
        assert "MalformedConfig" in err and "MalformedPolynomial" in err

    @pytest.mark.parametrize("argv,flag", [
        (["6", "7", "15", "--local"], "--local"),
        (["6", "7", "15", "--order", "x2,x3,x1"], "--order"),
        (["6", "7", "15", "--vars", "a,b,c"], "--vars"),
        (["6", "7", "15", "--raw", "x1 - x2"], "--raw"),
    ])
    def test_ideal_flag_needs_its_mode(self, capsys, argv, flag):
        # ideal takes a curve alone; the flags of its retired --raw mode
        # are usage errors, never ignored without a word
        with pytest.raises(SystemExit) as exc:
            main(["ideal", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert flag in captured.err and captured.out == ""

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

    def test_no_output_left_when_scan_fails(self, capsys, tmp_path,
                                            monkeypatch):
        # probing the path for writing creates it; the failed scan removes it
        import curvegluing.gluing as gl
        from curvegluing.errors import SelfCheckFailed

        def broken(spec, cross_check_ideal=True, hf_prefix_len=None):
            raise SelfCheckFailed("planted")

        monkeypatch.setattr(gl, "verify_instance", broken)
        output = tmp_path / "records.jsonl"
        code, _, _ = self._scan(capsys, tmp_path,
                                {**self.CFG, "output": str(output)})
        assert code == 1
        assert not output.exists()

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

