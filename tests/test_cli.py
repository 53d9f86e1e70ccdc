import json
import math
import time

import pytest

from torushall.checks import LAWS
from torushall.cli import main
from torushall.serialize import (
    SchemaError,
    complex_to_pair,
    load_input,
    pair_to_complex,
    parse_document,
)


@pytest.fixture
def k22_doc(tmp_path):
    path = tmp_path / "k22.json"
    path.write_text(json.dumps({"K": [[3, 2], [2, 3]], "n": [1, 1], "tau": [0.0, 1.0]}))
    return str(path)


@pytest.fixture
def readme_doc(tmp_path):
    path = tmp_path / "readme.json"
    path.write_text(
        json.dumps({"K": [[3, 2], [2, 3]], "n": [1, 1], "tau": [0, 1], "xi": [[0.1, 0.2], [0, 0]]})
    )
    return str(path)


@pytest.fixture
def k2_doc(tmp_path):
    path = tmp_path / "k2.json"
    path.write_text(
        json.dumps({"K": [[2]], "n": [1], "tau": [0.0, 1.0], "xi": [[0.1, 0.2]]})
    )
    return str(path)


class TestSchema:
    def test_full_document(self):
        doc = parse_document(
            {"K": [[2, 1], [1, 2]], "n": [1, 1], "tau": [0.3, 1.1], "xi": [[0, 0], [0.5, 0]]}
        )
        assert doc.K == ((2, 1), (1, 2))
        assert doc.n == (1, 1)
        assert doc.tau == 0.3 + 1.1j
        assert doc.xi == (0j, 0.5 + 0j)

    def test_unknown_key_rejected(self):
        with pytest.raises(SchemaError):
            parse_document({"K": [[2]], "points": 3})

    def test_missing_k_rejected(self):
        with pytest.raises(SchemaError):
            parse_document({"n": [1]})

    def test_non_integer_entry_rejected(self):
        with pytest.raises(SchemaError):
            parse_document({"K": [[2.5]]})

    def test_bad_pair_rejected(self):
        with pytest.raises(SchemaError):
            parse_document({"K": [[2]], "tau": [1.0]})

    def test_text_matrix(self, tmp_path):
        path = tmp_path / "k.txt"
        path.write_text("# coupling matrix\n2 1\n1 2\n")
        doc = load_input(path)
        assert doc.K == ((2, 1), (1, 2))

    def test_matrix_roundtrip(self, tmp_path):
        path = tmp_path / "k.txt"
        path.write_text("3 2\n2 3")
        assert load_input(path).K == ((3, 2), (2, 3))

    def test_scalar_serializers(self):
        assert pair_to_complex([1.5, -2.0], "z") == 1.5 - 2j
        assert complex_to_pair(0.5 + 0.25j) == [0.5, 0.25]


class TestCli:
    def test_parser_built_once(self, k22_doc, monkeypatch, capsys):
        import argparse

        from torushall import cli

        builds = []
        real = argparse.ArgumentParser.add_subparsers

        def spy(parser, *args, **kwargs):
            builds.append(parser.prog)
            return real(parser, *args, **kwargs)

        cli.build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", spy)
        try:
            outputs = []
            for _ in range(2):
                assert main(["invariants", "--input", k22_doc]) == 0
                outputs.append(capsys.readouterr().out)
        finally:
            cli.build_parser.cache_clear()
        assert outputs[0] and outputs[0] == outputs[1]
        assert builds == ["torushall"]

    def test_invariants_report(self, k22_doc, capsys):
        assert main(["invariants", "--input", k22_doc]) == 0
        out = capsys.readouterr().out
        assert "delta = 5" in out
        assert "rho = 2" in out
        assert "slope = -2/5" in out
        assert "stable = True" in out

    def test_invariants_json(self, k22_doc, capsys):
        assert main(["invariants", "--input", k22_doc, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["delta"] == 5
        assert payload["slope"] == "-2/5"
        assert payload["stable"] is True
        assert payload["schema_version"] == 1

    def test_malformed_matrix_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"K": [[1, 0], [0, 2]]}))
        assert main(["validate", "--input", str(path)]) == 2
        assert "MixedParity" in capsys.readouterr().err

    def test_unknown_field_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"K": [[2]], "extra": 1}))
        assert main(["validate", "--input", str(path)]) == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_missing_file_exit_two(self, capsys):
        assert main(["validate", "--input", "/nonexistent/k.json"]) == 2

    @pytest.mark.parametrize(
        "command,document",
        [
            (["validate"], {"K": []}),
            (["validate"], {"K": [[1, 2]]}),
            (["validate"], {"K": [[2, 1], [1]]}),
            (["gram-manybody", "--samples", "0"], {"K": [[2]]}),
            (["validate", "--input", "{dir}"], None),
            (["wf-eval", "--config", "{dir}"], {"K": [[2]]}),
        ],
        ids=["empty", "not-square", "ragged", "samples-0", "input-dir", "config-dir"],
    )
    def test_malformed_input_exit_two(self, command, document, tmp_path, capsys):
        # input errors exit 2 with a message, never 1 with a traceback
        argv = [arg.format(dir=tmp_path) for arg in command]
        if document is not None:
            path = tmp_path / "doc.json"
            path.write_text(json.dumps(document))
            argv += ["--input", str(path)]
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse rejects a bad flag value itself
            status = exc.code
        assert status == 2
        captured = capsys.readouterr()
        assert captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "command",
        [
            ["gram-manybody", "--scheme", "qmc", "--samples", "1024"],
            ["verify-all"],
            ["gram-center"],
        ],
        ids=["gram-manybody", "verify-all", "gram-center"],
    )
    def test_negative_seed_exit_two(self, command, tmp_path, capsys):
        # refused by the flag, never passed on to numpy's SeedSequence (a
        # traceback with exit 1, the status of a FAIL) or ignored
        path = tmp_path / "k3.json"
        path.write_text(json.dumps({"K": [[3]], "n": [3]}))
        with pytest.raises(SystemExit) as exc:
            main(command + ["--input", str(path), "--seed", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--seed: -1 is not a non-negative integer" in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "argv,document,config",
        [
            (["verify-all"], {"K": [[3]], "tau": [0, math.inf]}, None),
            (["gram-center"], {"K": [[3]], "tau": [0, math.inf]}, None),
            (["verify-all"], {"K": [[3]], "tau": [math.nan, 1]}, None),
            (["verify-all"], {"K": [[3]], "xi": [[math.nan, 0]]}, None),
            (["wf-eval"], {"K": [[2]], "n": [1]}, [[[math.nan, 0.1]]]),
            (["theta-eval", "--z", "nan", "0"], None, None),
            (["theta-eval", "--tau", "0", "inf"], None, None),
            (["theta-eval", "--tau", "nan", "1"], None, None),
            (["theta-eval", "--a", "nan"], None, None),
            (["theta-eval", "--tol", "nan"], None, None),
            (["theta-eval", "--tol", "inf"], None, None),
            (["gram-center", "--tol", "nan"], {"K": [[3]]}, None),
            (["gram-center", "--tol", "inf"], {"K": [[3]]}, None),
        ],
        ids=[
            "tau-inf-verify-all",
            "tau-inf-gram-center",
            "tau-nan",
            "xi-nan",
            "config-nan",
            "theta-z-nan",
            "theta-tau-inf",
            "theta-tau-nan",
            "theta-a-nan",
            "theta-tol-nan",
            "theta-tol-inf",
            "gram-center-tol-nan",
            "gram-center-tol-inf",
        ],
    )
    def test_non_finite_input_exit_two(self, argv, document, config, tmp_path, capsys):
        # json reads NaN and Infinity; like a non-finite flag value, they are
        # refused where they enter, never printed as nan or raised as a traceback
        argv = list(argv)
        for flag, value in (("--input", document), ("--config", config)):
            if value is not None:
                path = tmp_path / f"{flag[2:]}.json"
                path.write_text(json.dumps(value))
                argv += [flag, str(path)]
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse rejects a bad flag value itself
            status = exc.code
        assert status == 2
        captured = capsys.readouterr()
        assert "finite" in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "argv,config",
        [
            (["theta-eval", "--z", "0", "300", "--tau", "0", "1"], None),
            (["wf-eval"], [[[0.1, 200]], [[0.35, 0.6]]]),
        ],
        ids=["theta-inf", "wf-nan"],
    )
    def test_non_finite_value_exit_two(self, argv, config, readme_doc, tmp_path, capsys):
        # finite input whose value leaves double range: a named error, not a printed nan
        argv = list(argv)
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            argv += ["--input", readme_doc, "--config", str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "NonFiniteValueError" in captured.err

    def test_validate_datum(self, k22_doc, capsys):
        assert main(["validate", "--input", k22_doc]) == 0
        out = capsys.readouterr().out
        assert "d = 5" in out and "primary = True" in out

    def test_theta_eval(self, capsys):
        assert main(["theta-eval", "--z", "0", "0", "--tau", "0", "1"]) == 0
        out = capsys.readouterr().out
        assert "1.086434811213308" in out

    def test_wf_eval(self, k2_doc, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps([[[0.2, 0.1]]]))
        assert main(["wf-eval", "--input", k2_doc, "--c", "1", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "modulus" in out and "phase" in out

    def test_heisenberg_tables(self, k22_doc, capsys):
        assert main(["heisenberg", "--input", k22_doc, "--format", "json", "--matrices"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["delta"] == 5
        assert payload["q_exponent"] == 2
        assert payload["t1_exponents"] == [0, 2, 4, 1, 3]
        assert len(payload["t2_matrix"]) == 5

    def test_heisenberg_verifies_before_printing(self, k22_doc, monkeypatch, capsys):
        from torushall import heisenberg

        broken = heisenberg.RepMatrices(
            delta=3, q_exponent=2, t1_exponents=(0, 1, 2), t2_permutation=(1, 2, 0),
            numerators=tuple((i,) for i in range(3)),
        )
        monkeypatch.setattr(heisenberg, "rep_matrices", lambda datum: broken)
        with pytest.raises(AssertionError, match="T1 T2 != q T2 T1"):
            main(["heisenberg", "--input", k22_doc])
        assert capsys.readouterr().out == ""

    def test_gram_center_pass(self, k2_doc, capsys):
        assert main(["gram-center", "--input", k2_doc]) == 0
        out = capsys.readouterr().out
        assert "[PASS] gram.center_orthogonal" in out
        assert "[PASS] gram.center_kappa" in out

    def test_gram_center_fail_exit_one(self, tmp_path, monkeypatch, capsys):
        # a forced coarse rule leaves K = [[12]] at tau = 3i with a diagonal
        # spread of about 2e-2, which must flip the exit status
        from torushall import gram

        monkeypatch.setattr(gram, "_rule_points", lambda *args: (11, 1.0))
        path = tmp_path / "k12.json"
        path.write_text(json.dumps({"K": [[12]], "n": [1], "tau": [0, 3], "xi": [[0.1, 0.05]]}))
        assert main(["gram-center", "--input", str(path)]) == 1
        assert "[FAIL] gram.center_scalar" in capsys.readouterr().out

    def test_gram_manybody_deterministic(self, tmp_path, capsys):
        path = tmp_path / "k2n2.json"
        path.write_text(json.dumps({"K": [[2]], "n": [2], "tau": [0.0, 1.0]}))
        args = [
            "gram-manybody",
            "--input",
            str(path),
            "--scheme",
            "qmc",
            "--samples",
            "8192",
            "--seed",
            "5",
            "--format",
            "json",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["scalar_pass"] is True

    def test_verify_all_passes(self, k2_doc, capsys):
        assert main(["verify-all", "--input", k2_doc]) == 0
        out = capsys.readouterr().out
        assert "[FAIL]" not in out
        assert "theta.shift_one" in out
        assert "gram.center_kappa" in out
        assert "magnetic.t2_shift" in out
        assert "bundle.dual_pairing" in out

    def test_verify_all_magnetic_beyond_delta_five(self, tmp_path, capsys):
        # jain(3, 2) has delta = 7; every datum gets both magnetic records
        path = tmp_path / "jain32.json"
        path.write_text(json.dumps({"K": [[4, 3], [3, 4]], "n": [1, 1]}))
        assert main(["verify-all", "--input", str(path), "--format", "json"]) == 0
        verdicts = {c["name"]: c["verdict"] for c in json.loads(capsys.readouterr().out)["checks"]}
        assert verdicts["magnetic.t1_eigenvalue"] == verdicts["magnetic.t2_shift"] == "PASS"

    def test_sampling_budget_exit_two(self, tmp_path, capsys):
        # jain(1, 4) at tau = i/2: p = 8 on 8^4 height nodes times about 3.1e4
        # lattice terms over the 5 cosets, about 1.3e8 entries, over the default budget
        path = tmp_path / "jain14.json"
        rows = [[2 if i == j else 1 for j in range(4)] for i in range(4)]
        path.write_text(json.dumps({"K": rows, "n": [1, 1, 1, 1], "tau": [0, 0.5]}))
        assert main(["gram-center", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert "SamplingBudgetExceededError" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command",
        [
            ["theta-eval", "--tol", "1e-16"],
            ["theta-eval", "--tol", "1e-15"],
            ["gram-manybody", "--input", "{k2}", "--tol", "1e-16"],
        ],
        ids=["theta-eval-1e-16", "theta-eval-1e-15", "gram-manybody"],
    )
    def test_tol_below_minimum_exit_two(self, command, k2_doc, capsys):
        assert main([arg.format(k2=k2_doc) for arg in command]) == 2
        captured = capsys.readouterr()
        assert "ToleranceTooSmallError" in captured.err
        assert captured.out == ""

    def test_gram_center_forwards_tol(self, k2_doc, monkeypatch, capsys):
        from torushall import gram

        seen = []
        real = gram.gram_center

        def spy(*args, tol=gram.DEFAULT_TOL, **kwargs):
            seen.append(tol)
            return real(*args, tol=tol, **kwargs)

        monkeypatch.setattr(gram, "gram_center", spy)
        # a loose series tol does not coarsen the rule below the records' 1e-8
        assert main(["gram-center", "--input", k2_doc, "--tol", "1e-6"]) == 0
        assert seen == [1e-6]
        assert "FAIL" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command",
        [
            ["verify-all", "--input", "{k2}", "--tol", "1e-3"],
            ["validate", "--input", "{k2}", "--points", "3"],
            ["validate", "--input", "{k2}", "--samples", "7"],
            ["gram-center", "--input", "{k2}", "--points", "32"],
            ["gram-center", "--input", "{k2}", "--tol-gram", "1e-30"],
            ["verify-all", "--input", "{k2}", "--points", "24"],
            ["gram-manybody", "--input", "{k2}", "--points", "0"],
        ],
        ids=[
            "verify-all-tol",
            "validate-points",
            "validate-samples",
            "gram-center-points",
            "gram-center-tol-gram",
            "verify-all-points",
            "gram-manybody-points",
        ],
    )
    def test_unread_flag_rejected(self, command, k2_doc, capsys):
        with pytest.raises(SystemExit) as exc:
            main([arg.format(k2=k2_doc) for arg in command])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_gram_manybody_sigma_failure_is_json(self, readme_doc, capsys):
        args = ["gram-manybody", "--input", readme_doc, "--scheme", "qmc", "--samples", "16384"]
        assert main(args + ["--seed", "0", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["scalar_pass"] is False
        verdicts = [(c["name"], c["threshold"], c["verdict"]) for c in payload["checks"]]
        assert verdicts == [
            ("gram.manybody_scalar", 0.02, "PASS"),
            ("gram.manybody_sigma", 3.0, "FAIL"),
        ]
        assert all(c["name"] in LAWS for c in payload["checks"])

    def test_gram_manybody_default_is_trapezoid(self, readme_doc, capsys):
        start = time.perf_counter()
        assert main(["gram-manybody", "--input", readme_doc, "--format", "json"]) == 0
        elapsed = time.perf_counter() - start
        payload = json.loads(capsys.readouterr().out)
        assert payload["scheme"] == "trapezoid"
        assert max(payload["offdiag_ratio"], payload["diag_spread"]) <= 1e-10
        assert [c["verdict"] for c in payload["checks"]] == ["PASS"]
        assert elapsed < 5.0

    def test_gram_json_reports_aliasing_bound(self, readme_doc, capsys):
        # both trapezoid rules report their a-priori bound, and QMC has none
        for command in ("gram-center", "gram-manybody"):
            assert main([command, "--input", readme_doc, "--format", "json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["aliasing_bound"] < 2.5e-13
            assert "doubling_shift" not in payload
        args = ["gram-manybody", "--input", readme_doc, "--scheme", "qmc", "--samples", "1024"]
        assert main(args + ["--format", "json"]) in (0, 1)
        payload = json.loads(capsys.readouterr().out)
        assert payload["aliasing_bound"] is None
        assert "doubling_shift" not in payload


VERIFY_ALL_RECORDS = [
    ("theta.shift_one", 1e-11),
    ("theta.shift_tau", 1e-11),
    ("theta.odd_zero", 1e-12),
    ("theta.oddness", 1e-12),
    ("mtheta.shift_lattice", 1e-10),
    ("mtheta.shift_omega", 1e-10),
    ("mtheta.diag_factor", 1e-11),
    ("wen.family_invariants", 0.5),
    ("wen.adjugate_entries", 0.5),
    ("wen.group_order", 0.5),
    ("heisenberg.relations", 0.5),
    ("heisenberg.unitarity", 1e-14),
    ("heisenberg.primitivity", 0.5),
    ("heisenberg.character_norm", 1e-10),
    ("gram.center_orthogonal", 1e-8),
    ("gram.center_scalar", 1e-8),
    ("gram.center_kappa", 1e-6),
    ("wavefn.shift_one", 1e-9),
    ("wavefn.shift_tau", 1e-9),
    ("magnetic.t1_eigenvalue", 1e-9),
    ("magnetic.t2_shift", 1e-9),
    ("bundle.slope_exact", 0.5),
    ("bundle.dual_pairing", 1e-12),
]


class TestReadmeRecords:
    """The records verify-readme counts as its work: names, order and thresholds."""

    def _records(self, command, doc, capsys):
        assert main([command, "--input", doc, "--format", "json"]) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert all(c["name"] in LAWS and c["verdict"] == "PASS" for c in checks)
        return [(c["name"], c["threshold"]) for c in checks]

    def test_verify_all(self, readme_doc, capsys):
        assert self._records("verify-all", readme_doc, capsys) == VERIFY_ALL_RECORDS

    def test_gram_center(self, readme_doc, capsys):
        assert self._records("gram-center", readme_doc, capsys) == [
            ("gram.center_orthogonal", 1e-8),
            ("gram.center_scalar", 1e-8),
            ("gram.center_kappa", 1e-6),
        ]
