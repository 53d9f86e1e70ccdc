"""Tests of the benchmark itself: each check rejects a wrong answer, and
failed operations are counted and kept out of the work rate.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import bench_checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import torushall as th  # noqa: E402
from torushall import gram  # noqa: E402


def scalar_gram(d=3, kappa=2.0, se=1e-3):
    gmat = np.eye(d, dtype=complex) * kappa
    stderr = np.full((d, d), se)
    return gmat, stderr


def test_qmc_check_accepts_scalar_gram():
    gmat, stderr = scalar_gram()
    assert bench_checks.check_qmc_gram(gmat, stderr, 16, "g") == []


@pytest.mark.parametrize(
    "i, j, delta",
    [(0, 1, 0.1), (1, 0, 0.1j), (2, 2, 0.1)],
    ids=["offdiag", "offdiag-imag", "diag"],
)
def test_qmc_check_rejects_perturbed_entry(i, j, delta):
    gmat, stderr = scalar_gram()
    gmat[i, j] += delta
    if i != j:
        gmat[j, i] += np.conj(delta)
    assert bench_checks.check_qmc_gram(gmat, stderr, 16, "g")


def test_qmc_check_rejects_nan_and_non_hermitian():
    gmat, stderr = scalar_gram()
    gmat[1, 2] = np.nan
    assert bench_checks.check_qmc_gram(gmat, stderr, 16, "g") == ["g: non-finite entry"]
    gmat, stderr = scalar_gram()
    gmat[0, 1] = 1e-6
    assert any("hermitian" in p for p in bench_checks.check_qmc_gram(gmat, stderr, 16, "g"))


def test_reference_check_rejects_shifted_diagonal():
    gmat, stderr = scalar_gram()
    ref = np.full(3, 2.0)
    assert bench_checks.check_reference_diagonal(gmat, stderr, 16, ref, ref, "g") == []
    gmat[0, 0] += 0.05
    assert bench_checks.check_reference_diagonal(gmat, stderr, 16, ref, ref, "g")
    # an unconverged reference is reported, not trusted
    assert bench_checks.check_reference_diagonal(scalar_gram()[0], stderr, 16, ref, ref * 1.001, "g")


def gram_center_payload(kappa, off=0.0, diag_scale=1.0):
    gmat = np.eye(2, dtype=complex) * kappa * diag_scale
    gmat[0, 1] = off
    gmat[1, 0] = np.conj(off)
    checks = [{"name": "gram.center_orthogonal", "threshold": 1e-8, "verdict": "PASS"}]
    return {
        "command": "gram-center",
        "checks": checks,
        "matrix": [[[x.real, x.imag] for x in row] for row in gmat],
    }


def test_gram_center_check():
    kappa = bench_checks.kappa_reference([[3, 2], [2, 3]], [0.1 + 0.2j, 0j], 1j)
    # closed form for this datum: a = (0.2, 0), a.K^-1 a = 0.04 * 3/5
    assert kappa == pytest.approx(0.5 * 5**-0.5 * np.exp(2 * np.pi * 0.024), rel=1e-14)
    assert bench_checks.check_gram_center(gram_center_payload(kappa), kappa) == []
    assert bench_checks.check_gram_center(gram_center_payload(kappa, diag_scale=1 + 1e-5), kappa)
    assert bench_checks.check_gram_center(gram_center_payload(kappa, off=1e-7), kappa)
    failing = gram_center_payload(kappa)
    failing["checks"][0]["verdict"] = "FAIL"
    assert bench_checks.check_gram_center(failing, kappa)


def test_exact_check_accepts_program_output():
    assert bench_checks.check_exact([[3, 2], [2, 3]], (1, 1), (2, 2), workloads.exact_results([[3, 2], [2, 3]], (1, 1))) == []
    assert bench_checks.check_exact([[4, 0], [0, 4]], (1, 1), None, workloads.exact_results([[4, 0], [0, 4]], (1, 1))) == []


def test_exact_check_rejects_wrong_invariant_factor():
    out = workloads.exact_results([[4, 0], [0, 4]], (1, 1))
    assert out["group"].invariant_factors == (4, 4)
    out["group"].invariant_factors = (2, 8)  # same product, wrong group
    assert any("invariant factors" in p for p in bench_checks.check_exact([[4, 0], [0, 4]], (1, 1), None, out))


def test_exact_check_rejects_wrong_exponents_and_norm():
    rows = [[3, 2], [2, 3]]
    out = workloads.exact_results(rows, (1, 1))
    t1 = list(out["rep"].t1_exponents)
    t1[1] = (t1[1] + 1) % 5
    out["rep"] = replace(out["rep"], t1_exponents=tuple(t1))
    assert bench_checks.check_exact(rows, (1, 1), (2, 2), out)
    out = workloads.exact_results(rows, (1, 1))
    out["norm"] = 1.0 + 1e-8
    assert bench_checks.check_exact(rows, (1, 1), (2, 2), out)
    out = workloads.exact_results(rows, (1, 1))
    out["inv"] = replace(out["inv"], stable=False)
    assert bench_checks.check_exact(rows, (1, 1), (2, 2), out)


def test_failed_operations_are_counted_and_carry_no_work():
    ops = [
        workloads.Op("ok", lambda: 5, work=lambda out: out),
        workloads.Op("nan", lambda: float("nan"), work=lambda out: 7, silent_failure=lambda out: out != out),
        workloads.Op("raises", lambda: 1 / 0, work=lambda out: 11),
    ]
    wl = workloads.Workload("w", ops, check=lambda outs: ([], {}))
    units = [workloads.run_unit(wl) for _ in range(3)]
    assert isinstance(units[0][2], workloads.Raised)
    assert workloads.tally(ops, units) == (9, 6, 15)


def test_failed_gram_is_skipped_by_checks_and_counted():
    wl = workloads.laughlin_sweep(0, Path("."))
    nan_report = gram.GramReport(
        matrix=np.full((3, 3), np.nan + 0j), stderr=np.full((3, 3), np.nan), basis_labels=("a", "b", "c"),
        scheme="qmc", total_points=64, seed=0, kappa_ref=None, offdiag_ratio=np.nan,
        diag_spread=np.nan, kappa_rel_err=None, hermiticity=np.nan,
    )
    op = wl.ops[0]
    assert op.failed(nan_report)
    assert workloads.tally([op], [[nan_report]]) == (1, 1, 0)


def test_manybody_check_passes_on_program_output():
    spec = th.WaveFunctionSpec(
        datum=th.validate_wen_datum(th.jain_matrix(1, 2), (1, 1)), xi=(0.1 + 0.2j, 0j), torus=th.TorusParams(1j)
    )
    report = th.gram_manybody(spec, th.QuadratureSpec(scheme="qmc", samples=1 << 12, seed=3))
    basis = bench_checks.manybody_basis([[2, 1], [1, 2]])
    assert list(report.basis_labels) == [bench_checks.basis_label(c) for c in basis]
    assert bench_checks.check_qmc_gram(report.matrix, report.stderr, 16, "jain") == []
    ref = [bench_checks.trapezoid_diagonal(spec, basis, p) for p in workloads.TRAPEZOID_P]
    assert bench_checks.check_reference_diagonal(report.matrix, report.stderr, 16, ref[0], ref[1], "jain") == []


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    assert tracer.self_times() == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_traced_wraps_names_imported_into_other_modules():
    original = th.wavefunctions.center_basis_batch
    tracer = spans.Tracer()
    with spans.traced(tracer):
        assert gram.center_basis_batch is th.wavefunctions.center_basis_batch is not original
        th.theta.jacobi_theta(0.0, 0.0, 0.1 + 0.1j, 1j)
    assert gram.center_basis_batch is original
    assert tracer.counts == {"theta.jacobi_calls": 1, "theta.jacobi_points": 1}
    assert [s[0] for s in tracer.spans] == ["theta.jacobi"]


def test_benchmark_json_names_every_metric():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    printed = set(run.layer_metrics([1.0], [1.0], [({}, {}, 0)])) | set(run.IMPORT_MODULES)
    assert printed == {m["name"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
