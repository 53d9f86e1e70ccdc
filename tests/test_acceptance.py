"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion runs the laws of :mod:`torushall.checks` on its own seeds,
sample counts and cases, prints one [PASS]/[FAIL] line (visible with
``pytest -s``) for the record nearest its threshold, and asserts that every
record passes within the criterion's runtime budget.  Only criterion 9's
Jain-slope and total-Chern assertions are written here.
"""

import time
from fractions import Fraction
from math import comb

import numpy as np

from conftest import random_wen_matrix
from torushall import checks
from torushall.bundles import jain_fraction, restricted_invariants, total_chern
from torushall.gram import QuadratureSpec, gram_manybody
from torushall.theta import TorusParams
from torushall.wavefunctions import WaveFunctionSpec
from torushall.wen import jain_matrix, validate_wen_datum, validate_wen_matrix


def _report(num, name, records, elapsed, budget, ok=True):
    """Print the criterion's line for its worst record and assert it passed in budget."""
    worst = max(records, key=lambda r: r["measured"] / r["threshold"])
    failed = [r["name"] for r in records if r["verdict"] != "PASS"]
    ok = ok and not failed
    verdict = "PASS" if ok else "FAIL"
    print(
        f"[{verdict}] criterion {num}: {name} "
        f"(measured {worst['measured']:.3e}, threshold {worst['threshold']:.1e}, "
        f"{elapsed:.2f}s / {budget:.0f}s)"
    )
    assert ok, f"criterion {num} failed: {failed or 'test-side assertion'}"
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.2f}s"


def test_criterion_1_theta_laws():
    start = time.perf_counter()
    records = checks.check_theta_laws(seed=101, samples=100)
    _report(1, "one-variable theta laws", records, time.perf_counter() - start, 2.0)


def test_criterion_2_multivariate_theta():
    start = time.perf_counter()
    records = checks.check_multitheta_laws(seed=202, samples=15)
    _report(2, "multivariate theta laws (g <= 3)", records, time.perf_counter() - start, 5.0)


def test_criterion_3_wen_invariants_exact():
    start = time.perf_counter()
    records = checks.check_wen_exactness(pmax=6, gmax=6)
    elapsed = time.perf_counter() - start
    _report(3, "coupling-matrix invariants exact (p, g <= 6)", records, elapsed, 1.0)


def test_criterion_4_heisenberg_relations():
    start = time.perf_counter()
    data = [validate_wen_datum(validate_wen_matrix([[k]]), (1,)) for k in range(1, 13)]
    data += [
        validate_wen_datum(jain_matrix(p, g), (1,) * g)
        for p, g in ((1, 2), (2, 2), (1, 4), (2, 5), (1, 11), (1, 6))
    ]
    data.append(validate_wen_datum(validate_wen_matrix([[2, 0], [0, 2]]), (1, 1)))
    # relations, unitarity, primitivity and the character norm for every datum
    records = [r for datum in data for r in checks.check_heisenberg(datum)]
    elapsed = time.perf_counter() - start
    _report(4, "translation relations and character norm", records, elapsed, 5.0)


def test_criterion_5_center_gram():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    records = []
    mats = (validate_wen_matrix([[2]]), validate_wen_matrix([[3]]), jain_matrix(1, 2))
    for K in mats:
        for tau in (1j, 0.3 + 1.1j):
            xi = tuple(
                rng.uniform(-0.5, 0.5, size=K.g) + 1j * rng.uniform(-0.5, 0.5, size=K.g)
            )
            records += checks.check_gram_center(K, xi, tau)
    elapsed = time.perf_counter() - start
    _report(
        5, "center-of-mass Gram orthogonal and matching the closed form", records, elapsed, 10.0
    )


def test_criterion_6_kvw_quasi_periodicity():
    start = time.perf_counter()
    records = []
    cases = [
        (jain_matrix(1, 2), (1, 1), (0.1 + 0.2j, -0.05 + 0.15j)),
        (validate_wen_matrix([[2]]), (2,), (0.3 - 0.1j,)),
    ]
    for seed, (K, nvec, xi) in enumerate(cases, start=606):
        datum = validate_wen_datum(K, nvec)
        spec = WaveFunctionSpec(datum=datum, xi=xi, torus=TorusParams(0.2 + 0.9j))
        records += checks.check_kvw_quasi_periodicity(spec, seed=seed, samples=20)
    elapsed = time.perf_counter() - start
    _report(6, "many-body quasi-periodicity with sector sign", records, elapsed, 10.0)


def test_criterion_7_magnetic_action():
    start = time.perf_counter()
    rng = np.random.default_rng(707)
    records = []
    cases = [
        (validate_wen_matrix([[2]]), (2,)),
        (validate_wen_matrix([[3]]), (1,)),
        (jain_matrix(1, 2), (1, 1)),
        (jain_matrix(2, 2), (1, 1)),
    ]
    for seed, (K, nvec) in enumerate(cases, start=707):
        assert K.primary and K.delta <= 5
        datum = validate_wen_datum(K, nvec)
        xi = tuple(
            rng.uniform(-0.3, 0.3, size=K.g) + 1j * rng.uniform(-0.3, 0.3, size=K.g)
        )
        spec = WaveFunctionSpec(datum=datum, xi=xi, torus=TorusParams(0.1 + 1.0j))
        records += checks.check_magnetic_action(spec, seed=seed, samples=20)
    elapsed = time.perf_counter() - start
    _report(7, "magnetic translation eigenvalue and shift laws", records, elapsed, 10.0)


def test_criterion_8_manybody_gram():
    start = time.perf_counter()
    K = validate_wen_matrix([[2]])
    datum = validate_wen_datum(K, (2,))
    spec = WaveFunctionSpec(datum=datum, xi=(0j,), torus=TorusParams(1j))
    quad = QuadratureSpec(scheme="qmc", samples=1 << 20, replicates=16, seed=808)
    report = gram_manybody(spec, quad)
    records = checks.gram_manybody_records(report)
    elapsed = time.perf_counter() - start
    assert [r["name"] for r in records] == ["gram.manybody_scalar", "gram.manybody_sigma"]
    ok = report.total_points >= 10**6
    _report(8, "many-body Gram scalar within sampling error", records, elapsed, 120.0, ok)


def test_criterion_9_bundle_invariants():
    start = time.perf_counter()
    ok = True
    for p in range(1, 7):
        for g in range(1, 7):
            inv = restricted_invariants(jain_matrix(p, g))
            ok &= inv.slope == Fraction(-g, p * g + 1)
            ok &= abs(inv.slope) == jain_fraction(p, g)
    rng = np.random.default_rng(909)
    records = []
    for _ in range(50):
        K = random_wen_matrix(rng, gmax=4)
        records += checks.check_bundle_exactness(K, 1j)
        for i, c in enumerate(total_chern(K)):
            ok &= c == Fraction(comb(K.delta, i), K.delta**i)
    elapsed = time.perf_counter() - start
    _report(9, "bundle invariants exact", records, elapsed, 1.0, ok)


def test_criterion_10_dual_lattice_pairing():
    start = time.perf_counter()
    tau = 0.3 + 1.1j
    records = [
        r
        for K in (validate_wen_matrix([[2]]), jain_matrix(1, 2), jain_matrix(2, 3))
        for r in checks.check_bundle_exactness(K, tau)
    ]
    elapsed = time.perf_counter() - start
    _report(10, "dual lattice pairs integrally", records, elapsed, 1.0)
