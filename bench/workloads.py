"""The benchmark's workloads: inputs from a seed, the operations of one unit, checks.

A unit is one pass over a workload's whole operation list, so all units of
a run are alike.  Building a workload (and importing torushall before it)
is the set-up; calling the operations is the timed part; checking their
outputs happens after timing.  Operations look the program's functions up on
the package at call time, so the traced run's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Hashable

import numpy as np

import bench_checks

README_DATUM = {"K": [[3, 2], [2, 3]], "n": [1, 1], "tau": [0, 1], "xi": [[0.1, 0.2], [0, 0]]}
QMC_REPLICATES = 16
JAIN_SAMPLES = 1 << 14
LAUGHLIN_SAMPLES = 1 << 13
# n = 5 for K = [[3]] and n = 6 for K = [[2]] are left out: the silent-NaN
# fault hits them on some seeds only (57 and 15 of 60 seeds at 2^14 samples),
# so they cannot be counted as failed the same way in every run.
LAUGHLIN_N = {3: (2, 3, 4, 6, 7, 8), 2: (2, 3, 4, 5, 7, 8)}
TRAPEZOID_P = (11, 13)  # both coprime to d = 3 and d = 5


def _jain_rows(p: int, g: int) -> list[list[int]]:
    return [[p + 1 if i == j else p for j in range(g)] for i in range(g)]


# (rows, n, Jain (p, g) or None); delta from 9 to 9,999, g from 2 to 8.
EXACT_CASES = [
    (_jain_rows(50, 2), (1, 1), (50, 2)),
    (_jain_rows(33, 3), (1, 1, 1), (33, 3)),
    (_jain_rows(20, 5), (1,) * 5, (20, 5)),
    (_jain_rows(25, 8), (1,) * 8, (25, 8)),
    (_jain_rows(62, 8), (1,) * 8, (62, 8)),
    (_jain_rows(4999, 2), (1, 1), (4999, 2)),
    ([[20, 0], [0, 20]], (1, 1), None),  # diag(2m, 2m): not primary, Pi = Z_20^2
    (_jain_rows(4, 2), (1, 1), (4, 2)),  # delta = 9, character norm
    (_jain_rows(3, 3), (1, 1, 1), (3, 3)),  # delta = 10, character norm
]


@dataclass
class Raised:
    """An operation that raised instead of returning."""

    error: str

    def __eq__(self, other) -> bool:
        return isinstance(other, Raised) and other.error == self.error


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    work: Callable[[Any], int]
    silent_failure: Callable[[Any], bool] = lambda out: False
    case: Any = None  # what the checks need to know about the input

    def failed(self, out) -> bool:
        return isinstance(out, Raised) or self.silent_failure(out)


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # outputs of one unit -> (problems, notes); failed operations are skipped
    check: Callable[[list], tuple[list[str], dict]]
    # a small value that is equal exactly when two outputs of an operation are
    digest: Callable[[Any], Hashable] = lambda out: out


def run_unit(workload: Workload) -> list:
    outputs = []
    for op in workload.ops:
        try:
            outputs.append(op.call())
        except Exception as exc:  # counted as a failed operation, reported with the result
            outputs.append(Raised(f"{type(exc).__name__}: {exc}"))
    return outputs


def tally(ops: list[Op], units: list[list]) -> tuple[int, int, int]:
    """(attempted, failed, work of the operations that did not fail)."""
    attempted = failed = work = 0
    for outputs in units:
        for op, out in zip(ops, outputs):
            attempted += 1
            if op.failed(out):
                failed += 1
            else:
                work += op.work(out)
    return attempted, failed, work


# ---------------------------------------------------------------------------
# verify-readme


def verify_readme(seed: int, workdir: Path) -> Workload:
    from torushall import cli

    path = workdir / "readme_datum.json"
    path.write_text(json.dumps(README_DATUM))

    def cli_op(command: str) -> Op:
        argv = [command, "--input", str(path), "--seed", str(seed), "--format", "json"]

        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                status = cli.main(argv)
            return status, buf.getvalue()

        return Op(command, call, work=lambda out: len(json.loads(out[1])["checks"]))

    ops = [cli_op("verify-all"), cli_op("gram-center")]

    def check(outputs):
        problems, records = [], 0
        for op, out in zip(ops, outputs):
            if op.failed(out):
                continue
            status, text = out
            if status != 0:
                problems.append(f"{op.label}: exit status {status}")
            payload = json.loads(text)
            records += len(payload["checks"])
            if op.label == "verify-all":
                problems += bench_checks.check_records(payload, "verify-all")
            else:
                xi = [complex(re, im) for re, im in README_DATUM["xi"]]
                kappa = bench_checks.kappa_reference(README_DATUM["K"], xi, complex(*README_DATUM["tau"]))
                problems += bench_checks.check_gram_center(payload, kappa)
        return problems, {"records": records}

    return Workload("verify-readme", ops, check)


# ---------------------------------------------------------------------------
# many-body Gram by QMC


def _gram_ops(cases, samples: int, seed: int) -> list[Op]:
    import torushall as th

    quad = th.QuadratureSpec(scheme="qmc", samples=samples, seed=seed, replicates=QMC_REPLICATES)
    ops = []
    for label, rows, n_vec, xi in cases:
        datum = th.validate_wen_datum(th.validate_wen_matrix(rows), n_vec)
        spec = th.WaveFunctionSpec(datum=datum, xi=xi, torus=th.TorusParams(1j))
        ops.append(
            Op(
                label,
                lambda spec=spec: th.gram_manybody(spec, quad),
                work=lambda r: r.total_points * len(r.basis_labels),
                silent_failure=lambda r: not np.all(np.isfinite(r.matrix)),
                case=(rows, spec),
            )
        )
    return ops


def _gram_digest(report) -> Hashable:
    return report.matrix.tobytes(), report.stderr.tobytes(), report.scalar_pass


def _gram_check(ops: list[Op], reference: bool):
    def check(outputs):
        problems, notes = [], {}
        for op, report in zip(ops, outputs):
            if op.failed(report):
                notes[op.label] = "failed: " + (report.error if isinstance(report, Raised) else "non-finite Gram matrix")
                continue
            rows, spec = op.case
            basis = bench_checks.manybody_basis(rows)
            if list(report.basis_labels) != [bench_checks.basis_label(c) for c in basis]:
                problems.append(f"{op.label}: basis {report.basis_labels} is not the powers of u")
            problems += bench_checks.check_qmc_gram(report.matrix, report.stderr, QMC_REPLICATES, op.label)
            if reference:
                ref = [bench_checks.trapezoid_diagonal(spec, basis, p) for p in TRAPEZOID_P]
                problems += bench_checks.check_reference_diagonal(
                    report.matrix, report.stderr, QMC_REPLICATES, ref[0], ref[1], op.label
                )
            # the program's own verdict, recorded only (it has no multiple-comparison allowance)
            notes[op.label] = f"program scalar_pass = {report.scalar_pass}"
        return problems, notes

    return check


def manybody_jain(seed: int, workdir: Path) -> Workload:
    xi = (0.1 + 0.2j, 0j)
    cases = [
        ("jain(1,2)", _jain_rows(1, 2), (1, 1), xi),
        ("jain(2,2)", _jain_rows(2, 2), (1, 1), xi),
    ]
    ops = _gram_ops(cases, JAIN_SAMPLES, seed)
    return Workload("manybody-jain", ops, _gram_check(ops, reference=True), _gram_digest)


def laughlin_sweep(seed: int, workdir: Path) -> Workload:
    cases = [
        (f"[[{m}]] n={n}", [[m]], (n,), (0j,)) for m, ns in LAUGHLIN_N.items() for n in ns
    ]
    ops = _gram_ops(cases, LAUGHLIN_SAMPLES, seed)
    return Workload("laughlin-sweep", ops, _gram_check(ops, reference=False), _gram_digest)


# ---------------------------------------------------------------------------
# exact algebra at large delta


def exact_results(rows, n_vec) -> dict:
    """One exact-layer operation: every exact entry point on one matrix."""
    import torushall as th

    K = th.validate_wen_matrix(rows)
    datum = th.validate_wen_datum(K, n_vec)
    return {
        "K": K,
        "datum": datum,
        "group": th.pi_group(K),
        "rep": th.rep_matrices(datum),
        "inv": th.restricted_invariants(K),
        "offset": th.max_pairing_offset(K, 1j),
        "norm": th.irreducibility_norm(K) if K.delta <= 10 else None,
    }


def exact_large_delta(seed: int, workdir: Path) -> Workload:
    cases = list(EXACT_CASES)
    random.Random(seed).shuffle(cases)  # the seed sets the order; every unit costs the same
    ops = [
        Op(f"K={rows}", lambda rows=rows, n_vec=n_vec: exact_results(rows, n_vec),
           work=lambda out: out["K"].delta, case=(rows, n_vec, jain))
        for rows, n_vec, jain in cases
    ]

    def check(outputs):
        problems = []
        for op, out in zip(ops, outputs):
            if not op.failed(out):
                problems += bench_checks.check_exact(*op.case, out)
        return problems, {}

    def digest(out) -> Hashable:
        group = out["group"]
        rest = tuple(out[k] for k in ("K", "datum", "rep", "inv", "offset", "norm"))
        return hash((group.invariant_factors, group.elements) + rest)

    return Workload("exact-large-delta", ops, check, digest)


WORKLOADS = {
    "verify-readme": verify_readme,
    "manybody-jain": manybody_jain,
    "laughlin-sweep": laughlin_sweep,
    "exact-large-delta": exact_large_delta,
}
