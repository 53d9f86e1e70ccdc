"""Command-line verification surface.

Subcommands: validate, invariants, theta-eval, wf-eval, heisenberg,
gram-center, gram-manybody, verify-all.  Input documents follow the
canonical schema of :mod:`torushall.serialize`; all numeric output is
deterministic for a fixed configuration and seed.  Every check record is
built by :mod:`torushall.checks`.  Exit status: 0 when every reported check
passes, 1 when any check fails, 2 on input errors, on a series tolerance
below theta.MIN_TOL, on quadrature sizes over the sampling budget and on a
value that leaves double range.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import bundles, checks, gram, heisenberg, wavefunctions, wen
from .serialize import (
    InputDocument,
    SchemaError,
    complex_to_pair,
    load_input,
    pair_to_complex,
    render_checks_human,
    render_json,
)
from .theta import NonconvergentModulusError, TorusParams, ToleranceTooSmallError, jacobi_theta

SCHEMA_VERSION = 1


class NonFiniteValueError(ArithmeticError):
    """A value computed from finite input is not finite in double precision."""


def _finite_value(evaluate, *args) -> complex:
    with np.errstate(over="ignore", invalid="ignore"):
        val = evaluate(*args)
    if not np.isfinite(val):
        raise NonFiniteValueError(f"the value {complex_to_pair(val)} is not finite")
    return val


def _default_n(K: wen.WenMatrix) -> tuple[int, ...]:
    """Smallest particle vector proportional to the adjugate row sums."""
    sums = [sum(row) for row in K.adjugate]
    g0 = math.gcd(*sums)
    return tuple(x // g0 for x in sums)


def _document(args) -> InputDocument:
    if not getattr(args, "input", None):
        raise SchemaError("this command requires --input")
    return load_input(args.input)


def _resolve(doc: InputDocument):
    K = wen.validate_wen_matrix(doc.K)
    n_vec = doc.n if doc.n is not None else _default_n(K)
    datum = wen.validate_wen_datum(K, n_vec)
    tau = doc.tau if doc.tau is not None else 1j
    xi = doc.xi if doc.xi is not None else (0j,) * K.g
    if len(xi) != K.g:
        raise SchemaError(f'"xi" must have {K.g} entries')
    return K, datum, complex(tau), tuple(xi)


def _emit(args, payload: dict, human: str) -> None:
    if args.format == "json":
        payload["schema_version"] = SCHEMA_VERSION
        print(render_json(payload))
    else:
        print(human)


def _finish_checks(args, command: str, records: list[dict]) -> int:
    ok = checks.passed(records)
    payload = {"command": command, "checks": records, "all_pass": ok}
    _emit(args, payload, render_checks_human(records))
    return 0 if ok else 1


def cmd_validate(args) -> int:
    doc = _document(args)
    K = wen.validate_wen_matrix(doc.K)
    lines = [
        f"valid coupling matrix ({K.g} layers)",
        f"delta = {K.delta}, rho = {K.rho}, statistics = "
        + ("bosonic (+1)" if K.epsilon == 1 else "fermionic (-1)"),
        "u = (" + ", ".join(str(x) for x in K.u) + ")",
        f"primary = {K.primary}",
    ]
    payload = {
        "command": "validate",
        "delta": K.delta,
        "rho": K.rho,
        "epsilon": K.epsilon,
        "u": [str(x) for x in K.u],
        "primary": K.primary,
    }
    if doc.n is not None:
        datum = wen.validate_wen_datum(K, doc.n)
        lines.append(f"datum: d = {datum.d}, n = {datum.n}")
        payload["d"] = datum.d
        payload["n_total"] = datum.n
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_invariants(args) -> int:
    doc = _document(args)
    K = wen.validate_wen_matrix(doc.K)
    inv = bundles.restricted_invariants(K)
    factors = wen.smith_normal_form(K.entries)[0]
    tau = doc.tau if doc.tau is not None else 1j
    offset = bundles.max_pairing_offset(K, tau)
    lines = [
        f"delta = {K.delta}, rho = {K.rho}, primary = {K.primary}",
        f"invariant factors: {list(factors)}",
        f"rank = {inv.rank}, degree = {inv.degree}, slope = {inv.slope_display}",
        f"stable = {inv.stable}",
        "total Chern coefficients: "
        + ", ".join(f"c{i}: {c}" for i, c in enumerate(inv.total_chern)),
        "c1 coefficient matrix (units -i/(2t)): "
        + "; ".join(" ".join(str(x) for x in row) for row in inv.c1_coeff),
        f"dual pairing max offset at tau = {tau}: {offset:.3e}",
    ]
    if inv.jain_params:
        p, g = inv.jain_params
        frac = bundles.jain_fraction(p, g)
        lines.append(f"standard family (p={p}, g={g}); filling fraction {frac}")
    payload = {
        "command": "invariants",
        "delta": K.delta,
        "rho": K.rho,
        "primary": K.primary,
        "invariant_factors": list(factors),
        "rank": inv.rank,
        "degree": inv.degree,
        "slope": inv.slope_display,
        "slope_reduced": str(inv.slope),
        "stable": inv.stable,
        "total_chern": [str(c) for c in inv.total_chern],
        "c1_coeff": [list(r) for r in inv.c1_coeff],
        "dual_pairing_offset": offset,
        "jain": list(inv.jain_params) if inv.jain_params else None,
    }
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_theta_eval(args) -> int:
    tau = TorusParams(complex(args.tau[0], args.tau[1]))
    z = complex(args.z[0], args.z[1])
    val = _finite_value(jacobi_theta, args.a, args.b, z, tau, args.tol)
    payload = {
        "command": "theta-eval",
        "value": complex_to_pair(val),
        "modulus": abs(val),
        "phase": float(np.angle(val)),
    }
    human = (
        f"theta[{args.a}, {args.b}]({z} | {tau.tau}) = {complex_to_pair(val)}\n"
        f"modulus = {abs(val):.15g}\nphase = {float(np.angle(val)):.15g}"
    )
    _emit(args, payload, human)
    return 0


def _load_config(path: str, datum: wen.WenDatum) -> np.ndarray:
    """The nested per-layer [re, im] pairs of a configuration file, as an (n,) array."""
    try:
        nested = json.loads(Path(path).read_text())
        layers = [[pair_to_complex(p, "configuration point") for p in layer] for layer in nested]
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid configuration JSON: {exc}") from exc
    except TypeError as exc:
        raise SchemaError("configuration must be nested [re, im] pairs per layer") from exc
    sizes = tuple(len(layer) for layer in layers)
    if sizes != datum.n_vec:
        raise SchemaError(f"configuration sizes {sizes} do not match n = {datum.n_vec}")
    return np.array(sum(layers, []), dtype=complex)


def cmd_wf_eval(args) -> int:
    doc = _document(args)
    K, datum, tau, xi = _resolve(doc)
    spec = wavefunctions.WaveFunctionSpec(datum=datum, xi=xi, torus=TorusParams(tau))
    grp = wen.pi_group(K)
    if not 0 <= args.c < len(grp):
        raise SchemaError(f"--c must index a coset in 0..{len(grp) - 1}")
    c = grp.elements[args.c]
    config = _load_config(args.config, datum)
    val = _finite_value(wavefunctions.kvw_wavefunction, spec, c, config, args.tol)
    payload = {
        "command": "wf-eval",
        "c": [str(x) for x in c],
        "value": complex_to_pair(val),
        "modulus": abs(val),
        "phase": float(np.angle(val)),
    }
    human = (
        f"Phi_c at c = ({', '.join(str(x) for x in c)}):\n"
        f"value = {complex_to_pair(val)}\nmodulus = {abs(val):.15g}\n"
        f"phase = {float(np.angle(val)):.15g}"
    )
    _emit(args, payload, human)
    return 0


def cmd_heisenberg(args) -> int:
    doc = _document(args)
    _K, datum, _tau, _xi = _resolve(doc)
    rep = heisenberg.rep_matrices(datum)
    rep.verify_relations()
    lines = [
        f"dimension = {rep.delta}, q = zeta^{rep.q_exponent} with zeta = exp(2 pi i/{rep.delta})",
        f"q primitive: {rep.q_is_primitive()}",
        "basis: " + "; ".join("(" + ", ".join(str(x) for x in c) + ")" for c in rep.basis),
        f"T1 diagonal exponents: {list(rep.t1_exponents)}",
        f"T2 permutation (slot -> image): {list(rep.t2_permutation)}",
    ]
    payload = {
        "command": "heisenberg",
        "delta": rep.delta,
        "q_exponent": rep.q_exponent,
        "q_primitive": rep.q_is_primitive(),
        "basis": [[str(x) for x in c] for c in rep.basis],
        "t1_exponents": list(rep.t1_exponents),
        "t2_permutation": list(rep.t2_permutation),
    }
    if args.matrices:
        t1 = rep.t1_matrix()
        t2 = rep.t2_matrix()
        payload["t1_matrix"] = [[complex_to_pair(x) for x in row] for row in t1]
        payload["t2_matrix"] = [[complex_to_pair(x) for x in row] for row in t2]
        lines.append("T1 = " + np.array2string(t1, precision=6))
        lines.append("T2 = " + np.array2string(t2, precision=6))
    _emit(args, payload, "\n".join(lines))
    return 0


def _gram_payload(report: gram.GramReport) -> dict:
    return {
        "basis": list(report.basis_labels),
        "scheme": report.scheme,
        "total_points": report.total_points,
        "seed": report.seed,
        "matrix": [[complex_to_pair(x) for x in row] for row in report.matrix],
        "stderr": [[float(x) for x in row] for row in report.stderr],
        "kappa_ref": report.kappa_ref,
        "offdiag_ratio": report.offdiag_ratio,
        "diag_spread": report.diag_spread,
        "kappa_rel_err": report.kappa_rel_err,
        "hermiticity": report.hermiticity,
        "aliasing_bound": report.aliasing_bound,
        "offdiag_sigmas": report.offdiag_sigmas,
        "diag_pair_sigmas": report.diag_pair_sigmas,
        "scalar_pass": report.scalar_pass,
    }


def _finish_gram(args, command: str, report: gram.GramReport, records: list[dict]) -> int:
    lines = [
        f"scheme = {report.scheme}, points = {report.total_points}"
        + (f", seed = {report.seed}" if report.seed is not None else ""),
        "basis: " + "; ".join(report.basis_labels),
    ]
    for i, row in enumerate(report.matrix):
        lines.append(
            "row %d: " % i + "  ".join(f"{x.real:+.9e}{x.imag:+.9e}j" for x in row)
        )
    lines.append(render_checks_human(records))
    payload = {"command": command, "checks": records, **_gram_payload(report)}
    _emit(args, payload, "\n".join(lines))
    return 0 if checks.passed(records) else 1


def cmd_gram_center(args) -> int:
    doc = _document(args)
    K, _datum, tau, xi = _resolve(doc)
    report = gram.gram_center(K, xi, tau, tol=args.tol)
    records = checks.gram_center_records(report)
    return _finish_gram(args, "gram-center", report, records)


def cmd_gram_manybody(args) -> int:
    doc = _document(args)
    K, datum, tau, xi = _resolve(doc)
    spec = wavefunctions.WaveFunctionSpec(datum=datum, xi=xi, torus=TorusParams(tau))
    quad = gram.QuadratureSpec(scheme=args.scheme, samples=args.samples, seed=args.seed)
    report = gram.gram_manybody(spec, quad, tol=args.tol)
    # non-primary matrices get no verdict
    return _finish_gram(args, "gram-manybody", report, report.records or [])


def cmd_verify_all(args) -> int:
    doc = _document(args)
    K, datum, tau, xi = _resolve(doc)
    records = checks.run_verify_all(K, datum.n_vec, tau, xi, seed=args.seed)
    return _finish_checks(args, "verify-all", records)


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return value


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text} is not a finite number")
    return value


FLAGS = {
    "input": dict(required=True, help="input document (JSON or matrix text)"),
    "tol": dict(type=_finite, default=gram.DEFAULT_TOL, help="series tolerance (at least 1e-14)"),
    "samples": dict(
        type=_positive_int, default=gram.QuadratureSpec.samples, help="QMC sample total"
    ),
    "seed": dict(type=int, default=0, help="random seed"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="torushall",
        description="Verification suite for multilayer torus Hall states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, *flags):
        """A subcommand with --format and only the shared flags it reads."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        for flag in flags:
            p.add_argument(f"--{flag}", **FLAGS[flag])
        p.add_argument(
            "--format", choices=("human", "json"), default="human", help="output format"
        )
        return p

    command("validate", cmd_validate, "validate a coupling matrix / datum", "input")
    command("invariants", cmd_invariants, "exact bundle and group invariants", "input")

    p = command("theta-eval", cmd_theta_eval, "evaluate theta[a,b](z | tau)", "tol")
    p.add_argument("--a", type=_finite, default=0.0)
    p.add_argument("--b", type=_finite, default=0.0)
    p.add_argument("--z", type=_finite, nargs=2, default=(0.0, 0.0), metavar=("RE", "IM"))
    p.add_argument("--tau", type=_finite, nargs=2, default=(0.0, 1.0), metavar=("RE", "IM"))

    p = command("wf-eval", cmd_wf_eval, "evaluate a many-body wave function", "input", "tol")
    p.add_argument("--c", type=int, default=0, help="coset index (lexicographic)")
    p.add_argument("--config", required=True, help="configuration JSON (nested [re, im])")

    p = command("heisenberg", cmd_heisenberg, "magnetic-translation matrices", "input")
    p.add_argument("--matrices", action="store_true", help="include floating matrices")

    # --seed is accepted and ignored: the trapezoid rule draws no samples
    command("gram-center", cmd_gram_center, "center-of-mass Gram matrix", "input", "tol", "seed")

    p = command("gram-manybody", cmd_gram_manybody, "many-body Gram matrix",
                "input", "tol", "samples", "seed")
    p.add_argument("--scheme", choices=gram.SCHEMES, default=gram.QuadratureSpec.scheme)

    command("verify-all", cmd_verify_all, "run the composed verification suite", "input", "seed")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (
        SchemaError,
        wen.WenValidationError,
        NonconvergentModulusError,
        ToleranceTooSmallError,
        gram.SamplingBudgetExceededError,
        NonFiniteValueError,
        OSError,
    ) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
