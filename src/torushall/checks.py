"""The checked laws: one table of names, law texts and thresholds.

``LAWS`` is the only place a check's name, the law it states and its
threshold are written.  ``record`` turns a measured defect into the record
that verify-all, gram-center and gram-manybody print; its verdict is PASS
exactly when measured < threshold, so a NaN defect fails.  Laws that hold
exactly measure 0.0 when they hold and 1.0 when they do not, against 0.5.

The ``check_*`` functions exercise one group of laws at desk scale and
return its records; the acceptance suite calls them with its own seeds,
sample counts and cases.  All randomness is seeded, so output is
deterministic for a fixed seed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np

from . import bundles, gram, heisenberg, wavefunctions, wen
from .theta import (
    OmegaMatrix,
    ThetaCharacteristics,
    TorusParams,
    jacobi_theta,
    jacobi_theta_batch,
    riemann_theta,
    riemann_theta_batch,
    theta_odd_batch,
)

# name -> (law, threshold on the measured defect)
LAWS: dict[str, tuple[str, float]] = {
    "theta.shift_one": ("theta[a,b](z+1) = exp(2 pi i a) theta[a,b](z)", 1e-11),
    "theta.shift_tau": (
        "theta[a,b](z+tau) = exp(-2 pi i (z+b) - pi i tau) theta[a,b](z)",
        1e-11,
    ),
    "theta.odd_zero": ("theta_odd(0) = 0", 1e-12),
    "theta.oddness": ("theta_odd(-z) = -theta_odd(z)", 1e-12),
    "mtheta.shift_lattice": ("Theta[a,b](z+l) = exp(2 pi i a.l) Theta[a,b](z)", 1e-10),
    "mtheta.shift_omega": (
        "Theta[a,b](z+Omega l) = exp(-2 pi i l.(z+b) - pi i l.Omega l) Theta",
        1e-10,
    ),
    "mtheta.diag_factor": (
        "diagonal Omega: Theta factorizes into one-variable thetas",
        1e-11,
    ),
    "wen.family_invariants": (
        "det = p g + 1, adjugate sum = g, gcd = 1, u = e/delta",
        0.5,
    ),
    "wen.adjugate_entries": ("adjugate has delta - p on the diagonal and -p off it", 0.5),
    "wen.group_order": ("|Pi| = delta = product of invariant factors", 0.5),
    "heisenberg.relations": (
        "T1^delta = T2^delta = 1 and T1 T2 = q T2 T1 (exponent arithmetic)",
        0.5,
    ),
    "heisenberg.unitarity": ("T_i are unitary", 1e-14),
    "heisenberg.primitivity": (
        "q = exp(2 pi i rho/delta) primitive iff gcd(delta, rho) = 1",
        0.5,
    ),
    "heisenberg.character_norm": ("(chi, chi) = 1 for the standard representation", 1e-10),
    "gram.center_orthogonal": ("distinct basis thetas are orthogonal", 1e-8),
    "gram.center_scalar": ("all basis norms agree", 1e-8),
    "gram.center_kappa": ("diagonal equals the closed-form Gaussian norm", 1e-6),
    "gram.manybody_scalar": ("Gram matrix of the many-body basis is scalar", 0.02),
    "gram.manybody_sigma": (
        "off-diagonal entries and diagonal differences vanish within replicate standard errors",
        3.0,
    ),
    "wavefn.shift_one": (
        "moving one coordinate by 1 multiplies Phi_c by the sector sign",
        1e-9,
    ),
    "wavefn.shift_tau": (
        "moving one coordinate by tau multiplies Phi_c by sign*exp(-2 pi i xi_k)*phi(z)^d",
        1e-9,
    ),
    "magnetic.t1_eigenvalue": ("T1 Phi_c = upsilon(u, c) Phi_c", 1e-9),
    "magnetic.t2_shift": ("T2 Phi_c = Phi_{c+u}", 1e-9),
    "bundle.slope_exact": (
        "slope * rank = degree = -rho, stable iff gcd(delta, rho) = 1",
        0.5,
    ),
    "bundle.dual_pairing": ("dual and primal lattice generators pair integrally", 1e-12),
}


def record(name: str, measured: float) -> dict:
    """The record of law ``name`` at the table's threshold."""
    law, threshold = LAWS[name]
    return {
        "name": name,
        "law": law,
        "measured": float(measured),
        "threshold": float(threshold),
        "verdict": "PASS" if measured < threshold else "FAIL",
    }


def passed(records: list[dict]) -> bool:
    return all(r["verdict"] == "PASS" for r in records)


def _exact(ok: bool) -> float:
    return 0.0 if ok else 1.0


def _worst(*values: float) -> float:
    """The largest value, NaN if any is NaN (the builtin max would drop it)."""
    return float(np.max(values))


def _residual(lhs, rhs):
    """|lhs - rhs| / max(1, |lhs|, |rhs|), elementwise; NaN stays NaN."""
    return np.abs(lhs - rhs) / np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))


def check_theta_laws(seed: int = 0, samples: int = 100) -> list[dict]:
    """Quasi-periodicity, oddness and theta_odd(0) = 0 at ``samples`` random (tau, z, a, b).

    theta_odd(0) is the third point of the oddness batch at each sampled tau.
    """
    rng = np.random.default_rng(seed)
    worst_shift1 = worst_shift_tau = worst_odd = zero = 0.0
    for _ in range(samples):
        tau = TorusParams(complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0)))
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        a, b = rng.uniform(-0.5, 0.5, size=2)
        base, lhs1, lhs2 = jacobi_theta_batch(a, b, [z, z + 1, z + tau.tau], tau)
        worst_shift1 = _worst(worst_shift1, _residual(lhs1, np.exp(2j * np.pi * a) * base))
        fac = np.exp(-2j * np.pi * (z + b) - 1j * np.pi * tau.tau)
        worst_shift_tau = _worst(worst_shift_tau, _residual(lhs2, fac * base))
        plus, minus, origin = theta_odd_batch([z, -z, 0.0], tau)
        worst_odd = _worst(worst_odd, abs(plus + minus))
        zero = _worst(zero, abs(origin))
    return [
        record("theta.shift_one", worst_shift1),
        record("theta.shift_tau", worst_shift_tau),
        record("theta.odd_zero", zero),
        record("theta.oddness", worst_odd),
    ]


def random_omega(rng: np.random.Generator, g: int) -> OmegaMatrix:
    m = rng.uniform(-0.5, 0.5, size=(g, g))
    y = m @ m.T + np.eye(g) * rng.uniform(0.6, 1.4)
    s = rng.uniform(-0.4, 0.4, size=(g, g))
    return OmegaMatrix.create((s + s.T) / 2 + 1j * y)


def check_multitheta_laws(seed: int = 0, samples: int = 20) -> list[dict]:
    rng = np.random.default_rng(seed)
    worst1 = worst2 = worst_fac = 0.0
    for g in (1, 2, 3):
        for _ in range(samples):
            om = random_omega(rng, g)
            chars = ThetaCharacteristics(
                a=tuple(rng.uniform(-0.5, 0.5, size=g)),
                b=tuple(rng.uniform(-0.5, 0.5, size=g)),
            )
            z = rng.uniform(-0.5, 0.5, size=g) + 1j * rng.uniform(-0.5, 0.5, size=g)
            l = rng.integers(-1, 2, size=g).astype(float)
            base, lhs1, lhs2 = riemann_theta_batch(chars, [z, z + l, z + om.omega @ l], om)
            a = np.asarray(chars.a)
            b = np.asarray(chars.b)
            worst1 = _worst(worst1, _residual(lhs1, np.exp(2j * np.pi * (a @ l)) * base))
            fac = np.exp(-2j * np.pi * (l @ (z + b)) - 1j * np.pi * (l @ om.omega @ l))
            worst2 = _worst(worst2, _residual(lhs2, fac * base))
        # diagonal factorization
        for _ in range(5):
            diag = rng.uniform(-0.4, 0.4, size=g) + 1j * rng.uniform(0.6, 1.6, size=g)
            omd = OmegaMatrix.create(np.diag(diag))
            chars = ThetaCharacteristics(
                a=tuple(rng.uniform(-0.5, 0.5, size=g)),
                b=tuple(rng.uniform(-0.5, 0.5, size=g)),
            )
            z = rng.uniform(-0.5, 0.5, size=g) + 1j * rng.uniform(-0.5, 0.5, size=g)
            whole = riemann_theta(chars, z, omd)
            prod = 1.0 + 0.0j
            for j in range(g):
                prod *= jacobi_theta(
                    chars.a[j], chars.b[j], z[j], TorusParams(complex(diag[j]))
                )
            worst_fac = _worst(worst_fac, abs(whole - prod) / max(1.0, abs(whole)))
    return [
        record("mtheta.shift_lattice", worst1),
        record("mtheta.shift_omega", worst2),
        record("mtheta.diag_factor", worst_fac),
    ]


def check_wen_exactness(pmax: int = 6, gmax: int = 6) -> list[dict]:
    ok_inv = ok_adj = ok_pi = True
    for p in range(1, pmax + 1):
        for g in range(1, gmax + 1):
            K = wen.jain_matrix(p, g)
            ok_inv &= (
                K.delta == p * g + 1
                and K.rho == g
                and K.primary
                and all(x == Fraction(1, K.delta) for x in K.u)
            )
            for i in range(g):
                for j in range(g):
                    want = K.delta - p if i == j else -p
                    ok_adj &= K.adjugate[i][j] == want
            grp = wen.pi_group(K)
            prod = 1
            for f in grp.invariant_factors:
                prod *= f
            ok_pi &= len(grp) == K.delta and prod == K.delta
    return [
        record("wen.family_invariants", _exact(ok_inv)),
        record("wen.adjugate_entries", _exact(ok_adj)),
        record("wen.group_order", _exact(ok_pi)),
    ]


def check_heisenberg(datum: wen.WenDatum) -> list[dict]:
    K = datum.matrix
    rep = heisenberg.rep_matrices(datum)
    try:
        rep.verify_relations()
        relations_ok = True
    except AssertionError:
        relations_ok = False
    t1 = rep.t1_matrix()
    t2 = rep.t2_matrix()
    unit = _worst(
        np.max(np.abs(t1 @ t1.conj().T - np.eye(K.delta))),
        np.max(np.abs(t2 @ t2.conj().T - np.eye(K.delta))),
    )
    return [
        record("heisenberg.relations", _exact(relations_ok)),
        record("heisenberg.unitarity", unit),
        record("heisenberg.primitivity", _exact(rep.q_is_primitive() == K.primary)),
        record("heisenberg.character_norm", abs(heisenberg.irreducibility_norm(K) - 1.0)),
    ]


def gram_center_records(report: gram.GramReport) -> list[dict]:
    """The center Gram's records: orthogonality, equal norms and the closed-form norm."""
    return [
        record("gram.center_orthogonal", report.offdiag_ratio),
        record("gram.center_scalar", report.diag_spread),
        record("gram.center_kappa", report.kappa_rel_err),
    ]


def check_gram_center(K: wen.WenMatrix, xi, tau) -> list[dict]:
    return gram_center_records(gram.gram_center(K, xi, tau))


def gram_manybody_records(report: gram.GramReport) -> list[dict]:
    """Scalarness of a many-body Gram matrix; QMC reports add the sigma test.

    The scalar record measures the larger of the relative off-diagonal size
    and the relative diagonal spread.
    """
    deviation = _worst(report.offdiag_ratio, report.diag_spread)
    out = [record("gram.manybody_scalar", deviation)]
    if report.offdiag_sigmas is not None:
        sigmas = _worst(report.offdiag_sigmas, report.diag_pair_sigmas)
        out.append(record("gram.manybody_sigma", sigmas))
    return out


def check_kvw_quasi_periodicity(
    spec: wavefunctions.WaveFunctionSpec, seed: int = 0, samples: int = 10
) -> list[dict]:
    """Move one drawn coordinate z_p^(k) of each configuration by 1 and by tau."""
    rng = np.random.default_rng(seed)
    cosets = wen.pi_group(spec.datum.matrix).elements
    configs, slots, ks, cols = [], [], [], []
    first = np.cumsum((0,) + spec.datum.n_vec)  # flat index of each layer's first particle
    for _ in range(samples):
        configs.append(wavefunctions.random_configuration(spec, rng))
        slots.append(int(rng.integers(0, len(cosets))))
        ks.append(int(rng.integers(0, spec.g)))
        cols.append(first[ks[-1]] + int(rng.integers(0, spec.datum.n_vec[ks[-1]])))
    z = wavefunctions.configuration_array(configs)
    rows = np.arange(samples)

    def phi(moved):  # Phi_c of each row's own coset
        return wavefunctions.phi_values(spec, cosets, moved)[slots, rows]

    base = phi(z)
    out = []
    for name, step, direction in (
        ("wavefn.shift_one", 1.0, "1"),
        ("wavefn.shift_tau", spec.torus.tau, "tau"),
    ):
        moved = z.copy()
        moved[rows, cols] += step
        fac = wavefunctions.lattice_shift_factor(spec, ks, z[rows, cols], direction)
        out.append(record(name, _worst(_residual(phi(moved), fac * base))))
    return out


def check_magnetic_action(
    spec: wavefunctions.WaveFunctionSpec, seed: int = 0, samples: int = 10
) -> list[dict]:
    rng = np.random.default_rng(seed)
    configs = [wavefunctions.random_configuration(spec, rng) for _ in range(samples)]
    t1, t2 = wavefunctions.magnetic_residuals(spec, wavefunctions.configuration_array(configs))
    return [record("magnetic.t1_eigenvalue", _worst(t1)), record("magnetic.t2_shift", _worst(t2))]


def check_bundle_exactness(K: wen.WenMatrix, tau) -> list[dict]:
    inv = bundles.restricted_invariants(K)
    exact_ok = (
        inv.slope * inv.rank == inv.degree
        and inv.degree == -K.rho
        and inv.rank == K.delta
        and inv.stable == (gcd(K.delta, K.rho) == 1)
    )
    return [
        record("bundle.slope_exact", _exact(exact_ok)),
        record("bundle.dual_pairing", bundles.max_pairing_offset(K, tau)),
    ]


def run_verify_all(
    K: wen.WenMatrix,
    n_vec,
    tau,
    xi,
    seed: int,
) -> list[dict]:
    """The full composed suite on one datum, at desk-scale sizes."""
    checks: list[dict] = []
    checks += check_theta_laws(seed=seed, samples=40)
    checks += check_multitheta_laws(seed=seed, samples=8)
    checks += check_wen_exactness(pmax=4, gmax=4)
    datum = wen.validate_wen_datum(K, n_vec)
    checks += check_heisenberg(datum)
    checks += check_gram_center(K, xi, tau)
    spec = wavefunctions.WaveFunctionSpec(
        datum=datum, xi=tuple(xi), torus=TorusParams(complex(tau))
    )
    checks += check_kvw_quasi_periodicity(spec, seed=seed)
    checks += check_magnetic_action(spec, seed=seed, samples=6)
    checks += check_bundle_exactness(K, tau)
    return checks
