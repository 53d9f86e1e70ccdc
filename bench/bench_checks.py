"""Output checks for the benchmark, computed apart from the program.

Each check returns a list of problems; an empty list means the output
passed.  A check is either computed independently of the program (a
closed form, sympy's exact algebra, mpmath, a quadrature rule of the
benchmark's own) or is a property the method must have (finite, hermitian,
scalar within its standard errors).  None compares against a recorded
copy of the program's output.  sympy, mpmath and scipy.stats are imported
inside the functions, so they load after the timed units.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd

import numpy as np

# Family-wise false-rejection rate of the statistical checks on one Gram
# matrix, split over its tests by Bonferroni.
FAMILY_ALPHA = 1e-4
KAPPA_RTOL = 1e-6  # the program's documented gram-center criterion
HERMITIAN_RTOL = 1e-10
REFERENCE_RTOL = 1e-9


def check_records(payload: dict, command: str) -> list[str]:
    """Every check record of a CLI JSON payload is PASS."""
    problems = []
    if payload.get("command") != command:
        problems.append(f"{command}: payload is for {payload.get('command')!r}")
    records = payload.get("checks", [])
    if not records:
        problems.append(f"{command}: no check records")
    for rec in records:
        if rec.get("verdict") != "PASS":
            problems.append(f"{command}: {rec.get('name')} is {rec.get('verdict')}")
    return problems


def kappa_reference(K: list[list[int]], xi: list[complex], tau: complex) -> float:
    """kappa = (2t)^(-g/2) delta^(-1/2) exp(2 pi t a.K^-1 a), a = Im(xi)/t, in mpmath."""
    import mpmath
    import sympy

    mpmath.mp.dps = 30
    kmat = sympy.Matrix(K)
    g = kmat.shape[0]
    t = mpmath.mpf(tau.imag)
    a = [mpmath.mpf(z.imag) / t for z in xi]
    kinv = kmat.inv()
    quad = sum(a[i] * mpmath.mpf(kinv[i, j].p) / kinv[i, j].q * a[j] for i in range(g) for j in range(g))
    kappa = (2 * t) ** (-mpmath.mpf(g) / 2) * mpmath.mpf(int(kmat.det())) ** -0.5
    return float(kappa * mpmath.exp(2 * mpmath.pi * t * quad))


def _matrix(payload: dict) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in payload["matrix"]])


def check_gram_center(payload: dict, kappa: float) -> list[str]:
    """Diagonal equals kappa, off-diagonal below the printed threshold, hermitian."""
    problems = check_records(payload, "gram-center")
    gmat = _matrix(payload)
    diag = np.real(np.diag(gmat))
    if not np.all(np.isfinite(gmat)):
        return problems + ["gram-center: non-finite entry"]
    rel = np.abs(diag / kappa - 1.0)
    if rel.max() >= KAPPA_RTOL:
        problems.append(f"gram-center: diagonal is {rel.max():.3e} from kappa")
    thresholds = [r["threshold"] for r in payload["checks"] if r["name"] == "gram.center_orthogonal"]
    if len(thresholds) != 1:
        problems.append("gram-center: no orthogonality threshold printed")
    else:
        off = np.abs(gmat - np.diag(np.diag(gmat)))
        if off.max() >= thresholds[0] * diag.min():
            problems.append(
                f"gram-center: off-diagonal {off.max():.3e} not below {thresholds[0]:.1e} of the diagonal"
            )
    herm = np.abs(gmat - gmat.conj().T).max()
    if herm > HERMITIAN_RTOL * diag.max():
        problems.append(f"gram-center: not hermitian ({herm:.3e})")
    return problems


def bonferroni_z(tests: int, replicates: int, alpha: float = FAMILY_ALPHA) -> float:
    """Two-sided Student-t multiplier for `tests` tests at family-wise level alpha."""
    from scipy.stats import t as student

    return float(student.ppf(1.0 - alpha / (2 * tests), replicates - 1))


def check_qmc_gram(gmat: np.ndarray, stderr: np.ndarray, replicates: int, label: str) -> list[str]:
    """Finite, hermitian, positive diagonal, and scalar within its standard errors.

    Off-diagonal entries must be within z standard errors of 0 (real and
    imaginary part each, so two tests per pair), and each pair of diagonal
    entries within z (se_i + se_j) of each other (one test per diagonal
    entry against the common norm).  z is the Bonferroni multiplier over
    all those tests.
    """
    if not (np.all(np.isfinite(gmat)) and np.all(np.isfinite(stderr))):
        return [f"{label}: non-finite entry"]
    problems = []
    d = gmat.shape[0]
    diag = np.diag(gmat)
    scale = float(np.max(np.abs(diag.real)))
    herm = float(np.max(np.abs(gmat - gmat.conj().T)))
    if herm > HERMITIAN_RTOL * scale:
        problems.append(f"{label}: not hermitian ({herm:.3e})")
    if np.any(diag.real <= 0) or np.any(np.abs(diag.imag) > HERMITIAN_RTOL * scale):
        problems.append(f"{label}: diagonal is not positive")
    z = bonferroni_z(d * (d - 1) + d, replicates)
    for i in range(d):
        for j in range(i + 1, d):
            if abs(gmat[i, j]) > z * stderr[i, j]:
                problems.append(
                    f"{label}: G[{i},{j}] = {abs(gmat[i, j]):.3e} exceeds {z:.2f} x stderr {stderr[i, j]:.3e}"
                )
            gap = abs(diag[i].real - diag[j].real)
            if gap > z * (stderr[i, i] + stderr[j, j]):
                problems.append(f"{label}: diagonal {i} and {j} differ by {gap:.3e}")
    return problems


def manybody_basis(K: list[list[int]]) -> list[tuple[Fraction, ...]]:
    """Powers of u = K^-1 e reduced mod 1, for a primary K, by exact algebra."""
    import sympy

    kinv = sympy.Matrix(K).inv()
    g = len(K)
    u = [Fraction(int(s.p), int(s.q)) for s in (kinv * sympy.ones(g, 1))]
    delta = int(sympy.Matrix(K).det())
    return [tuple((i * x) % 1 for x in u) for i in range(delta)]


def basis_label(c: tuple[Fraction, ...]) -> str:
    return "(" + ", ".join(str(x) for x in c) + ")"


def trapezoid_diagonal(spec, basis, p: int) -> np.ndarray:
    """Gram diagonal by the equal-weight periodic trapezoid rule.

    Cell-centred nodes (i + 1/2)/p on each of the 2n axes of the unit box;
    the values come from the program's public center_basis_batch and
    jastrow_batch, the metric weight from the benchmark's own formula
    prod_particles exp(-2 pi d t y^2 - 4 pi a_k t y), xi_k = b_k + tau a_k.
    """
    from torushall.wavefunctions import center_basis_batch, jastrow_batch

    datum = spec.datum
    tau = spec.torus.tau
    t = tau.imag
    n = datum.n
    nodes = (np.arange(p) + 0.5) / p
    grid = np.array(list(product(nodes, repeat=2 * n)))
    xs, ys = grid[:, :n], grid[:, n:]
    zs = xs + tau * ys
    layer_of = np.repeat(np.arange(len(datum.n_vec)), datum.n_vec)
    a = np.array([complex(x).imag / t for x in spec.xi])[layer_of]
    weight = np.exp(np.sum(-2 * np.pi * datum.d * t * ys**2 - 4 * np.pi * a * t * ys, axis=1))
    bounds = np.cumsum((0,) + datum.n_vec)
    layers = [zs[:, bounds[k] : bounds[k + 1]] for k in range(len(datum.n_vec))]
    w = np.stack([layer.sum(axis=1) for layer in layers], axis=-1)
    jas = jastrow_batch(datum, spec.torus, layers)
    return np.array([np.mean(weight * np.abs(center_basis_batch(spec, c, w) * jas) ** 2) for c in basis])


def check_reference_diagonal(
    gmat: np.ndarray, stderr: np.ndarray, replicates: int, ref: np.ndarray, ref_fine: np.ndarray, label: str
) -> list[str]:
    """The QMC diagonal agrees with a converged trapezoid reference."""
    problems = []
    if np.max(np.abs(ref / ref_fine - 1)) > REFERENCE_RTOL:
        problems.append(f"{label}: trapezoid reference not converged")
    if np.ptp(ref) > REFERENCE_RTOL * ref.mean():
        problems.append(f"{label}: trapezoid reference is not scalar")
    d = gmat.shape[0]
    z = bonferroni_z(d, replicates)
    for i in range(d):
        gap = abs(gmat[i, i].real - ref_fine[i])
        if not gap <= z * stderr[i, i]:
            problems.append(f"{label}: G[{i},{i}] is {gap / stderr[i, i]:.1f} stderr from the trapezoid reference")
    return problems


def _cycle_length(perm) -> int:
    i, steps = perm[0], 1
    while i != 0:
        i, steps = perm[i], steps + 1
        if steps > len(perm):
            return -1
    return steps


def check_exact(rows, n_vec, jain: tuple[int, int] | None, out: dict) -> list[str]:
    """Exact-layer outputs against sympy, the Jain closed forms and O(delta) rechecks.

    ``out`` holds the program's results for one matrix: K, datum, group,
    rep, inv, offset and norm (None when delta > 10).
    """
    import sympy
    from sympy.matrices.normalforms import smith_normal_form
    from sympy.polys.domains import ZZ

    name = f"K={rows}"
    problems = []
    kmat = sympy.Matrix(rows)
    g = kmat.shape[0]
    delta = int(kmat.det())
    adj = kmat.adjugate()
    rho = int(sum(adj))
    K = out["K"]
    if K.delta != delta:
        problems.append(f"{name}: delta {K.delta} != {delta}")
    if [list(r) for r in K.adjugate] != [[int(adj[i, j]) for j in range(g)] for i in range(g)]:
        problems.append(f"{name}: adjugate differs from sympy")
    if K.rho != rho:
        problems.append(f"{name}: rho {K.rho} != {rho}")
    if jain is not None:
        p, gg = jain
        if (delta, rho) != (p * gg + 1, gg):
            problems.append(f"{name}: Jain closed form delta = pg+1, rho = g fails")
    if K.primary != (gcd(delta, rho) == 1):
        problems.append(f"{name}: primary flag wrong")

    datum = out["datum"]
    image = [sum(rows[i][j] * n_vec[j] for j in range(g)) for i in range(g)]
    if image != [datum.d] * g or datum.n != sum(n_vec):
        problems.append(f"{name}: datum has K n != d e")

    snf = smith_normal_form(kmat, domain=ZZ)
    factors = sorted(abs(int(snf[i, i])) for i in range(g))
    group = out["group"]
    if list(group.invariant_factors) != factors:
        problems.append(f"{name}: invariant factors {list(group.invariant_factors)} != {factors}")
    elems = group.elements
    if len(elems) != delta or len(set(elems)) != delta:
        problems.append(f"{name}: |Pi| = {len(set(elems))} distinct of {len(elems)}, expected {delta}")
    rows_arr = np.array(rows, dtype=np.int64)
    scaled = np.array([[x * delta for x in c] for c in elems], dtype=object)
    if any(x.denominator != 1 or not 0 <= x < delta for x in scaled.ravel()):
        problems.append(f"{name}: coset representative outside [0, 1) or K^-1 Z^g")
    else:
        ints = scaled.astype(np.int64)
        if np.any((ints @ rows_arr.T) % delta):
            problems.append(f"{name}: coset representative not in K^-1 Z^g")

    rep = out["rep"]
    t1, t2, basis = rep.t1_exponents, rep.t2_permutation, rep.basis
    if sorted(t2) != list(range(delta)) or len(t1) != delta or len(basis) != delta:
        problems.append(f"{name}: T2 is not a permutation of the delta basis slots")
        return problems
    if rep.q_exponent != rho % delta:
        problems.append(f"{name}: q exponent {rep.q_exponent} != rho mod delta")
    # u = K^-1 e, so upsilon(u, c) = exp(2 pi i e.c): the T1 exponent is delta * sum(c)
    u = tuple(Fraction(int(sum(adj[i, j] for j in range(g))), delta) for i in range(g))
    for i in range(delta):
        c = basis[i]
        if t1[i] != (delta * sum(c)) % delta:
            problems.append(f"{name}: T1 exponent at slot {i} is not delta * sum(c)")
            break
        if basis[t2[i]] != tuple((x + y) % 1 for x, y in zip(c, u)):
            problems.append(f"{name}: T2 does not send c to c + u at slot {i}")
            break
        if t1[t2[i]] != (rep.q_exponent + t1[i]) % delta:
            problems.append(f"{name}: T1 T2 != q T2 T1 at slot {i}")
            break
    one_cycle = _cycle_length(t2) == delta
    if one_cycle != (gcd(delta, rho) == 1):
        problems.append(f"{name}: T2 one delta-cycle is {one_cycle}, gcd(delta, rho) = {gcd(delta, rho)}")

    inv = out["inv"]
    if (inv.rank, inv.degree, inv.slope) != (delta, -rho, Fraction(-rho, delta)):
        problems.append(f"{name}: rank/degree/slope differ from delta, -rho, -rho/delta")
    if inv.stable != (gcd(delta, rho) == 1):
        problems.append(f"{name}: stability differs from gcd(delta, rho) = 1")
    if not out["offset"] < 1e-9:
        problems.append(f"{name}: dual pairing offset {out['offset']:.3e}")
    if out["norm"] is not None and not abs(out["norm"] - 1.0) <= 1e-10:
        problems.append(f"{name}: character norm {out['norm']!r} != 1")
    return problems
