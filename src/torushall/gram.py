"""Hermitian metrics and Gram-matrix verification by quadrature.

On the center-of-mass torus, sections are weighed by

    h(z) = exp(-2 pi t (y, K y + 2 a)),   z = x + tau y,  xi = b + tau a,

and the scalar product is the integral of h * F1 * conj(F2) over the unit
box [0, 1]^{2g} in (x, y).  The distinguished theta basis is orthogonal
with the common norm

    kappa(xi) = (2 t)^{-g/2} delta^{-1/2} exp(2 pi t (a, K^{-1} a)),

the value of the Gaussian integral obtained by unfolding the lattice sum
(for g = 1 this is the familiar (2 t delta)^{-1/2} exp(2 pi t a^2 / k)).

Center-of-mass Gram matrices are computed by the midpoint trapezoid rule,
p nodes (q + 1/2)/p of weight 1/p on each of the 2g axes, without evaluating
the basis on the grid.  The integrand is doubly periodic, so the rule's error is
its aliasing: the sum of the integrand's Fourier coefficients at the nonzero
multiples p j of the grid frequency (Trefethen and Weideman, SIAM Rev. 56,
2014).  Relative to kappa, both families of coefficients are Gaussians:

* in x, a pair of lattice terms with frequencies m, m' contributes at
  m - m'; unfolding its y-integral gives exp(-pi t (m - m')'K^{-1}(m - m')/2),
  so the x-coefficient at p j is at most exp(-pi t p^2 j'K^{-1}j / 2);
* in y, the x-averaged density sum_m exp(-2 pi t (m + K y)'K^{-1}(m + K y))
  (times the a-dependent factor of kappa) is a periodized Gaussian of
  covariance K^{-1}/(4 pi t); its coefficient at p j is
  exp(-pi p^2 j'K^{-1}j / (2 t)).

The rule's p is the smallest p coprime to delta whose sum of both families
over j != 0 is below tol/4; the Gram is formed once, at p, and reports that
sum as ``aliasing_bound``.  Coprime, because for p a multiple of delta the
grid is invariant under the magnetic translations, and the off-diagonal
entries would vanish whether or not the rule had converged.  The x-sum of
exp(2 pi i n x) at the midpoint nodes is (-1)^(n/p) when p divides n and 0
otherwise, so the x-sum of a pair of lattice terms is a sign, or zero, read
from their frequencies modulo p; the y-sum stays on the p^g height nodes.

Many-body Gram matrices use the same midpoint nodes, p on each of the 2n
particle axes with weight 1/p^{2n}, and the same bound.  Each Phi_c is a
theta function of degree d in every particle coordinate (moving one
coordinate by tau multiplies it by phi(z)^d), and the many-body weight is
the center weight with the form d I_n, so the integrand h Phi_i conj(Phi_j)
has, in every coordinate, the Fourier coefficients that the center bound
counts with K = d I_n.  Its p is therefore the center rule's at the form
d I_n, coprime to the flux number d (for p a multiple of d the grid is
invariant under the magnetic translations).  More than two particles are
sampled instead, by replicated scrambled Sobol points with replicate-mean
standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd
from typing import Sequence

import numpy as np
from scipy.stats import qmc

from .heisenberg import rep_matrices
from .theta import OmegaMatrix, TorusParams, _tail_halfwidth, _window
from .wavefunctions import WaveFunctionSpec, phi_values
from .wavefunctions import center_basis_batch  # noqa: F401  bench/test_bench.py wraps it here
from .wen import PiElement, WenMatrix, pi_group

DEFAULT_TOL = 1e-12
DEFAULT_BUDGET = 1 << 26
SCHEMES = ("auto", "trapezoid", "qmc")


class SamplingBudgetExceededError(RuntimeError):
    pass


@dataclass(frozen=True)
class QuadratureSpec:
    """How to integrate the many-body Gram: midpoint trapezoid or scrambled Sobol.

    scheme 'auto' picks the trapezoid rule for up to two particles and QMC
    for more.  The trapezoid rule sizes itself by the center Gram's
    a-priori bound; the other fields are read by QMC only, whose sample
    total is split into ``replicates`` independently scrambled streams
    whose spread gives the standard error.
    """

    scheme: str = "auto"
    samples: int = 1 << 20
    seed: int = 0
    replicates: int = 16

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.samples <= 0:
            raise ValueError("quadrature sizes must be positive")
        if self.replicates < 2:
            raise ValueError("the replicate standard error needs at least 2 replicates")


@dataclass
class GramReport:
    """Measured Gram matrix with error estimates and scalarness diagnostics.

    ``stderr`` is zero for the deterministic rules and the replicate-mean standard
    error (combined real/imaginary) for QMC.  ``offdiag_ratio`` is the largest
    off-diagonal magnitude over the mean diagonal; ``diag_spread`` the diagonal
    peak-to-peak over the mean.  Sigma-normalized versions are present for QMC
    runs only.  ``aliasing_bound`` is the trapezoid rule's a-priori bound on
    its aliasing error relative to the diagonal (see ``_rule_points``), None
    for QMC.  ``records`` are the many-body verdict records that
    ``scalar_pass`` is taken from; both stay None without a verdict.
    """

    matrix: np.ndarray
    stderr: np.ndarray
    basis_labels: tuple[str, ...]
    scheme: str
    total_points: int
    seed: int | None
    kappa_ref: float | None
    offdiag_ratio: float
    diag_spread: float
    kappa_rel_err: float | None
    hermiticity: float
    aliasing_bound: float | None = None
    offdiag_sigmas: float | None = None
    diag_pair_sigmas: float | None = None
    scalar_pass: bool | None = None
    records: list[dict] | None = None


# ---------------------------------------------------------------------------
# metric weights


def _log_height_weight(kmat, xi, tp: TorusParams, y: np.ndarray) -> np.ndarray:
    """-2 pi t (y'K y + 2 a.y) at an (..., m) array of heights y, xi = b + tau a.

    kmat is the m x m form: the coupling matrix for the center-of-mass metric,
    d I_n with each particle's xi taken from its layer for the many-body one.
    """
    a = np.asarray(xi, dtype=complex).imag / tp.t
    kmat = np.asarray(kmat, dtype=float)
    flat = y.reshape(-1, kmat.shape[0])
    quad = np.einsum("ij,jk,ik->i", flat, kmat, flat).reshape(y.shape[:-1])
    return -2 * np.pi * tp.t * (quad + 2 * y @ a)


def kappa_closed_form(K: WenMatrix, xi, tau: TorusParams | complex) -> float:
    """Common squared norm of the orthogonal center-of-mass basis.

    (2 t)^{-g/2} delta^{-1/2} exp(2 pi t (a, K^{-1} a)); the Gaussian
    unfolding of the lattice sum fixes the delta power at -1/2 for every g.
    """
    tp = tau if isinstance(tau, TorusParams) else TorusParams(complex(tau))
    a = np.asarray(xi, dtype=complex).imag / tp.t
    kinv_a = np.linalg.solve(np.array(K.entries, dtype=float), a)
    return float(
        (2 * tp.t) ** (-K.g / 2)
        * K.delta ** (-0.5)
        * np.exp(2 * np.pi * tp.t * float(a @ kinv_a))
    )


# ---------------------------------------------------------------------------
# quadrature nodes


def midpoint_nodes(p: int) -> np.ndarray:
    """Nodes (q + 1/2)/p, q = 0 .. p-1, of the midpoint trapezoid rule on [0, 1]."""
    return (np.arange(p) + 0.5) / p


def _tensor_grid(nodes: np.ndarray, g: int) -> np.ndarray:
    grids = np.meshgrid(*([nodes] * g), indexing="ij")
    return np.stack([gr.ravel() for gr in grids], axis=-1)


# ---------------------------------------------------------------------------
# center-of-mass Gram by the midpoint rule, summed per frequency residue

# E entries below exp(_LOG_FLOOR) are set to 0, so that no product of two
# kept entries is subnormal (subnormal operands slow the products several-fold).
# A Gram entry over N x N terms loses less than N^2 p^g tiny^(1/2) times the
# largest |E|, which is about 1.
_LOG_FLOOR = 0.5 * math.log(np.finfo(float).tiny)

# the center Gram records (orthogonal, scalar) hold their entries to 1e-8 of
# kappa, so both rules bound their aliasing at least that tightly
_RULE_TOL_MAX = 1e-8


def _rule_points(kmat, modulus: int, t: float, tol: float) -> tuple[int, float]:
    """Per-axis points of a midpoint Gram rule, and its aliasing bound.

    kmat is the g x g form of the metric weight (K for the center Gram,
    d I_n for the many-body one) and modulus the integer p must be coprime
    to (delta, or d).  p is the smallest such integer whose aliasing bound
    sum_{j != 0} [exp(-pi t p^2 j'Q j / 2) + exp(-pi p^2 j'Q j / (2 t))],
    Q = kmat^{-1}, is below tol/4, tol at most _RULE_TOL_MAX (see the
    module docstring); that sum is returned with p.  It runs over the box
    |j|_inf < r; by the theta shell bound at the smallest eigenvalue of Q,
    the shells beyond it add less than tol/32, which is counted in.  Once
    modulus p^g or the box is over DEFAULT_BUDGET,
    SamplingBudgetExceededError is raised before the box is formed.
    """
    tol = min(tol, _RULE_TOL_MAX)
    qinv = np.linalg.inv(np.asarray(kmat, dtype=float))
    g = qinv.shape[0]
    lam = float(np.linalg.eigvalsh(qinv)[0])
    # up to this p the term j = e_a with the smallest Q_aa alone reaches tol/4
    floor_p2 = 2 * math.log(4 / tol) / (math.pi * min(t, 1 / t) * qinv.diagonal().min())
    p = max(1, math.floor(math.sqrt(floor_p2)))
    while True:
        betas = np.pi * p * p / 2 * np.array([t, 1 / t])
        r = _tail_halfwidth(lam * betas.min() / np.pi, g, tol / 16)
        if max(modulus * p**g, (2 * r - 1) ** g) > DEFAULT_BUDGET:
            raise SamplingBudgetExceededError(
                f"the midpoint rule needs more than {p} points per axis, "
                f"over the budget {DEFAULT_BUDGET}"
            )
        if gcd(p, modulus) == 1:
            js = _tensor_grid(np.arange(1 - r, r), g)
            js = js[np.any(js != 0, axis=1)]
            q = np.einsum("ij,jk,ik->i", js, qinv, js)
            bound = float(np.sum(np.exp(-np.multiply.outer(betas, q)))) + tol / 32
            if bound < tol / 4:
                return p, bound
        p += 1


def _center_terms(
    K: WenMatrix, xi, tp: TorusParams, cs: Sequence[PiElement], tol: float
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Frequencies and log coefficients of the lattice terms of each H_c, c in cs.

    Each lattice term of H_c = Theta[c,0](K(x + tau y) + xi | tau K) is
    C_k exp(2 pi i m_k.x) exp(2 pi i tau m_k.y) with the integer frequency
    m_k = K(k + c) and log C_k = log coeff_c(k) + 2 pi i (k + c).xi.  The
    terms and coefficients are those of the theta kernel's cached window for
    (tau K, cs, tol), which holds at heights y + K^{-1}a in [-1/2, 1/2]^g
    (see ``_gram_center_at``) and leaves out the terms that cannot reach tol
    there.  Returns one (m, log C) pair per coset, in the order of cs.
    """
    kmat = np.array(K.entries, dtype=float)
    chars = np.array(cs, dtype=float)
    win = _window(OmegaMatrix.create(tp.tau * kmat), tuple(map(tuple, chars.tolist())), tol)
    ks = np.indices(win.counts).reshape(K.g, -1).T + win.lo
    xiv = np.asarray(xi, dtype=complex)
    terms = []
    for cf, coeff in zip(chars, win.coeff):
        kept = coeff != 0
        ka = ks[kept] + cf[None, :]
        m = np.rint(ka @ kmat.T)  # integral, because K c is
        terms.append((m.astype(int), np.log(coeff[kept]) + 2j * np.pi * (ka @ xiv)))
    return terms


def _gram_center_at(
    K: WenMatrix,
    xi,
    tp: TorusParams,
    cs: Sequence[PiElement],
    terms: Sequence[tuple[np.ndarray, np.ndarray]],
    p: int,
) -> np.ndarray:
    """Midpoint-rule Gram at p points per axis, with no value on the p^g x p^g grid.

    The integrand h H_i conj(H_j) is 1-periodic in each y_j (moving y by e_j
    multiplies every H_c by one factor free of c, and h by the inverse of its
    squared modulus), so each height node y may move by rint(y + K^{-1}a),
    a = Im xi / t: the sum is the same, and every y + K^{-1}a then lies in
    [-1/2, 1/2]^g, where the window of ``_center_terms`` holds.  At the nodes
    x_q = (q + 1/2)/p with weight 1/p, the x-sum of exp(2 pi i n x) is
    exp(pi i n/p) [p divides n] = (-1)^(n/p) [p divides n].  The x-sum of a
    pair of lattice terms (m_ik, m_jl) is therefore
    (-1)^(sum_a (m_ik - m_jl)_a / p) when m_ik = m_jl (mod p) on every axis,
    and 0 otherwise.  Writing m = r + p w with the residue r in [0, p)^g, the
    sign is (-1)^(sum w_ik) (-1)^(sum w_jl), so it splits over the pair.  With
    E_c[k, y] = C_k exp(2 pi i tau m_k.y) (p^-g h(y))^(1/2) on the p^g height
    nodes (splitting the weight keeps every entry at most about 1), the
    signed rows of each coset are summed per residue into F_c[r, y], one row
    for each residue that occurs among the coset's terms (so no more rows
    than terms), and G_ij = sum_{r, y} F_i conj(F_j) over the residues the
    two cosets share.
    """
    g = K.g
    ygrid = _tensor_grid(midpoint_nodes(p), g)
    kinv_a = np.linalg.solve(np.array(K.entries, dtype=float), np.asarray(xi).imag / tp.t)
    ygrid -= np.rint(ygrid + kinv_a)
    half_log_wy = 0.5 * (_log_height_weight(K.entries, xi, tp, ygrid) - g * math.log(p))
    place = p ** np.arange(g)
    sums = []
    for m, log_c in terms:
        e = (m @ ygrid.T) * (2j * np.pi * tp.tau)
        e += log_c[:, None]
        e += half_log_wy
        dropped = e.real < _LOG_FLOOR
        np.exp(e, out=e)
        e[dropped] = 0
        wraps, residues = np.divmod(m, p)
        e *= (1 - 2 * (wraps.sum(axis=1) % 2))[:, None]
        codes, rows = np.unique(residues @ place, return_inverse=True)
        f = np.zeros((codes.size, ygrid.shape[0]), dtype=complex)
        np.add.at(f, rows, e)
        sums.append((codes, f))

    d = len(cs)
    gmat = np.empty((d, d), dtype=complex)
    for i in range(d):
        f = sums[i][1]
        gmat[i, i] = np.vdot(f, f).real
        for j in range(i + 1, d):
            # orient each pair by basis value, not slot, so a permuted
            # basis order reproduces bit-identical estimates
            lo, hi = (i, j) if cs[i] <= cs[j] else (j, i)
            (codes_lo, f_lo), (codes_hi, f_hi) = sums[lo], sums[hi]
            _, r_hi, r_lo = np.intersect1d(
                codes_hi, codes_lo, assume_unique=True, return_indices=True
            )
            gmat[lo, hi] = np.vdot(f_hi[r_hi], f_lo[r_lo])
            gmat[hi, lo] = np.conj(gmat[lo, hi])
    return gmat


def _report(
    cs: Sequence[PiElement], points: int, gmat=None, bound=None, kappa=None, stack=None, seed=None
) -> GramReport:
    """Report of a midpoint Gram ``gmat`` with its aliasing bound, or of QMC replicates.

    ``gmat`` is reported exactly as formed; the QMC Gram is the mean of the
    replicates in ``stack``, with replicate-mean standard errors and sigmas.
    """
    d = len(cs)
    sigmas = {}
    if stack is None:
        stderr = np.zeros_like(gmat, dtype=float)
    else:
        reps = stack.shape[0]
        gmat = stack.mean(axis=0)
        se_re = np.std(stack.real, axis=0, ddof=1) / math.sqrt(reps)
        se_im = np.std(stack.imag, axis=0, ddof=1) / math.sqrt(reps)
        stderr = np.sqrt(se_re**2 + se_im**2)
        entry = np.maximum(
            np.abs(gmat.real) / np.maximum(se_re, 1e-300),
            np.abs(gmat.imag) / np.maximum(se_im, 1e-300),
        )
        i, j = np.triu_indices(d, 1)
        diffs = np.ascontiguousarray((stack[:, i, i].real - stack[:, j, j].real).T)
        se = np.std(diffs, axis=1, ddof=1) / math.sqrt(reps)
        pair = np.abs(np.mean(diffs, axis=1)) / np.maximum(se, 1e-300)
        # numpy maxima, so that a NaN estimate gives a NaN statistic, not 0
        sigmas = dict(
            offdiag_sigmas=float(np.max(entry[~np.eye(d, dtype=bool)], initial=0.0)),
            diag_pair_sigmas=float(np.max(pair, initial=0.0)),
        )
    diag = np.real(np.diag(gmat))
    mean_diag = float(np.mean(diag))
    offdiag = float(np.max(np.abs(gmat - np.diag(np.diag(gmat))))) if d > 1 else 0.0
    spread = float(diag.max() - diag.min()) if d > 1 else 0.0
    return GramReport(
        matrix=gmat,
        stderr=stderr,
        basis_labels=tuple("(" + ", ".join(str(x) for x in c) + ")" for c in cs),
        scheme="trapezoid" if stack is None else "qmc",
        total_points=points,
        seed=seed,
        kappa_ref=kappa,
        offdiag_ratio=offdiag / mean_diag,
        diag_spread=spread / mean_diag,
        kappa_rel_err=None if kappa is None else float(abs(mean_diag / kappa - 1.0)),
        hermiticity=float(np.max(np.abs(gmat - gmat.conj().T))),
        aliasing_bound=bound,
        **sigmas,
    )


def gram_center(
    K: WenMatrix,
    xi,
    tau: TorusParams | complex,
    tol: float = DEFAULT_TOL,
) -> GramReport:
    """Gram matrix of the center-of-mass theta basis by the midpoint trapezoid rule.

    The per-axis points p come from the a-priori aliasing bound (see
    ``_rule_points``), so that the rule's error stays below about tol/4 of
    kappa on top of the series truncation; the rule is sized at tol or at
    _RULE_TOL_MAX, whichever is smaller, so a loose tol loosens only the
    series and not the scalar Gram records.  The Gram is formed once, at p;
    DEFAULT_BUDGET bounds its (lattice term x height node) entries, which
    also bounds the rows summed per residue.
    Reports the off-diagonal/diagonal ratio, the diagonal spread, the
    relative mismatch against the closed-form kappa, and the rule's
    ``aliasing_bound``.
    """
    tp = tau if isinstance(tau, TorusParams) else TorusParams(complex(tau))
    cs = pi_group(K).elements
    p, bound = _rule_points(K.entries, K.delta, tp.t, tol)
    terms = _center_terms(K, xi, tp, cs, tol)
    formed = sum(m.shape[0] for m, _ in terms) * p**K.g
    if formed > DEFAULT_BUDGET:
        raise SamplingBudgetExceededError(
            f"{formed} term x height-node entries at p = {p} exceed the budget {DEFAULT_BUDGET}"
        )
    gmat = _gram_center_at(K, xi, tp, cs, terms, p)
    return _report(cs, p ** (2 * K.g), gmat, bound, kappa_closed_form(K, xi, tp))


# ---------------------------------------------------------------------------
# many-body Gram


def _manybody_values(
    spec: WaveFunctionSpec, pts: np.ndarray, basis: Sequence[PiElement], tol: float
):
    """Weight vector and Phi values at sample points in the unit box.

    Columns 0..n-1 of pts are the x coordinates of the particles in layer
    order, columns n..2n-1 the y coordinates; z = x + tau y.  The weight is
    the product over particles of the one-particle metric at strength d with
    the owning layer's xi.
    """
    datum = spec.datum
    n = datum.n
    ys = pts[:, n:]
    xi = np.repeat(np.asarray(spec.xi, dtype=complex), datum.n_vec)
    weight = np.exp(_log_height_weight(datum.d * np.eye(n), xi, spec.torus, ys))
    return weight, phi_values(spec, basis, pts[:, :n] + spec.torus.tau * ys, tol)


def _weighted_sum(
    spec: WaveFunctionSpec, pts: np.ndarray, basis: Sequence[PiElement], tol: float
) -> np.ndarray:
    """Sum over the points of h Phi_i conj(Phi_j), the one reduction of both rules."""
    weight, values = _manybody_values(spec, pts, basis, tol)
    return (values * weight[None, :]) @ values.conj().T


def _gram_manybody_at(
    spec: WaveFunctionSpec, basis: Sequence[PiElement], p: int, tol: float
) -> np.ndarray:
    """Midpoint-rule many-body Gram at p nodes on each of the 2n axes."""
    dim = 2 * spec.datum.n
    total = p**dim
    nodes = midpoint_nodes(p)
    gmat = np.zeros((len(basis),) * 2, dtype=complex)
    step = max(1, (1 << 22) // len(basis))
    for start in range(0, total, step):
        idx = np.arange(start, min(start + step, total))
        pts = nodes[np.stack(np.unravel_index(idx, (p,) * dim), axis=-1)]
        gmat += _weighted_sum(spec, pts, basis, tol)
    return gmat / total


def gram_manybody(
    spec: WaveFunctionSpec,
    quad: QuadratureSpec | None = None,
    tol: float = DEFAULT_TOL,
) -> GramReport:
    """Gram matrix of ``heisenberg.rep_matrices``'s basis under the product metric.

    'trapezoid' is the midpoint rule whose p and aliasing bound come from
    ``_rule_points`` at the form d I_n and the modulus d, as the center
    Gram's come from K and delta; it is formed once, on the p^{2n} grid,
    held to DEFAULT_BUDGET first.  'qmc' averages ``quad.replicates``
    scrambled Sobol streams of a power-of-two size, about ``quad.samples``
    points in all, with replicate-mean standard errors and sigmas.  The
    verdict ``scalar_pass`` comes from the records of :mod:`torushall.checks`
    and is set for primary matrices only.
    """
    quad = quad or QuadratureSpec()
    basis = rep_matrices(spec.datum).basis
    n, d = spec.datum.n, spec.datum.d
    if quad.scheme == "trapezoid" or (quad.scheme == "auto" and n <= 2):
        p, bound = _rule_points(d * np.eye(n), d, spec.torus.t, tol)
        if p ** (2 * n) > DEFAULT_BUDGET:
            raise SamplingBudgetExceededError(
                f"the many-body Gram needs {p}^{2 * n} points, over the budget {DEFAULT_BUDGET}"
            )
        report = _report(basis, p ** (2 * n), _gram_manybody_at(spec, basis, p, tol), bound)
    else:
        reps = quad.replicates
        per_rep = 1 << max(1, math.ceil(math.log2(max(2, quad.samples // reps))))
        if per_rep * reps > DEFAULT_BUDGET:
            raise SamplingBudgetExceededError(
                f"{per_rep} x {reps} QMC samples exceed budget {DEFAULT_BUDGET}"
            )
        stack = []
        for seq in np.random.SeedSequence(quad.seed).spawn(reps):
            sob = qmc.Sobol(d=2 * n, scramble=True, seed=np.random.default_rng(seq))
            pts = sob.random_base2(int(math.log2(per_rep)))
            stack.append(_weighted_sum(spec, pts, basis, tol) / pts.shape[0])
        report = _report(basis, per_rep * reps, stack=np.stack(stack), seed=quad.seed)
    if spec.datum.matrix.primary:
        from .checks import gram_manybody_records, passed  # checks imports this module

        report.records = gram_manybody_records(report)
        report.scalar_pass = passed(report.records)
    return report
