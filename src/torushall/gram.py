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
over j != 0 is below tol/4.  Coprime, because for p a multiple of delta the
grid is invariant under the magnetic translations, and the off-diagonal
entries would vanish whether or not the rule had converged.  The x-sum of
exp(2 pi i n x) at the midpoint nodes is (-1)^(n/p) when p divides n and 0
otherwise, so the x-sum of a pair of lattice terms is a sign, or zero, read
from their frequencies modulo p; the y-sum stays on the p^g height nodes.
Many-body Gram matrices use either tensor Gauss-Legendre quadrature (small
particle numbers) or replicated scrambled Sobol sampling with
replicate-mean standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd
from typing import Sequence

import numpy as np
from scipy.stats import qmc

from .theta import OmegaMatrix, TorusParams, _tail_halfwidth, lattice_terms, truncation_plan
from .wavefunctions import WaveFunctionSpec, phi_values
from .wavefunctions import center_basis_batch  # noqa: F401  bench/test_bench.py wraps it here
from .wen import PiElement, WenMatrix, pi_group, pi_scale

DEFAULT_TOL = 1e-12
DEFAULT_BUDGET = 1 << 26


class SamplingBudgetExceededError(RuntimeError):
    pass


@dataclass(frozen=True)
class QuadratureSpec:
    """How to integrate: tensor Gauss-Legendre or scrambled Sobol.

    scheme 'auto' picks the tensor grid when points_per_axis**dim stays
    within budget and falls back to QMC otherwise.  QMC totals are split
    into ``replicates`` independently scrambled streams whose spread gives
    the standard error.
    """

    scheme: str = "auto"
    points_per_axis: int = 48
    samples: int = 1 << 20
    seed: int = 0
    replicates: int = 16
    budget: int = DEFAULT_BUDGET

    def __post_init__(self) -> None:
        if self.scheme not in ("auto", "tensor-gauss", "qmc"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if min(self.points_per_axis, self.samples, self.replicates, self.budget) <= 0:
            raise ValueError("quadrature sizes must be positive")


@dataclass
class GramReport:
    """Measured Gram matrix with error estimates and scalarness diagnostics.

    ``stderr`` is zero for the deterministic rules and the replicate-mean standard
    error (combined real/imaginary) for QMC.  ``offdiag_ratio`` is the largest
    off-diagonal magnitude over the mean diagonal; ``diag_spread`` the diagonal
    peak-to-peak over the mean.  Sigma-normalized versions are present for QMC
    runs only.  ``records`` are the many-body verdict records that
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
    doubling_shift: float | None = None
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


def gauss_nodes_01(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(p)
    return (x + 1) / 2, w / 2


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
# kappa, so the rule's aliasing is bounded at least that tightly
_RULE_TOL_MAX = 1e-8


def _rule_points(K: WenMatrix, t: float, tol: float, budget: int) -> tuple[int, int]:
    """Per-axis points of the center Gram's midpoint rule, and of its check.

    p is the smallest integer coprime to delta whose aliasing bound
    sum_{j != 0} [exp(-pi t p^2 j'K^{-1}j / 2) + exp(-pi p^2 j'K^{-1}j / (2 t))]
    is below tol/4 (see the module docstring); the check uses the next
    integer above p coprime to delta.  The sum runs over the box |j|_inf < r;
    by the theta shell bound at the smallest eigenvalue of K^{-1}, the shells
    beyond it add less than tol/32, which is counted in.
    """
    g = K.g
    qinv = np.linalg.inv(np.array(K.entries, dtype=float))
    lam = float(np.linalg.eigvalsh(qinv)[0])
    # up to this p the term j = e_a with the smallest K^{-1}_aa alone reaches tol/4
    floor_p2 = 2 * math.log(4 / tol) / (math.pi * min(t, 1 / t) * qinv.diagonal().min())
    p = max(1, math.floor(math.sqrt(floor_p2)))
    while True:
        betas = np.pi * p * p / 2 * np.array([t, 1 / t])
        r = _tail_halfwidth(lam * betas.min() / np.pi, g, tol / 16)
        if max(K.delta * p**g, (2 * r - 1) ** g) > budget:
            raise SamplingBudgetExceededError(
                f"the center Gram needs more than {p} points per axis, over the budget {budget}"
            )
        if gcd(p, K.delta) == 1:
            js = _tensor_grid(np.arange(1 - r, r), g)
            js = js[np.any(js != 0, axis=1)]
            q = np.einsum("ij,jk,ik->i", js, qinv, js)
            if np.sum(np.exp(-np.multiply.outer(betas, q))) + tol / 32 < tol / 4:
                break
        p += 1
    check = p + 1
    while gcd(check, K.delta) != 1:
        check += 1
    return p, check


def _center_terms(
    K: WenMatrix, xi, tp: TorusParams, cs: Sequence[PiElement], tol: float
) -> dict[PiElement, tuple[np.ndarray, np.ndarray]]:
    """Frequencies and log coefficients of the lattice terms of each H_c.

    Each lattice term of H_c = Theta[c,0](K(x + tau y) + xi | tau K) is
    C_k exp(2 pi i m_k.x) exp(2 pi i tau m_k.y) with the integer frequency
    m_k = K(k + c); the window covers the term peaks for heights in [0, 1]^g.
    """
    kmat = np.array(K.entries, dtype=float)
    omega = OmegaMatrix.create(tp.tau * kmat)
    xiv = np.asarray(xi, dtype=complex)
    kinv_a = np.linalg.solve(kmat, xiv.imag / tp.t)
    terms = {}
    for c in cs:
        cf = np.array([float(q) for q in c])
        # term peaks sit at -c - y - K^{-1} a for heights y in [0, 1]^g
        ks, _ = lattice_terms(
            omega, truncation_plan(omega, cf, tol), xi, -cf - 1 - kinv_a, -cf - kinv_a
        )
        ka = ks + cf[None, :]
        m = np.rint(ka @ kmat.T)  # integral, because K c is
        log_c = 1j * np.pi * (tp.tau * np.sum(ka * m, axis=1) + 2 * ka @ xiv)
        terms[c] = (m.astype(int), log_c)
    return terms


def _gram_center_at(
    K: WenMatrix,
    xi,
    tp: TorusParams,
    cs: Sequence[PiElement],
    terms: dict[PiElement, tuple[np.ndarray, np.ndarray]],
    p: int,
) -> np.ndarray:
    """Midpoint-rule Gram at p points per axis, with no value on the p^g x p^g grid.

    At the nodes x_q = (q + 1/2)/p with weight 1/p, the x-sum of
    exp(2 pi i n x) is exp(pi i n/p) [p divides n] = (-1)^(n/p) [p divides n].
    The x-sum of a pair of lattice terms (m_ik, m_jl) is therefore
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
    half_log_wy = 0.5 * (_log_height_weight(K.entries, xi, tp, ygrid) - g * math.log(p))
    place = p ** np.arange(g)
    sums = {}
    for c, (m, log_c) in terms.items():
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
        sums[c] = (codes, f)

    d = len(cs)
    gmat = np.empty((d, d), dtype=complex)
    for i in range(d):
        f = sums[cs[i]][1]
        gmat[i, i] = np.vdot(f, f).real
        for j in range(i + 1, d):
            # orient each pair by basis value, not slot, so a permuted
            # basis order reproduces bit-identical estimates
            lo, hi = (i, j) if cs[i] <= cs[j] else (j, i)
            (codes_lo, f_lo), (codes_hi, f_hi) = sums[cs[lo]], sums[cs[hi]]
            _, r_hi, r_lo = np.intersect1d(
                codes_hi, codes_lo, assume_unique=True, return_indices=True
            )
            gmat[lo, hi] = np.vdot(f_hi[r_hi], f_lo[r_lo])
            gmat[hi, lo] = np.conj(gmat[lo, hi])
    return gmat


def _report_stats(gmat: np.ndarray):
    d = gmat.shape[0]
    diag = np.real(np.diag(gmat))
    mean_diag = float(np.mean(diag))
    off = gmat - np.diag(np.diag(gmat))
    offdiag = float(np.max(np.abs(off))) if d > 1 else 0.0
    spread = float(diag.max() - diag.min()) if d > 1 else 0.0
    herm = float(np.max(np.abs(gmat - gmat.conj().T)))
    return mean_diag, offdiag / mean_diag, spread / mean_diag, herm


def _labels(cs: Sequence[PiElement]) -> tuple[str, ...]:
    return tuple("(" + ", ".join(str(x) for x in c) + ")" for c in cs)


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
    series and not the scalar Gram records.  DEFAULT_BUDGET bounds the
    (lattice term x height node) entries formed at p and at the check p,
    which also bounds the rows summed per residue.
    Reports the off-diagonal/diagonal ratio, the diagonal spread, the
    relative mismatch against the closed-form kappa, and as
    ``doubling_shift`` the largest entry shift seen at the next p above it
    coprime to delta (a convergence indicator).
    """
    tp = tau if isinstance(tau, TorusParams) else TorusParams(complex(tau))
    cs = pi_group(K).elements
    p, p_check = _rule_points(K, tp.t, min(tol, _RULE_TOL_MAX), DEFAULT_BUDGET)
    terms = _center_terms(K, xi, tp, cs, tol)
    formed = sum(m.shape[0] for m, _ in terms.values()) * (p**K.g + p_check**K.g)
    if formed > DEFAULT_BUDGET:
        raise SamplingBudgetExceededError(
            f"{formed} term x height-node entries at p = {p} and {p_check} "
            f"exceed the budget {DEFAULT_BUDGET}"
        )
    gmat = _gram_center_at(K, xi, tp, cs, terms, p)
    check = _gram_center_at(K, xi, tp, cs, terms, p_check)
    shift = float(np.max(np.abs(gmat - check)))
    kappa = kappa_closed_form(K, xi, tp)
    mean_diag, offratio, spread, herm = _report_stats(gmat)
    return GramReport(
        matrix=gmat,
        stderr=np.zeros_like(gmat, dtype=float),
        basis_labels=_labels(cs),
        scheme="trapezoid",
        total_points=p ** (2 * K.g),
        seed=None,
        kappa_ref=kappa,
        offdiag_ratio=offratio,
        diag_spread=spread,
        kappa_rel_err=float(abs(mean_diag / kappa - 1.0)),
        hermiticity=herm,
        doubling_shift=shift,
    )


# ---------------------------------------------------------------------------
# many-body Gram


def _manybody_basis(spec: WaveFunctionSpec) -> tuple[PiElement, ...]:
    K = spec.datum.matrix
    if K.primary:
        u = K.u_class()
        return tuple(pi_scale(i, u) for i in range(K.delta))
    return pi_group(K).elements


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


def gram_manybody(
    spec: WaveFunctionSpec,
    quad: QuadratureSpec | None = None,
    tol: float = DEFAULT_TOL,
) -> GramReport:
    """Gram matrix of the many-body basis under the product metric.

    Tensor Gauss-Legendre is used when the 2n-dimensional grid fits the
    budget, otherwise replicated scrambled Sobol sampling; QMC reports
    replicate-mean standard errors and sigma-normalized scalarness checks.
    The verdict ``scalar_pass`` comes from the many-body records of
    :mod:`torushall.checks`; it is only set for primary matrices, for others
    the deviations are reported without a verdict.
    """
    quad = quad or QuadratureSpec()
    basis = _manybody_basis(spec)
    d = len(basis)
    dim = 2 * spec.datum.n
    scheme = quad.scheme
    if scheme == "auto":
        scheme = (
            "tensor-gauss" if quad.points_per_axis**dim <= quad.budget else "qmc"
        )

    if scheme == "tensor-gauss":
        total = quad.points_per_axis**dim
        if total > quad.budget:
            raise SamplingBudgetExceededError(
                f"{quad.points_per_axis}^{dim} tensor points exceed budget {quad.budget}"
            )
        nodes, wts = gauss_nodes_01(quad.points_per_axis)
        gmat = np.zeros((d, d), dtype=complex)
        step = max(1, (1 << 22) // max(1, d))
        for start in range(0, total, step):
            idx = np.arange(start, min(start + step, total))
            coords = np.stack(
                np.unravel_index(idx, (quad.points_per_axis,) * dim), axis=-1
            )
            pts = nodes[coords]
            wq = np.prod(wts[coords], axis=1)
            weight, values = _manybody_values(spec, pts, basis, tol)
            gmat += (values * (wq * weight)[None, :]) @ values.conj().T
        mean_diag, offratio, spread, herm = _report_stats(gmat)
        report = GramReport(
            matrix=gmat,
            stderr=np.zeros((d, d)),
            basis_labels=_labels(basis),
            scheme=scheme,
            total_points=total,
            seed=None,
            kappa_ref=None,
            offdiag_ratio=offratio,
            diag_spread=spread,
            kappa_rel_err=None,
            hermiticity=herm,
        )
    elif scheme == "qmc":
        report = _gram_manybody_qmc(spec, quad, basis, tol)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    if spec.datum.matrix.primary:
        from .checks import gram_manybody_records, passed  # checks imports this module

        report.records = gram_manybody_records(report)
        report.scalar_pass = passed(report.records)
    return report


def _gram_manybody_qmc(
    spec: WaveFunctionSpec, quad: QuadratureSpec, basis: Sequence[PiElement], tol: float
) -> GramReport:
    d = len(basis)
    dim = 2 * spec.datum.n
    reps = quad.replicates
    per_rep = 1 << max(1, math.ceil(math.log2(max(2, quad.samples // reps))))
    if per_rep * reps > quad.budget:
        raise SamplingBudgetExceededError(
            f"{per_rep} x {reps} QMC samples exceed budget {quad.budget}"
        )
    seeds = np.random.SeedSequence(quad.seed).spawn(reps)
    samples_g = []
    for seq in seeds:
        sob = qmc.Sobol(d=dim, scramble=True, seed=np.random.default_rng(seq))
        pts = sob.random_base2(int(math.log2(per_rep)))
        weight, values = _manybody_values(spec, pts, basis, tol)
        samples_g.append((values * weight[None, :]) @ values.conj().T / pts.shape[0])
    stack = np.stack(samples_g, axis=0)
    gmat = stack.mean(axis=0)
    se_re = np.std(stack.real, axis=0, ddof=1) / math.sqrt(reps)
    se_im = np.std(stack.imag, axis=0, ddof=1) / math.sqrt(reps)
    stderr = np.sqrt(se_re**2 + se_im**2)
    mean_diag, offratio, spread, herm = _report_stats(gmat)

    # numpy maxima, so that a NaN estimate gives a NaN statistic, not 0
    off = ~np.eye(d, dtype=bool)
    offdiag_sigmas = np.max(
        np.maximum(
            np.abs(gmat.real) / np.maximum(se_re, 1e-300),
            np.abs(gmat.imag) / np.maximum(se_im, 1e-300),
        )[off],
        initial=0.0,
    )
    i, j = np.triu_indices(d, 1)
    diffs = np.ascontiguousarray((stack[:, i, i].real - stack[:, j, j].real).T)
    se = np.std(diffs, axis=1, ddof=1) / math.sqrt(reps)
    diag_pair_sigmas = np.max(
        np.abs(np.mean(diffs, axis=1)) / np.maximum(se, 1e-300), initial=0.0
    )
    return GramReport(
        matrix=gmat,
        stderr=stderr,
        basis_labels=_labels(basis),
        scheme="qmc",
        total_points=per_rep * reps,
        seed=quad.seed,
        kappa_ref=None,
        offdiag_ratio=offratio,
        diag_spread=spread,
        kappa_rel_err=None,
        hermiticity=herm,
        offdiag_sigmas=float(offdiag_sigmas),
        diag_pair_sigmas=float(diag_pair_sigmas),
    )
