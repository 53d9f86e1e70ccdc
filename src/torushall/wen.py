"""Exact integer and rational algebra for multilayer coupling matrices.

A Wen matrix is a symmetric positive-definite matrix K with non-negative
integer entries, uniform diagonal parity, and strictly positive K^{-1}e
(e the all-ones vector).  Together with a per-layer particle-count vector
n satisfying K n = d e it forms a Wen datum.  This module validates such
data and computes their invariants exactly:

* delta = det K and the adjugate matrix Ksharp with K Ksharp = delta I,
* rho = sum of adjugate entries, the statistics sign, u = K^{-1} e,
* the finite group Pi = K^{-1}Z^g / Z^g of order delta, enumerated through
  the Smith normal form of K.

Everything here runs on Python integers and ``fractions.Fraction``; no
floating point enters this module, so all equalities asserted by callers
are exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

IntMatrix = tuple[tuple[int, ...], ...]
#: Canonical coset representative of an element of Pi = K^{-1}Z^g / Z^g:
#: a tuple of Fractions with entries in [0, 1).
PiElement = tuple[Fraction, ...]


class WenValidationError(ValueError):
    """A structural axiom failed; the subclass names the violated axiom."""


class MalformedMatrixError(WenValidationError):
    """The matrix is empty, not square, or has non-integer entries."""


class NotSymmetricError(WenValidationError):
    pass


class NotPositiveDefiniteError(WenValidationError):
    pass


class MixedParityError(WenValidationError):
    pass


class NonPositiveUError(WenValidationError):
    pass


class NegativeEntryError(WenValidationError):
    pass


class NotEigenvectorError(WenValidationError):
    pass


# ---------------------------------------------------------------------------
# exact integer linear algebra


def _as_int_matrix(mat: Sequence[Sequence[int]]) -> IntMatrix:
    rows = tuple(tuple(int(x) for x in row) for row in mat)
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise MalformedMatrixError("matrix must be square and non-empty")
    for row, orig in zip(rows, mat):
        for x, y in zip(row, orig):
            if x != y:
                raise MalformedMatrixError("matrix entries must be integers")
    return rows


def det_int(mat: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    a = [list(map(int, row)) for row in mat]
    n = len(a)
    sign = 1
    prev = 1
    for i in range(n - 1):
        if a[i][i] == 0:
            for r in range(i + 1, n):
                if a[r][i] != 0:
                    a[i], a[r] = a[r], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
        prev = a[i][i]
    return sign * a[n - 1][n - 1]


def adjugate_int(mat: Sequence[Sequence[int]]) -> IntMatrix:
    """Exact adjugate: adj[i][j] = (-1)^{i+j} det(minor(j, i))."""
    rows = _as_int_matrix(mat)
    n = len(rows)
    if n == 1:
        return ((1,),)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [rows[r][c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            adj[j][i] = (-1) ** (i + j) * det_int(minor)
    return tuple(tuple(row) for row in adj)


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def smith_normal_form(
    mat: Sequence[Sequence[int]],
) -> tuple[tuple[int, ...], IntMatrix, IntMatrix]:
    """Smith normal form over the integers: returns (diag, S, T).

    ``diag(d_1, ..., d_n) = S @ mat @ T`` with S, T unimodular and
    d_1 | d_2 | ... | d_n, all d_i >= 0.  Pivot rule: the entry of smallest
    nonzero absolute value in the remaining block, ties broken row-major,
    which makes the transforms reproducible across runs.
    """
    rows = _as_int_matrix(mat)
    n = len(rows)
    a = [list(row) for row in rows]
    s = _identity(n)
    t = _identity(n)

    def row_sub(i: int, j: int, q: int) -> None:
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        s[i] = [x - q * y for x, y in zip(s[i], s[j])]

    def col_sub(i: int, j: int, q: int) -> None:
        for r in range(n):
            a[r][i] -= q * a[r][j]
            t[r][i] -= q * t[r][j]

    def row_swap(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        s[i], s[j] = s[j], s[i]

    def col_swap(i: int, j: int) -> None:
        for r in range(n):
            a[r][i], a[r][j] = a[r][j], a[r][i]
            t[r][i], t[r][j] = t[r][j], t[r][i]

    def row_negate(i: int) -> None:
        a[i] = [-x for x in a[i]]
        s[i] = [-x for x in s[i]]

    for k in range(n):
        while True:
            pivot = None
            best = None
            for i in range(k, n):
                for j in range(k, n):
                    v = abs(a[i][j])
                    if v and (best is None or v < best):
                        best = v
                        pivot = (i, j)
            if pivot is None:
                break
            pi, pj = pivot
            if pi != k:
                row_swap(k, pi)
            if pj != k:
                col_swap(k, pj)
            if a[k][k] < 0:
                row_negate(k)
            clean = True
            for r in range(k + 1, n):
                if a[r][k]:
                    row_sub(r, k, a[r][k] // a[k][k])
                    if a[r][k]:
                        clean = False
            for c in range(k + 1, n):
                if a[k][c]:
                    col_sub(c, k, a[k][c] // a[k][k])
                    if a[k][c]:
                        clean = False
            if not clean:
                continue
            offender = None
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    if a[i][j] % a[k][k]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            # fold the offending row into row k so the pivot shrinks
            row_sub(k, offender, -1)
    diag = tuple(a[i][i] for i in range(n))
    return diag, tuple(tuple(r) for r in s), tuple(tuple(r) for r in t)


def unimodular_inverse(mat: Sequence[Sequence[int]]) -> IntMatrix:
    """Exact inverse of a matrix with determinant +-1."""
    d = det_int(mat)
    if d not in (1, -1):
        raise ValueError(f"matrix is not unimodular (det={d})")
    adj = adjugate_int(mat)
    return tuple(tuple(d * x for x in row) for row in adj)


# ---------------------------------------------------------------------------
# coset arithmetic in Pi = K^{-1}Z^g / Z^g


def pi_canonical(vec: Iterable[Fraction]) -> PiElement:
    """Reduce a rational vector to its representative in [0, 1)^g."""
    return tuple(Fraction(v) % 1 for v in vec)


def pi_add(x: PiElement, y: PiElement) -> PiElement:
    return tuple((u + v) % 1 for u, v in zip(x, y))


def pi_scale(m: int, x: PiElement) -> PiElement:
    return tuple((m * u) % 1 for u in x)


class PiGroup:
    """The finite group K^{-1}Z^g / Z^g with canonical representatives.

    ``elements`` lists all ``delta`` cosets, each as a tuple of Fractions in
    [0, 1), sorted lexicographically; ``invariant_factors`` is the Smith
    normal form diagonal of K (so their product is delta).
    """

    def __init__(
        self,
        invariant_factors: tuple[int, ...],
        elements: tuple[PiElement, ...],
    ) -> None:
        self.invariant_factors = invariant_factors
        self.elements = elements
        self.index_map = {e: i for i, e in enumerate(elements)}

    def __len__(self) -> int:
        return len(self.elements)

    def index_of(self, elem: PiElement) -> int:
        return self.index_map[pi_canonical(elem)]

    def __iter__(self):
        return iter(self.elements)


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class WenMatrix:
    """Validated coupling matrix with exactly computed invariants.

    Construct through :func:`validate_wen_matrix` or :func:`jain_matrix`;
    direct construction skips the axiom checks.
    """

    entries: IntMatrix
    g: int
    delta: int
    adjugate: IntMatrix
    rho: int
    epsilon: int  # +1 all-even diagonal (bosonic), -1 all-odd (fermionic)
    u: tuple[Fraction, ...]
    primary: bool

    def __str__(self) -> str:
        rows = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"WenMatrix[{rows}]"

    def u_class(self) -> PiElement:
        """The coset of u = K^{-1}e in Pi (entries reduced to [0, 1))."""
        return pi_canonical(self.u)

    def kinv_times(self, vec: Sequence[int]) -> tuple[Fraction, ...]:
        """Exact K^{-1} @ vec for an integer vector."""
        return tuple(
            Fraction(sum(self.adjugate[i][j] * vec[j] for j in range(self.g)), self.delta)
            for i in range(self.g)
        )


@dataclass(frozen=True)
class WenDatum:
    """A Wen matrix with particle counts n satisfying K n = d e."""

    matrix: WenMatrix
    n_vec: tuple[int, ...]
    d: int
    n: int


# ---------------------------------------------------------------------------
# operations


def validate_wen_matrix(mat: Sequence[Sequence[int]]) -> WenMatrix:
    """Check the coupling-matrix axioms and cache all exact invariants.

    Axioms are checked in a fixed order and the first failure is raised:
    symmetry, positive definiteness (leading principal minors, exact),
    uniform diagonal parity, positivity of u = K^{-1}e, and non-negativity
    of the entries.
    """
    rows = _as_int_matrix(mat)
    g = len(rows)
    for i in range(g):
        for j in range(i + 1, g):
            if rows[i][j] != rows[j][i]:
                raise NotSymmetricError(
                    f"entry ({i},{j})={rows[i][j]} differs from ({j},{i})={rows[j][i]}"
                )
    for k in range(1, g + 1):
        minor = [row[:k] for row in rows[:k]]
        if det_int(minor) <= 0:
            raise NotPositiveDefiniteError(
                f"leading principal minor of order {k} is not positive"
            )
    parities = {rows[i][i] % 2 for i in range(g)}
    if len(parities) != 1:
        raise MixedParityError(
            "diagonal entries must be all even or all odd, got "
            + str([rows[i][i] for i in range(g)])
        )
    delta = det_int(rows)
    adj = adjugate_int(rows)
    u = tuple(Fraction(sum(adj[i][j] for j in range(g)), delta) for i in range(g))
    if any(x <= 0 for x in u):
        raise NonPositiveUError(f"K^-1 e = {[str(x) for x in u]} has a non-positive entry")
    for i in range(g):
        for j in range(g):
            if rows[i][j] < 0:
                raise NegativeEntryError(f"entry ({i},{j})={rows[i][j]} is negative")
    rho = sum(sum(row) for row in adj)
    epsilon = 1 if rows[0][0] % 2 == 0 else -1
    return WenMatrix(
        entries=rows,
        g=g,
        delta=delta,
        adjugate=adj,
        rho=rho,
        epsilon=epsilon,
        u=u,
        primary=gcd(delta, rho) == 1,
    )


def jain_matrix(p: int, g: int) -> WenMatrix:
    """The coupling matrix with p+1 on the diagonal and p elsewhere.

    Its determinant is p*g + 1 and its adjugate has diagonal delta - p and
    off-diagonal -p, so the adjugate entries sum to g.
    """
    if p < 1 or g < 1:
        raise ValueError("p and g must be positive")
    mat = [[p + 1 if i == j else p for j in range(g)] for i in range(g)]
    return validate_wen_matrix(mat)


def validate_wen_datum(K: WenMatrix, n_vec: Sequence[int]) -> WenDatum:
    """Check K n = d e for a positive integer d and build the datum."""
    nv = tuple(int(x) for x in n_vec)
    if len(nv) != K.g:
        raise NotEigenvectorError(f"n has length {len(nv)}, expected {K.g}")
    if any(x <= 0 for x in nv):
        raise NotEigenvectorError(f"particle counts must be positive, got {list(nv)}")
    image = [sum(K.entries[i][j] * nv[j] for j in range(K.g)) for i in range(K.g)]
    d = image[0]
    if any(x != d for x in image):
        raise NotEigenvectorError(
            f"K n = {image} is not a multiple of the all-ones vector"
        )
    n = sum(nv)
    # rho = n*delta/d is forced by u = n/d; keep the exact cross-check anyway
    if Fraction(n * K.delta, d) != K.rho:
        raise NotEigenvectorError(
            f"inconsistent datum: n*delta/d = {n * K.delta}/{d} != rho = {K.rho}"
        )
    return WenDatum(matrix=K, n_vec=nv, d=d, n=n)


def pi_group(K: WenMatrix) -> PiGroup:
    """Enumerate all delta cosets of K^{-1}Z^g / Z^g.

    Representatives come from the Smith normal form diag = S K T: the cosets
    of Z^g / K Z^g are S^{-1} r for r in the box prod [0, d_i), and each maps
    to the canonical representative frac(K^{-1} S^{-1} r).
    """
    diag, s, _t = smith_normal_form(K.entries)
    for i in range(len(diag) - 1):
        if diag[i + 1] % diag[i]:
            raise AssertionError("Smith normal form lost the divisibility chain")
    s_inv = unimodular_inverse(s)
    elems = set()
    for r in itertools.product(*(range(d) for d in diag)):
        m = [sum(s_inv[i][j] * r[j] for j in range(K.g)) for i in range(K.g)]
        elems.add(pi_canonical(K.kinv_times(m)))
    if len(elems) != K.delta:
        raise AssertionError(
            f"enumerated {len(elems)} cosets, expected delta = {K.delta}"
        )
    return PiGroup(invariant_factors=diag, elements=tuple(sorted(elems)))

