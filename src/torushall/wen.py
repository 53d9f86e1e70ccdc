"""Exact integer and rational algebra for multilayer coupling matrices.

A Wen matrix is a symmetric positive-definite matrix K with non-negative
integer entries, uniform diagonal parity, and strictly positive K^{-1}e
(e the all-ones vector).  Together with a per-layer particle-count vector
n satisfying K n = d e it forms a Wen datum.  This module validates such
data and computes their invariants exactly:

* delta = det K and the adjugate matrix Ksharp with K Ksharp = delta I,
  both from the one fraction-free elimination of [K | I] that also gives
  the leading principal minors,
* rho = sum of adjugate entries, the statistics sign, u = K^{-1} e,
* the finite group Pi = K^{-1}Z^g / Z^g of order delta, enumerated through
  the Smith normal form of K, which gives only Pi and its invariant factors.

Everything here runs on Python integers and ``fractions.Fraction``; no
floating point enters this module, so all equalities asserted by callers
are exact.  Every coset c of Pi has the form C / delta for an integer
vector C in [0, delta)^g, and these numerators C are the only coset
representation the package stores; the Fraction view
``PiGroup.elements`` is built on first read, from one table of the values
k / delta.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

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


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _bareiss(rows: IntMatrix) -> tuple[int, IntMatrix]:
    """delta = det K and Ksharp, by one fraction-free Gauss-Jordan pass on [K | I].

    Bareiss's elimination (Math. Comp. 22, 1968) without pivoting: the k-th
    pivot is the leading principal minor of order k, and the first that is
    not positive raises NotPositiveDefiniteError.  Every division is exact,
    and [K | I] ends as [delta I | Ksharp], so the last pivot is delta.
    """
    g = len(rows)
    a = [list(row) + e for row, e in zip(rows, _identity(g))]
    prev = 1
    for k in range(g):
        pivot, pivot_row = a[k][k], a[k]
        if pivot <= 0:
            raise NotPositiveDefiniteError(
                f"leading principal minor of order {k + 1} is not positive"
            )
        for i in range(g):
            if i != k:
                f = a[i][k]
                a[i] = [(pivot * x - f * y) // prev for x, y in zip(a[i], pivot_row)]
        prev = pivot
    return prev, tuple(tuple(row[g:]) for row in a)


def smith_normal_form(
    mat: Sequence[Sequence[int]],
) -> tuple[tuple[int, ...], IntMatrix, IntMatrix]:
    """Smith normal form over the integers: returns (diag, S, T).

    ``diag(d_1, ..., d_n) = S @ mat @ T`` with S, T unimodular and
    d_1 | d_2 | ... | d_n (checked on return), all d_i >= 0.  Pivot rule:
    the entry of smallest nonzero absolute value in the remaining block,
    ties broken row-major, which makes the transforms reproducible across
    runs.
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
    if any(y % x if x else y for x, y in zip(diag, diag[1:])):
        raise AssertionError("Smith normal form lost the divisibility chain")
    return diag, tuple(tuple(r) for r in s), tuple(tuple(r) for r in t)


# ---------------------------------------------------------------------------
# coset arithmetic in Pi = K^{-1}Z^g / Z^g


def coset_fractions(
    numerators: Sequence[tuple[int, ...]], delta: int
) -> tuple[PiElement, ...]:
    """The cosets C / delta as Fraction tuples, one Fraction per value k / delta."""
    table = [Fraction(k, delta) for k in range(delta)]
    return tuple(tuple(table[k] for k in c) for c in numerators)


@dataclass(eq=False)
class PiGroup:
    """The finite group K^{-1}Z^g / Z^g with canonical representatives.

    ``numerators`` lists all ``delta`` cosets, each as its integer vector
    C = delta c in [0, delta)^g, sorted lexicographically;
    ``invariant_factors`` is the Smith normal form diagonal of K (so their
    product is delta).
    """

    invariant_factors: tuple[int, ...]
    numerators: tuple[tuple[int, ...], ...]

    @functools.cached_property
    def elements(self) -> tuple[PiElement, ...]:
        """``numerators`` as Fraction tuples c = C / delta in [0, 1), built on first read."""
        return coset_fractions(self.numerators, len(self.numerators))

    def __len__(self) -> int:
        return len(self.numerators)


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

    def u_numerators(self) -> tuple[int, ...]:
        """The coset of u = K^{-1}e in Pi as its numerators: Ksharp e mod delta."""
        return tuple(sum(row) % self.delta for row in self.adjugate)


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
    delta, adj = _bareiss(rows)
    parities = {rows[i][i] % 2 for i in range(g)}
    if len(parities) != 1:
        raise MixedParityError(
            "diagonal entries must be all even or all odd, got "
            + str([rows[i][i] for i in range(g)])
        )
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
    if n * K.delta != K.rho * d:
        raise NotEigenvectorError(
            f"inconsistent datum: n*delta/d = {n * K.delta}/{d} != rho = {K.rho}"
        )
    return WenDatum(matrix=K, n_vec=nv, d=d, n=n)


def pi_group(K: WenMatrix) -> PiGroup:
    """Enumerate all delta cosets of K^{-1}Z^g / Z^g.

    Representatives come from the Smith normal form D = S K T: the cosets
    of Z^g / K Z^g are S^{-1} r for r in the box prod [0, d_j), and each maps
    to the canonical representative frac(K^{-1} S^{-1} r) = frac(T D^{-1} r),
    whose numerator is sum_j (delta / d_j) r_j T[:, j] mod delta.  Sorting
    the numerators sorts the cosets.
    """
    diag, _s, t = smith_normal_form(K.entries)
    d = K.delta
    m = [[d // f * x for x, f in zip(row, diag)] for row in t]  # delta T D^{-1} = Ksharp S^{-1}
    nums = {
        tuple(sum(x * y for x, y in zip(row, r)) % d for row in m)
        for r in itertools.product(*(range(f) for f in diag))
    }
    if len(nums) != d:
        raise AssertionError(f"enumerated {len(nums)} cosets, expected delta = {d}")
    return PiGroup(invariant_factors=diag, numerators=tuple(sorted(nums)))
