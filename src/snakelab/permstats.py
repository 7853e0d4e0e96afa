"""Signed permutation families and their statistics.

A signed permutation of [n] is a bijection sigma of {-n..-1, 1..n} with
sigma(-i) = -sigma(i); it is stored as its window (sigma_1, ..., sigma_n),
a tuple of nonzero integers whose absolute values are a permutation of [n].

Families:
  A   all permutations of [n] (all-positive windows)
  A*  derangements of [n]
  B   all signed permutations
  B*  signed permutations without fixed points (sigma_i = i)
  D   signed permutations with an even number of negative entries
  D*  fixed-point-free members of D

Each family has one statistics pass per n.  `b_table(n)` walks B_n once and
counts the joint distribution of (fwex, neg, cro_b, des_b, fixed); D, B*
and D* are its rows with even neg, no fixed point, or both.  `a_table(n)`
walks A_n once and counts (exc, fixed).  Both are cached per n and shared
by every caller: `signed_enumerator` projects the EULER_EXC scheme and the
three type-B schemes from them, and `family_table` hands the family's rows
to the catalog.  `cro_b` is the one crossing count: on an all-positive
window it counts the crossings of a permutation, and the JV schemes call
it window by window.  `a_table` keeps no crossings, since eulercan1 and
eulercan2 read A_8 and crossings there would roughly triple its cost.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Iterator, Mapping

from snakelab.algebra import ONE, T, Y, CoefficientSchedule, Key, Poly, q_int

FAMILIES = ("A", "A*", "B", "D", "B*", "D*")

SCHEMES = (
    "EULER_EXC",      # (-1)^exc
    "JV_WEX_CRO",     # (-1)^wex q^cro
    "JV_DERANGE",     # (-1/q)^wex q^cro
    "FWEX_SIGN",      # (-1)^floor(fwex/2) t^neg q^cro_b
    "FWEX_SIGN_Q",    # (-1/q)^floor(fwex/2) t^neg q^cro_b
    "FULL_YTQ",       # y^fwex t^neg q^cro_b
)

_TYPE_A_SCHEMES = {"EULER_EXC", "JV_WEX_CRO", "JV_DERANGE"}
_TYPE_B_SCHEMES = {"FWEX_SIGN", "FWEX_SIGN_Q", "FULL_YTQ"}


@dataclass(frozen=True)
class StatRecord:
    """Statistics of one signed permutation."""

    wex: int          # positions with sigma_i >= i
    exc: int          # positions with sigma_i > i
    neg: int          # negative window entries
    fwex: int         # 2*wex + neg
    cro_b: int        # crossings of the signed permutation
    des_b: int        # descents of (0, sigma_1, ..., sigma_n)
    fixed_count: int  # positions with sigma_i = i


def generate(n: int, family: str) -> Iterator[tuple[int, ...]]:
    """All members of the family, each exactly once.

    Order is lexicographic on (absolute-value permutation, sign vector),
    with + preceding - in the sign vector; deterministic for golden tests.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if n < 0:
        raise ValueError("n must be >= 0")
    derangements = family.endswith("*")
    even_neg = family.startswith("D")
    # D keeps the sign vectors with an even number of minus signs
    sign_vectors = [
        signs
        for signs in itertools.product((1, -1), repeat=n)
        if not (even_neg and signs.count(-1) % 2)
    ] if family in ("B", "D", "B*", "D*") else [(1,) * n]
    for absperm in itertools.permutations(range(1, n + 1)):
        for signs in sign_vectors:
            window = tuple(map(operator.mul, signs, absperm))
            if derangements and any(v == i for i, v in enumerate(window, start=1)):
                continue
            yield window


def cro_b(window: tuple[int, ...]) -> int:
    """Number of crossings: ordered pairs (i, j), i, j >= 1, with
    i < j <= sigma_i < sigma_j, or -i < j <= -sigma_i < sigma_j, or
    i > j > sigma_i > sigma_j.  The three conditions are mutually
    exclusive, so their sum counts each crossing once.  Each pair of
    positions i < j is read once, the signed condition in both orders.  On
    an all-positive window these are the crossings of a permutation: pairs
    i < j with i < j <= sigma_i < sigma_j or sigma_i < sigma_j < i < j."""
    total = 0
    for (i, si), (j, sj) in itertools.combinations(enumerate(window, start=1), 2):
        total += (j <= si < sj) + (si < sj < i) + (j <= -si < sj) + (i <= -sj < si)
    return total


def stats(window: tuple[int, ...]) -> StatRecord:
    wex = sum(1 for i, v in enumerate(window, start=1) if v >= i)
    exc = sum(1 for i, v in enumerate(window, start=1) if v > i)
    neg = sum(1 for v in window if v < 0)
    fixed = sum(1 for i, v in enumerate(window, start=1) if v == i)
    padded = (0, *window)
    des = sum(1 for i in range(len(window)) if padded[i] > padded[i + 1])
    return StatRecord(
        wex=wex,
        exc=exc,
        neg=neg,
        fwex=2 * wex + neg,
        cro_b=cro_b(window),
        des_b=des,
        fixed_count=fixed,
    )


@lru_cache(maxsize=None)
def b_table(n: int) -> Mapping[tuple[int, ...], int]:
    """Joint distribution over B_n: window counts keyed by
    (fwex, neg, cro_b, des_b, fixed_count), from one pass of `stats`.
    Cached and shared, so read-only."""
    out: Counter = Counter()
    for window in generate(n, "B"):
        s = stats(window)
        out[s.fwex, s.neg, s.cro_b, s.des_b, s.fixed_count] += 1
    return MappingProxyType(out)


@lru_cache(maxsize=None)
def a_table(n: int) -> Mapping[tuple[int, ...], int]:
    """Joint distribution over A_n: permutation counts keyed by
    (exc, fixed_count).  Cached and shared, so read-only."""
    out: Counter = Counter()
    for window in generate(n, "A"):
        exc = fixed = 0
        for i, v in enumerate(window, start=1):
            exc += v > i
            fixed += v == i
        out[exc, fixed] += 1
    return MappingProxyType(out)


def family_table(n: int, family: str) -> dict[tuple[int, ...], int]:
    """The family's rows of `a_table(n)` (A, A*) or `b_table(n)` (B, D, B*,
    D*), in first-seen order: D keeps even neg, a starred family keeps
    fixed_count 0."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    derangements = family.endswith("*")
    if family in ("A", "A*"):
        return {k: c for k, c in a_table(n).items() if not (derangements and k[1])}
    even_neg = family.startswith("D")
    return {
        k: c
        for k, c in b_table(n).items()
        if not (derangements and k[4]) and not (even_neg and k[1] % 2)
    }


def signed_enumerator(n: int, family: str, scheme: str) -> Poly:
    """Sum of the scheme's signed monomial over the family.

    EULER_EXC and the type-B schemes are projections of `family_table`; the
    JV schemes walk the family window by window."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    type_a_family = family in ("A", "A*")
    if scheme in _TYPE_A_SCHEMES and not type_a_family:
        raise ValueError(f"scheme {scheme} needs an all-positive family, got {family}")
    if scheme in _TYPE_B_SCHEMES and type_a_family:
        raise ValueError(f"scheme {scheme} needs a signed family, got {family}")
    acc: dict[Key, int] = {}

    def add(key: Key, c: int) -> None:
        acc[key] = acc.get(key, 0) + c

    if scheme == "EULER_EXC":
        for (exc, _), count in family_table(n, family).items():
            add((0, 0, 0), -count if exc % 2 else count)
    elif scheme in _TYPE_B_SCHEMES:
        for (fwex, neg, cro, _, _), count in family_table(n, family).items():
            half = fwex // 2
            sign = -count if half % 2 else count
            if scheme == "FWEX_SIGN":
                add((0, neg, cro), sign)
            elif scheme == "FWEX_SIGN_Q":
                add((0, neg, cro - half), sign)
            else:  # FULL_YTQ
                add((fwex, neg, cro), count)
    else:
        for window in generate(n, family):
            wex = sum(1 for i, v in enumerate(window, start=1) if v >= i)
            cro = cro_b(window)
            shift = -wex if scheme == "JV_DERANGE" else 0
            add((0, 0, cro + shift), -1 if wex % 2 else 1)
    return Poly(acc)


def corteel_schedule() -> CoefficientSchedule:
    """J-fraction schedule whose series coefficients are the trivariate
    enumerators signed_enumerator(n, "B", "FULL_YTQ") (Corteel 2007):
    mu_h = y^2 [h+1] + [h] + y t q^h ([h] + [h+1]),
    lam_h = [h]^2 (y^2 + y t q^(h-1)) (1 + y t q^h)."""

    def mu(h: int) -> Poly:
        qh = Poly.monomial(eq=h)
        return Y ** 2 * q_int(h + 1) + q_int(h) + Y * T * qh * (
            q_int(h) + q_int(h + 1)
        )

    def lam(h: int) -> Poly:
        return (
            q_int(h) ** 2
            * (Y ** 2 + Y * T * Poly.monomial(eq=h - 1))
            * (ONE + Y * T * Poly.monomial(eq=h))
        )

    return CoefficientSchedule(mu, lam)


def _decreasing_runs(window: tuple[int, ...]) -> list[int]:
    """Lengths of the maximal decreasing consecutive factors."""
    if not window:
        return []
    runs = [1]
    for a, b in zip(window, window[1:]):
        if a > b:
            runs[-1] += 1
        else:
            runs.append(1)
    return runs


def gamma_coeffs(n: int) -> list[int]:
    """gamma[i] = number of permutations of [n] with i descents and no double
    descents, reading the word padded with 0 at both ends; these expand the
    excedance polynomial in the basis x^i (1+x)^(n-1-2i)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = [0] * ((n - 1) // 2 + 1)
    for perm in itertools.permutations(range(1, n + 1)):
        padded = (0, *perm, 0)
        if any(padded[i - 1] > padded[i] > padded[i + 1] for i in range(1, n + 1)):
            continue
        des = sum(1 for i in range(n - 1) if perm[i] > perm[i + 1])
        out[des] += 1
    return out


def xi_coeffs(n: int) -> list[int]:
    """xi[i] = number of permutations of [n] with i decreasing runs, none of
    size one; these expand the derangement excedance polynomial in the basis
    x^i (1+x)^(n-2i)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = [0] * (n // 2 + 1)
    if n == 0:
        out[0] = 1
        return out
    for perm in itertools.permutations(range(1, n + 1)):
        runs = _decreasing_runs(perm)
        if min(runs) >= 2:
            out[len(runs)] += 1
    return out
