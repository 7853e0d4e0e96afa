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

Each family has one statistics pass per n.  `_table(n, signed)` counts the
joint distribution of (fwex, neg, cro_b, des_b, fixed) over B_n (signed)
or A_n, where neg = 0 and fwex = 2*wex.  D, B* and D* are the B rows with
even neg, no fixed point, or both, and A* is the A rows with no fixed
point.  The tables are cached per (n, signed) and shared: one loop of
`signed_enumerator` projects all six schemes from them, and `family_table`
hands the family's rows to the catalog.

The tables come from one insertion rule, `_child_keys`.  A window w of
size n-1 has 2n children in B_n: w with +-n appended, and for each position
i, w with +-n at i and w_i moved to position n (A_n takes + only, n
children).  The rule maps each w and its packed key (fwex, neg, cro_b, des_b,
fixed_count) to its children's keys: wex, neg, fixed and des_b change in
O(1), appending adds no crossing, and one pass over w's position pairs
(`_cro_steps_b`, or `_cro_steps_a` without the terms that vanish on
positive windows) gives the crossing change of every other child.  `_walk`
pairs each child window with its key, level by level; `_table` counts the
children's keys of the windows of size n-1 and builds no window of size n.

`generate`, `stats` and `cro_b` are the independent route: one window at a
time, straight from the definitions.  `cro_b` is the one crossing count;
on an all-positive window it counts the crossings of a permutation.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

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


class StatRecord(NamedTuple):
    """Statistics of one signed permutation."""

    wex: int          # positions with sigma_i >= i
    exc: int          # positions with sigma_i > i
    neg: int          # negative window entries
    fwex: int         # 2*wex + neg
    cro_b: int        # crossings of the signed permutation
    des_b: int        # descents of (0, sigma_1, ..., sigma_n)
    fixed_count: int  # positions with sigma_i = i


def _rules(family: str) -> tuple[bool, bool, bool]:
    """A family as (signed, even neg only, fixed-point-free)."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return family not in ("A", "A*"), family.startswith("D"), family.endswith("*")


def generate(n: int, family: str) -> Iterator[tuple[int, ...]]:
    """All members of the family, each exactly once.

    Order is lexicographic on (absolute-value permutation, sign vector),
    with + preceding - in the sign vector; deterministic for golden tests.
    """
    signed, even_neg, derangements = _rules(family)
    if n < 0:
        raise ValueError("n must be >= 0")
    # D keeps the sign vectors with an even number of minus signs
    sign_vectors = [signs for signs in itertools.product((1, -1) if signed else (1,), repeat=n)
                    if not (even_neg and signs.count(-1) % 2)]
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


def _cro_steps_b(w: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """The crossings gained by each child of the window w of B_m in
    `_walk`, indexed by the position i of the new entry: up[i] for the child
    with +(m+1) at i <= m, down[i] for -(m+1), and up[m+1] = down[m+1] = 0
    for the appended children (index 0 is unused).

    A child at i keeps the pairs of w away from i, changes the pairs
    through i (the arc at i now ends at +-(m+1)), adds the arc from m+1 to
    w_i against every other position, and adds the pair (i, m+1).  With
    m+1 above every |w_j|, each term is a comparison of w's entries, so one
    pass over the position pairs gives every child's change; the terms at
    j are summed over the later entries c in the form that w_j > j allows."""
    up = [0] * (len(w) + 2)
    down = up.copy()
    later = list(enumerate(w, start=1))
    for pj, b in enumerate(w, start=1):
        del later[0]
        ab = abs(b)
        u, d = (pj - b, pj - b) if b > pj else (-b >= pj, b < pj)
        for pk, c in later:
            if ab >= pk:
                up[pk] += ab > c
                down[pk] -= ab < c
            if c >= b:
                u -= -pj < c < pj
            elif b > pj:
                u += 1 + (c < -b)
                d += 2 - (pj <= abs(c) < b)
            else:
                u += 1 + (c <= -pj)
                d += 2
        up[pj] += u
        down[pj] += d
    return up, down


def _cro_steps_a(w: tuple[int, ...]) -> tuple[list[int], None]:
    """`_cro_steps_b` on an all-positive window, whose children take +(m+1)
    only: the terms that need a negative entry are dropped."""
    up = [0] * (len(w) + 2)
    for (pj, b), (pk, c) in itertools.combinations(enumerate(w, start=1), 2):
        if b > c:
            if b >= pk:
                up[pk] += 1
            else:
                up[pj] += 1
        elif b >= pk or c < pj:
            up[pj] -= 1
    return up, None


def _radix(n: int) -> int:
    """The digit radix of `_table(n, ...)`'s keys: above neg, des_b, fixed_count <= n
    and cro_b <= n(n-1)/2 (two positions cross at most once); fwex is the top digit."""
    return n * n + 1


@lru_cache(maxsize=None)
def _child_keys(n: int, signed: bool) -> Callable[[Iterable[tuple]], Iterator[int]]:
    """The insertion rule: maps windows w of size m-1 < n with their keys,
    packed in `_radix(n)`, to the keys of their children, window by window in
    `_walk`'s order: +-m appended, then +-m at each position i with w_i moved
    to the end."""
    r = _radix(n)
    fix, des, neg, fwex = r, r ** 2, r ** 3, r ** 4  # cro_b is the unit digit
    # fwex and fixed_count of w_i = a leaving position i, by i and a (a < 0 reads 0)
    moved = [[-(a >= i) * 2 * fwex - (a == i) * fix for a in range(n)] + [0] * n for i in range(1, n)]

    def children(parents: Iterable[tuple]) -> Iterator[int]:
        for w, key in parents:
            up, down = _cro_steps_b(w) if signed else _cro_steps_a(w)
            base = key + 2 * fwex  # +m at i, w_i in place
            yield base + fix + up[-1]
            if signed:
                yield base + neg - fwex + des + down[-1]
            padded = (0, *w, *w[-1:])
            for i, row, b, a, c in zip(itertools.count(1), moved, padded, w, padded[2:]):
                # w_i leaves its neighbours to follow the last entry; +m at i
                # descends to its right, -m at i is descended to from its left
                k = base + (1 + (padded[-1] > a) - (b > a) - (a > c)) * des + row[a]
                yield k + up[i]
                if signed:
                    yield k + neg - fwex + down[i]
    return children


def _walk(m: int, n: int, signed: bool) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every window of B_m (signed) or A_m, each once, with its key packed in
    `_radix(n)`, n >= m: each window of size m-1 gives its children, paired
    with the keys of `_child_keys(n, signed)`."""
    if m < 0:
        raise ValueError("n must be >= 0")
    if m == 0:
        return iter([((), 0)])
    tops = (m, -m) if signed else (m,)
    parents, again = itertools.tee(_walk(m - 1, n, signed))
    windows = ([(*w, v) for v in tops] + [(*w[:i], v, *w[i + 1:], a) for i, a in enumerate(w) for v in tops]
               for w, _ in parents)
    return zip(itertools.chain.from_iterable(windows), _child_keys(n, signed)(again))


@lru_cache(maxsize=None)
def _table(n: int, signed: bool) -> Mapping[tuple[int, ...], int]:
    """Joint distribution over B_n (signed) or A_n: window counts keyed by
    (fwex, neg, cro_b, des_b, fixed_count), in unpacked-key order.  The keys
    of `_child_keys(n, signed)` over the windows of `_walk(n - 1, n, signed)`
    are counted and unpacked once; no window of size n is built.  Cached and
    shared, so read-only."""
    r = _radix(n)
    counts = Counter(_child_keys(n, signed)(_walk(n - 1, n, signed)) if n else [0])  # the empty window's key is 0
    return MappingProxyType({(k // r ** 4, k // r ** 3 % r, k % r, k // r ** 2 % r, k // r % r): c for k, c in counts.items()})


def family_table(n: int, family: str) -> dict[tuple[int, ...], int]:
    """The family's rows of `_table(n, signed)`, signed for all but A and
    A*, in unpacked-key order: D keeps even neg, a starred family keeps
    fixed_count 0."""
    signed, even_neg, derangements = _rules(family)
    return {k: c for k, c in _table(n, signed).items() if not (derangements and k[4]) and not (even_neg and k[1] % 2)}


def signed_enumerator(n: int, family: str, scheme: str) -> Poly:
    """Sum of the scheme's signed monomial over the family: a projection of
    `family_table`.  On the all-positive rows of A and A*, neg = 0,
    floor(fwex/2) = wex and cro_b = cro, so the JV sums are the FWEX sums
    read there, and exc = wex - fixed."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if (scheme in _TYPE_A_SCHEMES) == _rules(family)[0]:
        raise ValueError(f"scheme {scheme} does not apply to family {family}")
    acc: dict[Key, int] = {}

    def add(key: Key, c: int) -> None:
        acc[key] = acc.get(key, 0) + c

    for (fwex, neg, cro, _, fixed), count in family_table(n, family).items():
        half = fwex // 2
        sign = -count if half % 2 else count
        if scheme == "EULER_EXC":
            add((0, 0, 0), -count if (half - fixed) % 2 else count)
        elif scheme in ("FWEX_SIGN", "JV_WEX_CRO"):
            add((0, neg, cro), sign)
        elif scheme in ("FWEX_SIGN_Q", "JV_DERANGE"):
            add((0, neg, cro - half), sign)
        else:  # FULL_YTQ
            add((fwex, neg, cro), count)
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
