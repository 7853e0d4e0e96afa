"""Weighted bicolored Motzkin paths.

A path of length n uses steps U (rise), D (fall), L (straight level) and
W (wavy level), starts and ends on the x-axis and never goes below it.  The
height of a step is the y-coordinate of its starting point.

A weighting scheme assigns each step, at each height, a menu of admissible
monomial weights.  Implemented schemes:

  T       level/rise/fall menus realizing the R_n(t,q) series
  TSTAR   menus realizing the Q_n(t,q) series (no wavy steps on the axis)
  M       trivariate y,t,q menus realizing the signed-permutation
          enumerator sum(y^fwex t^neg q^cro_b) (no wavy steps on the axis)
  MSTAR   M without straight level steps of weight exactly y^2
          (the image of the fixed-point-free signed permutations)
  H       the restructured menus: M_n is a two-to-one weight-preserving
          cover of H_(n-1)
  F       subset of H: level steps use the yt branch and every facing
          rise/fall pair is weighted (y^2 q^a, q^b) or
          (y t q^(h+1+a), y t q^(h+1+b)); total weight y^n R_n
  G       subset of MSTAR: level steps use the yt branch and every facing
          pair is weighted (y^2 q^a, q^b) or (y t q^(h+a), y t q^(h+1+b));
          total weight y^n Q_n

plus the parity slices MPRIME, MSTARPRIME (even powers of t in the path
weight) and H1, H2 (odd and even powers of t).

Each menu is at most two exponent ranges (ey, et, eq_lo, eq_hi), one per
(ey, et) branch, with empty ranges dropped (`_menu_ranges`); a fall step
at height 0 is an error.

A path is `(steps, weights)`, each weight an exponent triple (ey, et, eq)
for the monomial y^ey t^et q^eq; a `WeightedPath` holds the same data with
its shape validated.  A box is `(steps, ranges)`, one menu range per step:
a branch per step, each q exponent over an interval.  A scheme's paths of
one shape are the disjoint union of its boxes, and a path is the box whose
intervals are points (`_point`, `_corner`).  The one generator, `_boxes`,
takes per shape the product of its step menus and applies the parity and
pair rules, which read only branches.  `_paths` expands each box in that
order, its q exponents lexicographically.  So where a claim fails on a
box exactly when it fails on one of the box's paths, the first failing
path of the first failing box is the first failing path: the path maps'
witnesses in `snakelab.checks` are found that way.  `_contains` tests a
path against a frozenset per step, and an image box through its two
corner paths (`checks._lands`).  `rho` is the J-fraction of `_schedule`,
the menu sums per height, and `path_count` is its coefficient sum.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, namedtuple
from functools import lru_cache, partial
from operator import itemgetter
from typing import Iterator

from snakelab.algebra import ZERO, CoefficientSchedule, Monomial, Poly, jfraction_series

STEPS = ("U", "D", "L", "W")

# a weight y^ey t^et q^eq and a path as a plain pair (steps, weights)
Weight = tuple[int, int, int]
RawPath = tuple[tuple[str, ...], tuple[Weight, ...]]

# scheme -> (menu table, required t-parity of the path weight, pair rule applies)
_SCHEME_INFO = {
    "M": ("M", None, False),
    "H": ("H", None, False),
    "F": ("F", None, True),
    "T": ("T", None, False),
    "TSTAR": ("TSTAR", None, False),
    "G": ("G", None, True),
    "MSTAR": ("MSTAR", None, False),
    "MPRIME": ("M", 0, False),
    "MSTARPRIME": ("MSTAR", 0, False),
    "H1": ("H", 1, False),
    "H2": ("H", 0, False),
}
SCHEMES = tuple(_SCHEME_INFO)


@lru_cache(maxsize=None)
def _menu_ranges(table: str, step: str, h: int) -> tuple[tuple[int, int, int, int], ...]:
    """The menu of a step starting at height h as at most two exponent
    ranges (ey, et, eq_lo, eq_hi), each standing for the weights
    y^ey t^et q^eq with eq_lo <= eq <= eq_hi; empty ranges are dropped.
    F and G are the menus of H and MSTAR with level steps kept on the yt
    branch only."""
    if table in ("F", "G"):
        ranges = _menu_ranges("H" if table == "F" else "MSTAR", step, h)
        return ranges if step in ("U", "D") else tuple(r for r in ranges if r[:2] == (1, 1))
    if step == "D":
        if h < 1:
            raise ValueError("down step below axis")
        g = h - 1  # menus for a fall are indexed by the landing height
        if table == "T":
            ranges = ((0, 0, 0, g + 1),)
        elif table == "TSTAR":
            ranges = ((0, 0, 0, g),)
        else:  # M, MSTAR, H
            ranges = ((0, 0, 0, g), (1, 1, g + 1, 2 * g + 1))
    elif step == "U":
        if table == "T":
            ranges = ((0, 0, 0, h), (0, 2, 2 * h + 2, 3 * h + 2))
        elif table == "TSTAR":
            ranges = ((0, 0, 0, h), (0, 2, 2 * h + 1, 3 * h + 1))
        elif table in ("M", "MSTAR"):
            ranges = ((2, 0, 0, h), (1, 1, h, 2 * h))
        else:  # H
            ranges = ((2, 0, 0, h + 1), (1, 1, h + 1, 2 * h + 2))
    elif step == "L":
        if table == "T":
            ranges = ((0, 1, h + 1, 2 * h + 1),)
        elif table == "TSTAR":
            ranges = ((0, 1, h, 2 * h),)
        elif table == "M":
            ranges = ((2, 0, 0, h), (1, 1, h, 2 * h))
        elif table == "MSTAR":
            ranges = ((2, 0, 1, h), (1, 1, h, 2 * h))
        else:  # H
            ranges = ((0, 0, 0, h), (1, 1, h + 1, 2 * h + 1))
    else:  # W
        if table == "T":
            ranges = ((0, 1, h, 2 * h),)
        elif table == "TSTAR":
            ranges = ((0, 1, h, 2 * h - 1),)
        elif table in ("M", "MSTAR"):
            ranges = ((0, 0, 0, h - 1), (1, 1, h, 2 * h - 1))
        else:  # H
            ranges = ((2, 0, 0, h), (1, 1, h, 2 * h))
    return tuple(r for r in ranges if r[2] <= r[3])


def _points(r: tuple) -> list[Weight]:
    """The weight triples of one range, q ascending."""
    ey, et, lo, hi = r
    return [(ey, et, eq) for eq in range(lo, hi + 1)]


@lru_cache(maxsize=None)
def _menu_set(table: str, step: str, h: int) -> frozenset[Weight]:
    return frozenset(weight_menu(table, step, h))


def weight_menu(scheme: str, step: str, h: int) -> tuple[Weight, ...]:
    """Admissible weight triples for a step starting at height h, in range
    order.  For F and G, which rise and fall weights may face each other is
    the pair rule, checked separately."""
    table = _scheme_info(scheme)[0]
    if step not in STEPS:
        raise ValueError(f"unknown step {step!r}")
    if h < 0:
        raise ValueError("height must be >= 0")
    return tuple(itertools.chain.from_iterable(map(_points, _menu_ranges(table, step, h))))


@lru_cache(maxsize=None)
def step_heights(steps: tuple[str, ...]) -> tuple[int, ...]:
    """Starting height of each step; raises if the shape is invalid."""
    out = []
    h = 0
    for s in steps:
        out.append(h)
        if s == "U":
            h += 1
        elif s == "D":
            h -= 1
            if h < 0:
                raise ValueError(f"path dips below the axis: {steps}")
        elif s not in ("L", "W"):
            raise ValueError(f"unknown step {s!r}")
    if h != 0:
        raise ValueError(f"path does not return to the axis: {steps}")
    return tuple(out)


@lru_cache(maxsize=None)
def matching_pairs(steps: tuple[str, ...]) -> tuple[tuple[int, int], ...]:
    """Facing (rise, fall) index pairs, 0-based, ordered by rise index;
    level steps are transparent."""
    step_heights(steps)
    stack: list[int] = []
    pairs: list[tuple[int, int]] = []
    for i, s in enumerate(steps):
        if s == "U":
            stack.append(i)
        elif s == "D":
            pairs.append((stack.pop(), i))
    return tuple(sorted(pairs))


class WeightedPath(namedtuple("WeightedPath", "steps weights")):
    """A path shape together with one weight triple (ey, et, eq) per step;
    its length is the number of steps."""

    __slots__ = ()

    def __new__(cls, steps: tuple[str, ...], weights: tuple[Weight, ...]):
        if len(steps) != len(weights):
            raise ValueError("one weight per step required")
        if not all(isinstance(w, tuple) and len(w) == 3 for w in weights):
            raise ValueError("each weight must be an exponent triple (ey, et, eq)")
        step_heights(steps)
        return super().__new__(cls, steps, weights)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so `_replace` validates too

    def __len__(self) -> int:
        return len(self.steps)

    def weight(self) -> Weight:
        return _weight(self.weights)

    def text(self) -> str:
        return " ".join(f"{s}[{Monomial(1, *w).text()}]" for s, w in zip(self.steps, self.weights))


EMPTY_PATH = WeightedPath((), ())


def _weight(weights: tuple[Weight, ...]) -> Weight:
    """The exponent triple of a path's weight."""
    ey = et = eq = 0
    for y, t, q in weights:
        ey += y
        et += t
        eq += q
    return ey, et, eq


_ET = itemgetter(1)


def _pairs_ok(weights: tuple[Weight, ...], pairs: tuple[tuple[int, int], ...]) -> bool:
    """The pair rule of F and G on weights or ranges: each facing pair is
    coupled by its branches, (y^2, q-power) or (yt, yt); the menus enforce
    the exponent ranges."""
    return all((weights[u][0] == 2) == (weights[d][0] == 0) for u, d in pairs)


def gen_shapes(n: int, forbid_wavy_on_axis: bool = False) -> Iterator[tuple[str, ...]]:
    """All shapes of length n, depth-first in step order U, D, L, W."""
    if n < 0:
        raise ValueError("n must be >= 0")

    def rec(prefix: tuple[str, ...], h: int, left: int) -> Iterator[tuple[str, ...]]:
        if not left:
            yield prefix
            return
        for s, h_next in (("U", h + 1), ("D", h - 1), ("L", h), ("W", h if h or not forbid_wavy_on_axis else -1)):
            if 0 <= h_next < left:  # the path can close
                yield from rec(prefix + (s,), h_next, left - 1)

    yield from rec((), 0, n)


def _scheme_info(scheme: str):
    try:
        return _SCHEME_INFO[scheme]
    except KeyError:
        raise ValueError(f"unknown scheme {scheme!r}") from None


def _shapes(table: str, n: int) -> Iterator[tuple[str, ...]]:
    return gen_shapes(n, forbid_wavy_on_axis=not _menu_ranges(table, "W", 0))


@lru_cache(maxsize=None)
def _shape_menus(table: str, steps: tuple[str, ...]) -> tuple:
    """The menu ranges of every step of a valid shape."""
    return tuple(map(_menu_ranges, itertools.repeat(table), steps, step_heights(steps)))


@lru_cache(maxsize=None)
def _shape_sets(table: str, steps: tuple[str, ...]) -> tuple[frozenset[Weight], ...]:
    """The menu of every step of a valid shape as a frozenset of weights,
    each shared per (table, step, height)."""
    return tuple(map(_menu_set, itertools.repeat(table), steps, step_heights(steps)))


def _boxes(scheme: str, n: int) -> Iterator[tuple]:
    """All boxes of the scheme as (steps, ranges): each shape in
    `gen_shapes` order with the Cartesian product of its menu ranges,
    filtered by the scheme's parity and pair rules."""
    table, parity, pair_rule = _scheme_info(scheme)
    for steps in _shapes(table, n):
        combos = itertools.product(*_shape_menus(table, steps))
        if parity is not None:
            combos = (c for c in combos if sum(map(_ET, c)) % 2 == parity)
        if pair_rule:
            pairs = matching_pairs(steps)
            combos = (c for c in combos if _pairs_ok(c, pairs))
        yield from zip(itertools.repeat(steps), combos)


def _paths(scheme: str, n: int) -> Iterator[RawPath]:
    """All paths of the scheme as (steps, weights): each box in `_boxes`
    order, its q exponents in lexicographic order."""
    for steps, ranges in _boxes(scheme, n):
        yield from zip(itertools.repeat(steps), itertools.product(*map(_points, ranges)))


_CORNER = itemgetter(0, 1, 2)


def _point(weights: tuple[Weight, ...]) -> tuple:
    """The ranges of the box that holds just the path with these weights."""
    return tuple((ey, et, eq, eq) for ey, et, eq in weights)


def _corner(ranges: tuple) -> tuple[Weight, ...]:
    """The weights of a box's first path, every q at its low end."""
    return tuple(map(_CORNER, ranges))


def _size(ranges: tuple) -> int:
    return math.prod(hi - lo + 1 for _, _, lo, hi in ranges)


def _contains(scheme: str, steps: tuple[str, ...], weights: tuple[Weight, ...]) -> bool:
    """Membership of a path (steps, weights) whose shape is valid:
    per-step menus, parity, pair rule."""
    table, parity, pair_rule = _scheme_info(scheme)
    if not all(map(frozenset.__contains__, _shape_sets(table, steps), weights)):
        return False
    if parity is not None and sum(map(_ET, weights)) % 2 != parity:
        return False
    return not pair_rule or _pairs_ok(weights, matching_pairs(steps))


def gen_weighted(scheme: str, n: int) -> Iterator[WeightedPath]:
    """All weighted paths of the scheme, in `_paths` order."""
    yield from itertools.starmap(WeightedPath, _paths(scheme, n))


def in_family(scheme: str, path: WeightedPath) -> bool:
    """Full membership test: per-step menus, parity, pair rule.  The shape
    is valid by construction of the path."""
    return _contains(scheme, path.steps, path.weights)


def _require(scheme: str, path: WeightedPath) -> None:
    """The domain guard of the public maps on paths."""
    if not in_family(scheme, path):
        raise ValueError(f"path is not in scheme {scheme}: {path.text()!r}")


def _range_sum(ranges) -> Poly:
    """The sum of the weights of some menu ranges."""
    return Poly(Counter(itertools.chain.from_iterable(map(_points, ranges))))


def _schedule(scheme: str) -> CoefficientSchedule:
    """The J-fraction of the scheme's menus (Flajolet 1980): mu(h) sums the
    level menus at height h, and lam(h) sums the products of a rise range
    at h-1 and a fall range at h, for F and G over the range pairs that
    `_pairs_ok` couples.  A parity slice has its table's schedule."""
    table, _, pair_rule = _scheme_info(scheme)
    menu = partial(_menu_ranges, table)
    return CoefficientSchedule(
        mu=lambda h: _range_sum(menu("L", h) + menu("W", h)),
        lam=lambda h: sum((_range_sum((u,)) * _range_sum((d,)) for u in menu("U", h - 1) for d in menu("D", h)
                           if not pair_rule or _pairs_ok((u, d), ((0, 1),))), ZERO))


def _sums(scheme: str, n_max: int) -> list[Poly]:
    """Total weights of the scheme's paths of lengths 0..n_max, with no path
    built: the J-fraction of `_schedule`, of which a parity slice keeps the
    terms of its t-parity."""
    parity = _scheme_info(scheme)[1]
    if n_max < 0:
        raise ValueError("n must be >= 0")
    sums = jfraction_series(_schedule(scheme), n_max)
    return sums if parity is None else [Poly({k: c for k, c in p.terms.items() if k[1] % 2 == parity}) for p in sums]


def rho(scheme: str, n: int) -> Poly:
    """Total weight of the scheme's paths of length n: entry n of `_sums`."""
    return _sums(scheme, n)[n]


def path_count(scheme: str, n: int) -> int:
    """Number of paths of length n of the scheme: the coefficient sum of
    `rho`, as every menu weight is a monomial with coefficient 1."""
    return sum(rho(scheme, n).terms.values())
