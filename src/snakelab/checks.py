"""Catalog of named identity checks.

Every identity the library implements is registered here once, under a
stable id, with a default size ceiling chosen so that running the whole
catalog stays within minutes on one core: n <= 5 for exhaustive checks
over signed permutations or weighted paths, n <= 8 for polynomial ones.
A check function receives the ceiling and returns None on success or a
witness string describing the smallest counterexample.

Each entry is one row of `CHECKS`, of one of three kinds:
- a series identity "lhs(n) == rhs(n) for n = start, start + step, ...,
  n_max", run by `_identity`; its start is also its `min_n`.  A side given
  as `_Series(build)` is entry n of one table built once per run (the
  q-Euler sides share `_q_euler_side`).  The witness names the smallest
  n: `n=N: lhs - rhs = <difference>` for polynomials, `n=N: got X, want Y`
  otherwise, and for a pair of sides (thm-1.2) the first that differs;
- a map between finite families, or a lemma about one: prop-3.2 by
  `_restructure`; prop-3.6, lemma-3.8 and prop-4.4 read off the cached
  `_involution_walk`; thm-5.8, thm-5.12, lemma-sign-changes and
  lemma-pattern read off the cached `_snake_walk`;
- a worked-example golden, `_golden_check`: got() equals the literal in
  its row, else `got X, want Y`.
Each map check and lemma is a claim at one n, run for n up to the
ceiling, so its witness names the smallest n; the two snake lemmas read
S0, then S00, at each n.

No check holds a family whole.  A bijection check tests that each image
lands in the target and maps back to its source, so the map is injective,
hence onto once the source count equals the target's, which
`motzkin.path_count` reads off `rho` for the path targets H, TSTAR and T.
An image that fails is worded through the public inverse's domain guard.

The path maps are proved on boxes of paths (`motzkin._boxes`): one
branch per step, each q exponent over an interval.  `bijections._phi`
and `_toggle` pick their move from letters and branches and translate the
intervals, so each map's claims are one function of a box, run on a box
and on its paths alike: `_cover_claim` (phi), `_involution_claim` (psi1,
psi2) and `_slice_claim` (lemma-3.8).  A box fails a claim when one of
its paths does, and its witness (`_first_failing`) is the first path, in
`motzkin._paths` order, on whose one-point box the same claim fails,
worded as the public maps word it.  Few boxes need the claims: phi moves
ranges by position, so per shape of M the first box and the boxes one
step off it decide; an involution's move is decided at the first level
step on an et = 0 range, where `_stops` cuts the walk with one box for
all completions.  Below a cut each t-degree slice still reports its own
first box.  prop-3.6 and lemma-3.8 share one walk of H_n, so either
check still runs alone.

One snake walk per (variant, size) reads and scans each raw window once
(`snakes._windows`, `_elements`) for the encoding's claims and, at sizes
up to the ceiling, the lemmas'; the worked-example block tables read the
same scan.  The permutation checks read the cached `permstats._table`, whose
A and B rows share one layout and of which every signed enumerator is a
projection; the corollary sums are the FWEX_SIGN enumerators at t = q = 1.
Clearing these caches is needed only where a test patches what fills them.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache, partial
from itertools import compress, product
from operator import itemgetter, ne, or_
from typing import Callable, Iterator, NamedTuple, Sequence

from snakelab import bijections, eulerians, motzkin, permstats, snakes
from snakelab.algebra import (
    Q,
    T,
    Y,
    Monomial,
    Poly,
    jfraction_series,
    q_derivative,
    u_multiply,
)


class Check(NamedTuple):
    id: str
    description: str
    default_n: int
    fn: Callable[[int], str | None]
    scalable: bool = True
    min_n: int = 0
    note: str | None = None


class CheckResult(NamedTuple):
    id: str
    n_max: int
    status: str  # pass | fail | skipped
    witness: str | None = None
    note: str | None = None
    elapsed_s: float | None = None  # set by `verify --timings`


# -- series identities -----------------------------------------------------------


class _Series(NamedTuple):
    """A side read off one table of entries 0..n_max, built once per run."""

    build: Callable[[int], Sequence]


def _witness(n: int, got, want) -> str:
    if isinstance(got, tuple):  # several sides at one n: the first that differs
        got, want = next((g, w) for g, w in zip(got, want) if g != w)
    if isinstance(got, Poly):
        return f"n={n}: lhs - rhs = {got - want}"
    return f"n={n}: got {got}, want {want}"


def _equal(n: int, lhs, rhs) -> str | None:
    return None if lhs == rhs else _witness(n, lhs, rhs)


def _identity(lhs, rhs, start: int = 0, step: int = 1) -> Callable[[int], str | None]:
    """The check that lhs(n) == rhs(n) for n = start, start + step, ...,
    n_max; it returns the witness of the first n where they differ.  Each
    side is a function of n or a `_Series`."""

    def fn(n_max: int) -> str | None:
        left, right = (side.build(n_max).__getitem__ if isinstance(side, _Series) else side
                       for side in (lhs, rhs))
        return next(filter(None, (_equal(n, left(n), right(n)) for n in range(start, n_max + 1, step))), None)

    return fn


def _identity_check(check_id: str, description: str, default_n: int, lhs, rhs,
                    start: int = 0, step: int = 1, note: str | None = None) -> Check:
    return Check(check_id, description, default_n, _identity(lhs, rhs, start, step),
                 min_n=start, note=note)


def _sign(k: int) -> int:
    return -1 if k % 2 else 1


def _minus_inv_q(k: int) -> Poly:
    """(-1/q)^k."""
    return Poly.monomial(_sign(k), 0, 0, -k)


def _bracket(n: int) -> Poly:
    return Poly.constant(_sign((n + 1) // 2)) + _sign(n // 2) * T


def _du_minus_qud(p: Poly) -> Poly:
    return q_derivative(u_multiply(p)) - Q * u_multiply(q_derivative(p))


def _enumerator(family: str, scheme: str) -> Callable[[int], Poly]:
    return lambda n: permstats.signed_enumerator(n, family, scheme)


def _rho(scheme: str) -> _Series:
    return _Series(partial(motzkin._sums, scheme))


def _at_one(side: Callable[[int], Poly]) -> Callable[[int], int]:
    return lambda n: side(n)(t=1, q=1).as_int()


def _q_euler_side(entry: Callable[[int, list[Poly]], object]) -> _Series:
    """The side whose entry n is entry(n, E), with E = [E_0(q), ...,
    E_(n_max+1)(q)] built once per run."""

    def build(n_max: int) -> list:
        table = eulerians.q_euler_numbers(n_max + 1)
        return [entry(n, table) for n in range(n_max + 1)]

    return _Series(build)


def _distribution(n: int, family: str, stat: Callable[[tuple], int]) -> dict[int, int]:
    """Counts of stat(row) over the rows of `permstats.family_table(n,
    family)`, in order of value, so a witness does not depend on the order
    in which the table met its rows."""
    out: Counter = Counter()
    for row, count in permstats.family_table(n, family).items():
        out[stat(row)] += count
    return dict(sorted(out.items()))


def _basis_expansion(coeffs: list[int], degree: int) -> dict[int, int]:
    out: Counter = Counter()
    for i, c in enumerate(coeffs):
        for k in range(degree - 2 * i + 1):
            out[i + k] += c * math.comb(degree - 2 * i, k)
    return dict(+out)


# -- bijections and involutions --------------------------------------------------


def _each_n(claim: Callable[[int], str | None], start: int = 0) -> Callable[[int], str | None]:
    """The check that claim(n) is None for n = start, ..., n_max; it returns
    the first witness."""
    return lambda n_max: next(filter(None, map(claim, range(start, n_max + 1))), None)


def _text(path: motzkin.RawPath) -> str:
    """The text of a path, or the shape error of an image that is none."""
    try:
        return motzkin.WeightedPath(*path).text()
    except ValueError as err:
        return str(err)


_HEAD_MENU = tuple((*head, head[2]) for head in (bijections.HEAD_Y2, bijections.HEAD_YT))
_COVER = "{y^2, yt} x H"


def _lands(table: str, image: tuple) -> bool:
    """Whether an image box lies in the table's menus: each range is one of
    its step's menu ranges or, as each (ey, et) branch of a menu is one q
    interval, both corner paths (every q at its low, then its high end) are
    in the scheme.  An image that is not a path does not land."""
    steps, ranges = image
    try:
        return all(map(tuple.__contains__, motzkin._shape_menus(table, steps), ranges)) or all(
            motzkin._contains(table, steps, tuple(map(itemgetter(0, 1, end), ranges))) for end in (2, 3))
    except ValueError:  # the image is not a path
        return False


def _first_failing(n: int, steps: tuple[str, ...], box: tuple, claim: Callable) -> str | None:
    """The witness of the first path of a box, in `_paths` order, on whose
    one-point box the claim fails, or None."""
    points = product(*map(motzkin._points, box))
    return next(filter(None, (claim(n, steps, motzkin._point(weights)) for weights in points)), None)


def _cover_claim(n: int, steps: tuple[str, ...], box: tuple) -> str | None:
    """prop-3.2 on one box of M: phi sends it to a head and a box of H
    (worded by `phi_inverse`'s guard), back, and keeps the weight; else the
    witness, worded off the box's corner."""
    head, image = bijections._phi(steps, box)
    path = steps, motzkin._corner(box)
    if not (head in _HEAD_MENU and _lands("H", image)):
        return _landing(n, _text(path), (image[0], motzkin._corner(image[1])),
                        lambda p: bijections.phi_inverse(head[:3], p), _COVER)
    if bijections._phi_inverse(head, *image) != (steps, box):
        return f"n={n}: round trip failed for {_text(path)}"
    if motzkin._weight(motzkin._corner((head, *image[1]))) != motzkin._weight(path[1]):
        return f"n={n}: weight not preserved for {_text(path)}"
    return None


def _one_step_off(box: tuple, menus: tuple, positions: range) -> Iterator[tuple]:
    """The boxes equal to `box` but at one of the positions, the last first,
    where each takes another range of its menu, in menu order."""
    return (box[:j] + (r,) + box[j + 1:] for j in reversed(positions) for r in menus[j] if r != box[j])


def _restructure(n: int) -> str | None:
    """prop-3.2 at n: phi maps M_n one to one onto {y^2, yt} x H_(n-1).
    Each box of M_n maps to a head and a box of H_(n-1) and back, keeping
    the weight, and M_n's `path_count` is the target's.  phi moves whole
    ranges by position, so per shape the first box and the boxes one step
    off it decide: if they pass, every box does, and the first of them to
    fail is the first failing box."""
    for steps in motzkin._shapes("M", n):
        menus = motzkin._shape_menus("M", steps)
        firsts = tuple(menu[0] for menu in menus)
        box = next((box for box in (firsts, *_one_step_off(firsts, menus, range(n)))
                    if _cover_claim(n, steps, box)), None)
        if box:
            return _first_failing(n, steps, box, _cover_claim)
    count, target_size = motzkin.path_count("M", n), 2 * motzkin.path_count("H", n - 1)
    if count != target_size:
        return f"n={n}: {count} sources, {target_size} in {_COVER}"
    return _equal(n, motzkin.rho("M", n), (Y ** 2 + Y * T) * motzkin.rho("H", n - 1))


def _landing(n: int, source: str, image: motzkin.RawPath, inverse: Callable, target: str) -> str:
    """The witness for an image (steps, weights) that failed its tests,
    worded by the public inverse's guard: a ValueError from it means the
    image left the target."""
    try:
        inverse(motzkin.WeightedPath(*image))
    except ValueError as err:
        return f"n={n}: image leaves {target} at {source}: {err}"
    return f"n={n}: round trip failed for {source}"


# variant -> (offset, scheme, public inverse, enumerator) of its encoding
_ENCODINGS = {
    "S0": (0, "TSTAR", snakes.lambda1_inv, eulerians.Q_poly),
    "S00": (1, "T", snakes.lambda2_inv, eulerians.R_poly),
}


def _sign_claim(n: int, window: tuple[int, ...], variant: str, cs: tuple, decoded: bool) -> str | None:
    """lemma-sign-changes on one snake window: `snakes._signs` gives the
    window back from its absolute word and cs-vector, which lies in
    {0,1,2}^n and sums to the window's sign changes.  An image that decoded
    to the window and cs has passed the round trip, as `_decode` ends in
    `_signs`.  A failed round trip is worded through `arnold_recover`."""
    text = lambda: snakes.Snake(window, variant).text()
    if not decoded and snakes._signs([abs(v) for v in snakes._extended(window, variant)], cs) != window:
        try:
            snakes.arnold_recover(tuple(map(abs, window)), cs, variant)
        except ValueError as err:
            return f"n={n}: image leaves {{0,1,2}}^n at {text()}: {err}"
        return f"n={n}: round trip failed for {text()}"
    if not set(cs) <= {0, 1, 2}:
        return f"n={n}: image leaves {{0,1,2}}^n at {text()}"
    if sum(cs) != snakes._sign_changes(window, variant):
        return f"n={n}: {text()}: vector {cs} does not sum to the total"
    return None


def _pattern_claim(n: int, window: tuple[int, ...], variant: str, scan: list) -> str | None:
    """lemma-pattern on one snake window: at each k the scan's block counts
    are the (13-2, 2-31) counts of the pattern sweep."""
    for k, ((_, _, a, b), pattern) in enumerate(zip(scan, snakes._patterns(window, variant)), 1):
        if (a, b) != pattern:
            return f"n={n}: {snakes.Snake(window, variant).text()}: k={k} blocks ({a + b + 1}, {b}) vs patterns {pattern}"
    return None


@lru_cache(maxsize=None)
def _snake_walk(variant: str, size: int, lemmas: bool) -> dict:
    """One walk of the variant's snakes of the size: each claim's first
    witness, None or absent if the claim holds, keyed "encoding" (thm-5.8
    or thm-5.12 at n = size minus the offset) and, if `lemmas`,
    "sign-changes" and "pattern" (at n = size; a window that is not a snake
    fails both).  Each image lies in the scheme and decodes to its window
    and the scan's cs-vector; then the count is compared with `path_count`
    and the sum of the images' weights with Q_n or R_n."""
    offset, scheme, inverse, poly = _ENCODINGS[variant]
    n = size - offset
    found = {}
    sums = Counter()
    for window in snakes._windows(size, variant):
        scan = snakes._elements(window, variant)
        cs = snakes._cs(scan)
        lands = False
        if n >= 0 and "encoding" not in found:
            image = snakes._encode(scan, offset)
            try:
                lands = (motzkin._contains(scheme, *image)
                         and snakes._decode(*image, offset) == (window, cs))
            except ValueError:  # a malformed path
                pass
            if not lands:
                found["encoding"] = _landing(n, snakes.Snake(window, variant).text(), image, inverse, scheme)
            sums[motzkin._weight(image[1])] += 1
        if lemmas:
            if not snakes.is_snake_window(window, variant):
                witnesses = (f"n={size}: not a snake: {snakes.Snake(window, variant).text()}",) * 2
            else:
                witnesses = _sign_claim(size, window, variant, cs, lands), _pattern_claim(size, window, variant, scan)
            for claim, witness in zip(("sign-changes", "pattern"), witnesses):
                if witness:
                    found.setdefault(claim, witness)
    if n >= 0 and "encoding" not in found:
        count, target_size = sum(sums.values()), motzkin.path_count(scheme, n)
        found["encoding"] = (f"n={n}: {count} sources, {target_size} in {scheme}" if count != target_size
                             else _equal(n, Poly(sums), poly(n)))
    return found


def _snake_check(claim: str, variants: tuple[str, ...], offset: int = 0,
                 start: int = 0) -> Callable[[int], str | None]:
    """The check that reads the claim's first witness off the walks of size
    n + offset, for n = start, ..., n_max and the variants in order; thm-5.12's
    top size S00(n_max + 1) runs without the lemma claims."""
    return lambda n_max: next(filter(None, (
        _snake_walk(variant, n + offset, n + offset <= n_max).get(claim)
        for n in range(start, n_max + 1) for variant in variants)), None)


# scheme -> (involution, fixed-point scheme, allowed (ey, eq) shifts of a moved path)
_INVOLUTIONS = {
    "H": ("psi1", "F", ((2, 0), (-2, 0))),
    "MSTAR": ("psi2", "G", ((2, 1), (-2, -1))),
}


def _moved(steps: tuple[str, ...], ranges: tuple, image: tuple) -> list[int]:
    """The positions at which the image of a box differs from it."""
    return list(compress(range(len(ranges)), map(or_, map(ne, steps, image[0]), map(ne, ranges, image[1]))))


def _stops(scheme: str, n: int) -> Iterator[tuple]:
    """The scheme's boxes of length n cut where the involution decides its
    move, in `_boxes` order: (steps, box, image, stop).  Ranges are chosen
    step by step.  At the first level step on an et = 0 range, every
    completion takes the level toggle there, so the prefix stops, as the box
    that completes it with first ranges, if its image differs from it at
    that step alone.  Any other prefix runs to a whole box, whose stop is
    its last step."""
    name = _INVOLUTIONS[scheme][0]
    for steps in motzkin._shapes(scheme, n):
        menus = motzkin._shape_menus(scheme, steps)
        firsts = tuple(menu[0] for menu in menus)
        stops: list = []

        def grow(prefix: tuple) -> None:
            i = len(prefix)
            if i == n:
                stops.append((steps, prefix, bijections._toggle(steps, prefix, name), n - 1))
                return
            for r in menus[i]:
                if steps[i] in ("L", "W") and not r[1]:
                    box = prefix + (r,) + firsts[i + 1:]
                    image = bijections._toggle(steps, box, name)
                    if _moved(steps, box, image) == [i]:
                        stops.append((steps, box, image, i))
                        continue
                grow(prefix + (r,))

        grow(())
        yield from stops


def _involution_claim(scheme: str, n: int, steps: tuple[str, ...], box: tuple, image: tuple | None = None) -> str | None:
    """prop-3.6 or prop-4.4 on one box of the scheme and its image under the
    involution: the image lies in the scheme and maps back, and the box is
    fixed exactly when it lies in F or G, else moved by the weight law,
    read off the corners; else the witness, worded off the box's corner.
    F and G keep whole ranges of H and MSTAR, so the corner decides
    membership in them."""
    name, fixed_scheme, shifts = _INVOLUTIONS[scheme]
    image = image or bijections._toggle(steps, box, name)
    path = steps, motzkin._corner(box)
    if not _lands(scheme, image):
        return f"n={n}: image leaves {scheme} at {_text(path)}: {_text((image[0], motzkin._corner(image[1])))}"
    in_fixed = motzkin._contains(fixed_scheme, *path)
    if image == (steps, box):
        return None if in_fixed else f"n={n}: unexpected fixed point {_text(path)}"
    if bijections._toggle(*image, name) != (steps, box):
        return f"n={n}: not an involution at {_text(path)}"
    if in_fixed:
        return f"n={n}: moved point satisfies the fixed-set menus: {_text(path)}"
    wp, wi = motzkin._weight(path[1]), motzkin._weight(motzkin._corner(image[1]))
    if (wi[0] - wp[0], wi[2] - wp[2]) not in shifts or wi[1] != wp[1]:
        return f"n={n}: weight law broken at {_text(path)}: {Monomial(1, *wp).text()} -> {Monomial(1, *wi).text()}"
    return None


def _slice_claim(scheme: str, n: int, steps: tuple[str, ...], box: tuple, image: tuple | None = None) -> str | None:
    """lemma-3.8 on one box of the scheme: its image under the involution
    lies in the scheme with the same t-parity; else the witness, worded off
    the box's corner.  A box that leaves its slice fails the involution
    claim too."""
    name = _INVOLUTIONS[scheme][0]
    image = image or bijections._toggle(steps, box, name)
    parity = sum(map(itemgetter(1), box)) % 2
    if _lands(scheme, image) and sum(map(itemgetter(1), image[1])) % 2 == parity:
        return None
    return f"n={n}: {name} leaves the {scheme}{2 - parity} slice at {_text((steps, motzkin._corner(box)))}"


@lru_cache(maxsize=None)
def _involution_walk(scheme: str, n: int) -> dict[str, str]:
    """One walk of the scheme's boxes of length n under its involution, cut
    where the move is decided (`_stops`): the first witness of each failing
    claim, keyed "involution", "fixed-set", "fixed-parity" and the t-degree
    slices "<scheme>1" (odd), "<scheme>2".  The boxes below a stop move
    alike, so the stop's box is the first to fail any claim below it, and
    for each slice that they leave, so is the first box below it of that
    t-parity.  A witness is that box's `_first_failing` path.  The fixed
    set's size and t-parities are read off `motzkin.rho`; only a wrong
    parity walks its boxes, for the first box of that parity."""
    fixed_scheme = _INVOLUTIONS[scheme][1]
    involution, slices = partial(_involution_claim, scheme), partial(_slice_claim, scheme)
    parity = lambda box: sum(map(itemgetter(1), box)) % 2
    found: dict = {}
    fixed = 0
    for steps, ranges, image, stop in _stops(scheme, n):
        if not involution(n, steps, ranges, image):
            if image == (steps, ranges):
                fixed += motzkin._size(ranges)
            continue
        if "involution" not in found:
            found["involution"] = _first_failing(n, steps, ranges, involution)
        if slices(n, steps, ranges, image):  # each box below the stop leaves its slice
            below = _one_step_off(ranges, motzkin._shape_menus(scheme, steps), range(stop + 1, n))
            for box in filter(None, (ranges, next((b for b in below if parity(b) != parity(ranges)), None))):
                piece = f"{scheme}{2 - parity(box)}"
                if piece not in found:
                    found[piece] = _first_failing(n, steps, box, slices)
    if any((et - n) % 2 for _, et, _ in motzkin.rho(fixed_scheme, n).terms):
        found["fixed-parity"] = next((
            f"n={n}: fixed path with t-degree {sum(map(itemgetter(1), ranges))}: {_text((steps, motzkin._corner(ranges)))}"
            for steps, ranges in motzkin._boxes(fixed_scheme, n) if parity(ranges) != n % 2),
            f"n={n}: the fixed-set sum has t-degree of parity {1 - n % 2}")
    if fixed != motzkin.path_count(fixed_scheme, n):
        found["fixed-set"] = f"n={n}: fixed set differs from the restricted path family"
    return found


def _walk(scheme: str, claims: tuple[str, ...]) -> Callable[[int], str | None]:
    """The check that reads the first witness of the claims off each walk."""
    return _each_n(lambda n: next(filter(None, map(_involution_walk(scheme, n).get, claims)), None))


# -- snakes and goldens ------------------------------------------------------------


def _golden_check(check_id: str, description: str, got: Callable[[], object], want) -> Check:
    """A worked example: got() equals the literal want."""

    def fn(_: int) -> str | None:
        value = got()
        return None if value == want else f"got {value}, want {want}"

    return Check(check_id, description, 0, fn, scalable=False)


_EXAMPLE_SNAKE = snakes.Snake((5, -2, 4, -7, -1, -8, 10, -9, 6, 3), "S0")
_EXAMPLE_SNAKE_00 = snakes.Snake((5, -2, 4, -7, -1, -8, 11, -9, 6, 3, 10), "S00")


def _profile(s: snakes.Snake, alpha: slice, beta: slice) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Rows of the block table of a worked example, sliced, off its scan:
    alpha_k = 13-2 + 2-31 + 1 and beta_k = 2-31 for k >= 1.  At k = 0 the
    blocks are the boundary zeros of the extended word, all but the
    leftmost to its right."""
    zeros = s.extended().count(0)
    scan = snakes._elements(s.window, s.variant)
    return ((zeros, *(a + b + 1 for _, _, a, b in scan))[alpha],
            (zeros - 1, *(b for *_, b in scan))[beta])


def _first_steps(path) -> list[tuple[str, str]]:
    return [(s, Monomial(1, *w).text()) for s, w in zip(path.steps[:2], path.weights[:2])]


# -- registry --------------------------------------------------------------------


R_ODD_NOTE = (
    "corrected: the odd-index identification R_(2m+1)(0,q) = E_(2m+1)(q) is"
    " false (the left side vanishes identically); the verified identity is"
    " R_(2m)(0,q) = E_(2m+1)(q)"
)


CHECKS: list[Check] = [
    _golden_check("q0-golden", "Q_0 equals the literal '1'", lambda: str(eulerians.Q_poly(0)), "1"),
    _golden_check("q1-golden", "Q_1 equals the literal 't'", lambda: str(eulerians.Q_poly(1)), "t"),
    _golden_check("q2-golden", "Q_2 equals the literal '1 + (1+q)t^2'", lambda: str(eulerians.Q_poly(2)), "1 + t^2 + t^2*q"),
    _golden_check(
        "q3-golden", "Q_3 equals the literal '(2+2q+q^2)t + (1+2q+2q^2+q^3)t^3'",
        lambda: str(eulerians.Q_poly(3)),
        "2*t + 2*t*q + t*q^2 + t^3 + 2*t^3*q + 2*t^3*q^2 + t^3*q^3"),
    _golden_check("r0-golden", "R_0 equals the literal '1'", lambda: str(eulerians.R_poly(0)), "1"),
    _golden_check("r1-golden", "R_1 equals the literal '(1+q)t'", lambda: str(eulerians.R_poly(1)), "t + t*q"),
    _golden_check("r2-golden", "R_2 equals the literal '(1+q) + (1+2q+2q^2+q^3)t^2'", lambda: str(eulerians.R_poly(2)), "1 + q + t^2 + 2*t^2*q + 2*t^2*q^2 + t^2*q^3"),
    _golden_check(
        "r3-golden", "R_3 equals the literal '(2+5q+5q^2+3q^3+q^4)t + (1+3q+5q^2+6q^3+5q^4+3q^5+q^6)t^3'",
        lambda: str(eulerians.R_poly(3)),
        "2*t + 5*t*q + 5*t*q^2 + 3*t*q^3 + t*q^4"
        " + t^3 + 3*t^3*q + 5*t^3*q^2 + 6*t^3*q^3 + 5*t^3*q^4 + 3*t^3*q^5 + t^3*q^6"),
    _identity_check(
        "commutation-du-qud", "(DU - qUD) f = f on the basis t^k", 12,
        lambda k: _du_minus_qud(Poly.monomial(et=k)), lambda k: Poly.monomial(et=k)),
    _identity_check(
        "thm-1.2", "operator-route Q_n, R_n equal their continued-fraction coefficients", 8,
        _Series(lambda m: list(zip(eulerians.qr_series("Q", m), eulerians.qr_series("R", m)))),
        lambda n: (eulerians.Q_poly(n), eulerians.R_poly(n))),
    _identity_check(
        "q-secant-at-t0", "Q_(2m)(0,q) equals the 2m-th q-secant number", 8,
        lambda n: eulerians.Q_poly(n).subst("t", 0), _q_euler_side(lambda n, E: E[n]), step=2),
    _identity_check(
        "r-odd-at-t0", "R_n(0,q) vanishes for odd n; R_(2m)(0,q) is the q-tangent number E_(2m+1)(q)", 8,
        lambda n: eulerians.R_poly(n).subst("t", 0),
        _q_euler_side(lambda n, E: Poly() if n % 2 else E[n + 1]), note=R_ODD_NOTE),
    _identity_check(
        "q11-springer", "Q_n(1,1) counts the snakes with positive first entry", 7,
        _at_one(eulerians.Q_poly), eulerians.springer_number),
    _identity_check(
        "r11-tangent", "R_n(1,1) = 2^n E_(n+1)", 7,
        _at_one(eulerians.R_poly), lambda n: 2 ** n * eulerians.euler_number(n + 1)),
    _identity_check(
        "eulercan1", "sum over all permutations of (-1)^exc is 0 or +-E_n by parity", 8,
        lambda n: permstats.signed_enumerator(n, "A", "EULER_EXC").as_int(),
        lambda n: 0 if n % 2 == 0 else _sign((n - 1) // 2) * eulerians.euler_number(n), start=1),
    _identity_check(
        "eulercan2", "sum over derangements of (-1)^exc is +-E_n or 0 by parity", 8,
        lambda n: permstats.signed_enumerator(n, "A*", "EULER_EXC").as_int(),
        lambda n: _sign(n // 2) * eulerians.euler_number(n) if n % 2 == 0 else 0, start=1),
    _identity_check(
        "gamma-expansion", "excedance polynomial equals its gamma-basis expansion", 7,
        lambda n: _distribution(n, "A", lambda row: row[0] // 2 - row[4]),
        lambda n: _basis_expansion(permstats.gamma_coeffs(n), n - 1), start=1),
    _identity_check(
        "xi-expansion", "derangement excedance polynomial equals its xi-basis expansion", 7,
        lambda n: _distribution(n, "A*", lambda row: row[0] // 2 - row[4]), lambda n: _basis_expansion(permstats.xi_coeffs(n), n)),
    _identity_check(
        "jv1", "sum over permutations of (-1)^wex q^cro is 0 or +-E_n(q) by parity", 7,
        _enumerator("A", "JV_WEX_CRO"),
        _q_euler_side(lambda n, E: Poly() if n % 2 == 0 else _sign((n + 1) // 2) * E[n]), start=1),
    _identity_check(
        "jv2", "sum over derangements of (-1/q)^wex q^cro is (-1/q)^(n/2) E_n(q) or 0", 7,
        _enumerator("A*", "JV_DERANGE"),
        _q_euler_side(lambda n, E: _minus_inv_q(n // 2) * E[n] if n % 2 == 0 else Poly()), start=1),
    _identity_check(
        "des-b-equidistribution", "des_b and floor(fwex/2) are equidistributed over the signed permutations", 5,
        lambda n: _distribution(n, "B", lambda row: row[3]), lambda n: _distribution(n, "B", lambda row: row[0] // 2)),
    _identity_check(
        "thm-1.3-i", "signed fwex/2 sum over B_n equals [(-1)^floor((n+1)/2) + (-1)^floor(n/2) t] R_(n-1)", 5,
        _enumerator("B", "FWEX_SIGN"), lambda n: _bracket(n) * eulerians.R_poly(n - 1), start=1),
    _identity_check(
        "thm-1.3-ii", "signed fwex/2 sum over D_n equals +-R_(n-1) or +-t R_(n-1) by parity", 5,
        _enumerator("D", "FWEX_SIGN"),
        lambda n: (_sign(n // 2) * T if n % 2 == 0 else _sign((n + 1) // 2)) * eulerians.R_poly(n - 1), start=1),
    _identity_check(
        "thm-1.4-i", "(-1/q)^floor(fwex/2) sum over fixed-point-free B_n equals (-1/q)^floor(n/2) Q_n", 5,
        _enumerator("B*", "FWEX_SIGN_Q"), lambda n: _minus_inv_q(n // 2) * eulerians.Q_poly(n), start=1),
    _identity_check(
        "thm-1.4-ii", "(-1/q)^floor(fwex/2) sum over fixed-point-free D_n equals (-1/q)^(n/2) Q_n or 0", 5,
        _enumerator("D*", "FWEX_SIGN_Q"),
        lambda n: _minus_inv_q(n // 2) * eulerians.Q_poly(n) if n % 2 == 0 else Poly(), start=1),
    _identity_check(
        "cor-1.5-i", "sum over B_n of (-1)^floor(fwex/2) is (-1)^(n/2) 2^n E_n or 0", 5,
        _at_one(_enumerator("B", "FWEX_SIGN")),
        lambda n: _sign(n // 2) * 2 ** n * eulerians.euler_number(n) if n % 2 == 0 else 0, start=1),
    _identity_check(
        "cor-1.5-ii", "sum over D_n of (-1)^floor(fwex/2) is (-1)^floor((n+1)/2) 2^(n-1) E_n", 5,
        _at_one(_enumerator("D", "FWEX_SIGN")),
        lambda n: _sign((n + 1) // 2) * 2 ** (n - 1) * eulerians.euler_number(n), start=1),
    _identity_check(
        "cor-1.6-i", "sum over fixed-point-free B_n of (-1)^floor(fwex/2) is (-1)^floor(n/2) S_n", 5,
        _at_one(_enumerator("B*", "FWEX_SIGN")),
        lambda n: _sign(n // 2) * eulerians.springer_number(n), start=1),
    _identity_check(
        "cor-1.6-ii", "sum over fixed-point-free D_n of (-1)^floor(fwex/2) is (-1)^(n/2) S_n or 0", 5,
        _at_one(_enumerator("D*", "FWEX_SIGN")),
        lambda n: _sign(n // 2) * eulerians.springer_number(n) if n % 2 == 0 else 0, start=1),
    _identity_check("prop-2.2", "path weights of scheme T sum to R_n", 5, _rho("T"), eulerians.R_poly),
    _identity_check("prop-2.3", "path weights of scheme TSTAR sum to Q_n", 5, _rho("TSTAR"), eulerians.Q_poly),
    _identity_check(
        "thm-corteel", "path weights of scheme M sum to the trivariate signed-permutation enumerator", 5,
        _rho("M"), _enumerator("B", "FULL_YTQ")),
    _identity_check(
        "thm-corteel-cf", "the trivariate enumerator equals its continued-fraction coefficients", 5,
        _Series(lambda m: jfraction_series(permstats.corteel_schedule(), m)), _enumerator("B", "FULL_YTQ")),
    _identity_check(
        "eqn-dn", "scheme M paths of even t-degree sum to the even-signed enumerator", 5,
        _rho("MPRIME"), _enumerator("D", "FULL_YTQ")),
    _identity_check(
        "eqn-bstar", "scheme MSTAR paths sum to the fixed-point-free enumerator", 5,
        _rho("MSTAR"), _enumerator("B*", "FULL_YTQ")),
    _identity_check(
        "eqn-dstar", "scheme MSTAR paths of even t-degree sum to the fixed-point-free even-signed enumerator", 5,
        _rho("MSTARPRIME"), _enumerator("D*", "FULL_YTQ")),
    Check("prop-3.2", "the doubling map is a weight-preserving two-to-one cover of scheme H", 5, _each_n(_restructure, 1), min_n=1),
    _identity_check(
        "lemma-3.5", "the psi1 fixed family sums to y^n R_n", 5,
        _rho("F"), lambda n: Y ** n * eulerians.R_poly(n)),
    Check("prop-3.6", "psi1 is an involution on H with weight factor y^(+-2) and fixed set F", 5, _walk("H", ("involution", "fixed-set"))),
    Check("lemma-3.8", "psi1 preserves the t-degree slices; fixed weights have t-degree of the parity of n", 5, _walk("H", ("H1", "H2", "fixed-parity"))),
    _identity_check(
        "lemma-4.3", "the psi2 fixed family sums to y^n Q_n", 5,
        _rho("G"), lambda n: Y ** n * eulerians.Q_poly(n)),
    Check("prop-4.4", "psi2 is an involution on MSTAR with weight factor (y^2 q)^(+-1) and fixed set G", 5, _walk("MSTAR", ("involution", "fixed-parity", "fixed-set"))),
    Check("lemma-sign-changes", "cs-vectors sum to the sign-change count and determine the snake", 5, _snake_check("sign-changes", ("S0", "S00"))),
    Check("lemma-pattern", "block statistics equal the 13-2 and 2-31 pattern counts", 5, _snake_check("pattern", ("S0", "S00"), start=1), min_n=1),
    Check("thm-5.8", "the snake encoding is a bijection onto scheme TSTAR and realizes Q_n", 5, _snake_check("encoding", ("S0",))),
    Check("thm-5.12", "the snake encoding is a bijection onto scheme T and realizes R_n", 5, _snake_check("encoding", ("S00",), offset=1)),
    _golden_check("example-cro-golden", "the worked crossing example has five crossings", lambda: permstats.stats((3, -4, -2, 5, 1)).cro_b, 5),
    _golden_check(
        "example-cs-golden", "the worked snake example has cs-vector (0,2,0,1,0,1,0,1,1,0) and cs = 6",
        lambda: (snakes.cs_vector(_EXAMPLE_SNAKE), snakes.sign_changes(_EXAMPLE_SNAKE)), ((0, 2, 0, 1, 0, 1, 0, 1, 1, 0), 6)),
    _golden_check(
        "table-1-golden", "block table of the worked size-10 example", lambda: _profile(_EXAMPLE_SNAKE, slice(None), slice(None)),
        ((1, 2, 3, 4, 4, 3, 3, 2, 2, 2, 1), (0, 0, 1, 0, 2, 2, 0, 1, 1, 0, 0))),
    _golden_check(
        "table-2-golden", "block table of the worked size-11 example", lambda: _profile(_EXAMPLE_SNAKE_00, slice(11), slice(1, 11)),
        ((2, 3, 4, 5, 5, 4, 4, 3, 3, 3, 2), (1, 2, 1, 3, 3, 1, 2, 2, 1, 0))),
    _golden_check(
        "b1-b2-golden", "trivariate enumerators of sizes 1 and 2 match their literals",
        lambda: tuple(str(permstats.signed_enumerator(n, "B", "FULL_YTQ")) for n in (1, 2)),
        ("y*t + y^2", "y*t + y^2 + y^2*t^2 + y^2*t^2*q + 2*y^3*t + y^3*t*q + y^4")),
    _golden_check(
        "lambda1-golden", "first two encoded steps of the worked size-10 snake weigh 1 and t^2 q^4",
        lambda: _first_steps(snakes.lambda1(_EXAMPLE_SNAKE)), [("U", "1"), ("U", "t^2*q^4")]),
    _golden_check(
        "lambda2-golden", "first two encoded steps of the worked size-11 snake weigh 1 and t^2 q^5",
        lambda: _first_steps(snakes.lambda2(_EXAMPLE_SNAKE_00)), [("U", "1"), ("U", "t^2*q^5")]),
]

CHECKS_BY_ID = {c.id: c for c in CHECKS}


def run_check(check_id: str, n_max: int | None = None) -> CheckResult:
    """Run one catalog entry; unknown ids raise KeyError."""
    check = CHECKS_BY_ID[check_id]
    if n_max is not None and n_max < 0:
        raise ValueError("n must be >= 0")
    effective = check.default_n if n_max is None or not check.scalable else n_max
    if effective < check.min_n:
        return CheckResult(check.id, effective, "skipped", None, check.note)
    witness = check.fn(effective)
    status = "pass" if witness is None else "fail"
    return CheckResult(check.id, effective, status, witness, check.note)
