"""Restructuring map and sign-reversing involutions on weighted paths.

`phi` is the two-to-one weight-preserving map from the trivariate paths of
length n (scheme M) onto the restructured paths of length n-1 (scheme H):
each step is doubled (U -> UU, L -> UD, W -> DU, D -> DD), the first and
last half-steps are dropped, and consecutive half-step pairs are read back
as single steps.  The weight of the first step, y^2 or y*t, is returned
separately as the head weight.

`psi1` is the involution on scheme H that toggles the first level step
between the plain-q and y^2 branches, or failing that the first facing pair
between its mixed branch forms; its weight changes by exactly y^(+-2) and
its fixed points are scheme F.  `psi2` is the analogue on scheme MSTAR with
weight factor (y^2 q)^(+-1) and fixed points scheme G.

Each map has one unchecked core on boxes `(steps, ranges)` (see
`snakelab.motzkin`): `_phi`, `_phi_inverse` and the move table `_toggle`,
read with psi1's or psi2's row of `_MOVES`.  A core picks its move from
letters and branches alone and translates q intervals, so it sends a box
to a box; it reads per-shape cached plans (the decoded shape of `phi`, the
level positions and facing pairs of a move).  The public maps call the
same cores on a path's one-point box; each raises ValueError on a path
outside its domain scheme (`motzkin._require`, as the snake inverses do)
and none re-checks its output.  The catalog (prop-3.2, prop-3.6, prop-4.4
in `snakelab.checks`) verifies the images on boxes, a few per shape, so the
claim survives `python -O`.
"""

from __future__ import annotations

from functools import lru_cache

from snakelab.algebra import Monomial
from snakelab.motzkin import Weight, WeightedPath, _corner, _point, _require, matching_pairs, step_heights

HEAD_Y2 = (2, 0, 0)
HEAD_YT = (1, 1, 0)

# half-step encoding of a full step and read-back of a half-step pair
_ENCODE = {"U": ("U", "U"), "L": ("U", "D"), "W": ("D", "U"), "D": ("D", "D")}
_DECODE = {pair: step for step, pair in _ENCODE.items()}

# involution -> (letter of its y^2 level steps, their q shift, pair offset)
_MOVES = {"psi1": ("W", 0, 1), "psi2": ("L", 1, 0)}


@lru_cache(maxsize=None)
def _phi_steps(steps: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(_DECODE[(_ENCODE[a][1], _ENCODE[b][0])] for a, b in zip(steps, steps[1:]))


@lru_cache(maxsize=None)
def _phi_inverse_steps(steps: tuple[str, ...]) -> tuple[str, ...]:
    halves = ["U"]
    for s in steps:
        halves.extend(_ENCODE[s])
    halves.append("D")
    return tuple(map(_DECODE.__getitem__, zip(halves[::2], halves[1::2])))


def _phi(steps: tuple[str, ...], ranges: tuple) -> tuple:
    """phi on a nonempty box, unchecked: (head range, image box)."""
    return ranges[0], (_phi_steps(steps), ranges[1:])


def _phi_inverse(head, steps: tuple[str, ...], ranges: tuple) -> tuple:
    """phi_inverse on a head range and a box, unchecked."""
    return _phi_inverse_steps(steps), (head, *ranges)


def phi(path: WeightedPath) -> tuple[Weight, WeightedPath]:
    """Split a scheme-M path of length n >= 1 into its head weight and a
    scheme-H path of length n-1 with the same weight product."""
    _require("M", path)
    if len(path) < 1:
        raise ValueError("phi needs a nonempty path")
    head, (steps, ranges) = _phi(path.steps, _point(path.weights))
    return head[:3], WeightedPath(steps, _corner(ranges))


def phi_inverse(head: Weight, path: WeightedPath) -> WeightedPath:
    """Rebuild the scheme-M path from a head weight and a scheme-H path."""
    if head not in (HEAD_Y2, HEAD_YT):
        raise ValueError(f"head weight must be y^2 or y*t, got {Monomial(1, *head).text()}")
    _require("H", path)
    steps, ranges = _phi_inverse((*head, head[2]), path.steps, _point(path.weights))
    return WeightedPath(steps, _corner(ranges))


@lru_cache(maxsize=None)
def _plan(steps: tuple[str, ...]) -> tuple[tuple[int, ...], tuple[tuple[int, int, int], ...]]:
    """The level positions of a shape and its facing pairs (rise, fall,
    rise height), each in scan order."""
    heights = step_heights(steps)
    levels = tuple(i for i, s in enumerate(steps) if s in ("L", "W"))
    return levels, tuple((u, d, heights[u]) for u, d in matching_pairs(steps))


def _shift(r: tuple, ey: int, et: int, by: int) -> tuple:
    """The range r moved to branch (ey, et) with its q interval shifted by `by`."""
    return ey, et, r[2] + by, r[3] + by


def _toggle(steps: tuple[str, ...], ranges: tuple, name: str) -> tuple:
    """The first applicable move of psi1 or psi2 (`name`) on a box, with no
    check of the input.

    With (y2_step, y2_shift, up_offset) the involution's row of `_MOVES`:
    level toggle: a plain q^a level step of the other letter becomes
    y2_step[y^2 q^(a+y2_shift)], and back.  Pair toggle at rise height h:
    (y^2 q^a, yt q^(h+1+b)) <-> (yt q^(h+up_offset+a), q^b).
    """
    y2_step, y2_shift, up_offset = _MOVES[name]
    levels, pairs = _plan(steps)
    for i in levels:
        r = ranges[i]
        if r[1]:
            continue
        if steps[i] == y2_step:
            if r[0] != 2:
                continue
            step, r = ("L" if y2_step == "W" else "W"), _shift(r, 0, 0, -y2_shift)
        elif r[0]:
            continue
        else:
            step, r = y2_step, _shift(r, 2, 0, y2_shift)
        return steps[:i] + (step,) + steps[i + 1:], ranges[:i] + (r,) + ranges[i + 1:]
    for u, d, h in pairs:
        ru, rd = ranges[u], ranges[d]
        if ru[:2] == (2, 0) and rd[:2] == (1, 1):
            ru, rd = _shift(ru, 1, 1, h + up_offset), _shift(rd, 0, 0, -(h + 1))
        elif ru[:2] == (1, 1) and rd[:2] == (0, 0):
            ru, rd = _shift(ru, 2, 0, -(h + up_offset)), _shift(rd, 1, 1, h + 1)
        else:
            continue
        out = list(ranges)
        out[u], out[d] = ru, rd
        return steps, tuple(out)
    return steps, ranges


def _on_path(path: WeightedPath, name: str, scheme: str) -> WeightedPath:
    _require(scheme, path)
    steps, ranges = _toggle(path.steps, _point(path.weights), name)
    return WeightedPath(steps, _corner(ranges))


def psi1(path: WeightedPath) -> WeightedPath:
    """Sign-reversing involution on scheme H.

    First applicable move wins, scanning left to right:
      level toggle   L[q^a] <-> W[y^2 q^a]           (a in 0..h)
      pair toggle    (y^2 q^a, yt q^(h+1+b)) <-> (yt q^(h+1+a), q^b)
    Fixed points are exactly the scheme-F paths.
    """
    return _on_path(path, "psi1", "H")


def psi2(path: WeightedPath) -> WeightedPath:
    """Sign-reversing involution on scheme MSTAR.

    Moves, first applicable position wins:
      level toggle   L[y^2 q^a] <-> W[q^(a-1)]        (a in 1..h)
      pair toggle    (y^2 q^a, yt q^(h+1+b)) <-> (yt q^(h+a), q^b)
    The weight changes by exactly (y^2 q)^(+-1); fixed points are scheme G.
    """
    return _on_path(path, "psi2", "MSTAR")
