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

Every map has one core on paths given as `(steps, weights)`: `_phi`,
`_phi_inverse`, and one move table, `_toggle`, read with the row of
`_MOVES` that names psi1's or psi2's level letter, level shift and pair
offset.  The cores read per-shape cached plans (the decoded shape of
`phi`, the level positions and facing pairs of a move) and check nothing.
The catalog walks apply them to paths from `motzkin._paths` or to images
that have just passed `motzkin._contains`.  The public `phi`,
`phi_inverse`, `psi1` and `psi2` call the same cores on a `WeightedPath`'s
fields: each checks its input and raises ValueError on a path outside its
domain scheme, and none re-checks its output.  That the images land in the
target scheme is verified by the catalog (prop-3.2, prop-3.6, prop-4.4 in
`snakelab.checks`), so the claim survives `python -O`.
"""

from __future__ import annotations

from functools import lru_cache

from snakelab.algebra import Monomial
from snakelab.motzkin import Weight, WeightedPath, in_family, matching_pairs, step_heights

HEAD_Y2 = (2, 0, 0)
HEAD_YT = (1, 1, 0)

# half-step encoding of a full step and read-back of a half-step pair
_ENCODE = {"U": ("U", "U"), "L": ("U", "D"), "W": ("D", "U"), "D": ("D", "D")}
_DECODE = {pair: step for step, pair in _ENCODE.items()}

# involution -> (letter of its y^2 level steps, their q shift, pair offset)
_MOVES = {"psi1": ("W", 0, 1), "psi2": ("L", 1, 0)}


def _require(scheme: str, path: WeightedPath) -> None:
    if not in_family(scheme, path):
        raise ValueError(f"path is not in scheme {scheme}: {path.text()!r}")


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


def _phi(steps: tuple[str, ...], weights: tuple) -> tuple:
    """phi on a nonempty path given as (steps, weights), with no check of
    the input: (head weight, (steps, weights) of the image)."""
    return weights[0], (_phi_steps(steps), weights[1:])


def _phi_inverse(head, steps: tuple[str, ...], weights: tuple) -> tuple:
    """phi_inverse on (steps, weights), with no check of the input."""
    return _phi_inverse_steps(steps), (head, *weights)


def phi(path: WeightedPath) -> tuple[Weight, WeightedPath]:
    """Split a scheme-M path of length n >= 1 into its head weight and a
    scheme-H path of length n-1 with the same weight product."""
    _require("M", path)
    if len(path) < 1:
        raise ValueError("phi needs a nonempty path")
    head, image = _phi(path.steps, path.weights)
    return head, WeightedPath(*image)


def phi_inverse(head: Weight, path: WeightedPath) -> WeightedPath:
    """Rebuild the scheme-M path from a head weight and a scheme-H path."""
    if head not in (HEAD_Y2, HEAD_YT):
        raise ValueError(f"head weight must be y^2 or y*t, got {Monomial(1, *head).text()}")
    _require("H", path)
    return WeightedPath(*_phi_inverse(head, path.steps, path.weights))


@lru_cache(maxsize=None)
def _plan(steps: tuple[str, ...]) -> tuple[tuple[int, ...], tuple[tuple[int, int, int], ...]]:
    """The level positions of a shape and its facing pairs (rise, fall,
    rise height), each in scan order."""
    heights = step_heights(steps)
    levels = tuple(i for i, s in enumerate(steps) if s in ("L", "W"))
    return levels, tuple((u, d, heights[u]) for u, d in matching_pairs(steps))


def _toggle(steps: tuple[str, ...], weights: tuple, name: str) -> tuple:
    """The first applicable move of psi1 or psi2 (`name`) on a raw path,
    with no check of the input.

    With (y2_step, y2_shift, up_offset) the involution's row of `_MOVES`:
    level toggle: a plain q^a level step of the other letter becomes
    y2_step[y^2 q^(a+y2_shift)], and back.  Pair toggle at rise height h:
    (y^2 q^a, yt q^(h+1+b)) <-> (yt q^(h+up_offset+a), q^b).
    """
    y2_step, y2_shift, up_offset = _MOVES[name]
    levels, pairs = _plan(steps)
    for i in levels:
        ey, et, eq = weights[i]
        if et:
            continue
        if steps[i] == y2_step:
            if ey != 2:
                continue
            step, w = ("L" if y2_step == "W" else "W"), (0, 0, eq - y2_shift)
        elif ey:
            continue
        else:
            step, w = y2_step, (2, 0, eq + y2_shift)
        return steps[:i] + (step,) + steps[i + 1:], weights[:i] + (w,) + weights[i + 1:]
    for u, d, h in pairs:
        (uy, ut, uq), (dy, dt, dq) = weights[u], weights[d]
        if uy == 2 and ut == 0 and dy == 1 and dt == 1:
            wu, wd = (1, 1, h + up_offset + uq), (0, 0, dq - (h + 1))
        elif uy == 1 and ut == 1 and dy == 0 and dt == 0:
            wu, wd = (2, 0, uq - (h + up_offset)), (1, 1, h + 1 + dq)
        else:
            continue
        out = list(weights)
        out[u], out[d] = wu, wd
        return steps, tuple(out)
    return steps, weights


def psi1(path: WeightedPath) -> WeightedPath:
    """Sign-reversing involution on scheme H.

    First applicable move wins, scanning left to right:
      level toggle   L[q^a] <-> W[y^2 q^a]           (a in 0..h)
      pair toggle    (y^2 q^a, yt q^(h+1+b)) <-> (yt q^(h+1+a), q^b)
    Fixed points are exactly the scheme-F paths.
    """
    _require("H", path)
    return WeightedPath(*_toggle(path.steps, path.weights, "psi1"))


def psi2(path: WeightedPath) -> WeightedPath:
    """Sign-reversing involution on scheme MSTAR.

    Moves, first applicable position wins:
      level toggle   L[y^2 q^a] <-> W[q^(a-1)]        (a in 1..h)
      pair toggle    (y^2 q^a, yt q^(h+1+b)) <-> (yt q^(h+a), q^b)
    The weight changes by exactly (y^2 q)^(+-1); fixed points are scheme G.
    """
    _require("MSTAR", path)
    return WeightedPath(*_toggle(path.steps, path.weights, "psi2"))
