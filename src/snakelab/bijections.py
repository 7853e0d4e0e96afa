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

Each public map checks its input and raises ValueError on a path outside
its domain scheme; none re-checks its output.  That its images land in the
target scheme is verified by the catalog (prop-3.2, prop-3.6, prop-4.4 in
`snakelab.checks`), so the claim survives `python -O`.

Both involutions are one move table, `_toggle`, read with psi1's or psi2's
level shift and pair offset.  The catalog applies the unguarded moves
`_psi1_move` and `_psi2_move`, which skip the membership test, and only to
paths that come from `motzkin.gen_weighted` or have just passed
`motzkin.in_family`; the public maps keep their guards.
"""

from __future__ import annotations

from snakelab.algebra import Monomial
from snakelab.motzkin import WeightedPath, in_family, matching_pairs

HEAD_Y2 = Monomial(1, 2, 0, 0)
HEAD_YT = Monomial(1, 1, 1, 0)

# half-step encoding of a full step and read-back of a half-step pair
_ENCODE = {"U": ("U", "U"), "L": ("U", "D"), "W": ("D", "U"), "D": ("D", "D")}
_DECODE = {pair: step for step, pair in _ENCODE.items()}


def _require(scheme: str, path: WeightedPath) -> None:
    if not in_family(scheme, path):
        raise ValueError(f"path is not in scheme {scheme}: {path.text()!r}")


def phi(path: WeightedPath) -> tuple[Monomial, WeightedPath]:
    """Split a scheme-M path of length n >= 1 into its head weight and a
    scheme-H path of length n-1 with the same weight product."""
    _require("M", path)
    n = len(path)
    if n < 1:
        raise ValueError("phi needs a nonempty path")
    steps = tuple(
        _DECODE[(_ENCODE[path.steps[j]][1], _ENCODE[path.steps[j + 1]][0])]
        for j in range(n - 1)
    )
    out = WeightedPath(steps, path.weights[1:])
    return path.weights[0], out


def phi_inverse(head: Monomial, path: WeightedPath) -> WeightedPath:
    """Rebuild the scheme-M path from a head weight and a scheme-H path."""
    if head not in (HEAD_Y2, HEAD_YT):
        raise ValueError(f"head weight must be y^2 or y*t, got {head.text()}")
    _require("H", path)
    n = len(path) + 1
    halves = ["U"]
    for s in path.steps:
        halves.extend(_ENCODE[s])
    halves.append("D")
    steps = tuple(_DECODE[(halves[2 * i], halves[2 * i + 1])] for i in range(n))
    return WeightedPath(steps, (head, *path.weights))


def _is_q_power(w: Monomial) -> bool:
    return w.ey == 0 and w.et == 0


def _is_y2(w: Monomial) -> bool:
    return w.ey == 2 and w.et == 0


def _is_yt(w: Monomial) -> bool:
    return w.ey == 1 and w.et == 1


def _toggle(path: WeightedPath, y2_step: str, y2_shift: int, up_offset: int) -> WeightedPath:
    """The first applicable move of psi1 or psi2, with no check of the input.

    Level toggle: a plain q^a level step of the other letter becomes
    y2_step[y^2 q^(a+y2_shift)], and back.  Pair toggle at rise height h:
    (y^2 q^a, yt q^(h+1+b)) <-> (yt q^(h+up_offset+a), q^b).
    """
    plain_step = "L" if y2_step == "W" else "W"
    steps = list(path.steps)
    weights = list(path.weights)
    for i, (s, w) in enumerate(zip(steps, weights)):
        if s == plain_step and _is_q_power(w):
            steps[i], weights[i] = y2_step, Monomial(1, 2, 0, w.eq + y2_shift)
            break
        if s == y2_step and _is_y2(w):
            steps[i], weights[i] = plain_step, Monomial(1, 0, 0, w.eq - y2_shift)
            break
    else:
        heights = path.heights()
        for u, d in matching_pairs(path.steps):
            h = heights[u]
            wu, wd = weights[u], weights[d]
            if _is_y2(wu) and _is_yt(wd):
                a, b = wu.eq, wd.eq - (h + 1)
                weights[u] = Monomial(1, 1, 1, h + up_offset + a)
                weights[d] = Monomial(1, 0, 0, b)
                break
            if _is_yt(wu) and _is_q_power(wd):
                a, b = wu.eq - (h + up_offset), wd.eq
                weights[u] = Monomial(1, 2, 0, a)
                weights[d] = Monomial(1, 1, 1, h + 1 + b)
                break
    return WeightedPath(tuple(steps), tuple(weights))


def _psi1_move(path: WeightedPath) -> WeightedPath:
    """psi1 without its input guard, for a path already known to be in H."""
    return _toggle(path, "W", 0, 1)


def _psi2_move(path: WeightedPath) -> WeightedPath:
    """psi2 without its input guard, for a path already known to be in MSTAR."""
    return _toggle(path, "L", 1, 0)


def psi1(path: WeightedPath) -> WeightedPath:
    """Sign-reversing involution on scheme H.

    First applicable move wins, scanning left to right:
      level toggle   L[q^a] <-> W[y^2 q^a]           (a in 0..h)
      pair toggle    (y^2 q^a, yt q^(h+1+b)) <-> (yt q^(h+1+a), q^b)
    Fixed points are exactly the scheme-F paths.
    """
    _require("H", path)
    return _psi1_move(path)


def is_fixed_f(path: WeightedPath) -> bool:
    """Membership in scheme F, the fixed-point set of psi1 inside H."""
    return in_family("F", path)


def psi2(path: WeightedPath) -> WeightedPath:
    """Sign-reversing involution on scheme MSTAR.

    Moves, first applicable position wins:
      level toggle   L[y^2 q^a] <-> W[q^(a-1)]        (a in 1..h)
      pair toggle    (y^2 q^a, yt q^(h+1+b)) <-> (yt q^(h+a), q^b)
    The weight changes by exactly (y^2 q)^(+-1); fixed points are scheme G.
    """
    _require("MSTAR", path)
    return _psi2_move(path)


def is_fixed_g(path: WeightedPath) -> bool:
    """Membership in scheme G, the fixed-point set of psi2 inside MSTAR."""
    return in_family("G", path)
