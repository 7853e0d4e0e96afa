"""Catalog of named identity checks.

Every identity the library implements is registered here once, under a
stable id, with a default size ceiling chosen so that running the whole
catalog stays within minutes on one core.  Exhaustive checks over signed
permutations or weighted paths default to n <= 5; purely polynomial checks
default to n <= 8.  A check function receives the ceiling and returns None
on success or a witness string describing the smallest counterexample.

Most entries are series identities, "lhs(n) == rhs(n) for n = start,
start + step, ..., n_max", each declared once as an `_identity_check` row of
`CHECKS` whose `start` is also its `min_n`, and all run by one loop,
`_identity`.  A left side given as `_Series(build)` is entry n of one table
`build(n_max)`, built once per run.  A failing identity names its smallest n:
- `n=N: lhs - rhs = <difference>` when the sides are polynomials;
- `n=N: got X, want Y` when they are integers or distributions;
- for a pair of sides (thm-1.2), the first component that differs.
The exhaustive checks (prop-3.2, prop-3.6, lemma-3.8, prop-4.4 and the snake
checks) and the goldens keep their own loops and witnesses.

Checks that read the same family at the same n share one pass over it:
- the permutation checks read the cached `permstats.a_table` and
  `permstats.b_table` (through `signed_enumerator` and `family_table`),
  so the first check to touch an n pays for its table;
- prop-3.6 and lemma-3.8 read one cached psi1 walk of H_n,
  `_psi1_walk(n)`, which records the first witness of each claim, so either
  check still runs alone;
- the involution checks apply the unguarded moves `bijections._psi1_move`
  and `_psi2_move`, only to generated paths or to images that have just
  passed `motzkin.in_family`.
Clearing those caches is needed only where a test patches what fills them.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

from snakelab import bijections, eulerians, motzkin, permstats, snakes
from snakelab.algebra import (
    Q,
    T,
    Y,
    Poly,
    jfraction_series,
    q_derivative,
    u_multiply,
)


@dataclass(frozen=True)
class Check:
    id: str
    description: str
    default_n: int
    fn: Callable[[int], str | None]
    scalable: bool = True
    min_n: int = 0
    note: str | None = None


@dataclass(frozen=True)
class CheckResult:
    id: str
    n_max: int
    status: str  # pass | fail | skipped
    witness: str | None = None
    note: str | None = None


# -- series identities -----------------------------------------------------------


@dataclass(frozen=True)
class _Series:
    """A left side read off one table of entries 0..n_max, built once per run."""

    build: Callable[[int], Sequence]


def _witness(n: int, got, want) -> str:
    if isinstance(got, tuple):  # several sides at one n: the first that differs
        got, want = next((g, w) for g, w in zip(got, want) if g != w)
    if isinstance(got, Poly):
        return f"n={n}: lhs - rhs = {got - want}"
    return f"n={n}: got {got}, want {want}"


def _identity(lhs, rhs, start: int = 0, step: int = 1) -> Callable[[int], str | None]:
    """The check that lhs(n) == rhs(n) for n = start, start + step, ...,
    n_max; it returns the witness of the first n where they differ.  lhs is
    a function of n or a `_Series`."""

    def fn(n_max: int) -> str | None:
        left = lhs.build(n_max).__getitem__ if isinstance(lhs, _Series) else lhs
        for n in range(start, n_max + 1, step):
            got, want = left(n), rhs(n)
            if got != want:
                return _witness(n, got, want)
        return None

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


def _rho(scheme: str) -> Callable[[int], Poly]:
    return lambda n: motzkin.rho(scheme, n)


def _distribution(n: int, family: str, stat: Callable[[tuple], int]) -> dict[int, int]:
    """Counts of stat(row) over the rows of `permstats.family_table(n, family)`."""
    out: Counter = Counter()
    for row, count in permstats.family_table(n, family).items():
        out[stat(row)] += count
    return dict(out)


def _basis_expansion(coeffs: list[int], degree: int) -> dict[int, int]:
    out: Counter = Counter()
    for i, c in enumerate(coeffs):
        for k in range(degree - 2 * i + 1):
            out[i + k] += c * math.comb(degree - 2 * i, k)
    return dict(+out)


def _half_fwex_sum(n: int, family: str) -> int:
    return sum(
        _sign(fwex // 2) * count
        for (fwex, *_), count in permstats.family_table(n, family).items()
    )


# -- Q and R goldens -------------------------------------------------------------


Q_LITERALS = {
    0: "1",
    1: "t",
    2: "1 + t^2 + t^2*q",
    3: "2*t + 2*t*q + t*q^2 + t^3 + 2*t^3*q + 2*t^3*q^2 + t^3*q^3",
}

R_LITERALS = {
    0: "1",
    1: "t + t*q",
    2: "1 + q + t^2 + 2*t^2*q + 2*t^2*q^2 + t^2*q^3",
    3: "2*t + 5*t*q + 5*t*q^2 + 3*t*q^3 + t*q^4"
    " + t^3 + 3*t^3*q + 5*t^3*q^2 + 6*t^3*q^3 + 5*t^3*q^4 + 3*t^3*q^5 + t^3*q^6",
}


def _golden_poly(kind: str, index: int) -> Callable[[int], str | None]:
    def fn(_: int) -> str | None:
        poly = eulerians.Q_poly(index) if kind == "Q" else eulerians.R_poly(index)
        literal = Q_LITERALS[index] if kind == "Q" else R_LITERALS[index]
        if str(poly) != literal:
            return f"{kind}_{index} = {poly} != {literal}"
        return None

    return fn


# -- restructuring map and involutions ------------------------------------------


def _check_restructure(n_max: int) -> str | None:
    for n in range(1, n_max + 1):
        heads = defaultdict(list)
        for p in motzkin.gen_weighted("M", n):
            head, out = bijections.phi(p)
            if head * out.weight() != p.weight():
                return f"n={n}: weight not preserved for {p.text()}"
            heads[out].append((head, p))
        expected = set(motzkin.gen_weighted("H", n - 1))
        if heads.keys() != expected:
            # the first missing H path in generation order, else the first
            # extra image in M order, so the witness does not depend on the hash seed
            missing = [p for p in motzkin.gen_weighted("H", n - 1) if p not in heads]
            sample = missing[0] if missing else next(p for p in heads if p not in expected)
            return f"n={n}: cover mismatch at {sample.text()}"
        # phi_inverse rejects a path outside H, so images are compared with
        # the family before any round trip
        for out, seen in heads.items():
            if sorted(m.text() for m, _ in seen) != ["y*t", "y^2"]:
                return f"n={n}: heads over {out.text()} are {[m.text() for m, _ in seen]}"
            for head, p in seen:
                if bijections.phi_inverse(head, out) != p:
                    return f"n={n}: round trip failed for {p.text()}"
        lhs = motzkin.rho("M", n)
        rhs = (Y ** 2 + Y * T) * motzkin.rho("H", n - 1)
        if lhs != rhs:
            return _witness(n, lhs, rhs)
    return None


def _psi1_claims(n: int, p, image, in_h: bool, wp, wi) -> str | None:
    """prop-3.6's claims on one H path and its image, in order; wp and wi
    are their weights."""
    if not in_h:
        return f"n={n}: image leaves H at {p.text()}: {image.text()}"
    if bijections._psi1_move(image) != p:
        return f"n={n}: not an involution at {p.text()}"
    if image == p:
        if not bijections.is_fixed_f(p):
            return f"n={n}: unexpected fixed point {p.text()}"
        return None
    if bijections.is_fixed_f(p):
        return f"n={n}: moved point satisfies the fixed-set menus: {p.text()}"
    if abs(wi.ey - wp.ey) != 2 or wi.et != wp.et or wi.eq != wp.eq:
        return f"n={n}: weight law broken at {p.text()}: {wp.text()} -> {wi.text()}"
    return None


@lru_cache(maxsize=None)
def _psi1_walk(n: int) -> dict[str, str]:
    """One psi1 walk of H_n for prop-3.6 and lemma-3.8: the first witness of
    each failing claim, keyed "involution" and "fixed-set" (prop-3.6), "H1",
    "H2" and "fixed-parity" (lemma-3.8).  The slices are read off each path's
    t-degree, so neither is held as a set."""
    found: dict[str, str] = {}
    fixed = set()
    for p in motzkin.gen_weighted("H", n):
        image = bijections._psi1_move(p)
        in_h = motzkin.in_family("H", image)
        wp, wi = p.weight(), image.weight()
        piece = "H1" if wp.et % 2 else "H2"
        if piece not in found and not (in_h and (wi.et - wp.et) % 2 == 0):
            found[piece] = f"n={n}: psi1 leaves the {piece} slice at {p.text()}"
        if "involution" not in found:
            witness = _psi1_claims(n, p, image, in_h, wp, wi)
            if witness is not None:
                found["involution"] = witness
            elif image == p:
                fixed.add(p)
    family_f = set()
    for p in motzkin.gen_weighted("F", n):
        family_f.add(p)
        if "fixed-parity" not in found and p.t_degree() % 2 != n % 2:
            found["fixed-parity"] = f"n={n}: fixed path with t-degree {p.t_degree()}: {p.text()}"
    if fixed != family_f:
        found["fixed-set"] = f"n={n}: fixed set differs from the restricted path family"
    return found


def _walk_witness(claims: tuple[str, ...]) -> Callable[[int], str | None]:
    def fn(n_max: int) -> str | None:
        for n in range(0, n_max + 1):
            found = _psi1_walk(n)
            for claim in claims:
                if claim in found:
                    return found[claim]
        return None

    return fn


_check_psi1 = _walk_witness(("involution", "fixed-set"))
_check_psi1_slices = _walk_witness(("H1", "H2", "fixed-parity"))


def _check_psi2(n_max: int) -> str | None:
    for n in range(0, n_max + 1):
        fixed = set()
        for p in motzkin.gen_weighted("MSTAR", n):
            image = bijections._psi2_move(p)
            if not motzkin.in_family("MSTAR", image):
                return f"n={n}: image leaves MSTAR at {p.text()}: {image.text()}"
            if bijections._psi2_move(image) != p:
                return f"n={n}: not an involution at {p.text()}"
            wp, wi = p.weight(), image.weight()
            if image == p:
                fixed.add(p)
                if not bijections.is_fixed_g(p):
                    return f"n={n}: unexpected fixed point {p.text()}"
                if wp.et % 2 != n % 2:
                    return f"n={n}: fixed path with t-degree {wp.et}: {p.text()}"
            else:
                if bijections.is_fixed_g(p):
                    return f"n={n}: moved point satisfies the fixed-set menus: {p.text()}"
                if (wi.ey - wp.ey, wi.eq - wp.eq) not in ((2, 1), (-2, -1)) or wi.et != wp.et:
                    return (
                        f"n={n}: weight law broken at {p.text()}:"
                        f" {wp.text()} -> {wi.text()}"
                    )
        if fixed != set(motzkin.gen_weighted("G", n)):
            return f"n={n}: fixed set differs from the restricted path family"
    return None


# -- snakes ---------------------------------------------------------------------


def _check_sign_changes(n_max: int) -> str | None:
    for variant in ("S0", "S00"):
        for n in range(0, n_max + 1):
            for s in snakes.generate_snakes(n, variant):
                v = snakes.cs_vector(s)
                if sum(v) != snakes.sign_changes(s):
                    return f"{s.text()}: vector {v} does not sum to the total"
                abs_window = tuple(abs(x) for x in s.window)
                if snakes.arnold_recover(abs_window, v, variant) != s:
                    return f"{s.text()}: sign recovery failed"
    return None


def _check_pattern_lemma(n_max: int) -> str | None:
    for variant in ("S0", "S00"):
        for n in range(1, n_max + 1):
            for s in snakes.generate_snakes(n, variant):
                word = tuple(abs(x) for x in s.window)
                profile = snakes.block_profile(word, variant)
                for k in range(1, n + 1):
                    a, b = snakes.pattern_counts(word, variant, k)
                    if profile.beta[k] != b or profile.alpha[k] != a + b + 1:
                        return (
                            f"{s.text()}: k={k} blocks ({profile.alpha[k]},"
                            f" {profile.beta[k]}) vs patterns ({a}, {b})"
                        )
    return None


def _check_lambda1(n_max: int) -> str | None:
    for n in range(0, n_max + 1):
        images = {}
        for s in snakes.generate_snakes(n, "S0"):
            path = snakes.lambda1(s)
            if path in images:
                return f"n={n}: {s.text()} and {images[path].text()} collide"
            images[path] = s
        if set(images) != set(motzkin.gen_weighted("TSTAR", n)):
            return f"n={n}: image is not the whole path family"
        for path, s in images.items():  # lambda1_inv rejects a path outside TSTAR
            if snakes.lambda1_inv(path) != s:
                return f"n={n}: round trip failed for {s.text()}"
        lhs = snakes.snake_enumerator(n, "Q")
        rhs = eulerians.Q_poly(n)
        if lhs != rhs:
            return _witness(n, lhs, rhs)
    return None


def _check_lambda2(n_max: int) -> str | None:
    for n in range(0, n_max + 1):
        images = {}
        for s in snakes.generate_snakes(n + 1, "S00"):
            path = snakes.lambda2(s)
            if path in images:
                return f"n={n}: {s.text()} and {images[path].text()} collide"
            images[path] = s
        if set(images) != set(motzkin.gen_weighted("T", n)):
            return f"n={n}: image is not the whole path family"
        for path, s in images.items():  # lambda2_inv rejects a path outside T
            if snakes.lambda2_inv(path) != s:
                return f"n={n}: round trip failed for {s.text()}"
        lhs = snakes.snake_enumerator(n, "R")
        rhs = eulerians.R_poly(n)
        if lhs != rhs:
            return _witness(n, lhs, rhs)
    return None


# -- worked-example goldens ------------------------------------------------------


def _check_cro_golden(_: int) -> str | None:
    got = permstats.stats((3, -4, -2, 5, 1)).cro_b
    return None if got == 5 else f"cro_b((3,-4,-2,5,1)) = {got}, want 5"


_EXAMPLE_SNAKE = (5, -2, 4, -7, -1, -8, 10, -9, 6, 3)
_EXAMPLE_SNAKE_00 = (5, -2, 4, -7, -1, -8, 11, -9, 6, 3, 10)


def _check_cs_golden(_: int) -> str | None:
    s = snakes.Snake(_EXAMPLE_SNAKE, "S0")
    v = snakes.cs_vector(s)
    if v != (0, 2, 0, 1, 0, 1, 0, 1, 1, 0):
        return f"cs-vector {v}"
    total = snakes.sign_changes(s)
    if total != 6:
        return f"cs total {total}, want 6"
    return None


def _check_table1_golden(_: int) -> str | None:
    p = snakes.block_profile(tuple(abs(v) for v in _EXAMPLE_SNAKE), "S0")
    if p.alpha != (1, 2, 3, 4, 4, 3, 3, 2, 2, 2, 1):
        return f"alpha row {p.alpha}"
    if p.beta != (0, 0, 1, 0, 2, 2, 0, 1, 1, 0, 0):
        return f"beta row {p.beta}"
    return None


def _check_table2_golden(_: int) -> str | None:
    p = snakes.block_profile(tuple(abs(v) for v in _EXAMPLE_SNAKE_00), "S00")
    if p.alpha[:11] != (2, 3, 4, 5, 5, 4, 4, 3, 3, 3, 2):
        return f"alpha row {p.alpha[:11]}"
    if p.beta[1:11] != (1, 2, 1, 3, 3, 1, 2, 2, 1, 0):
        return f"beta row {p.beta[1:11]}"
    return None


def _check_b1_b2_golden(_: int) -> str | None:
    b1 = str(permstats.signed_enumerator(1, "B", "FULL_YTQ"))
    if b1 != "y*t + y^2":
        return f"B_1 = {b1}"
    b2 = str(permstats.signed_enumerator(2, "B", "FULL_YTQ"))
    want = "y*t + y^2 + y^2*t^2 + y^2*t^2*q + 2*y^3*t + y^3*t*q + y^4"
    if b2 != want:
        return f"B_2 = {b2}"
    return None


def _check_lambda1_golden(_: int) -> str | None:
    path = snakes.lambda1(snakes.Snake(_EXAMPLE_SNAKE, "S0"))
    got = [(path.steps[i], path.weights[i].text()) for i in (0, 1)]
    want = [("U", "1"), ("U", "t^2*q^4")]
    return None if got == want else f"first steps {got}"


def _check_lambda2_golden(_: int) -> str | None:
    path = snakes.lambda2(snakes.Snake(_EXAMPLE_SNAKE_00, "S00"))
    got = [(path.steps[i], path.weights[i].text()) for i in (0, 1)]
    want = [("U", "1"), ("U", "t^2*q^5")]
    return None if got == want else f"first steps {got}"


# -- registry --------------------------------------------------------------------


R_ODD_NOTE = (
    "corrected: the odd-index identification R_(2m+1)(0,q) = E_(2m+1)(q) is"
    " false (the left side vanishes identically); the verified identity is"
    " R_(2m)(0,q) = E_(2m+1)(q)"
)


CHECKS: list[Check] = [
    Check("q0-golden", "Q_0 equals the literal '1'", 0, _golden_poly("Q", 0), scalable=False),
    Check("q1-golden", "Q_1 equals the literal 't'", 0, _golden_poly("Q", 1), scalable=False),
    Check("q2-golden", "Q_2 equals the literal '1 + (1+q)t^2'", 0, _golden_poly("Q", 2), scalable=False),
    Check("q3-golden", "Q_3 equals the literal '(2+2q+q^2)t + (1+2q+2q^2+q^3)t^3'", 0, _golden_poly("Q", 3), scalable=False),
    Check("r0-golden", "R_0 equals the literal '1'", 0, _golden_poly("R", 0), scalable=False),
    Check("r1-golden", "R_1 equals the literal '(1+q)t'", 0, _golden_poly("R", 1), scalable=False),
    Check("r2-golden", "R_2 equals the literal '(1+q) + (1+2q+2q^2+q^3)t^2'", 0, _golden_poly("R", 2), scalable=False),
    Check("r3-golden", "R_3 equals the literal '(2+5q+5q^2+3q^3+q^4)t + (1+3q+5q^2+6q^3+5q^4+3q^5+q^6)t^3'", 0, _golden_poly("R", 3), scalable=False),
    _identity_check(
        "commutation-du-qud", "(DU - qUD) f = f on the basis t^k", 12,
        lambda k: _du_minus_qud(Poly.monomial(et=k)), lambda k: Poly.monomial(et=k)),
    _identity_check(
        "thm-1.2", "operator-route Q_n, R_n equal their continued-fraction coefficients", 8,
        _Series(lambda m: list(zip(eulerians.qr_series("Q", m), eulerians.qr_series("R", m)))),
        lambda n: (eulerians.Q_poly(n), eulerians.R_poly(n))),
    _identity_check(
        "q-secant-at-t0", "Q_(2m)(0,q) equals the 2m-th q-secant number", 8,
        lambda n: eulerians.Q_poly(n).subst("t", 0), eulerians.q_euler, step=2),
    _identity_check(
        "r-odd-at-t0", "R_n(0,q) vanishes for odd n; R_(2m)(0,q) is the q-tangent number E_(2m+1)(q)", 8,
        lambda n: eulerians.R_poly(n).subst("t", 0),
        lambda n: Poly() if n % 2 else eulerians.q_euler(n + 1), note=R_ODD_NOTE),
    _identity_check(
        "q11-springer", "Q_n(1,1) counts the snakes with positive first entry", 7,
        lambda n: eulerians.Q_poly(n)(t=1, q=1).as_int(), eulerians.springer_number),
    _identity_check(
        "r11-tangent", "R_n(1,1) = 2^n E_(n+1)", 7,
        lambda n: eulerians.R_poly(n)(t=1, q=1).as_int(), lambda n: 2 ** n * eulerians.euler_number(n + 1)),
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
        lambda n: _distribution(n, "A", lambda row: row[0]),
        lambda n: _basis_expansion(permstats.gamma_coeffs(n), n - 1), start=1),
    _identity_check(
        "xi-expansion", "derangement excedance polynomial equals its xi-basis expansion", 7,
        lambda n: _distribution(n, "A*", lambda row: row[0]), lambda n: _basis_expansion(permstats.xi_coeffs(n), n)),
    _identity_check(
        "jv1", "sum over permutations of (-1)^wex q^cro is 0 or +-E_n(q) by parity", 7,
        _enumerator("A", "JV_WEX_CRO"),
        lambda n: Poly() if n % 2 == 0 else _sign((n + 1) // 2) * eulerians.q_euler(n), start=1),
    _identity_check(
        "jv2", "sum over derangements of (-1/q)^wex q^cro is (-1/q)^(n/2) E_n(q) or 0", 7,
        _enumerator("A*", "JV_DERANGE"),
        lambda n: _minus_inv_q(n // 2) * eulerians.q_euler(n) if n % 2 == 0 else Poly(), start=1),
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
        lambda n: _half_fwex_sum(n, "B"),
        lambda n: _sign(n // 2) * 2 ** n * eulerians.euler_number(n) if n % 2 == 0 else 0, start=1),
    _identity_check(
        "cor-1.5-ii", "sum over D_n of (-1)^floor(fwex/2) is (-1)^floor((n+1)/2) 2^(n-1) E_n", 5,
        lambda n: _half_fwex_sum(n, "D"),
        lambda n: _sign((n + 1) // 2) * 2 ** (n - 1) * eulerians.euler_number(n), start=1),
    _identity_check(
        "cor-1.6-i", "sum over fixed-point-free B_n of (-1)^floor(fwex/2) is (-1)^floor(n/2) S_n", 5,
        lambda n: _half_fwex_sum(n, "B*"), lambda n: _sign(n // 2) * eulerians.springer_number(n), start=1),
    _identity_check(
        "cor-1.6-ii", "sum over fixed-point-free D_n of (-1)^floor(fwex/2) is (-1)^(n/2) S_n or 0", 5,
        lambda n: _half_fwex_sum(n, "D*"),
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
    Check("prop-3.2", "the doubling map is a weight-preserving two-to-one cover of scheme H", 5, _check_restructure, min_n=1),
    _identity_check(
        "lemma-3.5", "the psi1 fixed family sums to y^n R_n", 5,
        _rho("F"), lambda n: Y ** n * eulerians.R_poly(n)),
    Check("prop-3.6", "psi1 is an involution on H with weight factor y^(+-2) and fixed set F", 5, _check_psi1),
    Check("lemma-3.8", "psi1 preserves the t-degree slices; fixed weights have t-degree of the parity of n", 5, _check_psi1_slices),
    _identity_check(
        "lemma-4.3", "the psi2 fixed family sums to y^n Q_n", 5,
        _rho("G"), lambda n: Y ** n * eulerians.Q_poly(n)),
    Check("prop-4.4", "psi2 is an involution on MSTAR with weight factor (y^2 q)^(+-1) and fixed set G", 5, _check_psi2),
    Check("lemma-sign-changes", "cs-vectors sum to the sign-change count and determine the snake", 5, _check_sign_changes),
    Check("lemma-pattern", "block statistics equal the 13-2 and 2-31 pattern counts", 5, _check_pattern_lemma, min_n=1),
    Check("thm-5.8", "the snake encoding is a bijection onto scheme TSTAR and realizes Q_n", 5, _check_lambda1),
    Check("thm-5.12", "the snake encoding is a bijection onto scheme T and realizes R_n", 5, _check_lambda2),
    Check("example-cro-golden", "the worked crossing example has five crossings", 0, _check_cro_golden, scalable=False),
    Check("example-cs-golden", "the worked snake example has cs-vector (0,2,0,1,0,1,0,1,1,0) and cs = 6", 0, _check_cs_golden, scalable=False),
    Check("table-1-golden", "block table of the worked size-10 example", 0, _check_table1_golden, scalable=False),
    Check("table-2-golden", "block table of the worked size-11 example", 0, _check_table2_golden, scalable=False),
    Check("b1-b2-golden", "trivariate enumerators of sizes 1 and 2 match their literals", 0, _check_b1_b2_golden, scalable=False),
    Check("lambda1-golden", "first two encoded steps of the worked size-10 snake weigh 1 and t^2 q^4", 0, _check_lambda1_golden, scalable=False),
    Check("lambda2-golden", "first two encoded steps of the worked size-11 snake weigh 1 and t^2 q^5", 0, _check_lambda2_golden, scalable=False),
]

CHECKS_BY_ID = {c.id: c for c in CHECKS}


def run_check(check_id: str, n_max: int | None = None) -> CheckResult:
    """Run one catalog entry; unknown ids raise KeyError."""
    check = CHECKS_BY_ID[check_id]
    effective = check.default_n if n_max is None else n_max
    if not check.scalable:
        effective = check.default_n
    if check.scalable and effective < check.min_n:
        return CheckResult(check.id, effective, "skipped", None, check.note)
    witness = check.fn(effective)
    status = "pass" if witness is None else "fail"
    return CheckResult(check.id, effective, status, witness, check.note)
