"""Exact sparse Laurent polynomials in the variables y, t, q.

A polynomial is a finite map from exponent triples (ey, et, eq) to nonzero
integer coefficients.  Exponents of y and t are nonnegative; the exponent of
q may be negative (needed for the (-1/q)-signed enumerators).  All arithmetic
is exact integer arithmetic; there is no floating point anywhere.

Canonical term order is lexicographic on (ey, et, eq).  The text form writes
terms in canonical order as ``c*y^a*t^b*q^e`` with unit parts omitted, e.g.::

    1 + t^2 + t^2*q

The module also provides the q-derivative operator D with (Df)(t) =
(f(qt) - f(t)) / ((q-1)t), the multiplication-by-t operator U, the fused
step `operator_step` (D + UDU or D + DUU in one pass, from window sums of
each t-row), and truncated series expansion of Jacobi- and Stieltjes-type
continued fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, groupby
from operator import itemgetter, sub
from typing import Callable, Iterable, Iterator, Mapping

Key = tuple[int, int, int]

_VAR_INDEX = {"y": 0, "t": 1, "q": 2}


def _monomial_body(key: Key) -> str:
    pieces = []
    for name, e in zip("ytq", key):
        if e == 0:
            continue
        pieces.append(name if e == 1 else f"{name}^{e}")
    return "*".join(pieces)


class Poly:
    """Immutable sparse polynomial in y, t, q (Laurent in q only)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Key, int] | None = None):
        clean = {key: c for key, c in terms.items() if c} if terms else {}
        for ey, et, eq in clean:
            if ey < 0 or et < 0:
                raise ValueError(f"negative exponent of y or t: {(ey, et, eq)}")
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, c: int) -> "Poly":
        return cls({(0, 0, 0): c})

    @classmethod
    def monomial(cls, coeff: int = 1, ey: int = 0, et: int = 0, eq: int = 0) -> "Poly":
        return cls({(ey, et, eq): coeff})

    @classmethod
    def from_quadruples(cls, rows: Iterable[Iterable[int]]) -> "Poly":
        acc: dict[Key, int] = {}
        for c, ey, et, eq in rows:
            key = (ey, et, eq)
            acc[key] = acc.get(key, 0) + c
        return cls(acc)

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Poly":
        if isinstance(other, Poly):
            return other
        if isinstance(other, int):
            return Poly.constant(other)
        return NotImplemented

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc = dict(self.terms)
        for key, c in other.terms.items():
            acc[key] = acc.get(key, 0) + c
        return Poly(acc)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly({key: -c for key, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return -(self - other)

    def __mul__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc: dict[Key, int] = {}
        for (a1, b1, e1), c1 in self.terms.items():
            for (a2, b2, e2), c2 in other.terms.items():
                key = (a1 + a2, b1 + b2, e1 + e2)
                acc[key] = acc.get(key, 0) + c1 * c2
        return Poly(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = ONE
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None  # mutable-dict backed; not hashable

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- queries -----------------------------------------------------------

    def coefficient(self, ey: int, et: int, eq: int) -> int:
        return self.terms.get((ey, et, eq), 0)

    def is_constant(self) -> bool:
        return all(key == (0, 0, 0) for key in self.terms)

    def as_int(self) -> int:
        """The value of a constant polynomial."""
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self.terms.get((0, 0, 0), 0)

    def t_exponents(self) -> set[int]:
        return {et for (_, et, _) in self.terms}

    # -- substitution -------------------------------------------------------

    def subst(self, var: str, value: "Poly | int") -> "Poly":
        """Substitute a polynomial (or integer) for y, t or q.

        Substituting into a negative exponent requires the value to be an
        invertible monomial ``+-q^e``; anything else raises ValueError.
        """
        if var not in _VAR_INDEX:
            raise ValueError(f"unknown variable {var!r}")
        idx = _VAR_INDEX[var]
        value = Poly.constant(value) if isinstance(value, int) else value
        inverse: Poly | None = None
        out = ZERO
        for key, c in self.terms.items():
            e = key[idx]
            base = list(key)
            base[idx] = 0
            factor = Poly({tuple(base): c})
            if e >= 0:
                out = out + factor * value ** e
            else:
                if inverse is None:
                    inverse = _invert_monomial(value)
                out = out + factor * inverse ** (-e)
        return out

    def __call__(self, y: "Poly | int | None" = None, t: "Poly | int | None" = None,
                 q: "Poly | int | None" = None) -> "Poly":
        out = self
        for var, value in (("y", y), ("t", t), ("q", q)):
            if value is not None:
                out = out.subst(var, value)
        return out

    # -- serialization -------------------------------------------------------

    def to_quadruples(self) -> list[list[int]]:
        return [[self.terms[key], *key] for key in sorted(self.terms)]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        out = []
        for (ey, et), row in groupby(sorted(self.terms), itemgetter(0, 1)):
            head = _monomial_body((ey, et, 0))  # shared by the whole row
            joint = f"{head}*" if head else ""
            for key in row:
                c, eq = self.terms[key], key[2]
                body = head if not eq else f"{joint}q" if eq == 1 else f"{joint}q^{eq}"
                mag = abs(c)
                txt = (body if mag == 1 else f"{mag}*{body}") if body else str(mag)
                out.append(f"- {txt}" if c < 0 else f"+ {txt}")
        text = " ".join(out)
        return text[2:] if text[0] == "+" else f"-{text[2:]}"

    def __repr__(self) -> str:
        return f"Poly({self})"


def _invert_monomial(value: Poly) -> Poly:
    if len(value.terms) != 1:
        raise ValueError("non-invertible substitution")
    ((ey, et, eq), c), = value.terms.items()
    if ey or et or c not in (1, -1):
        raise ValueError("non-invertible substitution")
    return Poly({(0, 0, -eq): c})


ZERO = Poly()
ONE = Poly.constant(1)
Y = Poly.monomial(ey=1)
T = Poly.monomial(et=1)
Q = Poly.monomial(eq=1)


def q_int(n: int) -> Poly:
    """The q-integer [n]_q = 1 + q + ... + q^(n-1)."""
    return Poly({(0, 0, k): 1 for k in range(n)})


@dataclass(frozen=True)
class Monomial:
    """A single term c*y^ey*t^et*q^eq; the unit weight is Monomial()."""

    coeff: int = 1
    ey: int = 0
    et: int = 0
    eq: int = 0

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.coeff * other.coeff, self.ey + other.ey,
                        self.et + other.et, self.eq + other.eq)

    def to_poly(self) -> Poly:
        return Poly({(self.ey, self.et, self.eq): self.coeff})

    def text(self) -> str:
        body = _monomial_body((self.ey, self.et, self.eq))
        if not body:
            return str(self.coeff)
        if self.coeff == 1:
            return body
        if self.coeff == -1:
            return f"-{body}"
        return f"{self.coeff}*{body}"


# -- operator algebra ---------------------------------------------------------


def _require_tq(p: Poly) -> None:
    if any(ey for (ey, _, _) in p.terms):
        raise ValueError("operator domain is t,q polynomials")


def _dense_rows(p: Poly) -> Iterator[tuple[int, int, list[int]]]:
    """(et, lo, dense) for each t-row of a t,q polynomial, by et: dense[e]
    is the coefficient of t^et q^(lo+e), lo being the row's lowest q
    exponent (it may be negative)."""
    keys = sorted(p.terms)
    if keys and keys[-1][0]:  # keys sort by ey first, so a y term is last
        raise ValueError("operator domain is t,q polynomials")
    for et, row in groupby(keys, itemgetter(1)):
        row = list(row)
        lo = row[0][2]
        dense = [0] * (row[-1][2] - lo + 1)
        for key in row:
            dense[key[2] - lo] = p.terms[key]
        yield et, lo, dense


def _add_windows(acc: dict[Key, int], et: int, lo: int, dense: list[int],
                 width: int) -> None:
    """Add D(t^width * row) to acc as row t^et, where the row is dense from q^lo.

    D(t^w q^e) = t^(w-1) (q^e + ... + q^(e+w-1)), so the coefficient of
    q^(lo+e) is the sum of the width-w window of dense ending at e, taken
    from the prefix sums of the row padded with w-1 zeros on each side.
    """
    pad = [0] * (width - 1)
    pre = list(accumulate(chain(pad, dense, pad), initial=0))
    for eq, c in enumerate(map(sub, pre[width:], pre[:-width]), lo):
        if c:
            key = (0, et, eq)
            acc[key] = acc.get(key, 0) + c


def q_derivative(p: Poly) -> Poly:
    """The q-derivative D with D(t^n) = [n]_q t^(n-1), one t-row at a time,
    in one sort plus time linear in the size of the output."""
    acc: dict[Key, int] = {}
    for et, lo, dense in _dense_rows(p):
        if et:
            _add_windows(acc, et - 1, lo, dense, et)
    return Poly(acc)


def operator_step(p: Poly, shift: int) -> Poly:
    """D p + U^(2-shift) D U^shift p: (D + UDU) p for shift 1, the step of
    Q_n, and (D + DUU) p for shift 2, the step of R_n.  One pass over the
    t-rows of p: row t^et sends its width-et window sums to row et-1 and
    its width-(et+shift) window sums to row et+1, all into one dict."""
    acc: dict[Key, int] = {}
    for et, lo, dense in _dense_rows(p):
        if et:
            _add_windows(acc, et - 1, lo, dense, et)
        _add_windows(acc, et + 1, lo, dense, et + shift)
    return Poly(acc)


def u_multiply(p: Poly) -> Poly:
    """The operator U: multiplication by t."""
    _require_tq(p)
    return Poly({(0, et + 1, eq): c for (_, et, eq), c in p.terms.items()})


# -- continued fractions ------------------------------------------------------


@dataclass(frozen=True)
class CoefficientSchedule:
    """Level weights mu(h) for h >= 0 and fall weights lam(h) for h >= 1
    of a Jacobi-type continued fraction 1/(1 - mu_0 x - lam_1 x^2/(...))."""

    mu: Callable[[int], Poly]
    lam: Callable[[int], Poly]


def jfraction_series(schedule: CoefficientSchedule, n_max: int) -> list[Poly]:
    """Taylor coefficients of x^0..x^n_max of the J-fraction.

    Computed as weighted Motzkin path sums: coefficient n is the total weight
    of length-n paths with level weight mu(h) at height h, rise weight 1, and
    fall weight lam(h) for a fall starting at height h.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    mu = [schedule.mu(h) for h in range(n_max + 1)]
    lam = [ZERO] + [schedule.lam(h) for h in range(1, n_max + 1)]
    out = []
    state: dict[int, Poly] = {0: ONE}
    for step in range(n_max + 1):
        out.append(state.get(0, ZERO))
        if step == n_max:
            break
        new: dict[int, Poly] = {}
        for h, w in state.items():
            if h <= n_max - step - 1:
                new[h] = new.get(h, ZERO) + w * mu[h]
                new[h + 1] = new.get(h + 1, ZERO) + w
            if h >= 1:
                new[h - 1] = new.get(h - 1, ZERO) + w * lam[h]
        state = new
    return out


def sfraction_series(a: Callable[[int], Poly], n_max: int) -> list[Poly]:
    """Coefficients of x^0..x^n_max of 1/(1 - a(1)x/(1 - a(2)x/(...))).

    Coefficient n is the total weight of Dyck paths of semilength n where a
    fall starting at height h carries weight a(h).
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    weights = [ZERO] + [a(h) for h in range(1, 2 * n_max + 1)]
    out = []
    state: dict[int, Poly] = {0: ONE}
    for step in range(2 * n_max + 1):
        if step % 2 == 0:
            out.append(state.get(0, ZERO))
        if step == 2 * n_max:
            break
        new: dict[int, Poly] = {}
        for h, w in state.items():
            if h <= 2 * n_max - step - 2:
                new[h + 1] = new.get(h + 1, ZERO) + w
            if h >= 1:
                new[h - 1] = new.get(h - 1, ZERO) + w * weights[h]
        state = new
    return out
