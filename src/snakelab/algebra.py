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
rows step `_step` (D + UDU or D + DUU in one pass), and truncated series
expansion of Jacobi- and Stieltjes-type continued fractions.

All of these, and the text form, run on (ey, et) rows of q-coefficients
(`_rows`), printed by `_text`, with a `Poly` built only for a result: dense
lists for the operators, one packed int per row inside the J-fraction.
Per route, with r rows of width w in the input:
- `q_derivative`, `u_multiply`: one sort of the terms, then one window-sum
  row per input row added as a shifted slice (`_add_row`), O(r w) list work
  in C; `_step` sends each row to two window-sum rows with no sort, so Q_n
  and R_n go from rows to rows (`eulerians._qr_rows`).  These rows stay
  dense: a window sum is linear list work already, and every Q_n and R_n
  is printed, so packed rows would be unpacked at every step;
- `jfraction_series`: each row packed into one int, its value at q = 2^bits
  (Kronecker substitution), so a path-sum edge is one int product per row
  and weight row, not one row add per weight term; `sfraction_series` is
  the J-fraction with no level weights, read at even lengths, and
  `motzkin.rho` the J-fraction of a path scheme's menus.
"""

from __future__ import annotations

from itertools import accumulate, chain, count, groupby, islice, repeat
from operator import add, itemgetter, sub
from typing import Callable, Mapping, NamedTuple

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

    def is_constant(self) -> bool:
        return all(key == (0, 0, 0) for key in self.terms)

    def as_int(self) -> int:
        """The value of a constant polynomial."""
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self.terms.get((0, 0, 0), 0)

    # -- substitution -------------------------------------------------------

    def subst(self, var: str, value: "Poly | int") -> "Poly":
        """Substitute a polynomial (or integer) for y, t or q.

        The terms are grouped by their exponent e of the variable, and each
        group, with the variable set to 1, is multiplied once by value^e.
        Substituting into a negative exponent requires the value to be an
        invertible monomial ``+-q^e``; anything else raises ValueError.
        """
        if var not in _VAR_INDEX:
            raise ValueError(f"unknown variable {var!r}")
        idx = _VAR_INDEX[var]
        value = Poly.constant(value) if isinstance(value, int) else value
        groups: dict[int, dict[Key, int]] = {}
        for key, c in self.terms.items():
            base = list(key)
            base[idx] = 0
            groups.setdefault(key[idx], {})[tuple(base)] = c
        out = ZERO
        for e, base in groups.items():
            out = out + Poly(base) * (value ** e if e >= 0 else _unit_inverse(value) ** -e)
        return out

    def __call__(self, y: "Poly | int | None" = None, t: "Poly | int | None" = None,
                 q: "Poly | int | None" = None) -> "Poly":
        out = self
        for var, value in (("y", y), ("t", t), ("q", q)):
            if value is not None:
                out = out.subst(var, value)
        return out

    # -- serialization -------------------------------------------------------

    def __str__(self) -> str:
        return _text(_rows(self))

    def __repr__(self) -> str:
        return f"Poly({self})"


def _unit_inverse(value: Poly) -> Poly:
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
    if n < 0:
        raise ValueError("n must be >= 0")
    return Poly({(0, 0, k): 1 for k in range(n)})


class Monomial(NamedTuple):
    """A single term c*y^ey*t^et*q^eq; the unit weight is Monomial()."""

    coeff: int = 1
    ey: int = 0
    et: int = 0
    eq: int = 0

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.coeff * other.coeff, self.ey + other.ey,
                        self.et + other.et, self.eq + other.eq)

    def text(self) -> str:
        return _text({(self.ey, self.et): [self.eq, [self.coeff]]})


# -- row kernel -----------------------------------------------------------------

# (ey, et) -> [lo, dense]: dense[i] is the coefficient of y^ey t^et q^(lo+i)
Rows = dict[tuple[int, int], list]


def _rows(p: Poly) -> Rows:
    """The rows of p, each dense from its lowest q exponent (which may be
    negative), in (ey, et) order."""
    terms = p.terms
    rows: Rows = {}
    for (ey, et), row in groupby(sorted(terms), itemgetter(0, 1)):
        row = list(row)
        lo = row[0][2]
        span = zip(repeat(ey), repeat(et), range(lo, row[-1][2] + 1))
        rows[ey, et] = [lo, list(map(terms.get, span, repeat(0)))]
    return rows


def _tq_rows(p: Poly) -> Rows:
    """The rows of p, which the operators take only with no y term."""
    rows = _rows(p)
    if any(ey for ey, _ in rows):
        raise ValueError("operator domain is t,q polynomials")
    return rows


def _text(rows: Rows) -> str:
    """The text form of rows, in canonical term order, zero slots skipped.
    Reads rows only, so cached rows may be printed."""
    out = []
    for (ey, et), (lo, dense) in sorted(rows.items()):
        head = _monomial_body((ey, et, 0))  # shared by the whole row
        joint = f"{head}*" if head else ""
        for eq, c in enumerate(dense, lo):
            if not c:
                continue
            body = head if not eq else f"{joint}q" if eq == 1 else f"{joint}q^{eq}"
            mag = abs(c)
            txt = (body if mag == 1 else f"{mag}*{body}") if body else str(mag)
            out.append(f"- {txt}" if c < 0 else f"+ {txt}")
    text = " ".join(out) or "+ 0"
    return text[2:] if text[0] == "+" else f"-{text[2:]}"


def _poly(rows: Rows) -> Poly:
    """The Poly of rows, with its nonzero terms gathered in C.  Its keys need
    no validation: they are sums of exponents of valid Polys, and an operator
    only lowers et from et >= 1."""
    terms: dict[Key, int] = {}
    for (ey, et), (lo, dense) in sorted(rows.items()):
        terms.update(filter(itemgetter(1), zip(zip(repeat(ey), repeat(et), count(lo)), dense)))
    p = object.__new__(Poly)
    object.__setattr__(p, "terms", terms)
    return p


def _add_row(acc: Rows, key: tuple[int, int], lo: int, row: list[int]) -> None:
    """acc[key] += q^lo * row, widening acc[key] on either side as needed;
    acc never holds row itself, so row may be shared."""
    cur = acc.get(key)
    if cur is None:
        acc[key] = [lo, row[:]]
        return
    dense = cur[1]
    if lo < cur[0]:
        dense[:0] = [0] * (cur[0] - lo)
        cur[0] = lo
    i = lo - cur[0]
    j = i + len(row)
    dense += [0] * (j - len(dense))
    dense[i:j] = map(add, dense[i:j], row)


def _window_sums(dense: list[int], width: int) -> list[int]:
    """Entry e is the sum of the width-`width` window of dense ending at e,
    from the prefix sums of dense padded with width-1 zeros on each side: the
    q-row of D(t^width * q^lo * dense) from q^lo up, since
    D(t^w q^e) = t^(w-1) (q^e + ... + q^(e+w-1))."""
    pad = [0] * (width - 1)
    pre = list(accumulate(chain(pad, dense, pad), initial=0))
    return list(map(sub, islice(pre, width, None), pre))


# -- operator algebra ---------------------------------------------------------


def q_derivative(p: Poly) -> Poly:
    """The q-derivative D with D(t^n) = [n]_q t^(n-1), one t-row at a time,
    in one sort plus time linear in the size of the output."""
    acc: Rows = {}
    for (_, et), (lo, dense) in _tq_rows(p).items():
        if et:
            _add_row(acc, (0, et - 1), lo, _window_sums(dense, et))
    return _poly(acc)


def _step(rows: Rows, shift: int) -> Rows:
    """The rows of D f + U^(2-shift) D U^shift f, given the t-rows of f, in
    one pass that reads them only: row t^et adds its width-et window sums to
    row et-1 and its width-(et+shift) window sums to row et+1."""
    acc: Rows = {}
    for (_, et), (lo, dense) in rows.items():
        if et:
            _add_row(acc, (0, et - 1), lo, _window_sums(dense, et))
        _add_row(acc, (0, et + 1), lo, _window_sums(dense, et + shift))
    return acc


def u_multiply(p: Poly) -> Poly:
    """The operator U: multiplication by t."""
    return _poly({(0, et + 1): row for (_, et), row in _tq_rows(p).items()})


# -- continued fractions ------------------------------------------------------


class CoefficientSchedule(NamedTuple):
    """Level weights mu(h) for h >= 0 and fall weights lam(h) for h >= 1
    of a Jacobi-type continued fraction 1/(1 - mu_0 x - lam_1 x^2/(...))."""

    mu: Callable[[int], Poly]
    lam: Callable[[int], Poly]


def _path_sums(mu: list, lam: list, rise, n_max: int, edge: Callable) -> list:
    """Height-0 path sums of lengths 0..n_max, from `rise` at height 0;
    edge(new, h, sums, w) adds sums times w into new[h].  Heights that
    cannot return to 0 by n_max are dropped: mu, lam are read to n_max//2."""
    out, state = [], {0: rise}
    for left in reversed(range(n_max)):  # steps left after this one
        out.append(state[0])
        new: dict = {}
        for h, sums in state.items():
            if h <= left:
                edge(new, h, sums, mu[h])
            if h < left:
                edge(new, h + 1, sums, rise)
            if h:
                edge(new, h - 1, sums, lam[h])
        state = new
    return out + [state[0]]


def _slot_bits(mu: list[Poly], lam: list[Poly], n_max: int) -> int:
    """Bits per packed slot.  The path sum on ints with each weight replaced
    by the sum of its |coefficients| bounds every output coefficient, and
    outputs are all that is unpacked; add a sign bit, in whole bytes."""
    def edge(new, h, v, w):
        new[h] = new.get(h, 0) + v * w

    norms = [[sum(map(abs, p.terms.values())) for p in ws] for ws in (mu, lam)]
    return 8 * (max(_path_sums(*norms, 1, n_max, edge)).bit_length() // 8 + 1)


def _unpack(packed: dict, bits: int) -> Rows:
    """Dense rows of packed rows with every |coefficient| < 2^(bits-1):
    2^(bits-1) added to each slot makes the bytes of x its digits."""
    size, half = bits // 8, 1 << bits - 1
    bias = bytes(size - 1) + b"\x80"
    rows: Rows = {}
    for key, (lo, end, x) in packed.items():
        data = (x + int.from_bytes(bias * (end - lo), "little")).to_bytes((end - lo) * size, "little")
        rows[key] = [lo, [int.from_bytes(data[i:i + size], "little") - half for i in range(0, len(data), size)]]
    return rows


def jfraction_series(schedule: CoefficientSchedule, n_max: int) -> list[Poly]:
    """Taylor coefficients of x^0..x^n_max of the J-fraction.

    Computed as weighted Motzkin path sums: coefficient n is the total weight
    of length-n paths with level weight mu(h) at height h, rise weight 1, and
    fall weight lam(h) for a fall starting at height h.  Each height keeps
    its path sum, and each weight, as packed rows (ey, et) -> (lo, end, x):
    x is the sum of c * 2^(i*bits) over the coefficients c of q^(lo+i) for
    lo+i < end.  An edge is one int product and one shifted int add per
    (row, weight row), and only the height-0 sums are unpacked.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    mu = [schedule.mu(h) for h in range(n_max // 2 + 1)]
    lam = [ZERO] + [schedule.lam(h) for h in range(1, n_max // 2 + 1)]
    bits = _slot_bits(mu, lam, n_max)

    def pack(p: Poly) -> dict:
        return {key: (lo, lo + len(dense), sum(c << i * bits for i, c in enumerate(dense)))
                for key, (lo, dense) in _rows(p).items()}

    def edge(new, h, rows, weight):
        acc = new.setdefault(h, {})
        for (ey, et), (lo, end, x) in rows.items():
            for (wy, wt), (wlo, wend, wx) in weight.items():
                key, lo2, end2, x2 = (ey + wy, et + wt), lo + wlo, end + wend - 1, x * wx
                lo1, end1, x1 = acc.get(key, (lo2, lo2, 0))
                base = min(lo1, lo2)
                acc[key] = base, max(end1, end2), (x1 << (lo1 - base) * bits) + (x2 << (lo2 - base) * bits)

    sums = _path_sums(list(map(pack, mu)), list(map(pack, lam)), pack(ONE), n_max, edge)
    return [_poly(_unpack(rows, bits)) for rows in sums]


def sfraction_series(a: Callable[[int], Poly], n_max: int) -> list[Poly]:
    """Coefficients of x^0..x^n_max of 1/(1 - a(1)x/(1 - a(2)x/(...))).

    Coefficient n is the total weight of Dyck paths of semilength n where a
    fall starting at height h carries weight a(h).  Dyck paths are the
    Motzkin paths without level steps, so these are the even entries of the
    J-fraction with level weights 0 and fall weights a.
    """
    return jfraction_series(CoefficientSchedule(mu=lambda h: ZERO, lam=a), 2 * n_max)[::2]
