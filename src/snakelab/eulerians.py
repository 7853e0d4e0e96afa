"""Euler numbers, Springer numbers, and their t,q-generalizations.

E_n counts the alternating permutations sigma_1 > sigma_2 < sigma_3 > ... of
[n]; S_n counts the snakes (alternating signed permutations) with a positive
first entry.  The polynomial generalizations are built from the q-derivative
D and the multiplication operator U:

    Q_n(t,q) = (D + UDU)^n 1        R_n(t,q) = (D + DUU)^n 1

Both stay as t-rows from one `algebra._step` to the next (`_qr_rows`), and
`Q_poly` and `R_poly` are `Poly` views of those rows.  They are also the
coefficients of the J-fractions of `q_fraction_schedule` and
`r_fraction_schedule`, so the two routes check each other.

Integer tables take polynomial-time routes: `seidel_numbers` runs the
Seidel boustrophedon for E_0..E_n, `springer_numbers` applies D + UDU at
q = 1 to integer coefficient lists in t, since S_n = Q_n(1,1), and
`q_euler_numbers` reads E_0(q)..E_n(q) off one S-fraction per parity.  The
brute-force oracles enumerate: `count_alternating` permutations, for the
tests, and `springer_number` snakes, for the checks.

`euler_number`, `springer_number`, `q_euler`, `Q_poly`, `R_poly` and
`_qr_rows` are memoized; the table functions (`seidel_numbers`,
`springer_numbers`, `q_euler_numbers`, `qr_series`) and `count_alternating`
recompute on each call.  Everything here is pure, and no caller mutates a
cached value, so it is safe for concurrent readers.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from snakelab import snakes
from snakelab.algebra import (
    ONE,
    Q,
    T,
    CoefficientSchedule,
    Poly,
    Rows,
    _poly,
    _step,
    jfraction_series,
    q_int,
    sfraction_series,
)


def count_alternating(n: int) -> int:
    """Brute-force count of alternating permutations of [n]; an oracle for
    checking `seidel_numbers`, exponential in n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return sum(1 for p in itertools.permutations(range(1, n + 1)) if snakes._zigzag((0, *p)))


def seidel_numbers(n_max: int) -> list[int]:
    """E_0..E_n_max by the boustrophedon recurrence
    T(m,k) = T(m,k-1) + T(m-1,m-k) with T(0,0) = 1, T(m,0) = 0."""
    if n_max < 0:
        raise ValueError("n must be >= 0")
    out = [1]
    row = [1]
    for m in range(1, n_max + 1):
        new = [0]
        for k in range(1, m + 1):
            new.append(new[k - 1] + row[m - k])
        row = new
        out.append(row[-1])
    return out


@lru_cache(maxsize=None)
def euler_number(n: int) -> int:
    """The zigzag number E_n (1, 1, 1, 2, 5, 16, 61, ...)."""
    return seidel_numbers(n)[n]


@lru_cache(maxsize=None)
def springer_number(n: int) -> int:
    """S_n: the number of snakes of size n with positive first entry,
    counted one by one over their raw windows; an oracle for checking
    `springer_numbers` and Q_n(1,1), exponential in n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return sum(1 for _ in snakes._windows(n, "S0"))


def springer_numbers(n_max: int) -> list[int]:
    """S_0..S_n_max as Q_n(1,1): (D + UDU)^n 1 at q = 1, where D is d/dt and
    U is multiplication by t, on integer coefficient lists in t."""
    if n_max < 0:
        raise ValueError("n must be >= 0")
    out = [1]
    row = [1]  # row[k] = coefficient of t^k in Q_m(t,1)
    for _ in range(n_max):
        new = [0] * (len(row) + 1)
        for k, c in enumerate(row):
            if k:
                new[k - 1] += k * c
            new[k + 1] += (k + 1) * c
        row = new
        out.append(sum(row))
    return out


def _secant_weight(h: int) -> Poly:
    return q_int(h) ** 2


def _tangent_weight(h: int) -> Poly:
    return q_int(h) * q_int(h + 1)


@lru_cache(maxsize=None)
def q_euler(n: int) -> Poly:
    """The q-analog E_n(q), entry n of `q_euler_numbers`."""
    return q_euler_numbers(n)[n]


def q_euler_numbers(n_max: int) -> list[Poly]:
    """E_0(q)..E_n_max(q) from one S-fraction pass per parity: E_n(q) is
    entry n//2 of the secant series (n even) or the tangent series (n odd)."""
    if n_max < 0:
        raise ValueError("n must be >= 0")
    secant = sfraction_series(_secant_weight, n_max // 2)
    tangent = sfraction_series(_tangent_weight, (n_max - 1) // 2) if n_max else []
    return [tangent[n // 2] if n % 2 else secant[n // 2] for n in range(n_max + 1)]


@lru_cache(maxsize=None)
def _qr_rows(shift: int, n: int) -> Rows:
    """The t-rows of Q_n (shift 1) or R_n (shift 2), one `_step` from those
    of n-1.  Every caller shares them, so none may mutate them."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _step(_qr_rows(shift, n - 1), shift) if n else {(0, 0): [0, [1]]}


@lru_cache(maxsize=None)
def Q_poly(n: int) -> Poly:
    """Q_n(t,q) = (D + UDU)^n applied to 1."""
    return _poly(_qr_rows(1, n))


@lru_cache(maxsize=None)
def R_poly(n: int) -> Poly:
    """R_n(t,q) = (D + DUU)^n applied to 1."""
    return _poly(_qr_rows(2, n))


def q_fraction_schedule() -> CoefficientSchedule:
    """J-fraction schedule whose series coefficients are the Q_n:
    mu_h = t q^h ([h] + [h+1]),  lam_h = (1 + t^2 q^(2h-1)) [h]^2."""
    return CoefficientSchedule(
        mu=lambda h: T * Poly.monomial(eq=h) * (q_int(h) + q_int(h + 1)),
        lam=lambda h: (ONE + T ** 2 * Poly.monomial(eq=2 * h - 1)) * q_int(h) ** 2,
    )


def r_fraction_schedule() -> CoefficientSchedule:
    """J-fraction schedule whose series coefficients are the R_n:
    mu_h = t q^h (1+q) [h+1],  lam_h = (1 + t^2 q^(2h)) [h] [h+1]."""
    return CoefficientSchedule(
        mu=lambda h: T * Poly.monomial(eq=h) * (ONE + Q) * q_int(h + 1),
        lam=lambda h: (ONE + T ** 2 * Poly.monomial(eq=2 * h))
        * q_int(h)
        * q_int(h + 1),
    )


def qr_series(kind: str, n_max: int) -> list[Poly]:
    """Q_0..Q_n or R_0..R_n via the continued-fraction route."""
    if kind == "Q":
        return jfraction_series(q_fraction_schedule(), n_max)
    if kind == "R":
        return jfraction_series(r_fraction_schedule(), n_max)
    raise ValueError(f"kind must be 'Q' or 'R', got {kind!r}")
