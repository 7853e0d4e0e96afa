"""Laurent-polynomial arithmetic, operator algebra and continued fractions."""

import copy

import pytest
from hypothesis import example, given, strategies as st

from snakelab import algebra, cli
from snakelab.algebra import (
    ONE,
    Q,
    T,
    Y,
    ZERO,
    CoefficientSchedule,
    Monomial,
    Poly,
    _poly,
    _step,
    _text,
    _tq_rows,
    jfraction_series,
    q_derivative,
    q_int,
    sfraction_series,
    u_multiply,
)
from snakelab.eulerians import Q_poly, R_poly, _qr_rows, q_fraction_schedule, r_fraction_schedule
from snakelab.permstats import corteel_schedule

Q2 = ONE + (ONE + Q) * T ** 2  # 1 + (1+q)t^2


def coefficient(p: Poly, ey: int, et: int, eq: int) -> int:
    """The coefficient of y^ey t^et q^eq in p."""
    return p.terms.get((ey, et, eq), 0)


def _step_poly(p: Poly, shift: int) -> Poly:
    """D p + U^(2-shift) D U^shift p through the rows step of Q_n and R_n."""
    return _poly(_step(_tq_rows(p), shift))


def _from_quadruples(rows) -> Poly:
    """The Poly with coefficient c at (ey, et, eq) for each [c, ey, et, eq],
    repeated keys summed."""
    acc = {}
    for c, ey, et, eq in rows:
        acc[ey, et, eq] = acc.get((ey, et, eq), 0) + c
    return Poly(acc)


polys = st.builds(
    _from_quadruples,
    st.lists(
        st.tuples(
            st.integers(-5, 5),
            st.integers(0, 3),
            st.integers(0, 3),
            st.integers(-2, 3),
        ),
        max_size=6,
    ),
)

# wide enough for windows of width up to 12 and q-rows with gaps
tq_polys = st.builds(
    _from_quadruples,
    st.lists(
        st.tuples(
            st.integers(-50, 50),
            st.integers(0, 3),
            st.integers(0, 12),
            st.integers(-6, 12),
        ),
        max_size=12,
    ),
)


def _q_derivative_reference(p: Poly) -> Poly:
    """Schoolbook D: expand each t^et q^eq into its et terms, O(terms * et)."""
    if any(ey for (ey, _, _) in p.terms):
        raise ValueError("operator domain is t,q polynomials")
    acc = {}
    for (_, et, eq), c in p.terms.items():
        for k in range(et):
            key = (0, et - 1, eq + k)
            acc[key] = acc.get(key, 0) + c
    return Poly(acc)


def _jfraction_reference(schedule: CoefficientSchedule, n_max: int) -> list[Poly]:
    """Per-edge J-fraction: two Poly operations for each edge of the path sum."""
    mu = [schedule.mu(h) for h in range(n_max + 1)]
    lam = [ZERO] + [schedule.lam(h) for h in range(1, n_max + 1)]
    out = []
    state = {0: ONE}
    for step in range(n_max + 1):
        out.append(state.get(0, ZERO))
        new = {}
        for h, w in state.items():
            if h <= n_max - step - 1:
                new[h] = new.get(h, ZERO) + w * mu[h]
                new[h + 1] = new.get(h + 1, ZERO) + w
            if h >= 1:
                new[h - 1] = new.get(h - 1, ZERO) + w * lam[h]
        state = new
    return out


def _sfraction_reference(a, n_max: int) -> list[Poly]:
    """Per-edge S-fraction over Dyck paths, as `_jfraction_reference`."""
    weights = [ZERO] + [a(h) for h in range(1, 2 * n_max + 1)]
    out = []
    state = {0: ONE}
    for step in range(2 * n_max + 1):
        if step % 2 == 0:
            out.append(state.get(0, ZERO))
        new = {}
        for h, w in state.items():
            if h <= 2 * n_max - step - 2:
                new[h + 1] = new.get(h + 1, ZERO) + w
            if h >= 1:
                new[h - 1] = new.get(h - 1, ZERO) + w * weights[h]
        state = new
    return out


# coefficients at the edges of 8- and 64-bit slots, +-(2^k - 1) and +-2^k
_SLOT_EDGES = [sign * (2 ** k - d) for k in (7, 8, 63, 64) for d in (0, 1) for sign in (1, -1)]

# fraction weights: y terms, negative coefficients, coefficients at slot
# edges, Laurent q exponents and ZERO at some heights
fraction_weights = st.one_of(
    st.just(ZERO),
    st.builds(
        _from_quadruples,
        st.lists(
            st.tuples(
                st.one_of(st.integers(-3, 3), st.sampled_from(_SLOT_EDGES)),
                st.integers(0, 2),
                st.integers(0, 2),
                st.integers(-3, 4),
            ),
            min_size=1,
            max_size=4,
        ),
    ),
)


@st.composite
def schedules(draw):
    """(mu list, lam list, n_max) with n_max from 0 to 8."""
    n_max = draw(st.integers(0, 8))
    mu = draw(st.lists(fraction_weights, min_size=n_max + 1, max_size=n_max + 1))
    lam = draw(st.lists(fraction_weights, min_size=n_max + 1, max_size=n_max + 1))
    return mu, lam, n_max


def _str_reference(p: Poly) -> str:
    """Term-by-term printer: each monomial's y/t/q text built anew."""
    if not p.terms:
        return "0"
    out = []
    for n, key in enumerate(sorted(p.terms)):
        c = p.terms[key]
        body = "*".join(name if e == 1 else f"{name}^{e}"
                        for name, e in zip("ytq", key) if e)
        mag = abs(c)
        if not body:
            txt = str(mag)
        elif mag == 1:
            txt = body
        else:
            txt = f"{mag}*{body}"
        if n == 0:
            out.append(f"-{txt}" if c < 0 else txt)
        else:
            out.append(f"{'-' if c < 0 else '+'} {txt}")
    return " ".join(out)


# D f + U^(2-shift) D U^shift f, composed from the separate operators
_STEP_REFERENCE = {
    1: lambda f: q_derivative(f) + u_multiply(q_derivative(u_multiply(f))),
    2: lambda f: q_derivative(f) + q_derivative(u_multiply(u_multiply(f))),
}


class TestRingOps:
    def test_additive_inverse(self):
        assert T + (-T) == ZERO
        assert not (T - T)

    def test_additive_identity(self):
        assert Q2 + ZERO == Q2

    def test_add_golden(self):
        assert Q2 + ONE * ZERO == Q2
        assert str(Q2) == "1 + t^2 + t^2*q"

    def test_mul_monomials(self):
        assert T * T == T ** 2
        assert (ONE + Q) * T * T == _from_quadruples([[1, 0, 2, 0], [1, 0, 2, 1]])

    def test_laurent_cancellation(self):
        qinv = Poly.monomial(eq=-1)
        assert qinv * Q == ONE

    def test_int_coercion(self):
        assert 2 * T + T == 3 * T
        assert T - 1 == -(1 - T)
        assert coefficient(Q2, 0, 2, 1) == 1

    @given(polys, polys, polys)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    def test_negative_y_exponent_rejected(self):
        with pytest.raises(ValueError):
            Poly({(-1, 0, 0): 1})

    def test_negative_t_exponent_rejected(self):
        with pytest.raises(ValueError, match="negative exponent"):
            Poly({(0, -2, 1): 3})

    def test_zero_coefficients_dropped(self):
        p = Poly({(0, 1, 0): 0, (1, 0, -1): 2, (0, -1, 0): 0})
        assert p.terms == {(1, 0, -1): 2}

    def test_malformed_key_rejected(self):
        with pytest.raises(ValueError):
            Poly({(0, 1): 1})


class TestSubstitution:
    def test_q2_at_one_one(self):
        assert Q2.subst("t", 1).subst("q", 1).as_int() == 3

    def test_r2_at_one_one(self):
        r2 = (ONE + Q) + (ONE + 2 * Q + 2 * Q ** 2 + Q ** 3) * T ** 2
        assert r2(t=1, q=1).as_int() == 8

    def test_constant_term(self):
        assert Q2.subst("t", 0) == ONE

    def test_coefficient_sum_preserved(self):
        # total coefficient mass equals evaluation at y=t=q=1
        p = Q2 * (Y + T) + Poly.monomial(3, 1, 2, -1)
        total = sum(p.terms.values())
        assert p(y=1, t=1, q=1).as_int() == total

    def test_negative_exponent_needs_monomial(self):
        p = Poly.monomial(eq=-2)
        assert p.subst("q", 1) == ONE
        assert p.subst("q", -Q) == Poly.monomial(eq=-2)
        with pytest.raises(ValueError, match="non-invertible substitution"):
            p.subst("q", ONE + Q)

    def test_subst_polynomial_value(self):
        assert (T ** 2).subst("t", ONE + Q) == (ONE + Q) ** 2

    @given(
        polys,
        st.sampled_from("ytq"),
        st.one_of(
            st.integers(-2, 2),
            st.builds(lambda c, k: Poly.monomial(c, eq=k), st.sampled_from((1, -1)), st.integers(-3, 3)),
            st.sampled_from((-T, ONE + Q)),
        ),
    )
    @example(Poly.monomial(eq=-1), "q", ONE + Q)
    def test_subst_matches_per_term_sum(self, p, var, value):
        # the reference substitutes term by term: c * base * value^e, with
        # value^e for e < 0 defined only for a unit monomial +-q^k
        idx = "ytq".index(var)
        v = Poly.constant(value) if isinstance(value, int) else value
        unit = next(((c, k) for c in (1, -1) for k in range(-3, 4) if v == Poly.monomial(c, eq=k)), None)
        want = ZERO
        for key, coeff in p.terms.items():
            e = key[idx]
            base = Poly({tuple(0 if i == idx else x for i, x in enumerate(key)): coeff})
            if e >= 0:
                want = want + base * v ** e
            elif unit:
                c, k = unit
                want = want + base * Poly.monomial(c ** -e, eq=k * e)
            else:
                with pytest.raises(ValueError, match="non-invertible substitution"):
                    p.subst(var, value)
                return
        assert p.subst(var, value) == want


class TestOperators:
    def test_derivative_of_t(self):
        assert q_derivative(T) == ONE

    def test_derivative_golden(self):
        assert q_derivative(T ** 3) == (ONE + Q + Q ** 2) * T ** 2

    def test_derivative_of_constant(self):
        assert q_derivative(ONE) == ZERO

    def test_u_examples(self):
        assert u_multiply(ONE) == T
        assert u_multiply(q_derivative(T)) == T

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="t,q polynomials"):
            q_derivative(Y)
        with pytest.raises(ValueError, match="t,q polynomials"):
            q_derivative(T ** 3 + Y * Q)
        with pytest.raises(ValueError, match="t,q polynomials"):
            u_multiply(Y * T)

    @pytest.mark.parametrize("k", range(13))
    def test_commutation_on_basis(self, k):
        # DU - qUD = 1 applied to t^k
        p = T ** k
        lhs = q_derivative(u_multiply(p)) - Q * u_multiply(q_derivative(p))
        assert lhs == p

    def test_derivative_laurent(self):
        # D(t^5 q^-3) = [5]_q t^4 q^-3
        got = q_derivative(Poly.monomial(et=5, eq=-3))
        assert got == q_int(5) * Poly.monomial(et=4, eq=-3)

    @pytest.mark.parametrize("n", range(16))
    @pytest.mark.parametrize("k", range(3))
    def test_derivative_matches_reference_on_q_r(self, n, k):
        for f in (Q_poly(n), R_poly(n)):
            for _ in range(k):
                f = u_multiply(f)
            assert q_derivative(f) == _q_derivative_reference(f)

    @given(tq_polys)
    def test_derivative_matches_reference(self, p):
        f = p.subst("y", 1)
        assert q_derivative(f) == _q_derivative_reference(f)

    @pytest.mark.parametrize("n", range(16))
    @pytest.mark.parametrize("shift", (1, 2))
    def test_operator_step_matches_composition_on_q_r(self, n, shift):
        for f in (Q_poly(n), R_poly(n)):
            assert _step_poly(f, shift) == _STEP_REFERENCE[shift](f)

    @given(tq_polys, st.sampled_from((1, 2)))
    def test_operator_step_matches_composition(self, p, shift):
        f = p.subst("y", 1)
        assert _step_poly(f, shift) == _STEP_REFERENCE[shift](f)

    def test_operator_step_domain_error(self):
        for shift in (1, 2):
            with pytest.raises(ValueError, match="t,q polynomials"):
                _step_poly(T ** 3 + Y * Q, shift)
            with pytest.raises(ValueError, match="t,q polynomials"):
                _step_poly(Y, shift)

    def test_operator_step_first_rows(self):
        assert _step_poly(ONE, 1) == T
        assert _step_poly(T, 1) == ONE + (ONE + Q) * T ** 2
        assert _step_poly(ONE, 2) == (ONE + Q) * T
        assert _step_poly(ZERO, 1) == ZERO

    @given(tq_polys)
    def test_derivative_matches_difference_quotient(self, p):
        # (q-1)*t*D(f) == f(qt) - f(t) on the t,q subring
        f = p.subst("y", 1)
        lhs = (Q - 1) * T * q_derivative(f)
        assert lhs == f.subst("t", Q * T) - f


class TestContinuedFractions:
    def test_jfraction_q_schedule(self):
        mu = lambda h: T * Poly.monomial(eq=h) * (q_int(h) + q_int(h + 1))
        lam = lambda h: (ONE + T ** 2 * Poly.monomial(eq=2 * h - 1)) * q_int(h) ** 2
        out = jfraction_series(CoefficientSchedule(mu, lam), 2)
        assert out == [ONE, T, Q2]

    def test_jfraction_r_schedule(self):
        mu = lambda h: T * Poly.monomial(eq=h) * (ONE + Q) * q_int(h + 1)
        lam = lambda h: (ONE + T ** 2 * Poly.monomial(eq=2 * h)) * q_int(h) * q_int(h + 1)
        out = jfraction_series(CoefficientSchedule(mu, lam), 1)
        assert out == [ONE, (ONE + Q) * T]

    def test_jfraction_zero_schedule(self):
        out = jfraction_series(CoefficientSchedule(lambda h: ZERO, lambda h: ZERO), 4)
        assert out == [ONE, ZERO, ZERO, ZERO, ZERO]

    def test_sfraction_q_secant(self):
        # c_2 = [1]^4 + [1]^2 [2]^2 = 1 + (1+q)^2
        out = sfraction_series(lambda h: q_int(h) ** 2, 2)
        assert out == [ONE, ONE, ONE + (ONE + Q) ** 2]

    def test_sfraction_q_tangent(self):
        out = sfraction_series(lambda h: q_int(h) * q_int(h + 1), 1)
        assert out == [ONE, ONE + Q]

    def test_sfraction_zero(self):
        assert sfraction_series(lambda h: ZERO, 3) == [ONE, ZERO, ZERO, ZERO]

    # negative coefficients, and a lower q exponent arriving after a higher one
    @example(([Q ** 2 - 2 * Y * Poly.monomial(eq=-1)] * 4, [T * Poly.monomial(eq=-2) - 3] * 4, 3))
    @given(schedules())
    def test_jfraction_matches_reference(self, drawn):
        mu, lam, n_max = drawn
        schedule = CoefficientSchedule(mu.__getitem__, lam.__getitem__)
        assert jfraction_series(schedule, n_max) == _jfraction_reference(schedule, n_max)

    @given(schedules())
    def test_sfraction_matches_reference(self, drawn):
        mu, lam, n_max = drawn
        a = mu + lam  # a(h) for h up to 2 * n_max + 1
        assert sfraction_series(a.__getitem__, n_max) == _sfraction_reference(a.__getitem__, n_max)

    def test_weights_are_read_up_to_half_the_length(self):
        # a path of length 7 can return to height 0 only from heights <= 3
        read = []
        schedule = CoefficientSchedule(lambda h: read.append(h) or T + q_int(h),
                                       lambda h: read.append(h) or Y * q_int(h) - 3)
        got = jfraction_series(schedule, 7)
        assert sorted(read) == [0, 1, 1, 2, 2, 3, 3]
        assert got == _jfraction_reference(schedule, 7)

    def test_narrowed_slots_lose_carries(self, monkeypatch):
        # mu = 2^64 - 1 + q puts nearly all of the coefficient bound on q^0,
        # so slots one byte narrower than _slot_bits gives must carry wrongly
        real = algebra._slot_bits
        monkeypatch.setattr(algebra, "_slot_bits", lambda *args: real(*args) - 8)
        schedule = CoefficientSchedule(lambda h: 2 ** 64 - 1 + Q, lambda h: 2 ** 63 * T)
        assert jfraction_series(schedule, 12) != _jfraction_reference(schedule, 12)

    @pytest.mark.parametrize("make", [q_fraction_schedule, r_fraction_schedule, corteel_schedule])
    def test_jfraction_matches_reference_on_paper_schedules(self, make):
        assert jfraction_series(make(), 12) == _jfraction_reference(make(), 12)

    @pytest.mark.parametrize("a", [lambda h: q_int(h) ** 2, lambda h: q_int(h) * q_int(h + 1)],
                             ids=["secant", "tangent"])
    def test_sfraction_matches_reference_on_q_euler_weights(self, a):
        assert sfraction_series(a, 12) == _sfraction_reference(a, 12)

    def test_sfraction_contraction_matches_jfraction(self):
        # the S-fraction with weights a_h equals the J-fraction with
        # mu_0 = a_1, mu_h = a_{2h} + a_{2h+1}, lam_h = a_{2h-1} a_{2h}
        a = lambda h: q_int(h) ** 2
        mu = lambda h: a(1) if h == 0 else a(2 * h) + a(2 * h + 1)
        lam = lambda h: a(2 * h - 1) * a(2 * h)
        assert sfraction_series(a, 5) == jfraction_series(
            CoefficientSchedule(mu, lam), 5
        )


class TestSerialization:
    def test_zero(self):
        assert str(ZERO) == "0"

    def test_signed_terms(self):
        assert str(-ONE + T) == "-1 + t"
        assert str(T - 2 * T ** 3) == "t - 2*t^3"

    def test_canonical_order(self):
        assert str(Y * T + Y ** 2) == "y*t + y^2"

    def test_negative_q_exponent(self):
        assert str(Poly.monomial(-1, 0, 1, -2)) == "-t*q^-2"

    @pytest.mark.parametrize("p", [
        ZERO, ONE, -ONE, 7 * ONE, -7 * ONE,
        T, -T, Y, -Y, Q, -Q, Q ** 2, -(Q ** 2),
        Poly.monomial(eq=-1), Poly.monomial(-1, eq=-3), Poly.monomial(3, 0, 2, -4),
        -ONE + T, -T + Q, -3 * Y * T + Q - 1, -(Q2 * (Y + T)),
        Poly.monomial(-1, 2, 1, 1) + Poly.monomial(5, 2, 1, -1) - Y * T,
    ])
    def test_printer_matches_reference_edge_cases(self, p):
        assert str(p) == _str_reference(p)

    @given(polys)
    def test_printer_matches_reference(self, p):
        assert str(p) == _str_reference(p)

    @pytest.mark.parametrize("n", (0, 1, 7, 15))
    def test_printer_matches_reference_on_q_r(self, n):
        for p in (Q_poly(n), R_poly(n), Y ** 2 * Q_poly(n) - R_poly(n)):
            assert str(p) == _str_reference(p)

    def test_quadruples_roundtrip(self):
        p = Q2 * Y - Poly.monomial(2, 0, 0, -1)
        rows = [[p.terms[key], *key] for key in sorted(p.terms)]
        assert rows == sorted(rows, key=lambda r: (r[1], r[2], r[3]))
        assert _from_quadruples(rows) == p

    def test_from_quadruples_sums_repeats(self):
        rows = [[1, 0, 1, 0], [2, 0, 1, 0], [4, 1, 0, -1], [-4, 1, 0, -1]]
        assert _from_quadruples(rows) == 3 * T

    def test_monomial_text(self):
        assert Monomial().text() == "1"
        assert Monomial(1, 0, 2, 4).text() == "t^2*q^4"
        assert Monomial(-1, 1, 1, 0).text() == "-y*t"
        assert Monomial(1, 2, 0, 0).text() == "y^2"

    def test_monomial_product(self):
        m = Monomial(1, 1, 1, 2) * Monomial(1, 1, 0, -3)
        assert m == Monomial(1, 2, 1, -1)


# rows as the kernel holds them: y rows, negative q exponents, +-1 and zero
# slots anywhere in a row, rows that are all zeros, and no rows at all
raw_rows = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 3)),
    st.tuples(st.integers(-4, 3), st.lists(st.integers(-3, 3), max_size=6)).map(list),
    max_size=4,
)


class TestRowCache:
    @example({})
    @example({(0, 1): [-2, [0, 0]], (1, 0): [0, []]})
    @example({(0, 0): [-1, [0, -1, 0, 1, 0]], (2, 3): [1, [1, 0, 0, -3]]})
    @given(raw_rows)
    def test_text_matches_reference(self, rows):
        before = copy.deepcopy(rows)
        assert _text(rows) == _str_reference(_poly(rows))
        assert rows == before

    @pytest.mark.parametrize("n", range(26))
    def test_row_value_matches_reference(self, n):
        assert cli._row_value("Q", n) == _str_reference(Q_poly(n))
        assert cli._row_value("R", n) == _str_reference(R_poly(n))

    @pytest.mark.parametrize("shift", (1, 2))
    def test_rows_match_composition(self, shift):
        f = ONE
        for n in range(13):
            assert _poly(_qr_rows(shift, n)) == f
            f = _STEP_REFERENCE[shift](f)

    def test_cached_rows_are_only_read(self):
        _qr_rows.cache_clear()  # so that step n+1 below reads the rows of n
        n = 9
        before = {shift: copy.deepcopy(_qr_rows(shift, n)) for shift in (1, 2)}
        routes = ((1, "Q", Q_poly), (2, "R", R_poly))
        texts = {obj: cli._row_value(obj, n) for _, obj, _ in routes}
        for shift, obj, poly in routes:
            assert str(poly(n)) == texts[obj]
            assert _step_poly(poly(n), shift) == poly(n + 1)
            assert cli._row_value(obj, n + 1) == str(poly(n + 1))
        for shift, obj, poly in routes:
            assert _qr_rows(shift, n) == before[shift]
            assert cli._row_value(obj, n) == texts[obj] == str(poly(n))

    def test_negative_n_rejected(self):
        for make in (Q_poly, R_poly, lambda n: cli._row_value("Q", n)):
            with pytest.raises(ValueError, match="n must be >= 0"):
                make(-1)
