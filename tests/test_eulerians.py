"""Euler and Springer numbers and the Q_n, R_n polynomial families."""

import pytest

from snakelab.algebra import ONE, Q, T, jfraction_series, q_int, sfraction_series
from snakelab.eulerians import (
    Q_poly,
    R_poly,
    count_alternating,
    euler_number,
    q_euler,
    q_euler_numbers,
    q_fraction_schedule,
    qr_series,
    r_fraction_schedule,
    seidel_numbers,
    springer_number,
    springer_numbers,
)


def t_exponents(poly):
    """The exponents of t that occur in a polynomial."""
    return {et for (_, et, _) in poly.terms}


EULER = [1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936]
SPRINGER = [1, 1, 3, 11, 57, 361, 2763, 24611, 250737]  # OEIS A001586


class TestEulerNumbers:
    def test_empty_permutation(self):
        assert euler_number(0) == 1

    def test_small_goldens(self):
        assert euler_number(4) == 5
        assert euler_number(5) == 16

    def test_known_values(self):
        assert [euler_number(n) for n in range(10)] == EULER

    def test_direct_count_agrees_with_seidel_on_overlap(self):
        seidel = seidel_numbers(9)
        for n in range(10):
            assert count_alternating(n) == seidel[n]

    def test_large_index_uses_recurrence(self):
        assert euler_number(12) == 2702765

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            euler_number(-1)


class TestSpringerNumbers:
    def test_goldens(self):
        assert springer_number(1) == 1
        assert springer_number(2) == 3
        assert springer_number(3) == 11

    def test_known_values(self):
        assert [springer_number(n) for n in range(7)] == SPRINGER[:7]

    @pytest.mark.parametrize("n", range(7))
    def test_q_poly_at_one_one(self, n):
        assert Q_poly(n)(t=1, q=1).as_int() == springer_number(n)

    def test_table_oeis_literal(self):
        assert springer_numbers(8) == SPRINGER

    def test_table_matches_snake_count(self):
        assert springer_numbers(7) == [springer_number(n) for n in range(8)]

    def test_table_matches_q_poly_at_one_one(self):
        assert springer_numbers(20) == [Q_poly(n)(t=1, q=1).as_int() for n in range(21)]

    @pytest.mark.parametrize("n", range(8))
    def test_r_poly_at_one_one(self, n):
        assert R_poly(n)(t=1, q=1).as_int() == 2 ** n * euler_number(n + 1)


class TestQEuler:
    def test_examples(self):
        assert q_euler(0) == ONE
        assert q_euler(2) == ONE
        assert q_euler(3) == ONE + Q

    @pytest.mark.parametrize("n", range(9))
    def test_specializes_to_euler_numbers(self, n):
        assert q_euler(n)(q=1).as_int() == euler_number(n)

    def test_table_matches_per_index_fractions(self):
        # each E_n(q) from its own S-fraction run to depth n//2
        want = []
        for n in range(21):
            m = n // 2
            if n % 2:
                want.append(sfraction_series(lambda h: q_int(h) * q_int(h + 1), m)[m])
            else:
                want.append(sfraction_series(lambda h: q_int(h) ** 2, m)[m])
        assert q_euler_numbers(20) == want

    def test_table_matches_per_index_q_euler_to_30(self):
        # the size `compute Eq` is benchmarked at
        assert q_euler_numbers(30) == [q_euler(n) for n in range(31)]

    @pytest.mark.parametrize("n_max", range(4))
    def test_short_tables(self, n_max):
        assert q_euler_numbers(n_max) == [q_euler(n) for n in range(n_max + 1)]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            q_euler_numbers(-1)


class TestQRPolynomials:
    def test_q_goldens(self):
        assert Q_poly(0) == ONE
        assert Q_poly(2) == ONE + (ONE + Q) * T ** 2
        assert Q_poly(3) == (2 + 2 * Q + Q ** 2) * T + (
            ONE + 2 * Q + 2 * Q ** 2 + Q ** 3
        ) * T ** 3

    def test_r_goldens(self):
        assert R_poly(0) == ONE
        assert R_poly(1) == (ONE + Q) * T
        assert R_poly(3) == (2 + 5 * Q + 5 * Q ** 2 + 3 * Q ** 3 + Q ** 4) * T + (
            ONE + 3 * Q + 5 * Q ** 2 + 6 * Q ** 3 + 5 * Q ** 4 + 3 * Q ** 5 + Q ** 6
        ) * T ** 3

    @pytest.mark.parametrize("n", range(9))
    def test_continued_fraction_route_q(self, n):
        assert jfraction_series(q_fraction_schedule(), n)[n] == Q_poly(n)

    @pytest.mark.parametrize("n", range(9))
    def test_continued_fraction_route_r(self, n):
        assert jfraction_series(r_fraction_schedule(), n)[n] == R_poly(n)

    def test_qr_series_helper(self):
        assert qr_series("Q", 3) == [Q_poly(n) for n in range(4)]
        assert qr_series("R", 3) == [R_poly(n) for n in range(4)]
        with pytest.raises(ValueError):
            qr_series("X", 1)

    @pytest.mark.parametrize("kind, poly", [("Q", Q_poly), ("R", R_poly)])
    def test_series_route_matches_operators_to_20(self, kind, poly):
        # the J-fraction kernel against the operator steps, at thm-1.2's
        # benchmarked ceiling
        assert qr_series(kind, 20) == [poly(n) for n in range(21)]

    @pytest.mark.parametrize("n", range(11))
    def test_t_exponent_parity(self, n):
        assert all(e % 2 == n % 2 for e in t_exponents(Q_poly(n)))
        assert all(e % 2 == n % 2 for e in t_exponents(R_poly(n)))

    @pytest.mark.parametrize("m", range(5))
    def test_q_even_at_t_zero_is_q_secant(self, m):
        assert Q_poly(2 * m).subst("t", 0) == q_euler(2 * m)

    @pytest.mark.parametrize("m", range(5))
    def test_r_at_t_zero_corrected_identity(self, m):
        # odd-index R vanishes at t=0 (it has only odd powers of t);
        # the odd q-tangent values appear at the even indices instead
        assert R_poly(2 * m + 1).subst("t", 0) == 0
        assert R_poly(2 * m).subst("t", 0) == q_euler(2 * m + 1)

    def test_naive_odd_index_identification_fails(self):
        # R_(2m+1)(0,q) = E_(2m+1)(q) is false for every m (the right-hand
        # side is nonzero); the corrected pairing is tested above
        for m in range(4):
            assert R_poly(2 * m + 1).subst("t", 0) != q_euler(2 * m + 1)
