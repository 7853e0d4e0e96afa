"""Signed permutation generation, statistics, and signed enumerators."""

import itertools
import math
from collections import Counter

import pytest

from snakelab.algebra import ONE, Poly, Q, T, Y, jfraction_series, q_int
from snakelab.permstats import (
    FAMILIES,
    SCHEMES,
    _radix,
    _table,
    _walk,
    corteel_schedule,
    cro_b,
    family_table,
    gamma_coeffs,
    generate,
    signed_enumerator,
    stats,
    xi_coeffs,
)


def _cro_b_reference(window):
    """Crossings of a signed permutation as defined: ordered pairs (i, j)
    with i < j <= s_i < s_j, or -i < j <= -s_i < s_j, or i > j > s_i > s_j."""
    n = len(window)
    total = 0
    for i in range(1, n + 1):
        si = window[i - 1]
        for j in range(1, n + 1):
            sj = window[j - 1]
            total += (i < j <= si < sj) + (-i < j <= -si < sj) + (i > j > si > sj)
    return total


def _cro_type_a_reference(window):
    """Crossings of a permutation: pairs i < j with i < j <= s_i < s_j or
    s_i < s_j < i < j."""
    n = len(window)
    total = 0
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            si, sj = window[i - 1], window[j - 1]
            if i < j <= si < sj or si < sj < i < j:
                total += 1
    return total


def _signed_enumerator_reference(n, family, scheme):
    """The per-window loop that `signed_enumerator` replaced by table
    projections: one `stats` call per window of the family."""
    acc = {}

    def add(key, c):
        acc[key] = acc.get(key, 0) + c

    for window in generate(n, family):
        if scheme == "EULER_EXC":
            exc = sum(1 for i, v in enumerate(window, start=1) if v > i)
            add((0, 0, 0), -1 if exc % 2 else 1)
            continue
        if scheme in ("JV_WEX_CRO", "JV_DERANGE"):
            wex = sum(1 for i, v in enumerate(window, start=1) if v >= i)
            cro = _cro_type_a_reference(window)
            sign = -1 if wex % 2 else 1
            shift = -wex if scheme == "JV_DERANGE" else 0
            add((0, 0, cro + shift), sign)
            continue
        s = stats(window)
        cro = _cro_b_reference(window)
        half = s.fwex // 2
        if scheme == "FWEX_SIGN":
            add((0, s.neg, cro), -1 if half % 2 else 1)
        elif scheme == "FWEX_SIGN_Q":
            add((0, s.neg, cro - half), -1 if half % 2 else 1)
        else:  # FULL_YTQ
            add((s.fwex, s.neg, cro), 1)
    return Poly(acc)


_TYPE_A_SCHEMES = ("EULER_EXC", "JV_WEX_CRO", "JV_DERANGE")
_PAIRS = [
    (family, scheme)
    for family in FAMILIES
    for scheme in SCHEMES
    if (family in ("A", "A*")) == (scheme in _TYPE_A_SCHEMES)
]


def _generate_reference(n, family):
    """Every sign vector over every permutation, filtered per family."""
    for absperm in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            window = tuple(s * a for s, a in zip(signs, absperm))
            if family in ("A", "A*") and -1 in signs:
                continue
            if family.startswith("D") and signs.count(-1) % 2:
                continue
            if family.endswith("*") and any(v == i for i, v in enumerate(window, start=1)):
                continue
            yield window


class TestGenerate:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_filtered_product(self, family):
        for n in range(6):
            assert list(generate(n, family)) == list(_generate_reference(n, family))

    def test_b1(self):
        assert set(generate(1, "B")) == {(1,), (-1,)}

    def test_d2(self):
        # direct filter: keep even number of negative entries
        assert set(generate(2, "D")) == {(1, 2), (2, 1), (-1, -2), (-2, -1)}

    def test_bstar1(self):
        assert set(generate(1, "B*")) == {(-1,)}

    @pytest.mark.parametrize("n", range(5))
    def test_family_sizes(self, n):
        assert sum(1 for _ in generate(n, "A")) == math.factorial(n)
        assert sum(1 for _ in generate(n, "B")) == 2 ** n * math.factorial(n)
        expected_d = 2 ** (n - 1) * math.factorial(n) if n >= 1 else 1
        assert sum(1 for _ in generate(n, "D")) == expected_d

    def test_derangement_counts(self):
        # type A derangement numbers 1, 0, 1, 2, 9, 44
        got = [sum(1 for _ in generate(n, "A*")) for n in range(6)]
        assert got == [1, 0, 1, 2, 9, 44]

    def test_each_member_once(self):
        for fam in ("B", "D", "B*", "D*"):
            members = list(generate(3, fam))
            assert len(members) == len(set(members))

    def test_n0_families(self):
        # the empty window belongs to every family (zero negatives is even,
        # no fixed points)
        for fam in ("A", "A*", "B", "D", "B*", "D*"):
            assert list(generate(0, fam)) == [()]

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            list(generate(2, "C"))

    def test_deterministic_order(self):
        assert list(generate(2, "B"))[:4] == [(1, 2), (1, -2), (-1, 2), (-1, -2)]


class TestStats:
    def test_cro_worked_example(self):
        assert stats((3, -4, -2, 5, 1)).cro_b == 5

    def test_worked_example_stats(self):
        s = stats((3, -4, -2, 5, 1))
        assert (s.wex, s.neg, s.fwex) == (2, 2, 6)

    def test_identity_window(self):
        n = 6
        s = stats(tuple(range(1, n + 1)))
        assert (s.wex, s.exc, s.cro_b, s.neg, s.fwex) == (n, 0, 0, 0, 2 * n)
        assert s.des_b == 0 and s.fixed_count == n

    def test_fwex_decomposition(self):
        for w in generate(4, "B"):
            s = stats(w)
            assert s.fwex == 2 * s.wex + s.neg
            assert s.exc <= s.wex

    def test_derangement_wex_is_exc(self):
        for w in generate(4, "B*"):
            s = stats(w)
            assert s.fixed_count == 0
            assert s.wex == s.exc
            assert s.fwex == 2 * s.exc + s.neg

    def test_des_b_counts_initial_descent(self):
        assert stats((-1,)).des_b == 1
        assert stats((1,)).des_b == 0
        assert stats((-1, -2)).des_b == 2


class TestCroB:
    @pytest.mark.parametrize("n", range(6))
    def test_each_pair_meets_at_most_one_condition(self, n):
        # cro_b sums the three crossing conditions; they must be exclusive
        for window in generate(n, "B"):
            for i, j in itertools.product(range(1, n + 1), repeat=2):
                si, sj = window[i - 1], window[j - 1]
                hits = (i < j <= si < sj) + (-i < j <= -si < sj) + (i > j > si > sj)
                assert hits <= 1, (window, i, j)

    @pytest.mark.parametrize("n", range(7))
    def test_matches_ordered_pair_reference(self, n):
        for window in generate(n, "B"):
            assert cro_b(window) == _cro_b_reference(window), window


class TestCroTypeA:
    def test_identity(self):
        assert cro_b((1, 2, 3)) == 0

    def test_golden_231(self):
        # pair (1,2): 1 < 2 <= 2 < 3
        assert cro_b((2, 3, 1)) == 1

    def test_reversal_n2(self):
        assert cro_b((2, 1)) == 0

    @pytest.mark.parametrize("n", range(8))
    def test_agrees_with_signed_crossings_on_positive_windows(self, n):
        # on A_n the signed crossings are the crossings of a permutation
        for window in generate(n, "A"):
            assert cro_b(window) == _cro_type_a_reference(window) == _cro_b_reference(window), window


class TestSignedEnumerators:
    def test_b1_fwex_sign(self):
        assert signed_enumerator(1, "B", "FWEX_SIGN") == -ONE + T

    def test_b2_full_ytq_golden(self):
        expected = (
            Y ** 4
            + (2 * T + T * Q) * Y ** 3
            + (T ** 2 * Q + T ** 2 + 1) * Y ** 2
            + T * Y
        )
        assert signed_enumerator(2, "B", "FULL_YTQ") == expected

    def test_d2_fwex_sign(self):
        assert signed_enumerator(2, "D", "FWEX_SIGN") == -(ONE + Q) * T ** 2

    def test_incompatible_scheme_family(self):
        with pytest.raises(ValueError):
            signed_enumerator(2, "B", "EULER_EXC")
        with pytest.raises(ValueError):
            signed_enumerator(2, "A", "FULL_YTQ")
        with pytest.raises(ValueError):
            signed_enumerator(2, "B", "NOPE")

    def test_euler_exc_small(self):
        # sum over all permutations of (-1)^exc: 0 for even n,
        # (-1)^((n-1)/2) E_n for odd n; E_1, E_3 = 1, 2
        assert signed_enumerator(1, "A", "EULER_EXC").as_int() == 1
        assert signed_enumerator(2, "A", "EULER_EXC").as_int() == 0
        assert signed_enumerator(3, "A", "EULER_EXC").as_int() == -2

    def test_jv_derange_n2(self):
        # single derangement (2,1): wex=1, cro=0 -> -q^-1
        assert signed_enumerator(2, "A*", "JV_DERANGE") == Poly.monomial(-1, 0, 0, -1)

    def test_corteel_fraction_matches_enumeration(self):
        series = jfraction_series(corteel_schedule(), 5)
        assert series == [signed_enumerator(n, "B", "FULL_YTQ") for n in range(6)]


class TestTables:
    @pytest.mark.parametrize("family, scheme", _PAIRS)
    def test_projection_matches_window_loop(self, family, scheme):
        top = 6 if family in ("A", "A*") else 5
        for n in range(top + 1):
            assert signed_enumerator(n, family, scheme) == _signed_enumerator_reference(
                n, family, scheme
            ), (n, family, scheme)

    def test_every_valid_pair_is_covered(self):
        assert len(_PAIRS) == 2 * 3 + 4 * 3

    @pytest.mark.parametrize("n, family", [
        (n, family) for family in FAMILIES for n in range(8 if family in ("A", "A*") else 7)
    ])
    def test_family_rows_match_window_stats(self, n, family):
        want = Counter()
        for w in generate(n, family):
            s = stats(w)
            want[s.fwex, s.neg, s.cro_b, s.des_b, s.fixed_count] += 1
        assert Counter(family_table(n, family)) == want

    @pytest.mark.parametrize("n", range(7))
    @pytest.mark.parametrize("unsigned, signed", [("A", "B"), ("A*", "B*")])
    def test_unsigned_walk_gives_the_positive_signed_rows(self, n, unsigned, signed):
        # the A rows come from `_cro_steps_a`, the B rows from `_cro_steps_b`
        positive = {k: c for k, c in family_table(n, signed).items() if k[1] == 0}
        assert family_table(n, unsigned) == positive

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            family_table(2, "C")

    @pytest.mark.parametrize("family", ["A", "B"])
    @pytest.mark.parametrize("n", range(7))
    def test_fields_fit_below_the_radix(self, n, family):
        # the packed keys of `_table` hold neg, cro_b, des_b and fixed_count
        # as digits below fwex; the bounds are the ones `_radix` rests on
        rows = [stats(w) for w in generate(n, family)]
        bounds = {"neg": n, "cro_b": n * (n - 1) // 2, "des_b": n, "fixed_count": n}
        for field, bound in bounds.items():
            top = max(getattr(row, field) for row in rows)
            assert top <= bound < _radix(n), (field, top)
        assert max(row.fwex for row in rows) <= 2 * n


def _pack(fields, n):
    """(fwex, neg, cro_b, des_b, fixed_count) as one int in `_radix(n)`, fwex
    the top digit and cro_b the unit digit."""
    fwex, neg, cro, des, fixed = fields
    r = _radix(n)
    return (((fwex * r + neg) * r + des) * r + fixed) * r + cro


class TestWalk:
    @pytest.mark.parametrize("signed, family", [(True, "B"), (False, "A")])
    @pytest.mark.parametrize("m", range(6))
    def test_yields_each_window_once_with_its_stats(self, m, signed, family):
        # `_table(n)` reads the windows of size n - 1 with keys in the radix of n
        for n in (m, m + 1, 7):
            records = list(_walk(m, n, signed))
            # the insertion order differs from generation order
            assert sorted(w for w, _ in records) == sorted(_generate_reference(m, family))
            for w, key in records:
                s = stats(w)
                assert key == _pack((s.fwex, s.neg, _cro_b_reference(w), s.des_b, s.fixed_count), n), (n, w)

    @pytest.mark.parametrize("signed", [True, False])
    @pytest.mark.parametrize("n", range(7))
    def test_table_counts_the_keys_the_walk_yields(self, n, signed):
        counted = Counter({_pack(fields, n): c for fields, c in _table(n, signed).items()})
        assert counted == Counter(key for _, key in _walk(n, n, signed))


class TestEquidistribution:
    @pytest.mark.parametrize("n", range(5))
    def test_des_b_vs_half_fwex(self, n):
        des = Counter(stats(w).des_b for w in generate(n, "B"))
        half = Counter(stats(w).fwex // 2 for w in generate(n, "B"))
        assert des == half


def _exc_poly(family_members):
    out = Counter()
    for w in family_members:
        out[sum(1 for i, v in enumerate(w, start=1) if v > i)] += 1
    return out


def _basis_expansion(coeffs, n, shift):
    # sum_i coeffs[i] x^i (1+x)^(n-shift-2i) as an exponent->int Counter
    out = Counter()
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        for k in range(n - shift - 2 * i + 1):
            out[i + k] += c * math.comb(n - shift - 2 * i, k)
    return +out


class TestGammaXi:
    def test_gamma_goldens(self):
        assert gamma_coeffs(1) == [1]
        assert gamma_coeffs(2) == [1]
        assert gamma_coeffs(3) == [1, 2]
        # A_4(x) = 1 + 11x + 11x^2 + x^3 forces gamma = [1, 8]
        assert gamma_coeffs(4) == [1, 8]

    def test_xi_goldens(self):
        assert xi_coeffs(0) == [1]
        assert xi_coeffs(1) == [0]
        assert xi_coeffs(2) == [0, 1]
        # by hand: only 4321 has one all->=2 run; five ways to get two runs
        assert xi_coeffs(4) == [0, 1, 5]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_gamma_expansion_identity(self, n):
        lhs = _exc_poly(generate(n, "A"))
        assert lhs == _basis_expansion(gamma_coeffs(n), n, shift=1)

    @pytest.mark.parametrize("n", range(8))
    def test_xi_expansion_identity(self, n):
        lhs = _exc_poly(generate(n, "A*"))
        assert lhs == +_basis_expansion(xi_coeffs(n), n, shift=0)
