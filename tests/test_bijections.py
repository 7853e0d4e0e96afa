"""The two-to-one restructuring map and the two sign-reversing involutions."""

from collections import defaultdict

import pytest

from snakelab import bijections, checks, motzkin
from snakelab.algebra import Monomial, Poly, T, Y
from snakelab.bijections import (
    HEAD_Y2,
    HEAD_YT,
    is_fixed_f,
    is_fixed_g,
    phi,
    phi_inverse,
    psi1,
    psi2,
)
from snakelab.eulerians import Q_poly, R_poly
from snakelab.motzkin import EMPTY_PATH, WeightedPath, gen_weighted, rho


def mono(ey=0, et=0, eq=0):
    return Monomial(1, ey, et, eq)


def path(*pairs):
    return WeightedPath(tuple(s for s, _ in pairs), tuple(w for _, w in pairs))


W_ANY = mono(ey=1, et=1)  # a weight valid on any level step of scheme M


class TestPhi:
    def test_level_level_y2head(self):
        head, out = phi(path(("L", mono(ey=2)), ("L", W_ANY)))
        assert head == HEAD_Y2
        assert out == path(("W", W_ANY))

    def test_level_level_ythead(self):
        head, out = phi(path(("L", mono(ey=1, et=1)), ("L", W_ANY)))
        assert head == HEAD_YT
        assert out == path(("W", W_ANY))

    def test_rise_fall(self):
        head, out = phi(path(("U", mono(ey=2)), ("D", mono())))
        assert head == HEAD_Y2
        assert out == path(("L", mono()))

    def test_phi_inverse_examples(self):
        assert phi_inverse(HEAD_Y2, path(("W", W_ANY))) == path(
            ("L", mono(ey=2)), ("L", W_ANY)
        )
        assert phi_inverse(HEAD_YT, EMPTY_PATH) == path(("L", mono(ey=1, et=1)))
        assert phi_inverse(HEAD_Y2, EMPTY_PATH) == path(("L", mono(ey=2)))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            phi(path(("L", mono())))  # weight 1 not in scheme M
        with pytest.raises(ValueError):
            phi_inverse(mono(), EMPTY_PATH)
        with pytest.raises(ValueError):
            phi(EMPTY_PATH)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_two_to_one_cover(self, n):
        heads_seen = defaultdict(list)
        for p in gen_weighted("M", n):
            head, out = phi(p)
            # weight preservation
            assert head * out.weight() == p.weight()
            heads_seen[out].append(head)
            # round trip
            assert phi_inverse(head, out) == p
        assert set(heads_seen) == set(gen_weighted("H", n - 1))
        assert all(sorted(v, key=str) == sorted([HEAD_Y2, HEAD_YT], key=str)
                   for v in heads_seen.values())

    @pytest.mark.parametrize("n", range(1, 6))
    def test_rho_factorization(self, n):
        assert rho("M", n) == (Y ** 2 + Y * T) * rho("H", n - 1)


class TestPsi1:
    def test_level_toggle(self):
        assert psi1(path(("L", mono()))) == path(("W", mono(ey=2)))
        assert psi1(path(("W", mono(ey=2)))) == path(("L", mono()))

    def test_fixed_point(self):
        p = path(("L", mono(ey=1, et=1, eq=1)))
        assert psi1(p) == p
        assert is_fixed_f(p)

    def test_pair_toggle(self):
        p = path(("U", mono(ey=2)), ("D", mono(ey=1, et=1, eq=1)))
        q = path(("U", mono(ey=1, et=1, eq=1)), ("D", mono()))
        assert psi1(p) == q
        assert psi1(q) == p

    def test_rejects_non_h_path(self):
        with pytest.raises(ValueError):
            psi1(path(("L", mono(ey=2, eq=5))))

    def test_is_fixed_examples(self):
        assert is_fixed_f(path(("W", mono(ey=1, et=1))))
        assert not is_fixed_f(path(("L", mono())))

    @pytest.mark.parametrize("n", range(5))
    def test_involution_weight_law_fixed_set(self, n):
        fixed_sum_keys = {}
        for p in gen_weighted("H", n):
            q = psi1(p)
            assert psi1(q) == p
            wp, wq = p.weight(), q.weight()
            if q == p:
                assert is_fixed_f(p)
                # t-degree of a fixed path weight has the parity of n
                assert wp.et % 2 == n % 2
            else:
                assert not is_fixed_f(p)
                # weight changes by exactly y^(+-2): no t or q drift
                assert abs(wq.ey - wp.ey) == 2
                assert wq.et == wp.et and wq.eq == wp.eq and wq.coeff == wp.coeff

    @pytest.mark.parametrize("n", range(5))
    def test_fixed_points_are_scheme_f(self, n):
        fixed = {p for p in gen_weighted("H", n) if psi1(p) == p}
        assert fixed == set(gen_weighted("F", n))

    @pytest.mark.parametrize("n", range(5))
    def test_fixed_sum_is_shifted_r(self, n):
        fixed = (p for p in gen_weighted("H", n) if psi1(p) == p)
        acc = Poly()
        for p in fixed:
            acc = acc + p.weight().to_poly()
        assert acc == Y ** n * R_poly(n)

    @pytest.mark.parametrize("n", range(5))
    def test_restricts_to_parity_slices(self, n):
        for scheme in ("H1", "H2"):
            members = set(gen_weighted(scheme, n))
            for p in members:
                assert psi1(p) in members


def _psi1_check_reference(n_max):
    """prop-3.6 as two separate calls of the guarded psi1 per path."""
    for n in range(0, n_max + 1):
        fixed = set()
        for p in motzkin.gen_weighted("H", n):
            image = bijections.psi1(p)
            if not motzkin.in_family("H", image):
                return f"n={n}: image leaves H at {p.text()}: {image.text()}"
            if bijections.psi1(image) != p:
                return f"n={n}: not an involution at {p.text()}"
            wp, wi = p.weight(), image.weight()
            if image == p:
                fixed.add(p)
                if not bijections.is_fixed_f(p):
                    return f"n={n}: unexpected fixed point {p.text()}"
            else:
                if bijections.is_fixed_f(p):
                    return f"n={n}: moved point satisfies the fixed-set menus: {p.text()}"
                if abs(wi.ey - wp.ey) != 2 or wi.et != wp.et or wi.eq != wp.eq:
                    return f"n={n}: weight law broken at {p.text()}: {wp.text()} -> {wi.text()}"
        if fixed != set(motzkin.gen_weighted("F", n)):
            return f"n={n}: fixed set differs from the restricted path family"
    return None


def _psi1_slices_reference(n_max):
    """lemma-3.8 with both t-degree slices held as sets (walked in
    generation order, so that a witness does not depend on the hash seed)."""
    for n in range(0, n_max + 1):
        for scheme in ("H1", "H2"):
            members = set(motzkin.gen_weighted(scheme, n))
            for p in motzkin.gen_weighted(scheme, n):
                if bijections.psi1(p) not in members:
                    return f"n={n}: psi1 leaves the {scheme} slice at {p.text()}"
        for p in motzkin.gen_weighted("F", n):
            if p.t_degree() % 2 != n % 2:
                return f"n={n}: fixed path with t-degree {p.t_degree()}: {p.text()}"
    return None


class TestSharedPsi1Walk:
    @pytest.fixture(autouse=True)
    def fresh_walk(self):
        checks._psi1_walk.cache_clear()
        yield
        checks._psi1_walk.cache_clear()

    def _routes(self, n_max):
        return (
            (checks._check_psi1(n_max), _psi1_check_reference(n_max)),
            (checks._check_psi1_slices(n_max), _psi1_slices_reference(n_max)),
        )

    @pytest.mark.parametrize("n_max", range(5))
    def test_walk_agrees_with_per_check_loops(self, n_max):
        for walk, reference in self._routes(n_max):
            assert walk is None and reference is None

    def test_pair_offset_mutation_fails_both_routes(self, monkeypatch):
        # the pair toggle with offset h instead of h+1 (psi2's offset)
        monkeypatch.setattr(bijections, "_psi1_move",
                            lambda p: bijections._toggle(p, "W", 0, 0))
        for walk, reference in self._routes(4):
            assert walk is not None and walk == reference

    def test_walk_is_shared(self):
        checks._check_psi1(3)
        checks._check_psi1_slices(3)
        info = checks._psi1_walk.cache_info()
        assert (info.misses, info.hits) == (4, 4)


class TestPsi2:
    def test_pair_toggle(self):
        p = path(("U", mono(ey=2)), ("D", mono(ey=1, et=1, eq=1)))
        q = path(("U", mono(ey=1, et=1)), ("D", mono()))
        assert psi2(p) == q
        assert psi2(q) == p

    def test_fixed_pair(self):
        p = path(("U", mono(ey=2)), ("D", mono()))
        assert psi2(p) == p
        assert is_fixed_g(p)

    def test_level_toggle(self):
        p = path(("U", mono(ey=2)), ("L", mono(ey=2, eq=1)), ("D", mono()))
        q = path(("U", mono(ey=2)), ("W", mono()), ("D", mono()))
        assert psi2(p) == q
        assert psi2(q) == p

    def test_is_fixed_examples(self):
        assert is_fixed_g(path(("L", mono(ey=1, et=1))))
        assert not is_fixed_g(path(("U", mono(ey=2)), ("D", mono(ey=1, et=1, eq=1))))
        assert is_fixed_g(EMPTY_PATH)

    def test_rejects_non_mstar_path(self):
        with pytest.raises(ValueError):
            psi2(path(("L", mono(ey=2))))  # straight level of weight y^2

    @pytest.mark.parametrize("n", range(5))
    def test_involution_weight_law_fixed_set(self, n):
        for p in gen_weighted("MSTAR", n):
            q = psi2(p)
            assert psi2(q) == p
            wp, wq = p.weight(), q.weight()
            if q == p:
                assert is_fixed_g(p)
                assert wp.et % 2 == n % 2
            else:
                assert not is_fixed_g(p)
                # weight changes by exactly (y^2 q)^(+-1)
                assert (wq.ey - wp.ey, wq.eq - wp.eq) in ((2, 1), (-2, -1))
                assert wq.et == wp.et and wq.coeff == wp.coeff

    @pytest.mark.parametrize("n", range(5))
    def test_fixed_points_are_scheme_g(self, n):
        fixed = {p for p in gen_weighted("MSTAR", n) if psi2(p) == p}
        assert fixed == set(gen_weighted("G", n))

    @pytest.mark.parametrize("n", range(5))
    def test_fixed_sum_is_shifted_q(self, n):
        acc = Poly()
        for p in gen_weighted("MSTAR", n):
            if psi2(p) == p:
                acc = acc + p.weight().to_poly()
        assert acc == Y ** n * Q_poly(n)

    @pytest.mark.parametrize("n", range(5))
    def test_preserves_t_degree_slices(self, n):
        members = set(gen_weighted("MSTARPRIME", n))
        for p in members:
            assert psi2(p) in members
