"""The two-to-one restructuring map and the two sign-reversing involutions."""

import functools
import itertools
import math
from collections import Counter, defaultdict

import pytest

from snakelab import bijections, checks, motzkin, snakes
from snakelab.algebra import Monomial, Poly, T, Y
from snakelab.bijections import (
    HEAD_Y2,
    HEAD_YT,
    phi,
    phi_inverse,
    psi1,
    psi2,
)
from snakelab.eulerians import Q_poly, R_poly
from snakelab.motzkin import EMPTY_PATH, STEPS, WeightedPath, gen_weighted, in_family, matching_pairs, rho, step_heights
from test_snakes import block_profile, pattern_counts


def mono(ey=0, et=0, eq=0):
    """The weight y^ey t^et q^eq as an exponent triple."""
    return ey, et, eq


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
        with pytest.raises(ValueError, match=r"^head weight must be y\^2 or y\*t, got 1$"):
            phi_inverse(mono(), EMPTY_PATH)
        with pytest.raises(ValueError, match=r"^head weight must be y\^2 or y\*t, got y\*t\*q$"):
            phi_inverse(mono(ey=1, et=1, eq=1), EMPTY_PATH)
        with pytest.raises(ValueError):
            phi(EMPTY_PATH)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_two_to_one_cover(self, n):
        heads_seen = defaultdict(list)
        for p in gen_weighted("M", n):
            head, out = phi(p)
            # weight preservation
            assert tuple(map(sum, zip(head, out.weight()))) == p.weight()
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
        assert in_family("F", p)

    def test_pair_toggle(self):
        p = path(("U", mono(ey=2)), ("D", mono(ey=1, et=1, eq=1)))
        q = path(("U", mono(ey=1, et=1, eq=1)), ("D", mono()))
        assert psi1(p) == q
        assert psi1(q) == p

    def test_rejects_non_h_path(self):
        with pytest.raises(ValueError):
            psi1(path(("L", mono(ey=2, eq=5))))

    def test_is_fixed_examples(self):
        assert in_family("F", path(("W", mono(ey=1, et=1))))
        assert not in_family("F", path(("L", mono())))

    @pytest.mark.parametrize("n", range(5))
    def test_involution_weight_law_fixed_set(self, n):
        fixed_sum_keys = {}
        for p in gen_weighted("H", n):
            q = psi1(p)
            assert psi1(q) == p
            wp, wq = p.weight(), q.weight()
            if q == p:
                assert in_family("F", p)
                # t-degree of a fixed path weight has the parity of n
                assert wp[1] % 2 == n % 2
            else:
                assert not in_family("F", p)
                # weight changes by exactly y^(+-2): no t or q drift
                assert abs(wq[0] - wp[0]) == 2
                assert wq[1:] == wp[1:]

    @pytest.mark.parametrize("n", range(5))
    def test_fixed_points_are_scheme_f(self, n):
        fixed = {p for p in gen_weighted("H", n) if psi1(p) == p}
        assert fixed == set(gen_weighted("F", n))

    @pytest.mark.parametrize("n", range(5))
    def test_fixed_sum_is_shifted_r(self, n):
        fixed = (p for p in gen_weighted("H", n) if psi1(p) == p)
        acc = Poly()
        for p in fixed:
            acc = acc + Poly({p.weight(): 1})
        assert acc == Y ** n * R_poly(n)

    @pytest.mark.parametrize("n", range(5))
    def test_restricts_to_parity_slices(self, n):
        for scheme in ("H1", "H2"):
            members = set(gen_weighted(scheme, n))
            for p in members:
                assert psi1(p) in members


def _toggle_reference(path, y2_step, y2_shift, up_offset):
    """The move of psi1 (W, 0, 1) or psi2 (L, 1, 0) computed on `Monomial`
    weights: an oracle for the raw move table `bijections._toggle`."""
    plain_step = "L" if y2_step == "W" else "W"
    steps = list(path.steps)
    weights = [Monomial(1, *w) for w in path.weights]
    is_q_power = lambda w: w.ey == 0 and w.et == 0
    is_y2 = lambda w: w.ey == 2 and w.et == 0
    is_yt = lambda w: w.ey == 1 and w.et == 1
    for i, (s, w) in enumerate(zip(steps, weights)):
        if s == plain_step and is_q_power(w):
            steps[i], weights[i] = y2_step, Monomial(1, 2, 0, w.eq + y2_shift)
            break
        if s == y2_step and is_y2(w):
            steps[i], weights[i] = plain_step, Monomial(1, 0, 0, w.eq - y2_shift)
            break
    else:
        heights = motzkin.step_heights(path.steps)
        for u, d in matching_pairs(path.steps):
            h = heights[u]
            wu, wd = weights[u], weights[d]
            if is_y2(wu) and is_yt(wd):
                a, b = wu.eq, wd.eq - (h + 1)
                weights[u] = Monomial(1, 1, 1, h + up_offset + a)
                weights[d] = Monomial(1, 0, 0, b)
                break
            if is_yt(wu) and is_q_power(wd):
                a, b = wu.eq - (h + up_offset), wd.eq
                weights[u] = Monomial(1, 2, 0, a)
                weights[d] = Monomial(1, 1, 1, h + 1 + b)
                break
    return WeightedPath(tuple(steps), tuple((w.ey, w.et, w.eq) for w in weights))


class TestRawMoveTable:
    @pytest.mark.parametrize("scheme, name, move", [
        ("H", "psi1", ("W", 0, 1)), ("MSTAR", "psi2", ("L", 1, 0)),
    ])
    @pytest.mark.parametrize("n", range(6))
    def test_agrees_with_monomial_reference(self, scheme, name, move, n):
        for p in gen_weighted(scheme, n):
            want = _toggle_reference(p, *move)
            steps, ranges = bijections._toggle(p.steps, motzkin._point(p.weights), name)
            assert WeightedPath(steps, motzkin._corner(ranges)) == want
            assert getattr(bijections, name)(p) == want

    @pytest.mark.parametrize("n", range(1, 6))
    def test_raw_phi_agrees_with_public_phi(self, n):
        for p in gen_weighted("M", n):
            head, (steps, ranges) = bijections._phi(p.steps, motzkin._point(p.weights))
            want_head, want = phi(p)
            assert (head[:3], WeightedPath(steps, motzkin._corner(ranges))) == (want_head, want)
            steps, ranges = bijections._phi_inverse(head, steps, ranges)
            assert WeightedPath(steps, motzkin._corner(ranges)) == p


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
            wp, wi = (Monomial(1, *x.weight()) for x in (p, image))
            if image == p:
                fixed.add(p)
                if not motzkin.in_family("F", p):
                    return f"n={n}: unexpected fixed point {p.text()}"
            else:
                if motzkin.in_family("F", p):
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
        witness = _fixed_parity_reference("F", n)
        if witness:
            return witness
    return None


def _fixed_parity_reference(scheme, n):
    """The first path of the fixed set F or G at n, in `_paths` order, whose
    t-degree is off the parity of n, as its witness, or None."""
    for steps, weights in motzkin._paths(scheme, n):
        t_degree = motzkin._weight(weights)[1]
        if t_degree % 2 != n % 2:
            return f"n={n}: fixed path with t-degree {t_degree}: {WeightedPath(steps, weights).text()}"
    return None


def _psi2_check_reference(n_max):
    """prop-4.4 with each fixed set held as a set, one loop per n."""
    for n in range(0, n_max + 1):
        fixed = set()
        for p in motzkin.gen_weighted("MSTAR", n):
            image = bijections.psi2(p)
            if not motzkin.in_family("MSTAR", image):
                return f"n={n}: image leaves MSTAR at {p.text()}: {image.text()}"
            if bijections.psi2(image) != p:
                return f"n={n}: not an involution at {p.text()}"
            wp, wi = (Monomial(1, *x.weight()) for x in (p, image))
            if image == p:
                fixed.add(p)
                if not motzkin.in_family("G", p):
                    return f"n={n}: unexpected fixed point {p.text()}"
                if wp.et % 2 != n % 2:
                    return f"n={n}: fixed path with t-degree {wp.et}: {p.text()}"
            else:
                if motzkin.in_family("G", p):
                    return f"n={n}: moved point satisfies the fixed-set menus: {p.text()}"
                if (wi.ey - wp.ey, wi.eq - wp.eq) not in ((2, 1), (-2, -1)) or wi.et != wp.et:
                    return (
                        f"n={n}: weight law broken at {p.text()}:"
                        f" {wp.text()} -> {wi.text()}"
                    )
        if fixed != set(motzkin.gen_weighted("G", n)):
            return f"n={n}: fixed set differs from the restricted path family"
    return None


def _slices_reference(scheme, n):
    """The t-degree slice witnesses of the scheme's involution at n, path by
    path: the first path of each t-parity whose image leaves the scheme or
    that parity."""
    name = checks._INVOLUTIONS[scheme][0]
    found = {}
    for p in gen_weighted(scheme, n):
        image, parity = getattr(bijections, name)(p), p.weight()[1] % 2
        if not in_family(scheme, image) or image.weight()[1] % 2 != parity:
            piece = f"{scheme}{2 - parity}"
            found.setdefault(piece, f"n={n}: {name} leaves the {piece} slice at {p.text()}")
    return found


def _fixed_sum_reference(scheme, poly):
    """lemma-3.5 (F, R_n) or lemma-4.3 (G, Q_n) summed path by path."""
    return checks._each_n(lambda n: checks._equal(
        n, Poly(Counter(motzkin._weight(w) for _, w in motzkin._paths(scheme, n))), Y ** n * poly(n)))


def _catalog(check_id):
    return checks.CHECKS_BY_ID[check_id].fn


@pytest.fixture
def fresh_walk():
    """Empty the cached walks, and the path sums they read, before and
    after a test that patches what fills them."""
    for walk in (checks._involution_walk, checks._snake_walk, motzkin._sums):
        walk.cache_clear()
    yield
    for walk in (checks._involution_walk, checks._snake_walk, motzkin._sums):
        walk.cache_clear()


@pytest.mark.usefixtures("fresh_walk")
class TestSharedPsi1Walk:
    def _routes(self, n_max):
        return (
            (_catalog("prop-3.6")(n_max), _psi1_check_reference(n_max)),
            (_catalog("lemma-3.8")(n_max), _psi1_slices_reference(n_max)),
        )

    @pytest.mark.parametrize("n_max", range(6))
    def test_walk_agrees_with_per_check_loops(self, n_max):
        for walk, reference in self._routes(n_max):
            assert walk is None and reference is None

    def test_pair_offset_mutation_fails_both_routes(self, monkeypatch):
        # the pair toggle with offset h instead of h+1 (psi2's offset)
        monkeypatch.setitem(bijections._MOVES, "psi1", ("W", 0, 0))
        for walk, reference in self._routes(4):
            assert walk is not None and walk == reference

    def test_fixed_set_is_compared_by_count(self, monkeypatch):
        # F_0 loses its one path from `rho`, and so from `path_count`: one
        # fixed point of psi1 is left uncounted
        real = motzkin.rho
        monkeypatch.setattr(motzkin, "rho", lambda scheme, n: Poly() if (scheme, n) == ("F", 0) else real(scheme, n))
        assert motzkin.path_count("F", 0) == 0
        assert _catalog("prop-3.6")(0) == "n=0: fixed set differs from the restricted path family"

    def test_fixed_sets_walk_no_box_on_success(self, monkeypatch):
        def no_boxes(scheme, n):
            raise AssertionError(f"boxes of {scheme} walked")

        monkeypatch.setattr(motzkin, "_boxes", no_boxes)
        for check_id in ("prop-3.6", "lemma-3.8", "prop-4.4"):
            assert _catalog(check_id)(4) is None

    @pytest.mark.parametrize("scheme, fixed", [("H", "F"), ("MSTAR", "G")])
    def test_fixed_parity_witness_is_the_first_wrong_parity_path(self, patch_menus, scheme, fixed):
        # the fixed set keeps every level branch of its scheme, the et = 0
        # ones too, so it holds paths of both t-parities
        def wider(real, table, step, h):
            return real(scheme if table == fixed and step in ("L", "W") else table, step, h)

        patch_menus(wider)
        witnesses = [checks._involution_walk(scheme, n).get("fixed-parity") for n in range(6)]
        assert witnesses == [_fixed_parity_reference(fixed, n) for n in range(6)]
        assert any(witnesses)

    def test_weight_law_is_checked(self, monkeypatch):
        # psi2's (y^2 q)^(+-1) law on H: the first moved path of psi1 breaks it
        monkeypatch.setitem(checks._INVOLUTIONS, "H", ("psi1", "F", ((2, 1), (-2, -1))))
        assert _catalog("prop-3.6")(2).startswith("n=1: weight law broken at ")

    def test_a_move_off_its_t_parity_leaves_the_slice(self, monkeypatch):
        # psi1's level toggle lands on W's yt branch instead: the image stays
        # in H with the other t-parity, so only the parity test sees it
        real = bijections._toggle

        def move(steps, ranges, name):
            image_steps, image = real(steps, ranges, name)
            return image_steps, tuple((1, 1, r[2] + h, r[3] + h) if (s, new, r[:2]) == ("L", "W", (2, 0)) else r
                                      for s, new, r, h in zip(steps, image_steps, image, step_heights(steps)))

        monkeypatch.setattr(bijections, "_toggle", move)
        for walk, reference in self._routes(4):
            assert walk is not None and walk == reference
        assert _catalog("lemma-3.8")(4) == "n=1: psi1 leaves the H2 slice at L[1]"

    def test_walk_is_shared(self):
        _catalog("prop-3.6")(3)
        _catalog("lemma-3.8")(3)
        info = checks._involution_walk.cache_info()
        assert (info.misses, info.hits) == (4, 4)


@pytest.mark.usefixtures("fresh_walk")
class TestPsi2Walk:
    @pytest.mark.parametrize("n_max", range(6))
    def test_walk_agrees_with_reference(self, n_max):
        assert _catalog("prop-4.4")(n_max) is None
        assert _psi2_check_reference(n_max) is None

    def test_pair_offset_mutation_fails_both_routes(self, monkeypatch):
        # the pair toggle with offset h+1 instead of h (psi1's offset)
        monkeypatch.setitem(bijections._MOVES, "psi2", ("L", 1, 1))
        walk = _catalog("prop-4.4")(4)
        assert walk is not None and walk == _psi2_check_reference(4)

    def test_identity_move_fails_both_routes(self, monkeypatch):
        # every path is fixed, so the first one outside G is reported
        monkeypatch.setattr(bijections, "_toggle", lambda steps, ranges, name: (steps, ranges))
        walk = _catalog("prop-4.4")(4)
        assert "unexpected fixed point" in walk and walk == _psi2_check_reference(4)


def _below(scheme, steps, box, stop):
    """The number of paths below a stop of the cut walk: the prefix's box
    size times the later steps' menu sizes."""
    return motzkin._size(box[:stop + 1]) * math.prod(map(len, motzkin._shape_sets(scheme, steps)[stop + 1:]))


class TestCutWalk:
    @pytest.mark.parametrize("scheme", ["H", "MSTAR"])
    @pytest.mark.parametrize("n", range(8))
    def test_subtree_sizes_sum_to_path_count(self, scheme, n):
        assert sum(_below(scheme, *stop[:2], stop[3]) for stop in checks._stops(scheme, n)) == motzkin.path_count(scheme, n)

    @pytest.mark.parametrize("scheme", ["H", "MSTAR"])
    @pytest.mark.parametrize("n", range(6))
    def test_stops_split_the_boxes_in_order(self, scheme, n):
        # the boxes below each stop are the next boxes of `_boxes`, and the
        # stop's own box is the first of them
        boxes = motzkin._boxes(scheme, n)
        for steps, box, image, stop in checks._stops(scheme, n):
            below = [next(boxes) for _ in range(math.prod(map(len, motzkin._shape_menus(scheme, steps)[stop + 1:])))]
            assert below[0] == (steps, box)
            assert all(b == (steps, box[:stop + 1] + b[1][stop + 1:]) for b in below)
            assert image == bijections._toggle(steps, box, checks._INVOLUTIONS[scheme][0])
        assert next(boxes, None) is None

    def test_cut_sizes_at_seven(self):
        # H_7 has 183,040 boxes and MSTAR_7 34,825
        assert [sum(1 for _ in checks._stops(s, 7)) for s in ("H", "MSTAR")] == [36678, 12053]

    def test_a_move_that_is_not_local_is_not_cut(self, monkeypatch):
        # the identity move decides nothing, so every box is walked whole
        monkeypatch.setattr(bijections, "_toggle", lambda steps, ranges, name: (steps, ranges))
        assert [stop[1:] for stop in checks._stops("MSTAR", 4)] == [
            (ranges, (steps, ranges), 3) for steps, ranges in motzkin._boxes("MSTAR", 4)]


@pytest.mark.usefixtures("fresh_walk")
class TestPairRuleMutation:
    # every facing pair allowed: F and G grow, so the involutions fix points
    # outside them and their sums miss y^n R_n and y^n Q_n
    REFERENCES = {
        "prop-3.6": _psi1_check_reference,
        "prop-4.4": _psi2_check_reference,
        "lemma-3.5": _fixed_sum_reference("F", R_poly),
        "lemma-4.3": _fixed_sum_reference("G", Q_poly),
    }

    @pytest.mark.parametrize("check_id", REFERENCES)
    def test_both_routes_fail_alike(self, monkeypatch, check_id):
        monkeypatch.setattr(motzkin, "_pairs_ok", lambda weights, pairs: True)
        walk = _catalog(check_id)(4)
        assert walk is not None and walk == self.REFERENCES[check_id](4)


def _bijection(n, sources, forward, inverse, target, law=None, target_size=None):
    """The first witness against `forward` being a bijection from the
    sources onto the target: for each source x in order, inverse(image) == x
    and no witness from law(x, image); then the count.  A ValueError from
    the inverse, which guards the target, means the image left it."""
    count = 0
    for x in sources:
        count += 1
        image = forward(x)
        try:
            back = inverse(image)
        except ValueError as err:
            return f"n={n}: image leaves {target} at {x.text()}: {err}"
        if back != x:
            return f"n={n}: round trip failed for {x.text()}"
        witness = law(x, image) if law else None
        if witness:
            return witness
    if target_size is not None and count != target_size:
        return f"n={n}: {count} sources, {target_size} in {target}"
    return None


def _cover_reference(n_max):
    """prop-3.2 as one walk of the guarded phi per path."""
    for n in range(1, n_max + 1):
        def law(p, image, n=n):
            head, out = image
            if tuple(map(sum, zip(head, out.weight()))) != p.weight():
                return f"n={n}: weight not preserved for {p.text()}"
            return None

        witness = _bijection(
            n, gen_weighted("M", n), phi, lambda image: phi_inverse(*image), "{y^2, yt} x H", law,
            2 * motzkin.path_count("H", n - 1),
        ) or checks._equal(n, rho("M", n), (Y ** 2 + Y * T) * rho("H", n - 1))
        if witness:
            return witness
    return None


@pytest.fixture
def patch_menus(monkeypatch):
    """Replace `motzkin._menu_ranges(table, step, h)` by menus(real, table,
    step, h), where real is the library's, and empty every cache filled from
    the menu ranges before and after."""
    real = motzkin._menu_ranges
    caches = (real, motzkin._menu_set, motzkin._shape_menus, motzkin._shape_sets, motzkin._sums, checks._involution_walk)

    def patch(menus):
        monkeypatch.setattr(motzkin, "_menu_ranges", functools.partial(menus, real))
        for cache in caches:
            cache.cache_clear()

    yield patch
    for cache in caches:
        cache.cache_clear()


@pytest.fixture
def widen_menu(patch_menus):
    """Widen the first range of one menu by one at the top, so that a box's
    image can overhang its target at the top only and the first failing
    path of the box is not its corner.  An empty menu stays empty."""

    def widen(table, step):
        def widened(real, t, s, h):
            out = real(t, s, h)
            if (t, s) == (table, step) and out:
                (ey, et, lo, hi), *rest = out
                out = ((ey, et, lo, hi + 1), *rest)
            return out

        patch_menus(widened)

    return widen


_WIDENED = [(table, step) for table in ("M", "H", "MSTAR") for step in STEPS]

# each scheme's claims on one box, as `checks._first_failing` runs them
_CLAIMS = {
    "M": (checks._cover_claim,),
    "H": (functools.partial(checks._involution_claim, "H"), functools.partial(checks._slice_claim, "H")),
    "MSTAR": (functools.partial(checks._involution_claim, "MSTAR"), functools.partial(checks._slice_claim, "MSTAR")),
}


class TestBoxWitnesses:
    @pytest.mark.parametrize("n_max", range(1, 6))
    def test_cover_walk_agrees_with_reference(self, n_max):
        assert _catalog("prop-3.2")(n_max) is None
        assert _cover_reference(n_max) is None

    def test_cover_witness_past_a_box_corner(self, widen_menu):
        # the box U[y^2] D[q^0..q^1] maps to L[q^0..q^1], one past H's L[1]
        widen_menu("M", "D")
        walk = _catalog("prop-3.2")(4)
        assert walk == _cover_reference(4)
        assert walk == "n=2: image leaves {y^2, yt} x H at U[y^2] D[q]: path is not in scheme H: 'L[q]'"

    @pytest.mark.parametrize("table, step, check_id, reference", [
        ("H", "D", "prop-3.6", _psi1_check_reference),
        ("H", "L", "prop-3.6", _psi1_check_reference),
        ("MSTAR", "D", "prop-4.4", _psi2_check_reference),
        ("MSTAR", "L", "prop-4.4", _psi2_check_reference),
    ])
    def test_involution_witness_past_a_box_corner(self, widen_menu, table, step, check_id, reference):
        widen_menu(table, step)
        walk = _catalog(check_id)(4)
        assert walk is not None and walk == reference(4)
        assert "image leaves" in walk

    @pytest.mark.parametrize("table", ["H", "MSTAR"])
    def test_slices_below_a_cut_report_each_parity(self, widen_menu, table):
        # a widened L range moves out of the scheme at a stop of the cut walk,
        # and the boxes below the stop span both t-parities: each slice names
        # its own first path, not the stop's
        widen_menu(table, "L")
        assert _catalog("lemma-3.8")(4) == _psi1_slices_reference(4)
        for n in range(5):
            walk = checks._involution_walk(table, n)
            assert {k: walk[k] for k in (f"{table}1", f"{table}2") if k in walk} == _slices_reference(table, n)
        assert len(_slices_reference(table, 4)) == 2

    @pytest.mark.parametrize("table, step", _WIDENED)
    def test_every_widened_menu_fails_as_the_references(self, widen_menu, table, step):
        widen_menu(table, step)
        for check_id, reference in (("prop-3.2", _cover_reference), ("prop-3.6", _psi1_check_reference),
                                    ("lemma-3.8", _psi1_slices_reference), ("prop-4.4", _psi2_check_reference)):
            assert _catalog(check_id)(4) == reference(4), check_id

    def test_widening_leaves_an_empty_menu_empty(self, widen_menu):
        widen_menu("M", "W")
        assert motzkin._menu_ranges("M", "W", 0) == ()
        assert motzkin._menu_ranges("M", "W", 1)[0] == (0, 0, 0, 1)

    @pytest.mark.parametrize("widened", [None, *_WIDENED])
    def test_box_verdict_is_some_path_verdict(self, widen_menu, widened):
        # each claim fails on a box exactly when it fails on one of its
        # one-point boxes, over the 1,257 boxes of M, H and MSTAR up to n=4
        if widened:
            widen_menu(*widened)
        failing = 0
        for scheme, claims in _CLAIMS.items():
            for n in range(scheme == "M", 5):
                for steps, box in motzkin._boxes(scheme, n):
                    points = [motzkin._point(w) for w in itertools.product(*map(motzkin._points, box))]
                    for claim in claims:
                        verdict = bool(claim(n, steps, box))
                        assert verdict == any(claim(n, steps, p) for p in points), (steps, box)
                        failing += verdict
        assert bool(failing) == bool(widened)  # 2,122 failing boxes over the twelve widenings


class _Item:
    """A source with the `text()` that witnesses print."""

    def __init__(self, k):
        self.k = k

    def text(self):
        return f"item{self.k}"

    def __eq__(self, other):
        return isinstance(other, _Item) and other.k == self.k


@pytest.mark.usefixtures("fresh_walk")
class TestBijectionWalk:
    def _run(self, forward, inverse, law=None, target_size=None):
        # the inverse guards its domain N, as the library's inverses do
        def guarded(image):
            if image < 0:
                raise ValueError(f"{image} is not in N")
            return inverse(image)

        items = [_Item(k) for k in range(4)]
        return _bijection(3, iter(items), forward, guarded, "N", law, target_size)

    def test_bijection_passes(self):
        assert self._run(lambda x: x.k, _Item, target_size=4) is None

    def test_image_outside_target(self):
        assert self._run(lambda x: x.k - 2, _Item) == "n=3: image leaves N at item0: -2 is not in N"

    def test_two_sources_on_one_image_fail_the_round_trip(self):
        assert self._run(lambda x: x.k // 2, lambda i: _Item(2 * i)) == "n=3: round trip failed for item1"

    def test_law_failure_is_reported(self):
        law = lambda x, image: "law broken at item2" if x.k == 2 else None
        assert self._run(lambda x: x.k, _Item, law=law) == "law broken at item2"

    def test_count_short_of_target(self):
        assert self._run(lambda x: x.k, _Item, target_size=5) == "n=3: 4 sources, 5 in N"

    def test_dropped_snake_fails_the_count(self, monkeypatch):
        # the snake walk reads the raw generator
        real = snakes._windows
        monkeypatch.setattr(snakes, "_windows", lambda n, v: list(real(n, v))[:-1])
        assert checks.run_check("thm-5.8").witness == "n=0: 0 sources, 1 in TSTAR"

    def test_decoder_error_is_a_witness(self, monkeypatch):
        # a ValueError from inside the decoder is reported, not raised; the
        # walk's raw decode and the public inverse share it
        def broken(steps, weights, offset):
            raise ValueError("decoder bug")

        monkeypatch.setattr(snakes, "_rebuild_word", broken)
        result = checks.run_check("thm-5.8")
        assert result.status == "fail"
        assert result.witness == "n=0: image leaves TSTAR at ()[S0]: decoder bug"


# -- the snake checks as separate loops, before one walk per (variant, size) --


def _sign_changes_reference(n):
    """lemma-sign-changes at n: s -> (|window|, cs-vector) is one to one on
    the S0 and S00 snakes, with arnold_recover its inverse, and each
    cs-vector lies in {0,1,2}^n and sums to the snake's sign changes."""

    def law(s, image):
        if not all(c in (0, 1, 2) for c in image[1]):
            return f"n={n}: image leaves {{0,1,2}}^n at {s.text()}"
        if sum(image[1]) != snakes.sign_changes(s):
            return f"n={n}: {s.text()}: vector {image[1]} does not sum to the total"
        return None

    for variant in ("S0", "S00"):
        witness = _bijection(
            n, (snakes.Snake(w, variant) for w in snakes._windows(n, variant)),
            lambda s: (tuple(abs(x) for x in s.window), snakes.cs_vector(s)),
            lambda image: snakes.arnold_recover(*image, variant), "{0,1,2}^n", law)
        if witness:
            return witness
    return None


def _pattern_lemma_reference(n):
    """lemma-pattern at n: block_profile against pattern_counts."""
    for variant in ("S0", "S00"):
        for window in snakes._windows(n, variant):
            word = tuple(map(abs, window))
            profile = block_profile(word, variant)
            for k in range(1, n + 1):
                a, b = pattern_counts(word, variant, k)
                if profile.beta[k] != b or profile.alpha[k] != a + b + 1:
                    return (
                        f"n={n}: {snakes.Snake(window, variant).text()}: k={k} blocks"
                        f" ({profile.alpha[k]}, {profile.beta[k]}) vs patterns ({a}, {b})"
                    )
    return None


def _snake_code_reference(variant, offset, scheme, poly, inverse):
    """thm-5.8 or thm-5.12 at n: the encoding maps the variant's snakes of
    size n + offset one to one onto the scheme's paths of length n, and the
    snake sums equal Q_n or R_n."""

    def claim(n):
        sums = Counter()
        count = 0
        for window in snakes._windows(n + offset, variant):
            count += 1
            scan = snakes._elements(window, variant)
            image = snakes._encode(scan, offset)
            try:
                lands = (motzkin._contains(scheme, *image)
                         and snakes._decode(*image, offset) == (window, snakes._cs(scan)))
            except ValueError:
                lands = False
            if not lands:
                source = snakes.Snake(window, variant).text()
                return checks._landing(n, source, image, getattr(snakes, inverse), scheme)
            sums[motzkin._weight(image[1])] += 1
        target_size = motzkin.path_count(scheme, n)
        if count != target_size:
            return f"n={n}: {count} sources, {target_size} in {scheme}"
        return checks._equal(n, Poly(sums), poly(n))

    return claim


_SNAKE_REFERENCES = {
    "lemma-sign-changes": checks._each_n(_sign_changes_reference),
    "lemma-pattern": checks._each_n(_pattern_lemma_reference, 1),
    "thm-5.8": checks._each_n(_snake_code_reference("S0", 0, "TSTAR", Q_poly, "lambda1_inv")),
    "thm-5.12": checks._each_n(_snake_code_reference("S00", 1, "T", R_poly, "lambda2_inv")),
}


def _from_size_3_on_s00(variant, size):
    return variant == "S00" and size >= 3


def _sign_changes_plus_one(monkeypatch):
    # the raw count behind `snakes.sign_changes`, which the walk reads
    real = snakes._sign_changes
    monkeypatch.setattr(snakes, "_sign_changes", lambda window, variant: real(window, variant) + 1)


def _sign_changes_plus_one_on_s00(monkeypatch):
    real = snakes._sign_changes
    monkeypatch.setattr(snakes, "_sign_changes",
                        lambda window, variant: real(window, variant) + _from_size_3_on_s00(variant, len(window)))


def _sweep_off_by_one(monkeypatch):
    # the sweep's 2-31 counts, and those of its oracle, one too high on S00
    # from size 3
    sweep, oracle = snakes._patterns, pattern_counts

    def bad_sweep(window, variant):
        extra = _from_size_3_on_s00(variant, len(window))
        return [(a, b + extra) for a, b in sweep(window, variant)]

    def bad_oracle(word, variant, k):
        a, b = oracle(word, variant, k)
        return a, b + _from_size_3_on_s00(variant, len(word))

    monkeypatch.setattr(snakes, "_patterns", bad_sweep)
    monkeypatch.setitem(globals(), "pattern_counts", bad_oracle)


def _flipped_signs(monkeypatch):
    # the last entry of every recovered window of size >= 2 changes sign
    real = snakes._signs

    def flipped(word, cs):
        window = real(word, cs)
        return (*window[:-1], -window[-1]) if len(window) >= 2 else window

    monkeypatch.setattr(snakes, "_signs", flipped)


def _cs_out_of_range(monkeypatch):
    # every valley with a sign change records 3 instead of 2
    real = snakes._cs
    monkeypatch.setattr(snakes, "_cs", lambda elements: tuple(3 if c == 2 else c for c in real(elements)))


def _bumped_encode(monkeypatch):
    # the first step's q-exponent of every image is past any menu
    real = snakes._encode

    def bumped(elements, offset):
        steps, weights = real(elements, offset)
        if not weights:
            return steps, weights
        (ey, et, eq), *rest = weights
        return steps, ((ey, et, eq + 100), *rest)

    monkeypatch.setattr(snakes, "_encode", bumped)


_SNAKE_MUTATIONS = [_sign_changes_plus_one, _sign_changes_plus_one_on_s00, _sweep_off_by_one,
                    _flipped_signs, _cs_out_of_range, _bumped_encode]


@pytest.mark.usefixtures("fresh_walk")
class TestSnakeWalk:
    @pytest.mark.parametrize("n_max", range(6))
    def test_walk_agrees_with_separate_loops(self, n_max):
        for check_id, reference in _SNAKE_REFERENCES.items():
            assert _catalog(check_id)(n_max) is None
            assert reference(n_max) is None

    @pytest.mark.parametrize("mutate", _SNAKE_MUTATIONS, ids=lambda f: f.__name__.strip("_"))
    def test_mutation_gives_one_witness_on_both_routes(self, monkeypatch, mutate):
        mutate(monkeypatch)
        witnesses = [_catalog(check_id)(5) for check_id in _SNAKE_REFERENCES]
        assert witnesses == [reference(5) for reference in _SNAKE_REFERENCES.values()]
        assert any(witnesses)

    def test_walk_is_shared(self):
        for check_id in _SNAKE_REFERENCES:
            checks.run_check(check_id, 3)
        # S0 and S00 of sizes 0..3 with the lemma claims, and S00(4) without
        info = checks._snake_walk.cache_info()
        assert (info.misses, info.hits) == (9, 13)

    def test_top_size_runs_the_encoding_alone(self, monkeypatch):
        # thm-5.12 at n_max reads S00(n_max + 1), where no lemma claim runs
        sizes = set()
        real = snakes._patterns

        def recorded(window, variant):
            sizes.add(len(window))
            return real(window, variant)

        monkeypatch.setattr(snakes, "_patterns", recorded)
        assert checks.run_check("thm-5.12", 3).status == "pass"
        assert sizes == {1, 2, 3}

    @pytest.mark.parametrize("mutate", [None, _flipped_signs], ids=["real", "flipped_signs"])
    @pytest.mark.parametrize("check_id", list(_SNAKE_REFERENCES))
    def test_check_alone_equals_check_after_the_others(self, monkeypatch, check_id, mutate):
        if mutate:
            mutate(monkeypatch)
        alone = checks.run_check(check_id)
        checks._snake_walk.cache_clear()
        for other in _SNAKE_REFERENCES:
            if other != check_id:
                checks.run_check(other)
        assert checks.run_check(check_id) == alone


class TestPsi2:
    def test_pair_toggle(self):
        p = path(("U", mono(ey=2)), ("D", mono(ey=1, et=1, eq=1)))
        q = path(("U", mono(ey=1, et=1)), ("D", mono()))
        assert psi2(p) == q
        assert psi2(q) == p

    def test_fixed_pair(self):
        p = path(("U", mono(ey=2)), ("D", mono()))
        assert psi2(p) == p
        assert in_family("G", p)

    def test_level_toggle(self):
        p = path(("U", mono(ey=2)), ("L", mono(ey=2, eq=1)), ("D", mono()))
        q = path(("U", mono(ey=2)), ("W", mono()), ("D", mono()))
        assert psi2(p) == q
        assert psi2(q) == p

    def test_is_fixed_examples(self):
        assert in_family("G", path(("L", mono(ey=1, et=1))))
        assert not in_family("G", path(("U", mono(ey=2)), ("D", mono(ey=1, et=1, eq=1))))
        assert in_family("G", EMPTY_PATH)

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
                assert in_family("G", p)
                assert wp[1] % 2 == n % 2
            else:
                assert not in_family("G", p)
                # weight changes by exactly (y^2 q)^(+-1)
                assert (wq[0] - wp[0], wq[2] - wp[2]) in ((2, 1), (-2, -1))
                assert wq[1] == wp[1]

    @pytest.mark.parametrize("n", range(5))
    def test_fixed_points_are_scheme_g(self, n):
        fixed = {p for p in gen_weighted("MSTAR", n) if psi2(p) == p}
        assert fixed == set(gen_weighted("G", n))

    @pytest.mark.parametrize("n", range(5))
    def test_fixed_sum_is_shifted_q(self, n):
        acc = Poly()
        for p in gen_weighted("MSTAR", n):
            if psi2(p) == p:
                acc = acc + Poly({p.weight(): 1})
        assert acc == Y ** n * Q_poly(n)

    @pytest.mark.parametrize("n", range(5))
    def test_preserves_t_degree_slices(self, n):
        members = set(gen_weighted("MSTARPRIME", n))
        for p in members:
            assert psi2(p) in members
