"""Path shapes, weight menus, weighted generation and rho-sums."""

import functools
import itertools
import operator
from collections import Counter

import pytest

from snakelab import checks, motzkin
from snakelab.algebra import CoefficientSchedule, Monomial, Poly, jfraction_series, ONE, Q, T, Y, _add_row, _poly, _window_sums
from snakelab.checks import run_check
from snakelab.eulerians import Q_poly, R_poly, euler_number, q_fraction_schedule, r_fraction_schedule
from snakelab.motzkin import (
    EMPTY_PATH,
    SCHEMES,
    STEPS,
    WeightedPath,
    gen_shapes,
    gen_weighted,
    in_family,
    matching_pairs,
    _boxes,
    _paths,
    _scheme_info,
    _size,
    _weight,
    path_count,
    rho,
    step_heights,
    weight_menu,
)
from snakelab.permstats import corteel_schedule, signed_enumerator


def mono(ey=0, et=0, eq=0):
    """The weight y^ey t^et q^eq as an exponent triple."""
    return ey, et, eq


def _flajolet_schedule(scheme: str) -> CoefficientSchedule:
    """The Jacobi continued-fraction schedule induced by a menu scheme:
    mu_h = total level weight at height h, lam_h = (total rise weight at
    h-1) * (total fall weight starting at h).  Schemes with a parity or
    pair rule, and unknown schemes, raise ValueError."""
    table, parity, pair_rule = _scheme_info(scheme)
    if parity is not None or pair_rule:
        raise ValueError(f"scheme {scheme} is not menu-defined")

    def menu_sum(step: str, h: int) -> Poly:
        return Poly(Counter(weight_menu(table, step, h)))

    return CoefficientSchedule(
        mu=lambda h: menu_sum("L", h) + menu_sum("W", h),
        lam=lambda h: menu_sum("U", h - 1) * menu_sum("D", h),
    )


class TestMenus:
    def test_m_straight_level_on_axis(self):
        assert set(weight_menu("M", "L", 0)) == {mono(ey=2), mono(ey=1, et=1)}

    def test_t_up_on_axis(self):
        assert set(weight_menu("T", "U", 0)) == {mono(), mono(et=2, eq=2)}

    def test_tstar_wavy_height_one(self):
        assert weight_menu("TSTAR", "W", 1) == (mono(et=1, eq=1),)

    def test_down_step_below_axis(self):
        with pytest.raises(ValueError, match="down step below axis"):
            weight_menu("M", "D", 0)

    def test_empty_ranges_give_empty_menus(self):
        assert weight_menu("M", "W", 0) == ()
        assert weight_menu("TSTAR", "W", 0) == ()
        assert weight_menu("G", "W", 0) == ()

    def test_mstar_drops_only_unit_y2_level(self):
        m_menu = set(weight_menu("M", "L", 3))
        mstar_menu = set(weight_menu("MSTAR", "L", 3))
        assert m_menu - mstar_menu == {mono(ey=2)}

    def test_unknown_scheme_or_step(self):
        with pytest.raises(ValueError):
            weight_menu("X", "L", 0)
        with pytest.raises(ValueError):
            weight_menu("M", "Z", 0)

    @pytest.mark.parametrize("scheme, step", [("T", "L"), ("M", "U"), ("H", "W"), ("TSTAR", "D")])
    def test_negative_height_is_rejected(self, scheme, step):
        with pytest.raises(ValueError, match="height must be >= 0"):
            weight_menu(scheme, step, -3)


def t_degree(path):
    """The t-exponent of a path's weight."""
    return path.weight()[1]


def _in_family_reference(scheme, path):
    """Membership by scanning each step's menu of weights, as `in_family`
    did before menus became exponent ranges."""
    _, parity, pair_rule = _scheme_info(scheme)
    for s, h, w in zip(path.steps, step_heights(path.steps), path.weights):
        if s == "D" and h == 0:
            return False
        if w not in weight_menu(scheme, s, h):
            return False
    if parity is not None and t_degree(path) % 2 != parity:
        return False
    if pair_rule:
        for u, d in matching_pairs(path.steps):
            if (path.weights[u][0] == 2) != (path.weights[d][0] == 0):
                return False
    return True


def _path_through(scheme, step, h):
    """A path U^h, step, then falls back to the axis, each other step taking
    the first weight of its menu; returns the path and the index of step."""
    end = h + {"U": 1, "D": -1}.get(step, 0)
    steps = ("U",) * h + (step,) + ("D",) * end
    heights = step_heights(steps)
    weights = tuple((weight_menu(scheme, s, k) or (mono(),))[0] for s, k in zip(steps, heights))
    return WeightedPath(steps, weights), h


# every weight with ey 0..3, et 0..3, eq -2..16
_PROBES = list(itertools.product(range(4), range(4), range(-2, 17)))


class TestMembership:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_range_lookup_matches_menu_scan(self, scheme):
        for step, h in itertools.product(STEPS, range(8)):
            if step == "D" and h == 0:
                continue
            base, i = _path_through(scheme, step, h)
            for m in _PROBES:
                changed = WeightedPath(base.steps, base.weights[:i] + (m,) + base.weights[i + 1:])
                want = _in_family_reference(scheme, changed)
                assert in_family(scheme, changed) == want, (scheme, changed.text())

    @pytest.mark.parametrize("n", range(5))
    def test_weight_is_product_of_step_weights(self, n):
        for p in gen_weighted("H", n):
            product = functools.reduce(operator.mul, (Monomial(1, *w) for w in p.weights), Monomial())
            assert Monomial(1, *p.weight()) == product
            assert t_degree(p) == product.et


class TestShapes:
    def test_length_one(self):
        assert set(gen_shapes(1)) == {("L",), ("W",)}
        assert set(gen_shapes(1, forbid_wavy_on_axis=True)) == {("L",)}

    def test_length_two(self):
        got = set(gen_shapes(2))
        assert got == {("U", "D"), ("L", "L"), ("L", "W"), ("W", "L"), ("W", "W")}

    def test_heights(self):
        assert step_heights(("U", "U", "D", "L", "D")) == (0, 1, 2, 1, 1)
        with pytest.raises(ValueError):
            step_heights(("D",))
        with pytest.raises(ValueError):
            step_heights(("U",))

    def test_motzkin_shape_counts(self):
        # bicolored Motzkin numbers = Catalan numbers 1, 2, 5, 14, 42
        for n, cat in [(1, 2), (2, 5), (3, 14), (4, 42)]:
            assert sum(1 for _ in gen_shapes(n)) == cat


class TestMatchingPairs:
    def test_nested(self):
        assert matching_pairs(("U", "U", "D", "D")) == ((0, 3), (1, 2))

    def test_level_transparent(self):
        assert matching_pairs(("U", "W", "D")) == ((0, 2),)

    def test_no_pairs(self):
        assert matching_pairs(("L", "L")) == ()

    def test_ordering_by_rise_index(self):
        pairs = matching_pairs(("U", "D", "U", "U", "D", "D"))
        assert pairs == ((0, 1), (2, 5), (3, 4))


class TestGenWeighted:
    def test_mstar_length_one(self):
        paths = list(gen_weighted("MSTAR", 1))
        assert paths == [WeightedPath(("L",), (mono(ey=1, et=1),))]

    def test_f_length_one(self):
        got = set(gen_weighted("F", 1))
        assert got == {
            WeightedPath(("L",), (mono(ey=1, et=1, eq=1),)),
            WeightedPath(("W",), (mono(ey=1, et=1),)),
        }

    def test_t_length_zero(self):
        assert list(gen_weighted("T", 0)) == [EMPTY_PATH]
        assert EMPTY_PATH.weight() == (0, 0, 0)

    @pytest.mark.parametrize("scheme", ["M", "H", "T", "TSTAR", "MSTAR", "F", "G"])
    def test_membership_of_generated_paths(self, scheme):
        for n in range(4):
            for path in gen_weighted(scheme, n):
                assert in_family(scheme, path)

    @pytest.mark.parametrize("n", range(5))
    def test_m_paths_count_signed_permutations(self, n):
        import math

        assert sum(1 for _ in gen_weighted("M", n)) == 2 ** n * math.factorial(n)

    @pytest.mark.parametrize("n", range(5))
    def test_t_and_tstar_counts(self, n):
        from snakelab.eulerians import springer_number

        assert sum(1 for _ in gen_weighted("T", n)) == 2 ** n * euler_number(n + 1)
        assert sum(1 for _ in gen_weighted("TSTAR", n)) == springer_number(n)

    def test_parity_slices_partition(self):
        for n in range(4):
            all_m = set(gen_weighted("M", n))
            even = set(gen_weighted("MPRIME", n))
            assert even == {p for p in all_m if t_degree(p) % 2 == 0}
            h_all = set(gen_weighted("H", n))
            h1 = set(gen_weighted("H1", n))
            h2 = set(gen_weighted("H2", n))
            assert h1 | h2 == h_all and not (h1 & h2)


def _paths_reference(scheme, n):
    """Each shape's Cartesian product of its weight menus, with the parity
    and pair rules applied per path: the paths with no box in between."""
    _, parity, pair_rule = _scheme_info(scheme)
    for steps in gen_shapes(n):
        pairs = matching_pairs(steps)
        for weights in itertools.product(*map(functools.partial(weight_menu, scheme), steps, step_heights(steps))):
            if parity is not None and sum(w[1] for w in weights) % 2 != parity:
                continue
            if pair_rule and any((weights[u][0] == 2) != (weights[d][0] == 0) for u, d in pairs):
                continue
            yield steps, weights


def _inside(menus: tuple, ranges: tuple) -> bool:
    """Whether each range lies in its step's menu: as one of its ranges or,
    failing that, inside the range of its branch."""
    return all(map(tuple.__contains__, menus, ranges)) or all(
        any(m[:2] == r[:2] and m[2] <= r[2] and r[3] <= m[3] for m in menu) for menu, r in zip(menus, ranges))


class TestBoxes:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("n", range(7))
    def test_box_sizes_sum_to_path_count(self, scheme, n):
        assert sum(_size(ranges) for _, ranges in _boxes(scheme, n)) == path_count(scheme, n)

    def test_box_counts_at_seven(self):
        assert [sum(1 for _ in _boxes(s, 7)) for s in ("H", "M", "MSTAR")] == [183040, 54912, 34825]

    @pytest.mark.parametrize("scheme", ["F", "G"])
    @pytest.mark.parametrize("n", range(6))
    def test_fixed_family_box_sizes(self, scheme, n):
        assert sum(_size(ranges) for _, ranges in _boxes(scheme, n)) == sum(1 for _ in _paths(scheme, n))

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("n", range(5))
    def test_boxes_expand_to_the_paths(self, scheme, n):
        paths = list(_paths(scheme, n))
        assert len(paths) == len(set(paths))
        assert set(paths) == set(_paths_reference(scheme, n))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_order_key_is_generation_order(self, scheme):
        # box order: the shape's letters in `gen_shapes` order, then each
        # step's branch in its menu, then the q exponents
        def key(path):
            steps, weights = path
            branches = (list(dict.fromkeys(w[:2] for w in weight_menu(scheme, s, h)))
                        for s, h in zip(steps, step_heights(steps)))
            return (tuple(map(STEPS.index, steps)), tuple(b.index(w[:2]) for b, w in zip(branches, weights)),
                    tuple(w[2] for w in weights))

        for n in range(5):
            paths = list(_paths(scheme, n))
            assert sorted(paths, key=key) == paths

    @pytest.mark.parametrize("table", ["T", "TSTAR", "M", "MSTAR", "H", "F", "G"])
    def test_one_nonempty_range_per_branch(self, table):
        # the invariant by which `checks._lands` judges a box by its corners
        for step in STEPS:
            for h in range(step == "D", 13):
                ranges = motzkin._menu_ranges(table, step, h)
                assert all(lo <= hi for _, _, lo, hi in ranges), (step, h)
                assert len({r[:2] for r in ranges}) == len(ranges), (step, h)

    @pytest.mark.parametrize("scheme", ["H", "MSTAR"])
    def test_lands_is_branch_containment(self, scheme):
        # every sub-interval of every menu range, shifted by -1, 0 and +1,
        # at one step of each shape, the other steps on their first ranges
        for n in range(5):
            for steps in motzkin._shapes(scheme, n):
                menus = motzkin._shape_menus(scheme, steps)
                firsts = tuple(menu[0] for menu in menus)
                for j, menu in enumerate(menus):
                    for ey, et, lo, hi in menu:
                        for a, b, by in itertools.product(range(lo, hi + 1), range(lo, hi + 1), (-1, 0, 1)):
                            if a <= b:
                                box = firsts[:j] + ((ey, et, a + by, b + by),) + firsts[j + 1:]
                                assert checks._lands(scheme, (steps, box)) == _inside(menus, box), (steps, box)

    def test_first_failing_is_the_first_failing_path(self):
        # every good interval on a box of three steps with q in 0..2 each,
        # against the claim that the box's image lies in the menus
        steps, box = ("L", "L", "L"), ((0, 0, 0, 2),) * 3
        intervals = [(a, b) for a in range(4) for b in range(-1, 3)]
        for good in itertools.product(intervals, repeat=3):
            failing = [p for p in self._expand_box(steps, box)
                       if any(not a <= w[2] <= b for w, (a, b) in zip(p[1], good))]
            # the box itself, the box translated by one, and on another branch
            for by, branch, want in ((0, (0, 0), failing[:1]), (1, (0, 0), failing[:1]),
                                     (1, (1, 1), [(steps, ((0, 0, 0),) * 3)])):
                menus = tuple(((0, 0, a + by, b + by),) for a, b in good)

                def claim(n, steps, box):
                    image = tuple((*branch, lo + by, hi + by) for _, _, lo, hi in box)
                    return None if _inside(menus, image) else (steps, motzkin._corner(box))

                assert bool(claim(0, steps, box)) == bool(want)
                assert checks._first_failing(0, steps, box, claim) == (want[0] if want else None)

    @staticmethod
    def _expand_box(steps, ranges):
        for qs in itertools.product(*(range(lo, hi + 1) for _, _, lo, hi in ranges)):
            yield steps, tuple((ey, et, q) for (ey, et, _, _), q in zip(ranges, qs))


class TestPathCount:
    @pytest.mark.parametrize("scheme", ["M", "MSTAR", "H", "T", "TSTAR"])
    @pytest.mark.parametrize("n", range(7))
    def test_product_count_equals_enumeration(self, scheme, n):
        assert path_count(scheme, n) == sum(1 for _ in _paths(scheme, n))

    @pytest.mark.parametrize("n", range(21))
    def test_closed_forms(self, n):
        import math

        from snakelab.eulerians import seidel_numbers, springer_numbers

        euler, springer = seidel_numbers(n + 1), springer_numbers(n)
        assert path_count("M", n) == 2 ** n * math.factorial(n)
        assert path_count("H", n) == 2 ** n * math.factorial(n + 1)  # M_(n+1) covers H_n twice
        assert path_count("T", n) == path_count("F", n) == 2 ** n * euler[n + 1]
        assert path_count("TSTAR", n) == path_count("G", n) == springer[n]
        assert path_count("MPRIME", n) == (2 ** (n - 1) * math.factorial(n) if n else 1)  # the type D group

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            path_count("NOPE", 2)
        with pytest.raises(ValueError, match="n must be >= 0"):
            path_count("M", -1)


def _rho_by_boxes(scheme, n):
    """rho summed box by box, with no J-fraction: a box weighs
    y^ey t^et q^lo times the product of [hi-lo+1]_q over its ranges, and
    boxes are grouped by (ey, et, lo, sorted spans)."""
    groups = Counter()
    for _, ranges in _boxes(scheme, n):
        ey, et, lo, hi = zip(*ranges) if ranges else ((),) * 4
        groups[sum(ey), sum(et), sum(lo), tuple(sorted(map(operator.sub, hi, lo)))] += 1
    rows = {}
    for (ey, et, lo, spans), c in groups.items():  # [s+1]_q is a window sum of width s+1
        row = functools.reduce(lambda row, s: _window_sums(row, s + 1), spans, [1])
        _add_row(rows, (ey, et), lo, [c * x for x in row])
    return _poly(rows)


class TestRho:
    def test_f_length_one(self):
        assert rho("F", 1) == Y * T * (ONE + Q)

    def test_mstar_length_one(self):
        assert rho("MSTAR", 1) == Y * T

    @pytest.mark.parametrize("n", range(5))
    def test_t_gives_r_poly(self, n):
        assert rho("T", n) == R_poly(n)

    @pytest.mark.parametrize("n", range(5))
    def test_tstar_gives_q_poly(self, n):
        assert rho("TSTAR", n) == Q_poly(n)

    @pytest.mark.parametrize("n", range(5))
    def test_m_matches_signed_enumerator(self, n):
        assert rho("M", n) == signed_enumerator(n, "B", "FULL_YTQ")

    @pytest.mark.parametrize("n", range(5))
    def test_filtered_families(self, n):
        assert rho("MPRIME", n) == signed_enumerator(n, "D", "FULL_YTQ")
        assert rho("MSTAR", n) == signed_enumerator(n, "B*", "FULL_YTQ")
        assert rho("MSTARPRIME", n) == signed_enumerator(n, "D*", "FULL_YTQ")

    @pytest.mark.parametrize("n", range(1, 6))
    def test_restructure_weight_identity(self, n):
        assert rho("M", n) == (Y ** 2 + Y * T) * rho("H", n - 1)

    @pytest.mark.parametrize("n", range(5))
    def test_fixed_sets_sum_to_shifted_qr(self, n):
        assert rho("F", n) == Y ** n * R_poly(n)
        assert rho("G", n) == Y ** n * Q_poly(n)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("n", range(7))
    def test_box_sums_equal_the_enumerated_sum(self, scheme, n):
        assert rho(scheme, n) == Poly(Counter(_weight(weights) for _, weights in _paths(scheme, n)))

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("n", range(8))
    def test_prefix_walk_equals_the_box_sums(self, scheme, n):
        assert rho(scheme, n) == _rho_by_boxes(scheme, n)

    @pytest.mark.parametrize("scheme", ["F", "G"])
    def test_prefix_walk_reads_the_pair_rule(self, monkeypatch, scheme):
        # with every pair allowed, F and G are H and MSTAR on yt level steps
        monkeypatch.setattr(motzkin, "_pairs_ok", lambda weights, pairs: True)
        for n in range(6):
            assert rho(scheme, n) == _rho_by_boxes(scheme, n)
        assert rho(scheme, 2) != (Y ** 2 * (R_poly(2) if scheme == "F" else Q_poly(2)))

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError, match="n must be >= 0"):
            rho("M", -1)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown scheme 'NOPE'"):
            rho("NOPE", 1)
        with pytest.raises(ValueError, match="unknown scheme 'NOPE'"):
            motzkin._schedule("NOPE")

    def test_parity_slices_split_the_full_sums(self):
        def even_t(p):
            return Poly({key: c for key, c in p.terms.items() if key[1] % 2 == 0})

        for n in range(13):
            assert rho("H1", n) + rho("H2", n) == rho("H", n)
            assert rho("H2", n) == even_t(rho("H", n))
            assert rho("MPRIME", n) == even_t(rho("M", n))
            assert rho("MSTARPRIME", n) == even_t(rho("MSTAR", n))

    @pytest.mark.parametrize("check_id", ["lemma-3.5", "lemma-4.3"])
    def test_pair_rule_is_needed(self, monkeypatch, check_id):
        monkeypatch.setattr(motzkin, "_pairs_ok", lambda weights, pairs: True)
        result = run_check(check_id)
        assert result.status == "fail" and result.witness.startswith("n=2: lhs - rhs = "), result.witness


class TestFlajolet:
    def test_t_schedule_matches_r_schedule(self):
        mine = _flajolet_schedule("T")
        ref = r_fraction_schedule()
        for h in range(6):
            assert mine.mu(h) == ref.mu(h)
            if h >= 1:
                assert mine.lam(h) == ref.lam(h)

    def test_tstar_schedule_matches_q_schedule(self):
        mine = _flajolet_schedule("TSTAR")
        ref = q_fraction_schedule()
        for h in range(6):
            assert mine.mu(h) == ref.mu(h)
            if h >= 1:
                assert mine.lam(h) == ref.lam(h)

    def test_m_schedule_closed_form(self):
        # the menu-induced schedule of scheme M is Corteel's closed form
        sched = _flajolet_schedule("M")
        closed = corteel_schedule()
        for h in range(6):
            assert sched.mu(h) == closed.mu(h)
            if h >= 1:
                assert sched.lam(h) == closed.lam(h)

    @pytest.mark.parametrize("scheme", ["T", "TSTAR", "M", "MSTAR", "H"])
    def test_library_schedule_matches_the_point_oracle(self, scheme):
        mine, ref = motzkin._schedule(scheme), _flajolet_schedule(scheme)
        for h in range(9):
            assert mine.mu(h) == ref.mu(h)
            if h >= 1:
                assert mine.lam(h) == ref.lam(h)

    @pytest.mark.parametrize("scheme, table", [("F", "H"), ("G", "MSTAR")])
    def test_library_schedule_reads_the_pair_rule(self, scheme, table):
        # facing pairs are coupled (y^2 q^a, q^b) or (yt q^a, yt q^b); level steps keep yt
        coupled = {((2, 0), (0, 0)), ((1, 1), (1, 1))}
        mine = motzkin._schedule(scheme)
        for h in range(9):
            levels = weight_menu(table, "L", h) + weight_menu(table, "W", h)
            assert mine.mu(h) == Poly(Counter(w for w in levels if w[:2] == (1, 1)))
            if h >= 1:
                pairs = itertools.product(weight_menu(table, "U", h - 1), weight_menu(table, "D", h))
                assert mine.lam(h) == Poly(Counter(tuple(map(operator.add, u, d)) for u, d in pairs
                                                   if (u[:2], d[:2]) in coupled))

    @pytest.mark.parametrize("n", range(5))
    def test_jfraction_route_equals_path_route(self, n):
        series = jfraction_series(_flajolet_schedule("M"), n)
        assert series[n] == rho("M", n)

    def test_filtered_scheme_has_no_schedule(self):
        with pytest.raises(ValueError):
            _flajolet_schedule("F")
        with pytest.raises(ValueError):
            _flajolet_schedule("MPRIME")
        with pytest.raises(ValueError, match="unknown scheme"):
            _flajolet_schedule("NOPE")


class TestText:
    def test_path_text(self):
        p = WeightedPath(
            ("U", "U", "L", "D", "D"),
            (mono(), mono(et=2, eq=4), mono(et=1, eq=5), mono(eq=2), mono()),
        )
        assert p.text() == "U[1] U[t^2*q^4] L[t*q^5] D[q^2] D[1]"
        p = WeightedPath(("U", "W", "D"), ((2, 3, -1), (0, 0, 1), (1, 0, 0)))
        assert p.text() == "U[y^2*t^3*q^-1] W[q] D[y]"

    def test_replace_on_one_step(self):
        # the length is the step count, so `_replace` cannot count fields
        p = WeightedPath(("L",), ((2, 0, 0),))._replace(weights=((1, 1, 0),))
        assert p == WeightedPath(("L",), ((1, 1, 0),)) and type(p) is WeightedPath

    @pytest.mark.parametrize("fields, message", [
        ({"steps": ("D", "U")}, "dips below the axis"),
        ({"weights": ((1, 1, 1),)}, "one weight per step"),
        ({"weights": ((2, 0, 0), (0, 0))}, "exponent triple"),
        ({"weights": ((2, 0, 0), (0, 0, 0, 0))}, "exponent triple"),
        ({"weights": ((2, 0, 0), 0)}, "exponent triple"),
    ])
    def test_replace_validates(self, fields, message):
        p = WeightedPath(("U", "D"), ((2, 0, 0), (0, 0, 0)))
        with pytest.raises(ValueError, match=message):
            p._replace(**fields)
        with pytest.raises(ValueError, match=message):
            WeightedPath._make({**p._asdict(), **fields}.values())

    @pytest.mark.parametrize("scheme, first, last", [
        ("M", "U[y^2] D[1] L[y^2]", "L[y*t] L[y*t] L[y*t]"),
        ("H", "U[y^2] D[1] L[1]", "W[y*t] W[y*t] W[y*t]"),
        ("T", "U[1] D[1] L[t*q]", "W[t] W[t] W[t]"),
        ("TSTAR", "U[1] D[1] L[t]", "L[t] L[t] L[t]"),
    ])
    def test_generated_path_text(self, scheme, first, last):
        paths = list(gen_weighted(scheme, 3))
        assert (paths[0].text(), paths[-1].text()) == (first, last)
