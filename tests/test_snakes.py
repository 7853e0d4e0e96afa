"""Snake generation, sign statistics, block/pattern statistics, and the
snake-to-path bijections."""

import itertools
from dataclasses import dataclass
from functools import lru_cache

import pytest

from snakelab.algebra import ONE, Q, T
from snakelab.eulerians import Q_poly, R_poly, euler_number, springer_number
from snakelab.motzkin import WeightedPath, _weight, gen_weighted, in_family
from snakelab import snakes
from snakelab.snakes import (
    Snake,
    arnold_recover,
    cs_vector,
    generate_snakes,
    is_snake_window,
    lambda1,
    lambda1_inv,
    lambda2,
    lambda2_inv,
    sign_changes,
    snake_enumerator,
)

# -- references: the snake routes as they were before one scan and one block
# list, kept to check the rewritten routes against --------------------------


def pattern_counts(abs_window, variant, j):
    """(13-2, 2-31) pattern counts of the element j against adjacent pairs of
    the boundary-extended absolute word: the oracle of the sweep
    `snakes._patterns`."""
    word = tuple(abs(v) for v in _reference_extended(abs_window, variant))
    i = word.index(j, 1)
    thirteen_two = sum(1 for a in range(0, i - 1) if word[a] < j < word[a + 1])
    two_thirty_one = sum(1 for a in range(i + 1, len(word) - 1) if word[a] > j > word[a + 1])
    return thirteen_two, two_thirty_one


def two_thirty_one_total(abs_window, variant):
    return sum(pattern_counts(abs_window, variant, j)[1] for j in range(1, len(abs_window) + 1))


def element_class(snake, j):
    """Classify element j: 'valley0' (valley, no sign change), 'X' (valley
    with sign changes), 'Y' (double ascent or double descent), 'Z' (peak)."""
    ext = snake.extended()
    word = tuple(map(abs, ext))
    i = word.index(j, 1)
    left, right = word[i - 1], word[i + 1]
    if left > j < right:
        return "X" if snakes._changes(ext[i - 1], ext[i]) else "valley0"
    if left < j > right:
        return "Z"
    return "Y"


def _pattern_stat(snake, x_shift, count_peaks):
    total = 0
    word = tuple(abs(v) for v in snake.window)
    for j in word:
        cls = element_class(snake, j)
        a, b = pattern_counts(word, snake.variant, j)
        if cls == "X":
            total += 2 * (a + b) + x_shift
        elif cls == "Y":
            total += a + b
        elif cls == "Z" and count_peaks:
            total += 1
    return total


def pat_q(snake):
    """q-pattern statistic of an S0 snake:
    sum over valleys with sign changes of 2*(13-2 + 2-31) - 1, plus
    sum over double ascents/descents of (13-2 + 2-31)."""
    return _pattern_stat(snake, x_shift=-1, count_peaks=False)


def pat_r(snake):
    """q-pattern statistic of an S00 snake:
    sum over valleys with sign changes of 2*(13-2 + 2-31 - 1), plus
    sum over double ascents/descents of (13-2 + 2-31), plus the number
    of peaks."""
    return _pattern_stat(snake, x_shift=-2, count_peaks=True)



def _reference_extended(window, variant):
    n = len(window)
    right = (n + 1) if n % 2 == 0 else -(n + 1)
    left, right = {"FULL": (-(n + 1), right), "S0": (0, right), "S00": (0, 0)}[variant]
    return (left, *window, right)


@dataclass(frozen=True)
class BlockProfile:
    """Block counts of the boundary-extended absolute word restricted to
    {0..k}: alpha[k] blocks in total, beta[k] of them strictly to the right
    of the block containing k (leftmost occurrence for the S00 boundary
    zeros)."""

    alpha: tuple[int, ...]
    beta: tuple[int, ...]


def _blocks(word, k):
    # maximal runs of positions whose values are <= k, as (start, end) pairs
    out = []
    start = None
    for i, v in enumerate(word):
        if v <= k:
            if start is None:
                start = i
        elif start is not None:
            out.append((start, i - 1))
            start = None
    if start is not None:
        out.append((start, len(word) - 1))
    return out


def block_profile(abs_window, variant):
    """The block counts one element at a time, one pass over the word per
    k: the reference of the `_elements` scan and of the table goldens."""
    word = [abs(v) for v in _reference_extended(abs_window, variant)]
    m = len(abs_window)
    alpha = []
    beta = []
    for k in range(m + 1):
        blocks = _blocks(word, k)
        alpha.append(len(blocks))
        pos = word.index(k)
        after = sum(1 for start, _ in blocks if start > pos)
        beta.append(after)
    return BlockProfile(tuple(alpha), tuple(beta))


def _generate_reference(n, variant):
    """Snakes by backtracking with one branch per variant."""
    if n == 0:
        yield Snake((), variant)
        return
    candidates = [v for v in range(-n, n + 1) if v != 0]

    def rec(prefix, used):
        i = len(prefix) + 1  # position being filled
        for v in candidates:
            if abs(v) in used:
                continue
            if i == 1:
                if variant in ("S0", "S00") and v < 0:
                    continue
            elif i % 2 == 0:
                if v > prefix[-1]:
                    continue
            elif v < prefix[-1]:
                continue
            if i == n and variant == "S00":
                if (v if n % 2 == 0 else -v) >= 0:
                    continue
            prefix.append(v)
            used.add(abs(v))
            if i == n:
                yield Snake(tuple(prefix), variant)
            else:
                yield from rec(prefix, used)
            prefix.pop()
            used.discard(abs(v))

    yield from rec([], set())


def _lambda_reference(snake, offset):
    """The snake-to-path encoding with exponents read off the block profile
    of the absolute word."""
    ext = _reference_extended(snake.window, snake.variant)
    word = tuple(abs(v) for v in ext)
    alpha, beta = [], []
    for k in range(snake.size() + 1):
        blocks = _blocks(word, k)
        alpha.append(len(blocks))
        beta.append(sum(1 for start, _ in blocks if start > word.index(k)))
    steps, weights = [], []
    for j in range(1, snake.size() - offset + 1):
        i = word.index(j)
        left, right = word[i - 1], word[i + 1]
        a, b = alpha[j], beta[j]
        if left > j < right:
            steps.append("U")
            if ext[i - 1] * ext[i] < 0:
                weights.append((0, 2, b + 2 * a - 3 - 2 * offset))
            else:
                weights.append((0, 0, b - offset))
        elif left < j < right:
            steps.append("L")
            weights.append((0, 1, b + a - 1 - offset))
        elif left > j > right:
            steps.append("W")
            weights.append((0, 1, b + a - 1 - offset))
        else:
            steps.append("D")
            weights.append((0, 0, b))
    return WeightedPath(tuple(steps), tuple(weights))


def _cs_reference(snake):
    """The cs-vector element by element: 0 or 2 at a valley of the absolute
    word, by the sign changes on its two sides (which agree on a snake), 1
    at a double ascent or descent, 0 at a peak."""
    ext = _reference_extended(snake.window, snake.variant)
    word = tuple(abs(v) for v in ext)
    out = []
    for j in range(1, snake.size() + 1):
        i = word.index(j, 1)
        if word[i - 1] > j < word[i + 1]:
            changes = {ext[i - 1] * ext[i] < 0, ext[i] * ext[i + 1] < 0}
            assert len(changes) == 1, snake.text()
            out.append(2 if changes.pop() else 0)
        else:
            out.append(0 if word[i - 1] < j > word[i + 1] else 1)
    return tuple(out)


@lru_cache(maxsize=None)
def _reference_family(n, variant):
    return frozenset(s.window for s in _generate_reference(n, variant))


def _arnold_reference(abs_window, cs, variant):
    """Sign recovery by the four-branch loop: a double descent or a rising
    run flips the sign, a valley flips it when it records 2."""
    n = len(abs_window)
    if n == 0:
        return Snake((), variant)
    word = tuple(abs(v) for v in _reference_extended(abs_window, variant))
    signs = [0, 1]
    for i in range(2, n + 1):
        if word[i - 1] > word[i]:
            flip = True if word[i] > word[i + 1] else cs[word[i] - 1] == 2
        else:
            flip = True if word[i - 2] < word[i - 1] else cs[word[i - 1] - 1] == 2
        signs.append(-signs[-1] if flip else signs[-1])
    out = Snake(tuple(signs[i] * abs_window[i - 1] for i in range(1, n + 1)), variant)
    if out.window not in _reference_family(n, variant) or cs_vector(out) != tuple(cs):
        raise ValueError("no snake realizes the vector")
    return out


# worked example: an S0 snake of size 10 and its absolute word
SIGMA10 = Snake((5, -2, 4, -7, -1, -8, 10, -9, 6, 3), "S0")
# worked example: an S00 snake of size 11
SIGMA11 = Snake((5, -2, 4, -7, -1, -8, 11, -9, 6, 3, 10), "S00")


class TestGenerate:
    def test_s0_size_two(self):
        got = {s.window for s in generate_snakes(2, "S0")}
        assert got == {(1, -2), (2, 1), (2, -1)}

    def test_full_size_two(self):
        got = {s.window for s in generate_snakes(2, "FULL")}
        assert got == {(1, -2), (2, 1), (2, -1), (-1, -2)}

    def test_s00_size_one(self):
        got = [s.window for s in generate_snakes(1, "S00")]
        assert got == [(1,)]

    def test_size_zero(self):
        for variant in ("FULL", "S0", "S00"):
            assert [s.window for s in generate_snakes(0, variant)] == [()]

    @pytest.mark.parametrize("n", range(7))
    def test_s0_counts_are_springer(self, n):
        assert sum(1 for _ in generate_snakes(n, "S0")) == springer_number(n)

    @pytest.mark.parametrize("n", range(6))
    def test_s00_counts(self, n):
        got = sum(1 for _ in generate_snakes(n + 1, "S00"))
        assert got == 2 ** n * euler_number(n + 1)

    def test_members_are_snakes(self):
        for variant in ("FULL", "S0", "S00"):
            for s in generate_snakes(4, variant):
                assert is_snake_window(s.window, variant)

    @pytest.mark.parametrize("variant", ["FULL", "S0", "S00"])
    @pytest.mark.parametrize("n", range(7))
    def test_order_matches_reference(self, n, variant):
        # generation order fixes which witness a check prints first
        assert list(generate_snakes(n, variant)) == list(_generate_reference(n, variant))

    def test_empty_window_is_a_snake_of_every_variant(self):
        for variant in ("FULL", "S0", "S00"):
            assert is_snake_window((), variant)

    @pytest.mark.parametrize("window, variant", [
        ((1, 1), "S0"), ((2, 2), "FULL"), ((1, -1), "S0"), ((2,), "S0"), ((3, -1), "FULL"),
    ])
    def test_window_must_be_a_signed_permutation(self, window, variant):
        # each of these zigzags between its boundary entries
        assert snakes._zigzag(snakes._extended(window, variant))
        assert not is_snake_window(window, variant)

    @pytest.mark.parametrize("n, variant, message", [
        (-1, "S0", "n must be >= 0"), (2, "X", "unknown variant"),
    ])
    def test_arguments_are_checked_at_call_time(self, n, variant, message):
        # before any snake is asked for
        with pytest.raises(ValueError, match=message):
            generate_snakes(n, variant)

    def test_replace_validates_the_variant(self):
        assert Snake((1,), "S0")._replace(variant="S00") == Snake((1,), "S00")
        with pytest.raises(ValueError, match="unknown variant"):
            Snake((1,), "S0")._replace(variant="BOGUS")
        with pytest.raises(ValueError, match="unknown variant"):
            Snake._make(((1,), "BOGUS"))

    def test_boundaries(self):
        assert Snake((2, 1), "FULL").extended() == (-3, 2, 1, 3)
        assert Snake((2, 1), "S0").extended() == (0, 2, 1, 3)
        assert Snake((2, -1, 3), "S0").extended() == (0, 2, -1, 3, -4)
        assert Snake((1,), "S00").extended() == (0, 1, 0)


class TestCsVector:
    def test_worked_example_vector(self):
        assert cs_vector(SIGMA10) == (0, 2, 0, 1, 0, 1, 0, 1, 1, 0)

    def test_worked_example_total(self):
        assert sign_changes(SIGMA10) == 6

    def test_singleton(self):
        s = Snake((1,), "S0")  # extended (0, 1, -2)
        assert cs_vector(s) == (1,)
        assert sign_changes(s) == 1

    @pytest.mark.parametrize("variant", ["S0", "S00"])
    @pytest.mark.parametrize("n", range(6))
    def test_vector_sums_to_total(self, n, variant):
        for s in generate_snakes(n, variant):
            assert sum(cs_vector(s)) == sign_changes(s)

    def test_non_snake_rejected(self):
        # 1 is a valley of the absolute word entered by a change and left by none
        with pytest.raises(ValueError, match="not a snake"):
            cs_vector(Snake((2, -1, -3), "S0"))

    @pytest.mark.parametrize("window", [(1, 1), (1, 2)])
    def test_non_snake_window_rejected(self, window):
        # (1, 1) is no signed permutation; (1, 2) does not zigzag below 3
        with pytest.raises(ValueError, match="not a snake"):
            cs_vector(Snake(window, "S0"))

    @pytest.mark.parametrize("n", range(6))
    def test_vector_well_defined_on_full_variant(self, n):
        # the per-element decomposition exists for every snake; the
        # total-recovery property belongs to the zero-boundary variants
        for s in generate_snakes(n, "FULL"):
            v = cs_vector(s)
            assert all(c in (0, 1, 2) for c in v)


class TestArnoldRecovery:
    def test_worked_example(self):
        got = arnold_recover(
            (5, 2, 4, 7, 1, 8, 10, 9, 6, 3), (0, 2, 0, 1, 0, 1, 0, 1, 1, 0), "S0"
        )
        assert got == SIGMA10

    def test_singleton(self):
        assert arnold_recover((1,), (1,), "S0") == Snake((1,), "S0")

    @pytest.mark.parametrize("variant", ["S0", "S00"])
    @pytest.mark.parametrize("n", range(6))
    def test_roundtrip(self, n, variant):
        for s in generate_snakes(n, variant):
            abs_window = tuple(abs(v) for v in s.window)
            assert arnold_recover(abs_window, cs_vector(s), variant) == s

    def test_inconsistent_vector_rejected(self):
        with pytest.raises(ValueError, match="no snake realizes"):
            arnold_recover((1,), (0,), "S0")

    @pytest.mark.parametrize("variant", ["S0", "S00"])
    @pytest.mark.parametrize("n", range(5))
    def test_matches_reference_on_every_vector(self, n, variant):
        # the same snake, or both raise
        for abs_window in itertools.permutations(range(1, n + 1)):
            for cs in itertools.product((0, 1, 2), repeat=n):
                try:
                    want = _arnold_reference(abs_window, cs, variant)
                except ValueError:
                    with pytest.raises(ValueError):
                        arnold_recover(abs_window, cs, variant)
                else:
                    assert arnold_recover(abs_window, cs, variant) == want

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            arnold_recover((1, 1), (0, 0), "S0")
        with pytest.raises(ValueError):
            arnold_recover((1,), (1,), "FULL")


class TestBlockProfile:
    def test_table_s0(self):
        p = block_profile((5, 2, 4, 7, 1, 8, 10, 9, 6, 3), "S0")
        assert p.alpha == (1, 2, 3, 4, 4, 3, 3, 2, 2, 2, 1)
        assert p.beta == (0, 0, 1, 0, 2, 2, 0, 1, 1, 0, 0)

    def test_table_s00(self):
        p = block_profile((5, 2, 4, 7, 1, 8, 11, 9, 6, 3, 10), "S00")
        assert p.alpha[6] == 4 and p.beta[6] == 1
        assert p.alpha[:11] == (2, 3, 4, 5, 5, 4, 4, 3, 3, 3, 2)
        assert p.beta[1:11] == (1, 2, 1, 3, 3, 1, 2, 2, 1, 0)

    def test_single_block(self):
        p = block_profile((1,), "S0")
        assert p.alpha[1] == 1 and p.beta[1] == 0

    def test_beta_below_alpha(self):
        for s in generate_snakes(5, "S0"):
            p = block_profile(tuple(abs(v) for v in s.window), "S0")
            assert all(b < a for a, b in zip(p.alpha, p.beta))


class TestPatternCounts:
    def test_element_six(self):
        word = (5, 2, 4, 7, 1, 8, 10, 9, 6, 3)
        thirteen_two, two_thirty_one = pattern_counts(word, "S0", 6)
        assert thirteen_two == 2  # the pairs (4,7) and (1,8) bracket 6
        assert two_thirty_one == 0
        assert snakes._patterns(word, "S0")[5] == (2, 0)

    def test_identity_window(self):
        for j in (1, 2, 3):
            assert pattern_counts((1, 2, 3), "S0", j) == (0, 0)

    @pytest.mark.parametrize("variant", ["S0", "S00"])
    @pytest.mark.parametrize("n", range(7))
    def test_sweep_matches_pattern_counts(self, n, variant):
        for window in snakes._windows(n, variant):
            word = tuple(map(abs, window))
            want = [pattern_counts(word, variant, k) for k in range(1, n + 1)]
            assert snakes._patterns(window, variant) == want, window

    @pytest.mark.parametrize("variant", ["S0", "S00"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_blocks_equal_patterns(self, n, variant):
        for s in generate_snakes(n, variant):
            word = tuple(abs(v) for v in s.window)
            p = block_profile(word, variant)
            for k in range(1, n + 1):
                a, b = pattern_counts(word, variant, k)
                assert p.beta[k] == b
                assert p.alpha[k] == a + b + 1


class TestPatStatistics:
    def test_singleton_pat_q(self):
        assert pat_q(Snake((1,), "S0")) == 0

    def test_singleton_contribution_to_q1(self):
        s = Snake((1,), "S0")
        assert sign_changes(s) == 1
        assert two_thirty_one_total((1,), "S0") == 0
        assert Q_poly(1) == T  # consistency of the single size-1 snake

    def test_element_classes_worked_example(self):
        classes = {j: element_class(SIGMA10, j) for j in range(1, 11)}
        assert classes[2] == "X"
        assert classes[1] == "valley0" and classes[3] == "valley0"
        assert classes[4] == classes[6] == classes[8] == classes[9] == "Y"
        assert classes[5] == classes[7] == classes[10] == "Z"


class TestLambda1:
    def test_worked_example_first_steps(self):
        path = lambda1(SIGMA10)
        assert path.steps[:2] == ("U", "U") and path.weights[:2] == ((0, 0, 0), (0, 2, 4))
        assert path.text().split()[:2] == ["U[1]", "U[t^2*q^4]"]

    def test_worked_example_full_path(self):
        # derived by applying the step rules to the block table by hand
        path = lambda1(SIGMA10)
        assert path.steps == ("U", "U", "U", "L", "D", "W", "D", "L", "W", "D")
        assert path.text() == "U[1] U[t^2*q^4] U[1] L[t*q^5] D[q^2] W[t*q^2] D[q] L[t*q^2] W[t*q] D[1]"

    def test_singleton(self):
        path = lambda1(Snake((1,), "S0"))
        assert path.steps == ("L",) and path.weights == ((0, 1, 0),)

    def test_weight_collects_statistics(self):
        for s in generate_snakes(4, "S0"):
            w = lambda1(s).weight()
            word = tuple(abs(v) for v in s.window)
            assert w[1] == sign_changes(s)
            assert w[2] == two_thirty_one_total(word, "S0") + pat_q(s)

    @pytest.mark.parametrize("n", range(6))
    def test_bijection_onto_tstar(self, n):
        images = {}
        for s in generate_snakes(n, "S0"):
            path = lambda1(s)
            assert path not in images
            images[path] = s
            assert lambda1_inv(path) == s
        assert set(images) == set(gen_weighted("TSTAR", n))

    @pytest.mark.parametrize("n", range(7))
    def test_matches_block_profile_reference(self, n):
        for s in generate_snakes(n, "S0"):
            assert lambda1(s) == _lambda_reference(s, 0), s.text()

    def test_wrong_variant(self):
        with pytest.raises(ValueError):
            lambda1(Snake((1,), "S00"))

    @pytest.mark.parametrize("window", [(1, 1), (1, 2), (2, -1, -3)])
    def test_non_snake_window_rejected(self, window):
        with pytest.raises(ValueError, match="not a snake"):
            lambda1(Snake(window, "S0"))

    def test_inverse_rejects_non_tstar(self):
        # a straight level step of weight t*q at height 0 is not in TSTAR
        with pytest.raises(ValueError):
            lambda1_inv(WeightedPath(("L",), ((0, 1, 1),)))

    @pytest.mark.parametrize("snake, forward, inverse", [
        (SIGMA10, lambda1, lambda1_inv), (Snake((1,), "S0"), lambda1, lambda1_inv), (SIGMA11, lambda2, lambda2_inv),
    ], ids=["S0-10", "S0-1", "S00-11"])
    def test_list_window_is_stored_as_a_tuple(self, snake, forward, inverse):
        s = Snake(list(snake.window), snake.variant)
        assert s.window == snake.window and type(s.window) is tuple
        assert inverse(forward(s)) == s == snake
        assert {s: 1}[snake] == 1 and hash(s._replace(window=list(s.window))) == hash(snake)


class TestLambda2:
    def test_worked_example_first_steps(self):
        path = lambda2(SIGMA11)
        assert path.steps[:2] == ("U", "U") and path.weights[:2] == ((0, 0, 0), (0, 2, 5))
        assert path.text().split()[:2] == ["U[1]", "U[t^2*q^5]"]

    def test_singleton(self):
        path = lambda2(Snake((1,), "S00"))
        assert len(path) == 0 and path.weight() == (0, 0, 0)

    @pytest.mark.parametrize("n", range(6))
    def test_bijection_onto_t(self, n):
        images = {}
        for s in generate_snakes(n + 1, "S00"):
            path = lambda2(s)
            assert path not in images
            images[path] = s
            assert lambda2_inv(path) == s
        assert set(images) == set(gen_weighted("T", n))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_block_profile_reference(self, n):
        for s in generate_snakes(n, "S00"):
            assert lambda2(s) == _lambda_reference(s, 1), s.text()

    def test_wrong_variant(self):
        with pytest.raises(ValueError):
            lambda2(Snake((1,), "S0"))

    @pytest.mark.parametrize("window", [(1, 1), (2, 1), (1, 3, -2)])
    def test_non_snake_window_rejected(self, window):
        with pytest.raises(ValueError, match="not a snake"):
            lambda2(Snake(window, "S00"))


class TestRebuildWord:
    # lambda1_inv and lambda2_inv test membership first, so only a direct
    # call reaches the decoder's own guards
    def test_block_index_out_of_range(self):
        # a rise onto block 1 when only the block of 0 exists
        steps, weights = ("U", "D"), ((0, 0, 1), (0, 0, 0))
        with pytest.raises(ValueError, match="malformed path: block index 1 out of range"):
            snakes._rebuild_word(steps, weights, offset=0)

    def test_merge_needs_a_left_neighbour(self):
        # with one block left, a fall has nothing to merge into
        steps, weights = ("U", "D"), ((0, 0, 0), (0, 0, 1))
        with pytest.raises(ValueError, match="malformed path: block index 1 out of range"):
            snakes._rebuild_word(steps, weights, offset=0)

    def test_blocks_remain(self):
        # a path returns to the axis, so every block is merged back; a lone
        # rise, whose shape the decoder never validates, leaves two
        with pytest.raises(ValueError, match="malformed path: 2 blocks remain"):
            snakes._rebuild_word(("U",), ((0, 0, 0),), offset=0)

    def test_worked_example(self):
        path = lambda1(SIGMA10)
        word, cs = snakes._rebuild_word(path.steps, path.weights, offset=0)
        assert word == [0, 5, 2, 4, 7, 1, 8, 10, 9, 6, 3]
        assert cs == list(cs_vector(SIGMA10))


class TestRawCores:
    """The raw generator, scan and cores against the per-element oracles
    and the references above."""

    @pytest.mark.parametrize("variant", ["FULL", "S0", "S00"])
    @pytest.mark.parametrize("n", range(8))
    def test_windows_match_reference(self, n, variant):
        want = [s.window for s in _generate_reference(n, variant)]
        assert list(snakes._windows(n, variant)) == want

    @pytest.mark.parametrize("variant", ["FULL", "S0", "S00"])
    @pytest.mark.parametrize("n", range(7))
    def test_scan_matches_per_element_oracles(self, n, variant):
        steps = {"valley0": "U", "X": "U", "Y": "LW", "Z": "D"}
        for s in generate_snakes(n, variant):
            word = tuple(abs(v) for v in s.window)
            scan = snakes._elements(s.window, variant)
            for j, (step, change, thirteen_two, two_thirty_one) in enumerate(scan, 1):
                assert (thirteen_two, two_thirty_one) == pattern_counts(word, variant, j), s.text()
                cls = element_class(s, j)
                assert step in steps[cls], (s.text(), j)
                if step == "U":
                    assert change == (cls == "X"), (s.text(), j)
            assert snakes._cs(scan) == cs_vector(s) == _cs_reference(s), s.text()

    @pytest.mark.parametrize("variant, offset", [("S0", 0), ("S00", 1)])
    @pytest.mark.parametrize("n", range(7))
    def test_encode_matches_lambda_reference(self, n, variant, offset):
        for s in generate_snakes(n + offset, variant):
            image = snakes._encode(snakes._elements(s.window, variant), offset)
            assert WeightedPath(*image) == _lambda_reference(s, offset), s.text()

    @pytest.mark.parametrize("variant, offset", [("S0", 0), ("S00", 1)])
    @pytest.mark.parametrize("n", range(7))
    def test_decode_matches_arnold_reference(self, n, variant, offset):
        for s in generate_snakes(n + offset, variant):
            path = _lambda_reference(s, offset)
            cs = [et for _, et, _ in path.weights] + [0] * offset  # the largest element is a peak
            want = _arnold_reference(tuple(abs(v) for v in s.window), cs, variant)
            assert snakes._decode(path.steps, path.weights, offset) == (want.window, tuple(cs)), s.text()


class TestSnakeEnumerator:
    def test_q1(self):
        assert snake_enumerator(1, "Q") == T

    def test_q2(self):
        assert snake_enumerator(2, "Q") == ONE + (ONE + Q) * T ** 2

    def test_r1(self):
        assert snake_enumerator(1, "R") == (ONE + Q) * T

    @pytest.mark.parametrize("n", range(6))
    def test_matches_operator_route(self, n):
        assert snake_enumerator(n, "Q") == Q_poly(n)
        assert snake_enumerator(n, "R") == R_poly(n)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            snake_enumerator(2, "X")

    # the ids name each statistic's x-shift and whether it counts peaks
    @pytest.mark.parametrize("variant, pat", [("S0", pat_q), ("S00", pat_r)],
                             ids=["S0--1-False-pat_q", "S00--2-True-pat_r"])
    @pytest.mark.parametrize("n", range(7))
    def test_one_scan_matches_per_element_oracles(self, n, variant, pat):
        # the weight of the encoding's image, read off one scan, against
        # pattern_counts and element_class, called once per element through
        # two_thirty_one_total and pat_q/pat_r
        offset = {"S0": 0, "S00": 1}[variant]
        for s in generate_snakes(n, variant):
            word = tuple(abs(v) for v in s.window)
            want = (0, sign_changes(s), two_thirty_one_total(word, variant) + pat(s) - offset * n)
            assert _weight(snakes._encode(snakes._elements(s.window, variant), offset)[1]) == want, s.text()
