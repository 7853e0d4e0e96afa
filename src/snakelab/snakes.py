"""Snakes (alternating signed permutations), their sign-change and pattern
statistics, and the bijections onto weighted bicolored Motzkin paths.

A variant is given only by its boundary entries sigma_0 and sigma_(n+1)
(`_extended` is the one place they are spelled out), and a window is a
snake of its variant exactly when its extended word zigzags, sigma_0 <
sigma_1 > sigma_2 < ...:

  FULL  sigma_0 = -(n+1), sigma_(n+1) = (-1)^n (n+1)   all snakes
  S0    sigma_0 = 0,      sigma_(n+1) = (-1)^n (n+1)   sigma_1 > 0
  S00   sigma_0 = 0,      sigma_(n+1) = 0              also (-1)^n sigma_n < 0

`lambda1` encodes an S0 snake of size n as a weighted path of scheme TSTAR
(total weight t^cs q^(2-31 + pat_Q), summing to Q_n(t,q)); `lambda2` encodes
an S00 snake of size n+1 as a scheme-T path of length n (summing to
R_n(t,q) after the q^(-n-1) normalization).  Both inverses rebuild the
absolute permutation in one list of blocks and then recover the signs from
the cs-vector.

Each snake is read in one scan, `_elements`: per element its step letter,
whether a sign change enters it, and its 13-2 and 2-31 counts.
`snake_enumerator` sums that scan, and the lambdas take their block counts
from it by lemma-pattern.  `pattern_counts`, `block_profile`,
`element_class`, `pat_q` and `pat_r` compute the same numbers one element
at a time; they stay as the oracles the tests check that scan against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from snakelab.algebra import Key, Monomial, Poly
from snakelab.motzkin import WeightedPath, in_family

VARIANTS = ("FULL", "S0", "S00")


def _extended(window: Sequence[int], variant: str) -> tuple[int, ...]:
    """The window between its variant's boundary entries sigma_0 and
    sigma_(n+1)."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    n = len(window)
    edge = n + 1 if n % 2 == 0 else -(n + 1)
    if variant == "FULL":
        return (-(n + 1), *window, edge)
    return (0, *window, 0 if variant == "S00" else edge)


def _zigzag(word: Sequence[int]) -> bool:
    """word[0] <= word[1] >= word[2] <= ...; the boundary zeros of S00 are
    the only equal neighbours a snake's extended word can have."""
    return (all(a <= b for a, b in zip(word[::2], word[1::2]))
            and all(a >= b for a, b in zip(word[1::2], word[2::2])))


@dataclass(frozen=True)
class Snake:
    """A snake window together with its variant tag."""

    window: tuple[int, ...]
    variant: str

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")

    def size(self) -> int:
        return len(self.window)

    def extended(self) -> tuple[int, ...]:
        return _extended(self.window, self.variant)

    def abs_extended(self) -> tuple[int, ...]:
        return tuple(abs(v) for v in self.extended())

    def text(self) -> str:
        body = ",".join(str(v) for v in self.window)
        return f"({body})[{self.variant}]"


def is_snake_window(window: Sequence[int], variant: str) -> bool:
    """Whether the window is a snake of its variant: its absolute values
    are a permutation of 1..n and its extended word zigzags."""
    return (sorted(map(abs, window)) == list(range(1, len(window) + 1))
            and _zigzag(_extended(window, variant)))


def generate_snakes(n: int, variant: str) -> Iterator[Snake]:
    """All snakes of the variant, by backtracking over signed values in
    increasing order (deterministic) so that the extended word zigzags."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        yield Snake((), variant)
        return
    left, *_, right = _extended((0,) * n, variant)
    window: list[int] = []
    candidates = [v for v in range(-n, n + 1) if v != 0]
    used: set[int] = set()

    def rec(i: int) -> Iterator[Snake]:
        # position i is a peak of the zigzag when i is odd, a valley when even
        prev, peak = window[-1] if window else left, i % 2
        if i == n:  # the last entry also faces sigma_(n+1)
            prev = max(prev, right) if peak else min(prev, right)
        for v in candidates:
            if abs(v) in used or (v < prev if peak else v > prev):
                continue
            window.append(v)
            used.add(abs(v))
            if i == n:
                yield Snake(tuple(window), variant)
            else:
                yield from rec(i + 1)
            window.pop()
            used.discard(abs(v))

    yield from rec(1)


def _changes(a: int, b: int) -> bool:
    # sign change between adjacent entries; a boundary zero, having no sign,
    # never participates in a change (the product must be strictly negative)
    return a * b < 0


def sign_changes(snake: Snake) -> int:
    """Number of adjacent sign changes through the boundary-extended window."""
    ext = snake.extended()
    return sum(map(_changes, ext, ext[1:]))


def cs_vector(snake: Snake) -> tuple[int, ...]:
    """Per-element sign-change counts: 0 or 2 at valleys of the absolute
    word (according to whether the element sits in a sign change), 1 at
    double ascents and double descents, 0 at peaks; the total is the number
    of sign changes."""
    ext = snake.extended()
    word = snake.abs_extended()
    pos = {word[i]: i for i in range(1, len(word) - 1)}
    out = []
    for j in range(1, snake.size() + 1):
        i = pos[j]
        left, right = word[i - 1], word[i + 1]
        if left > j < right:
            change_left = _changes(ext[i - 1], ext[i])
            change_right = _changes(ext[i], ext[i + 1])
            if change_left != change_right:
                raise ValueError(f"not a snake: {snake.text()}")
            out.append(2 if change_left else 0)
        elif left < j > right:
            out.append(0)
        else:
            out.append(1)
    return tuple(out)


def arnold_recover(abs_window: Sequence[int], cs: Sequence[int], variant: str) -> Snake:
    """Recover the snake from its absolute window and cs-vector.

    Signs are assigned left to right: the first entry is positive, and
    between neighbours i-1 and i the sign flips unless the valley of the
    absolute word among the two (there is at most one, the lower of the two)
    records 0.  Raises if no snake of the variant realizes the vector.
    """
    if variant not in ("S0", "S00"):
        raise ValueError("sign recovery is defined for the S0 and S00 variants")
    n = len(abs_window)
    if sorted(abs_window) != list(range(1, n + 1)):
        raise ValueError(f"not an absolute window: {abs_window}")
    if len(cs) != n:
        raise ValueError("cs-vector length must match the window")
    if n == 0:
        return Snake((), variant)
    word = [abs(v) for v in _extended(abs_window, variant)]
    sign, window = 1, [word[1]]
    for i in range(2, n + 1):
        p = i if word[i] < word[i - 1] else i - 1  # only the lower can be a valley
        valley = word[p - 1] > word[p] < word[p + 1]
        if not valley or cs[word[p] - 1] != 0:
            sign = -sign
        window.append(sign * word[i])
    out = Snake(tuple(window), variant)
    # the window is a signed permutation by the test above, so only the zigzag is left
    if not _zigzag(out.extended()) or cs_vector(out) != tuple(cs):
        raise ValueError(f"no snake realizes cs-vector {tuple(cs)} over {abs_window}")
    return out


@dataclass(frozen=True)
class BlockProfile:
    """Block counts of the boundary-extended absolute word restricted to
    {0..k}: alpha[k] blocks in total, beta[k] of them strictly to the right
    of the block containing k (leftmost occurrence for the S00 boundary
    zeros)."""

    alpha: tuple[int, ...]
    beta: tuple[int, ...]


def _blocks(word: Sequence[int], k: int) -> list[tuple[int, int]]:
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


def block_profile(abs_window: Sequence[int], variant: str) -> BlockProfile:
    word = [abs(v) for v in _extended(abs_window, variant)]
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


def pattern_counts(abs_window: Sequence[int], variant: str, j: int) -> tuple[int, int]:
    """(13-2, 2-31) pattern counts of the element j against adjacent pairs of
    the boundary-extended absolute word."""
    word = tuple(abs(v) for v in _extended(abs_window, variant))
    i = word.index(j, 1)
    thirteen_two = sum(
        1 for a in range(0, i - 1) if word[a] < j < word[a + 1]
    )
    two_thirty_one = sum(
        1 for a in range(i + 1, len(word) - 1) if word[a] > j > word[a + 1]
    )
    return thirteen_two, two_thirty_one


def two_thirty_one_total(abs_window: Sequence[int], variant: str) -> int:
    return sum(
        pattern_counts(abs_window, variant, j)[1]
        for j in range(1, len(abs_window) + 1)
    )


def element_class(snake: Snake, j: int) -> str:
    """Classify element j: 'valley0' (valley, no sign change), 'X' (valley
    with sign changes), 'Y' (double ascent or double descent), 'Z' (peak)."""
    word = snake.abs_extended()
    ext = snake.extended()
    i = word.index(j, 1)
    left, right = word[i - 1], word[i + 1]
    if left > j < right:
        return "X" if _changes(ext[i - 1], ext[i]) else "valley0"
    if left < j > right:
        return "Z"
    return "Y"


def _pattern_stat(snake: Snake, x_shift: int, count_peaks: bool) -> int:
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


def pat_q(snake: Snake) -> int:
    """q-pattern statistic of an S0 snake:
    sum over valleys with sign changes of 2*(13-2 + 2-31) - 1, plus
    sum over double ascents/descents of (13-2 + 2-31)."""
    if snake.variant != "S0":
        raise ValueError("pat_q expects an S0 snake")
    return _pattern_stat(snake, x_shift=-1, count_peaks=False)


def pat_r(snake: Snake) -> int:
    """q-pattern statistic of an S00 snake:
    sum over valleys with sign changes of 2*(13-2 + 2-31 - 1), plus
    sum over double ascents/descents of (13-2 + 2-31), plus the number
    of peaks."""
    if snake.variant != "S00":
        raise ValueError("pat_r expects an S00 snake")
    return _pattern_stat(snake, x_shift=-2, count_peaks=True)


def _elements(snake: Snake) -> list[tuple[str, bool, int, int]]:
    """(step, sign change entering, 13-2, 2-31) for each element in value
    order, from one scan of the extended word.  The step is U at a valley,
    L at a double ascent, W at a double descent and D at a peak of the
    absolute word; the counts are those of `pattern_counts`."""
    ext = snake.extended()
    word = [abs(v) for v in ext]
    pairs = list(zip(word, word[1:]))
    out: list = [None] * snake.size()
    for i in range(1, len(word) - 1):
        j, left, right = word[i], word[i - 1], word[i + 1]
        if left > j < right:
            step = "U"
        elif left < j > right:
            step = "D"
        else:
            step = "L" if left < j else "W"
        thirteen_two = sum(1 for lo, hi in pairs[: i - 1] if lo < j < hi)
        two_thirty_one = sum(1 for hi, lo in pairs[i + 1 :] if hi > j > lo)
        out[j - 1] = (step, _changes(ext[i - 1], ext[i]), thirteen_two, two_thirty_one)
    return out


def _lambda_steps(snake: Snake, offset: int) -> WeightedPath:
    """Shared body of the two snake-to-path encodings.

    offset 0 encodes an S0 snake of size n as n steps; offset 1 encodes an
    S00 snake of size n+1 as n steps (the largest element is skipped).  The
    step for element j is its `_elements` letter; exponents come from the
    block counts alpha_j = 13-2 + 2-31 + 1 and beta_j = 2-31 (lemma-pattern),
    shifted by the offset.  That the result lies in the target scheme is
    verified by the catalog (thm-5.8, thm-5.12), not here.
    """
    steps, weights = [], []
    for step, change, thirteen_two, beta in _elements(snake)[: snake.size() - offset]:
        alpha = thirteen_two + beta + 1
        steps.append(step)
        if step == "U" and change:
            weights.append(Monomial(1, 0, 2, beta + 2 * alpha - 3 - 2 * offset))
        elif step == "U":
            weights.append(Monomial(1, 0, 0, beta - offset))
        elif step == "D":
            weights.append(Monomial(1, 0, 0, beta))
        else:
            weights.append(Monomial(1, 0, 1, beta + alpha - 1 - offset))
    return WeightedPath(tuple(steps), tuple(weights))


def lambda1(snake: Snake) -> WeightedPath:
    """Encode an S0 snake of size n as a scheme-TSTAR path of length n.

    The weight collects t^cs(snake) q^(2-31 + pat_q)."""
    if snake.variant != "S0":
        raise ValueError("lambda1 expects an S0 snake")
    return _lambda_steps(snake, offset=0)


def lambda2(snake: Snake) -> WeightedPath:
    """Encode an S00 snake of size n+1 as a scheme-T path of length n.

    The weight collects t^cs(snake) q^(2-31 + pat_r - n - 1)."""
    if snake.variant != "S00":
        raise ValueError("lambda2 expects an S00 snake")
    if snake.size() < 1:
        raise ValueError("lambda2 needs a snake of size >= 1")
    return _lambda_steps(snake, offset=1)


def _rebuild_word(path: WeightedPath, offset: int) -> tuple[list[int], list[int]]:
    """Run the block-insertion reconstruction shared by the two decodings.

    The blocks are kept right to left, so a step's block index is a list
    index.  Returns the completed boundary-extended absolute word (largest
    element placed) and the per-element sign-change counts read off the
    step weights.
    """
    blocks = [[0] for _ in range(1 + offset)]
    cs: list[int] = []
    for j, (step, w, h) in enumerate(zip(path.steps, path.weights, path.heights()), 1):
        cs.append(w.et)
        if step == "U":
            # both decodings: for a sign-change valley d = beta + 2*alpha
            # with different constants, but d - 2h - 1 is beta either way
            ell = w.eq + offset if w.et == 0 else w.eq - 2 * h - 1
        else:
            ell = w.eq if step == "D" else w.eq - h
        if not 0 <= ell < len(blocks) - (step == "D"):
            raise ValueError(f"malformed path: block index {ell} out of range")
        if step == "U":
            blocks.insert(ell, [j])
        elif step == "L":
            blocks[ell].append(j)
        elif step == "W":
            blocks[ell].insert(0, j)
        else:  # block ell joins its left neighbour, now at index ell
            right = blocks.pop(ell)
            blocks[ell].extend([j, *right])
    if len(blocks) != 1 + offset:
        raise ValueError(f"malformed path: {len(blocks)} blocks remain")
    if offset:
        cs.append(0)  # the largest element is always a peak
        return [*blocks[1], len(path) + 1, *blocks[0]], cs
    return blocks[0], cs


def lambda1_inv(path: WeightedPath) -> Snake:
    """Decode a scheme-TSTAR path of length n into its S0 snake."""
    if not in_family("TSTAR", path):
        raise ValueError(f"path is not in scheme TSTAR: {path.text()!r}")
    word, cs = _rebuild_word(path, offset=0)
    return arnold_recover(tuple(word[1:]), cs, "S0")


def lambda2_inv(path: WeightedPath) -> Snake:
    """Decode a scheme-T path of length n into its S00 snake of size n+1."""
    if not in_family("T", path):
        raise ValueError(f"path is not in scheme T: {path.text()!r}")
    word, cs = _rebuild_word(path, offset=1)
    return arnold_recover(tuple(word[1:-1]), cs, "S00")


def _scan(snake: Snake, x_shift: int, count_peaks: bool) -> tuple[int, int]:
    """(sign changes, 2-31 total + pattern statistic) of a snake from its
    `_elements` scan; `_pattern_stat` with the same x_shift and
    count_peaks, plus `two_thirty_one_total`, element by element."""
    exponent = 0
    for step, change, thirteen_two, two_thirty_one in _elements(snake):
        exponent += two_thirty_one
        if step == "U":
            if change:  # class X
                exponent += 2 * (thirteen_two + two_thirty_one) + x_shift
        elif step == "D":  # class Z
            exponent += count_peaks
        else:  # class Y
            exponent += thirteen_two + two_thirty_one
    return sign_changes(snake), exponent


def snake_enumerator(n: int, which: str) -> Poly:
    """Direct snake sums: for 'Q', sum of t^cs q^(2-31 + pat_q) over the S0
    snakes of size n; for 'R', sum of t^cs q^(2-31 + pat_r - n - 1) over the
    S00 snakes of size n+1."""
    if which == "Q":
        variant, size, x_shift, count_peaks, shift = "S0", n, -1, False, 0
    elif which == "R":
        variant, size, x_shift, count_peaks, shift = "S00", n + 1, -2, True, -n - 1
    else:
        raise ValueError(f"which must be 'Q' or 'R', got {which!r}")
    if n < 0:
        raise ValueError("n must be >= 0")
    acc: dict[Key, int] = {}
    for snake in generate_snakes(size, variant):
        changes, exponent = _scan(snake, x_shift, count_peaks)
        key = (0, changes, exponent + shift)
        acc[key] = acc.get(key, 0) + 1
    return Poly(acc)
