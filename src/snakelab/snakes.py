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

The work runs on raw windows, plain tuples of signed ints, and on paths as
`(steps, weights)` with exponent-triple weights, the fields of a
`WeightedPath`:
- `_windows` is the one generator: a pruned depth-first search in which
  each position draws only from the signed values on its side of the
  zigzag bound;
- `_elements` is the one scan of a window: per element, in value order,
  its step letter, whether a sign change enters it, and its 13-2 and 2-31
  counts, read off running block counts in linear time (lemma-pattern);
- the cores read that scan: `_encode` gives the path, whose weight
  (`motzkin._weight`) is the snake's term of Q_n or R_n, and `_cs` the
  cs-vector; `_decode` maps a path back to its window and cs-vector, by
  block rebuild (`_rebuild_word`) and then sign recovery (`_signs`);
- `_patterns` is the pattern side of lemma-pattern: one sweep over a
  window's adjacent pairs, sharing no code with the scan.
The catalog's one walk per (variant, size), `checks._snake_walk`, reads
each window once and proves thm-5.8, thm-5.12 and the two lemmas off these
cores.  The public functions keep their types and guards: `generate_snakes`
wraps each window in a `Snake`; `cs_vector`, `lambda1` and `lambda2` reject
a window that is not a snake of its variant, and the encodings return
`_encode`'s pair as a `WeightedPath`; the inverses share `_inverse`:
`motzkin._require`, the walk's `_decode`, then `arnold_recover`'s check; and
`snake_enumerator` sums `_encode`'s weights over `_windows`.  The catalog's
worked-example block tables read their counts off `_elements` too.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import Counter, namedtuple
from operator import ge, le
from typing import Iterator, Sequence

from snakelab.algebra import Poly
from snakelab.motzkin import RawPath, Weight, WeightedPath, _require, _weight

VARIANTS = ("FULL", "S0", "S00")

# one element of a scan: (step, sign change entering, 13-2, 2-31)
Element = tuple[str, bool, int, int]


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
    return all(map(le, word[::2], word[1::2])) and all(map(ge, word[1::2], word[2::2]))


class Snake(namedtuple("Snake", "window variant")):
    """A snake window together with its variant tag."""

    __slots__ = ()

    def __new__(cls, window: tuple[int, ...], variant: str):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        return super().__new__(cls, window, variant)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so `_replace` validates too

    def size(self) -> int:
        return len(self.window)

    def extended(self) -> tuple[int, ...]:
        return _extended(self.window, self.variant)

    def text(self) -> str:
        body = ",".join(str(v) for v in self.window)
        return f"({body})[{self.variant}]"


def is_snake_window(window: Sequence[int], variant: str) -> bool:
    """Whether the window is a snake of its variant: its absolute values
    are a permutation of 1..n and its extended word zigzags."""
    return (sorted(map(abs, window)) == list(range(1, len(window) + 1))
            and _zigzag(_extended(window, variant)))


def _windows(n: int, variant: str) -> Iterator[tuple[int, ...]]:
    """The windows of the variant's snakes of size n, in increasing
    lexicographic order of signed values.

    Depth first, with one iterator of candidates per open position.
    Position i draws from a slice of the sorted signed values, those above
    the entry before it when i is odd (a peak of the zigzag) and those
    below it when i is even, and a flag list skips the magnitudes already
    used.  The last entry is -m or m for the one magnitude m left, kept
    when it also faces sigma_(n+1).
    """
    if n == 0:
        yield ()
        return
    left, *_, right = _extended((0,) * n, variant)
    values = (*range(-n, 0), *range(1, n + 1))
    above = {v: values[bisect_right(values, v):] for v in (left, *values)}
    below = {v: values[:bisect_left(values, v)] for v in (left, *values)}
    # ends[prev, m]: the last entries of magnitude m that may follow prev
    ends = {
        (prev, m): tuple(v for v in (-m, m)
                         if (v > max(prev, right) if n % 2 else v < min(prev, right)))
        for prev in (left, *values) for m in range(1, n + 1)
    }
    if n == 1:
        for v in ends[left, 1]:
            yield (v,)
        return
    window = [0] * n
    free = [True] * (n + 1)
    rest = n * (n + 1) // 2  # the sum of the magnitudes not placed yet
    stack = [iter(above[left])]  # stack[i - 1]: the candidates for position i
    while stack:
        for v in stack[-1]:
            if free[abs(v)]:
                break
        else:  # position exhausted: free the entry before it and go back
            stack.pop()
            if stack:
                a = abs(window[len(stack) - 1])
                free[a] = True
                rest += a
            continue
        i = len(stack)
        window[i - 1] = v
        if i == n - 1:
            for last in ends[v, rest - abs(v)]:
                window[-1] = last
                yield tuple(window)
        else:
            a = abs(v)
            free[a] = False
            rest -= a
            stack.append(iter((below if i % 2 else above)[v]))


def generate_snakes(n: int, variant: str) -> Iterator[Snake]:
    """All snakes of the variant, in increasing lexicographic order of
    signed values: the windows of `_windows`, each wrapped in a `Snake`.
    The arguments are checked when it is called."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if n < 0:
        raise ValueError("n must be >= 0")
    return (Snake(window, variant) for window in _windows(n, variant))


def _changes(a: int, b: int) -> bool:
    # sign change between adjacent entries; a boundary zero, having no sign,
    # never participates in a change (the product must be strictly negative)
    return a * b < 0


def sign_changes(snake: Snake) -> int:
    """Number of adjacent sign changes through the boundary-extended window."""
    return _sign_changes(*snake)


def _sign_changes(window: Sequence[int], variant: str) -> int:
    ext = _extended(window, variant)
    return sum(map(_changes, ext, ext[1:]))


def _elements(window: Sequence[int], variant: str) -> list[Element]:
    """(step, sign change entering, 13-2, 2-31) for each element of a snake
    window, in value order, from one scan.

    The elements join the boundary zeros in increasing order.  Element k
    opens a block of the absolute word restricted to {0..k} at a valley (U),
    extends one at a double ascent (L) or double descent (W), and merges
    two at a peak (D).  The sorted block starts give, by lemma-pattern, the
    2-31 count as the blocks to the right of k's and the 13-2 count as
    those to its left: the counts of the `_patterns` sweep.
    """
    ext = _extended(window, variant)
    word = list(map(abs, ext))
    n = len(window)
    at = [0] * (n + 1)
    for i in range(1, n + 1):
        at[word[i]] = i
    starts = [i for i in (0, n + 1) if word[i] == 0]
    out = []
    for k in range(1, n + 1):
        p = at[k]
        if word[p - 1] < k:
            if word[p + 1] < k:
                step = "D"
                del starts[bisect_left(starts, p + 1)]
            else:
                step = "L"
        elif word[p + 1] < k:
            step = "W"
            starts[bisect_left(starts, p + 1)] = p
        else:
            step = "U"
            insort(starts, p)
        after = len(starts) - bisect_right(starts, p)
        out.append((step, ext[p - 1] * ext[p] < 0, len(starts) - after - 1, after))
    return out


def _cs(elements: Sequence[Element]) -> tuple[int, ...]:
    """The cs-vector of a scan: 2 or 0 at a valley, by whether a sign
    change enters it, 1 at a double ascent or descent, 0 at a peak."""
    return tuple(2 * change if step == "U" else int(step != "D")
                 for step, change, _, _ in elements)


def _patterns(window: Sequence[int], variant: str) -> list[tuple[int, int]]:
    """(13-2, 2-31) for each element of a window, in value order, from one
    sweep over the adjacent pairs of its boundary-extended absolute word.

    An ascent x < y counts toward the 13-2 count of each value strictly
    between x and y that lies to its right, and a descent x > y toward the
    2-31 count of each such value that lies to its left.  The sweep shares
    no code with `_elements`, whose block counts lemma-pattern compares it
    with.
    """
    word = [abs(v) for v in _extended(window, variant)]
    seen = [False] * len(word)
    thirteen_two, two_thirty_one = [0] * len(word), [0] * len(word)
    for x, y in zip(word, word[1:]):
        seen[x] = True
        if x < y:
            for j in range(x + 1, y):
                thirteen_two[j] += not seen[j]
        else:
            for j in range(y + 1, x):
                two_thirty_one[j] += seen[j]
    return list(zip(thirteen_two, two_thirty_one))[1:len(window) + 1]


def _checked_scan(snake: Snake) -> list[Element]:
    """The `_elements` scan of a snake, whose window must be a snake of its
    variant."""
    if not is_snake_window(snake.window, snake.variant):
        raise ValueError(f"not a snake: {snake.text()}")
    return _elements(snake.window, snake.variant)


def cs_vector(snake: Snake) -> tuple[int, ...]:
    """Per-element sign-change counts: 0 or 2 at valleys of the absolute
    word (according to whether the element sits in a sign change), 1 at
    double ascents and double descents, 0 at peaks; the total is the number
    of sign changes."""
    return _cs(_checked_scan(snake))


def _signs(word: Sequence[int], cs: Sequence[int]) -> tuple[int, ...]:
    """The signed window over a boundary-extended absolute word: the first
    entry is positive, and between neighbours i-1 and i the sign flips
    unless the valley of the absolute word among the two (there is at most
    one, the lower of the two) records 0."""
    n = len(word) - 2
    if n < 1:
        return ()
    sign, window = 1, [word[1]]
    for i in range(2, n + 1):
        p = i if word[i] < word[i - 1] else i - 1  # only the lower can be a valley
        if not word[p - 1] > word[p] < word[p + 1] or cs[word[p] - 1]:
            sign = -sign
        window.append(sign * word[i])
    return tuple(window)


def arnold_recover(abs_window: Sequence[int], cs: Sequence[int], variant: str) -> Snake:
    """Recover the snake from its absolute window and cs-vector by
    `_signs`.  Raises if no snake of the variant realizes the vector."""
    if variant not in ("S0", "S00"):
        raise ValueError("sign recovery is defined for the S0 and S00 variants")
    n = len(abs_window)
    if sorted(abs_window) != list(range(1, n + 1)):
        raise ValueError(f"not an absolute window: {abs_window}")
    if len(cs) != n:
        raise ValueError("cs-vector length must match the window")
    window = _signs([abs(v) for v in _extended(abs_window, variant)], cs)
    # the window is a signed permutation by the test above, so only the zigzag is left
    if not _zigzag(_extended(window, variant)) or _cs(_elements(window, variant)) != tuple(cs):
        raise ValueError(f"no snake realizes cs-vector {tuple(cs)} over {abs_window}")
    return Snake(window, variant)


def _encode(elements: Sequence[Element], offset: int) -> RawPath:
    """The path of a snake's scan, shared by the two encodings.

    offset 0 encodes an S0 snake of size n as n steps; offset 1 encodes an
    S00 snake of size n+1 as n steps (the largest element is skipped).  The
    step for element j is its scan letter; exponents come from the block
    counts alpha_j = 13-2 + 2-31 + 1 and beta_j = 2-31 (lemma-pattern),
    shifted by the offset.  That the result lies in the target scheme is
    verified by the catalog (thm-5.8, thm-5.12), not here.
    """
    steps, weights = [], []
    for step, change, thirteen_two, beta in elements[: len(elements) - offset]:
        alpha = thirteen_two + beta + 1
        steps.append(step)
        if step == "U" and change:
            weights.append((0, 2, beta + 2 * alpha - 3 - 2 * offset))
        elif step == "U":
            weights.append((0, 0, beta - offset))
        elif step == "D":
            weights.append((0, 0, beta))
        else:
            weights.append((0, 1, beta + alpha - 1 - offset))
    return tuple(steps), tuple(weights)


def lambda1(snake: Snake) -> WeightedPath:
    """Encode an S0 snake of size n as a scheme-TSTAR path of length n.

    The weight collects t^cs(snake) q^(2-31 + pat_q)."""
    if snake.variant != "S0":
        raise ValueError("lambda1 expects an S0 snake")
    return WeightedPath(*_encode(_checked_scan(snake), offset=0))


def lambda2(snake: Snake) -> WeightedPath:
    """Encode an S00 snake of size n+1 as a scheme-T path of length n.

    The weight collects t^cs(snake) q^(2-31 + pat_r - n - 1)."""
    if snake.variant != "S00":
        raise ValueError("lambda2 expects an S00 snake")
    if snake.size() < 1:
        raise ValueError("lambda2 needs a snake of size >= 1")
    return WeightedPath(*_encode(_checked_scan(snake), offset=1))


def _rebuild_word(steps: Sequence[str], weights: Sequence[Weight],
                  offset: int) -> tuple[list[int], list[int]]:
    """Run the block-insertion reconstruction shared by the two decodings.

    The blocks are kept right to left, so a step's block index is a list
    index, and the height before a step is the number of blocks beyond the
    boundary ones.  Returns the boundary-extended absolute word (largest
    element placed; the right boundary n+1 of S0 is not included) and the
    per-element sign-change counts read off the weights' t-exponents.
    """
    blocks = [[0] for _ in range(1 + offset)]
    cs: list[int] = []
    for j, (step, (_, et, eq)) in enumerate(zip(steps, weights), 1):
        cs.append(et)
        h = len(blocks) - 1 - offset
        if step == "U":
            # both decodings: for a sign-change valley d = beta + 2*alpha
            # with different constants, but d - 2h - 1 is beta either way
            ell = eq + offset if et == 0 else eq - 2 * h - 1
        else:
            ell = eq if step == "D" else eq - h
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
        return [*blocks[1], len(steps) + 1, *blocks[0]], cs
    return blocks[0], cs


def _decode(steps: Sequence[str], weights: Sequence[Weight],
            offset: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The window and cs-vector a path (steps, weights) decodes to, by
    block rebuild and sign recovery, with none of `arnold_recover`'s
    checks: the caller compares both with the source's."""
    word, cs = _rebuild_word(steps, weights, offset)
    if not offset:
        word.append(len(word))  # the right boundary of S0, of absolute value n+1
    return _signs(word, cs), tuple(cs)


def _inverse(path: WeightedPath, scheme: str, offset: int) -> Snake:
    """The snake a path of the scheme decodes to by `_decode`, checked by
    `arnold_recover`: `lambda1_inv` at offset 0, `lambda2_inv` at offset 1."""
    _require(scheme, path)
    window, cs = _decode(path.steps, path.weights, offset)
    return arnold_recover(tuple(map(abs, window)), cs, ("S0", "S00")[offset])


def lambda1_inv(path: WeightedPath) -> Snake:
    """Decode a scheme-TSTAR path of length n into its S0 snake."""
    return _inverse(path, "TSTAR", offset=0)


def lambda2_inv(path: WeightedPath) -> Snake:
    """Decode a scheme-T path of length n into its S00 snake of size n+1."""
    return _inverse(path, "T", offset=1)


def snake_enumerator(n: int, which: str) -> Poly:
    """Direct snake sums: for 'Q', sum of t^cs q^(2-31 + pat_q) over the S0
    snakes of size n; for 'R', sum of t^cs q^(2-31 + pat_r - n - 1) over the
    S00 snakes of size n+1."""
    if which not in ("Q", "R"):
        raise ValueError(f"which must be 'Q' or 'R', got {which!r}")
    if n < 0:
        raise ValueError("n must be >= 0")
    variant, offset = ("S0", 0) if which == "Q" else ("S00", 1)
    return Poly(Counter(_weight(_encode(_elements(window, variant), offset)[1])
                        for window in _windows(n + offset, variant)))
