"""Library maps state contracts; the catalog verifies their images.

No invariant may live in an `assert`, which `python -O` strips, and a check
must report a map whose image leaves the target family as a failure with a
witness, not as an exception from the next call.
"""

import ast
import functools
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import snakelab
from snakelab import algebra, bijections, checks, cli, eulerians, motzkin, permstats, snakes
from snakelab.checks import run_check

PACKAGE_DIR = Path(snakelab.__file__).resolve().parent


def _bump_first(path: motzkin.RawPath, by: int) -> motzkin.RawPath:
    """The path (steps, weights) with its first weight's q-exponent shifted
    past any menu."""
    steps, weights = path
    if not weights:
        return path
    (ey, et, eq), *rest = weights
    return steps, ((ey, et, eq + by), *rest)


def _bump_first_range(box: tuple, by: int) -> tuple:
    """The box (steps, ranges) with its first q interval shifted past any
    menu."""
    steps, ranges = box
    if not ranges:
        return box
    (ey, et, lo, hi), *rest = ranges
    return steps, ((ey, et, lo + by, hi + by), *rest)


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE_DIR.glob("*.py")))
def test_no_assert_statements(module):
    tree = ast.parse((PACKAGE_DIR / module).read_text(), filename=module)
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{module}: assert at lines {lines}"


@pytest.fixture
def fresh_caches():
    """Empty the shared per-n passes before and after a test that patches
    what fills them, so a pass filled elsewhere cannot hide the patch."""
    caches = (permstats.a_table, permstats.b_table, checks._involution_walk)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@pytest.mark.parametrize("check_id", [
    "prop-3.2", "prop-3.6", "prop-4.4", "thm-5.8", "thm-5.12", "lemma-3.8", "thm-1.3-i",
])
def test_checks_pass_under_optimize(check_id):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "snakelab.cli", "verify", "--check", check_id],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "1 checks: 1 passed, 0 failed"


@pytest.mark.parametrize(
    "check_id, name, scheme",
    [("prop-3.6", "psi1", "H"), ("prop-4.4", "psi2", "MSTAR")],
)
def test_involution_check_catches_bad_image(monkeypatch, fresh_caches, check_id, name, scheme):
    # the checks apply the unguarded box move behind the public map
    real = bijections._toggle

    def bad_move(steps, ranges, move):
        return _bump_first_range(real(steps, ranges, move), 100)

    monkeypatch.setattr(bijections, "_toggle", bad_move)
    result = run_check(check_id)
    assert result.status == "fail"
    assert f"image leaves {scheme}" in result.witness


@pytest.mark.parametrize("name, scheme", [("psi1", "H"), ("psi2", "MSTAR")])
def test_public_involutions_guard_their_domain(name, scheme):
    outside = next(p for p in motzkin.gen_weighted("M", 3) if not motzkin.in_family(scheme, p))
    with pytest.raises(ValueError, match=f"not in scheme {scheme}"):
        getattr(bijections, name)(outside)


def test_table_checks_catch_bad_crossings(monkeypatch, fresh_caches):
    # every child that takes -n gains one crossing too many
    real = permstats._cro_steps_b

    def bad_steps(w):
        up, down = real(w)
        return up, [d + 1 for d in down]

    monkeypatch.setattr(permstats, "_cro_steps_b", bad_steps)
    for check_id in ("thm-corteel", "thm-1.3-i"):
        result = run_check(check_id)
        assert result.status == "fail", check_id
        assert result.witness.startswith("n=1: lhs - rhs = "), result.witness


def test_jv_check_catches_bad_type_a_crossings(monkeypatch, fresh_caches):
    real = permstats._cro_steps_a

    def bad_steps(w):
        up, none = real(w)
        return [d + 1 for d in up], none

    monkeypatch.setattr(permstats, "_cro_steps_a", bad_steps)
    result = run_check("jv1")
    assert result.status == "fail"
    assert result.witness.startswith("n=1: lhs - rhs = "), result.witness


def test_distribution_ignores_table_order(monkeypatch):
    # a des-b, gamma or xi witness prints these counts, so their order must
    # not follow the order in which the table met its rows
    want = list(checks._distribution(4, "B", lambda row: row[3]).items())
    real = permstats.family_table
    monkeypatch.setattr(permstats, "family_table",
                        lambda n, family: dict(reversed(real(n, family).items())))
    assert list(checks._distribution(4, "B", lambda row: row[3]).items()) == want


_REAL_PHI = bijections._phi


def _bad_phi(steps, ranges):
    # the box map behind prop-3.2; the head absorbs the shift, so the weight
    # is preserved and only the comparison with scheme H can see the bad image
    head, image = _REAL_PHI(steps, ranges)
    if not image[1]:
        return head, image
    ey, et, lo, hi = head
    return (ey, et, lo - 100, hi - 100), _bump_first_range(image, 100)


def test_cover_check_catches_bad_image(monkeypatch):
    monkeypatch.setattr(bijections, "_phi", _bad_phi)
    result = run_check("prop-3.2")
    assert result.status == "fail"
    assert "image leaves {y^2, yt} x H at" in result.witness


def test_cover_witness_ignores_hash_seed():
    # the witness is picked in generation order, not from a set
    child = (
        "import test_contracts\n"
        "from snakelab import bijections, checks\n"
        "bijections._phi = test_contracts._bad_phi\n"
        "print(checks.run_check('prop-3.2').witness)\n"
    )
    witnesses = []
    for seed in ("1", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join((str(PACKAGE_DIR.parent), str(Path(__file__).parent))))
        proc = subprocess.run([sys.executable, "-c", child], env=env,
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        witnesses.append(proc.stdout)
    assert b"image leaves {y^2, yt} x H at" in witnesses[0]
    assert witnesses[0] == witnesses[1]


_SNAKE_CHECKS = [("thm-5.8", "TSTAR"), ("thm-5.12", "T")]


@pytest.mark.parametrize("check_id, name", [("thm-5.8", "lambda1"), ("thm-5.12", "lambda2")])
def test_snake_check_catches_bad_image(monkeypatch, check_id, name):
    # the walk applies the unguarded encode core behind the public map
    scheme = {"lambda1": "TSTAR", "lambda2": "T"}[name]
    real = snakes._encode

    def bad_encode(elements, offset):
        return _bump_first(real(elements, offset), 100)

    monkeypatch.setattr(snakes, "_encode", bad_encode)
    result = run_check(check_id)
    assert result.status == "fail"
    assert f"image leaves {scheme} at" in result.witness


@pytest.mark.parametrize("check_id, scheme", _SNAKE_CHECKS)
def test_snake_check_catches_cs_mismatch(monkeypatch, check_id, scheme):
    # the decoder reads one level step's t-exponent 2 too high: the window
    # still decodes (signs read only the valleys), so only the walk's
    # comparison of cs-vectors sees it
    real = snakes._rebuild_word

    def off_by_two(steps, weights, offset):
        word, cs = real(steps, weights, offset)
        if 1 in cs:
            cs[cs.index(1)] += 2
        return word, cs

    monkeypatch.setattr(snakes, "_rebuild_word", off_by_two)
    result = run_check(check_id)
    assert result.status == "fail"
    assert f"image leaves {scheme} at" in result.witness
    assert "no snake realizes cs-vector" in result.witness


@pytest.mark.parametrize("check_id", [check_id for check_id, _ in _SNAKE_CHECKS])
def test_snake_check_catches_bad_key(monkeypatch, check_id):
    real = snakes._key

    def off_by_one_q(elements, offset):
        ey, et, eq = real(elements, offset)
        return ey, et, eq + 1

    monkeypatch.setattr(snakes, "_key", off_by_one_q)
    result = run_check(check_id)
    assert result.status == "fail"
    assert result.witness.startswith("n=0: lhs - rhs = "), result.witness


@pytest.mark.parametrize("check_id, scheme", _SNAKE_CHECKS)
def test_snake_check_catches_dropped_window(monkeypatch, check_id, scheme):
    real = snakes._windows
    monkeypatch.setattr(snakes, "_windows", lambda n, v: list(real(n, v))[:-1])
    assert run_check(check_id).witness == f"n=0: 0 sources, 1 in {scheme}"


def test_sign_change_witness_names_n(monkeypatch):
    real = snakes.sign_changes
    monkeypatch.setattr(snakes, "sign_changes", lambda s: real(s) + 1)
    witness = run_check("lemma-sign-changes").witness
    assert witness == "n=0: ()[S0]: vector () does not sum to the total"


def test_pattern_witness_names_n(monkeypatch):
    monkeypatch.setattr(snakes, "pattern_counts", lambda word, variant, k: (0, 1))
    witness = run_check("lemma-pattern").witness
    assert witness == "n=1: (1)[S0]: k=1 blocks (1, 0) vs patterns (0, 1)"


def _wrong_for_s00_and_large(variant, size):
    return variant == "S00" or size >= 3


def test_sign_change_witness_is_smallest_over_variants(monkeypatch):
    # S00 fails from n=0 and S0 only from n=3: the smallest n wins
    real = snakes.sign_changes
    monkeypatch.setattr(snakes, "sign_changes",
                        lambda s: real(s) + _wrong_for_s00_and_large(s.variant, s.size()))
    witness = run_check("lemma-sign-changes").witness
    assert witness == "n=0: ()[S00]: vector () does not sum to the total"


def test_pattern_witness_is_smallest_over_variants(monkeypatch):
    real = snakes.pattern_counts

    def bad(word, variant, k):
        a, b = real(word, variant, k)
        return a, b + _wrong_for_s00_and_large(variant, len(word))

    monkeypatch.setattr(snakes, "pattern_counts", bad)
    witness = run_check("lemma-pattern").witness
    assert witness == "n=1: (1)[S00]: k=1 blocks (1, 0) vs patterns (0, 1)"


@pytest.mark.parametrize("call", [
    lambda: list(permstats.generate(-1, "A")),
    lambda: list(permstats.generate(-1, "B")),
    lambda: permstats.a_table(-1),
    lambda: permstats.b_table(-1),
    lambda: permstats.signed_enumerator(-1, "A", "EULER_EXC"),
    lambda: permstats.signed_enumerator(-1, "B", "FULL_YTQ"),
    lambda: permstats.signed_enumerator(-1, "A", "JV_WEX_CRO"),
    lambda: list(snakes.generate_snakes(-1, "S0")),
    lambda: snakes.snake_enumerator(-1, "Q"),
    lambda: snakes.snake_enumerator(-1, "R"),
    lambda: eulerians.springer_number(-1),
    lambda: eulerians.count_alternating(-1),
    lambda: eulerians.seidel_numbers(-1),
    lambda: eulerians.springer_numbers(-1),
    lambda: algebra.q_int(-2),
], ids=[
    "generate-A", "generate-B", "a_table", "b_table", "euler-exc", "full-ytq",
    "jv", "generate_snakes", "snake-Q", "snake-R", "springer_number", "count_alternating",
    "seidel_numbers", "springer_numbers", "q_int",
])
def test_negative_n_is_rejected(call):
    # a negative size is an error, never an empty family with a vacuous sum
    with pytest.raises(ValueError, match="n must be >= 0"):
        call()


# -- names the benchmark tracer looks up ---------------------------------------

TRACE_CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "trace_child.py"


def _traced_module(node) -> str | None:
    """"x" for `sys.modules[PACKAGE + ".x"]`, else None."""
    if (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.BinOp)
            and isinstance(node.slice.right, ast.Constant)):
        return node.slice.right.value.lstrip(".")
    return None


def _tracer_lookups() -> set[tuple[str, str]]:
    """(module, attribute) for every package attribute trace_child.py names."""
    tree = ast.parse(TRACE_CHILD.read_text())
    aliases = {node.targets[0].id: mod for node in ast.walk(tree)
               if isinstance(node, ast.Assign)
               and (mod := _traced_module(node.value))}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            base = node.value
            mod = aliases.get(base.id) if isinstance(base, ast.Name) else _traced_module(base)
            if mod:
                found.add((mod, node.attr))
    return found


def test_tracer_lookups_exist():
    lookups = _tracer_lookups()
    assert {("cli", "_row_value"), ("checks", "run_check"), ("algebra", "Poly")} <= lookups
    for mod, attr in sorted(lookups):
        assert hasattr(importlib.import_module(f"snakelab.{mod}"), attr), f"{mod}.{attr}"


def _layer_metric_names() -> list[str]:
    """The per-layer metrics of BENCHMARK.json that name one traced function
    or method: <layer>.<fn>.<metric> or <layer>.<Class>.<method>.<metric>.
    checks.<id>.s and <layer>.self_s name no function."""
    bench = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    return [spec["name"] for spec in bench["per_layer"]
            if spec["name"].count(".") in (2, 3) and not spec["name"].startswith("checks.")]


@pytest.mark.parametrize("name", _layer_metric_names())
def test_layer_metric_names_a_traced_function(name):
    # the tracer wraps public functions and lru_caches defined in a module,
    # and the public methods and dunders written in its public classes; a
    # metric whose function is gone makes `perfbench/run.py --trace 1` fail
    layer, *path, _ = name.split(".")
    module = importlib.import_module(f"snakelab.{layer}")
    owner = getattr(module, path[0], None)
    assert not path[0].startswith("_") and getattr(owner, "__module__", None) == module.__name__, name
    if len(path) == 1:
        assert isinstance(owner, (types.FunctionType, functools._lru_cache_wrapper)), name
        return
    assert isinstance(owner, type), name
    method = vars(owner).get(path[1], vars(owner).get(f"__{path[1]}__"))
    assert isinstance(method, types.FunctionType), name
    assert method.__code__.co_filename == module.__file__, name  # not generated by dataclass


@pytest.mark.parametrize("name", ["jfraction_series", "sfraction_series"])
def test_series_routes_stay_traced(name):
    # the tracer wraps public module-level functions only; the benchmark reads
    # algebra.jfraction_series.self_s and algebra.sfraction_series.self_s
    fn = getattr(algebra, name)
    assert isinstance(fn, types.FunctionType)
    assert fn.__module__ == algebra.__name__


@pytest.mark.parametrize("name", [
    "generate_snakes", "lambda1", "lambda2", "lambda1_inv", "lambda2_inv", "snake_enumerator",
])
def test_snake_layer_stays_traced(name):
    # the benchmark reads snakes.<name>.objects, .calls or .self_s, which the
    # tracer records for public module-level functions only
    fn = getattr(snakes, name)
    assert isinstance(fn, types.FunctionType)
    assert fn.__module__ == snakes.__name__


def test_tracer_call_shapes():
    # the tracer spans these by their positional arguments
    assert cli._row_value("Q", 3) == str(eulerians.Q_poly(3))
    assert cli._row_value("R", 2) == str(eulerians.R_poly(2))
    assert callable(checks.run_check)
    assert checks.run_check("q0-golden", None).status == "pass"


PUBLIC_HOMES = {
    "CoefficientSchedule": algebra, "Monomial": algebra, "Poly": algebra,
    "jfraction_series": algebra, "q_derivative": algebra, "q_int": algebra,
    "sfraction_series": algebra, "u_multiply": algebra,
    "Q_poly": eulerians, "R_poly": eulerians, "euler_number": eulerians,
    "q_euler": eulerians, "springer_number": eulerians,
    "WeightedPath": motzkin, "gen_shapes": motzkin, "gen_weighted": motzkin,
    "rho": motzkin, "weight_menu": motzkin,
    "StatRecord": permstats, "generate": permstats, "signed_enumerator": permstats,
    "stats": permstats,
    "Snake": snakes, "generate_snakes": snakes, "snake_enumerator": snakes,
}


def test_lazy_namespace_keeps_every_public_name():
    assert sorted(snakelab.__all__) == sorted([*PUBLIC_HOMES, "__version__"])
    for name, module in PUBLIC_HOMES.items():
        assert getattr(snakelab, name) is getattr(module, name), name
    namespace: dict = {}
    exec("from snakelab import *", namespace)
    assert set(snakelab.__all__) <= set(namespace)
    assert set(snakelab.__all__) <= set(dir(snakelab))
    with pytest.raises(AttributeError):
        snakelab.no_such_name
