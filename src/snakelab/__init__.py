"""snakelab: exact enumerative combinatorics of signed permutations,
generalized Euler numbers, weighted bicolored Motzkin paths, sign-reversing
involutions and snakes, with an exhaustive identity-verification harness.

The public names are loaded lazily: `_HOMES` maps each to its module, which
is imported on first access (PEP 562), so `import snakelab` and each CLI
command load only the layers they read."""

from importlib import import_module

__version__ = "0.1.0"

_HOMES = {
    name: module
    for module, names in {
        "algebra": "CoefficientSchedule Monomial Poly jfraction_series q_derivative q_int"
                   " sfraction_series u_multiply",
        "eulerians": "Q_poly R_poly euler_number q_euler springer_number",
        "motzkin": "WeightedPath gen_shapes gen_weighted rho weight_menu",
        "permstats": "StatRecord generate signed_enumerator stats",
        "snakes": "Snake generate_snakes snake_enumerator",
    }.items()
    for name in names.split()
}

__all__ = [*sorted(_HOMES), "__version__"]


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
