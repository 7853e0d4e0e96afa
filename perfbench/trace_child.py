"""Run one snakelab CLI command with the package's public functions wrapped
from outside, and write what they did to a JSON file when the command ends.

    PYTHONPATH=src python3 perfbench/trace_child.py OUT.json verify --all

Nothing in the package is edited.  After `snakelab.cli` and everything it
imports are loaded, every public module-level function, every public method
and arithmetic dunder of a public class, and every `lru_cache` wrapper is
replaced by a counting wrapper in each place that holds it: the defining
module, modules that did `from snakelab.x import f`, class aliases such as
`Poly.__rmul__ = __mul__`, and closure cells of package functions.

Fine-grained calls only bump counters.  Self time is a call's time minus the
time of traced calls nested inside it, and minus the wrappers' own cost for
those calls (measured at start-up against a wrapped no-op), so a caller of
many tiny traced functions is not charged for the tracing.  A generator is timed only while it is
being resumed, and the objects it yields are counted.  The time to execute a
module's top-level code on import is that module's self time too, because
every fresh process pays it.  Spans are kept only at coarse boundaries: the
command, each `checks.run_check` and each `compute` row.
"""

from __future__ import annotations

import functools
import gc
import importlib.machinery
import inspect
import json
import statistics
import sys
import time
import types

clock = time.perf_counter

PACKAGE = "snakelab"
# Dunders traced on package classes; each alias of one function shares its counter.
DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
           "__rmul__", "__pow__", "__eq__", "__str__", "__call__")


def _layer(module_name: str) -> str:
    return module_name.rpartition(".")[2]


class Tracer:
    def __init__(self) -> None:
        self.start = clock()
        # One entry per open traced frame: time covered by traced calls inside it.
        self.stack = [0.0]
        # name -> [calls, self_s, total_s, objects yielded]
        self.stats: dict[str, list] = {}
        self.import_self_s: dict[str, float] = {}
        self.term_pairs = [0]
        self.spans: list[dict] = []
        self.caches: dict[str, object] = {}
        # Wrapper cost per traced call that would land in the caller's self time.
        self.overhead = 0.0

    # -- import timing -------------------------------------------------------

    def find_spec(self, fullname, path, target=None):
        """Meta-path hook: time the execution of each package module."""
        if fullname != PACKAGE and not fullname.startswith(PACKAGE + "."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path, target)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        layer = _layer(fullname)
        stack = self.stack

        def timed_exec_module(module):
            stack.append(0.0)
            began = clock()
            try:
                exec_module(module)
            finally:
                dt = clock() - began
                self.import_self_s[layer] = self.import_self_s.get(layer, 0.0) + dt - stack.pop()
                stack[-1] += dt

        spec.loader.exec_module = timed_exec_module
        return spec

    # -- wrappers -------------------------------------------------------------

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0])

    def wrap_call(self, fn, name: str, span_label=None):
        stat = self._stat(name)
        stack = self.stack
        overhead = self.overhead
        spans = self.spans
        start = self.start

        def traced(*args, **kwargs):
            stack.append(0.0)
            began = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ended = clock()
                dt = ended - began
                stat[0] += 1
                stat[1] += dt - stack.pop()
                stat[2] += dt
                stack[-1] += dt + overhead
                if span_label is not None:
                    spans.append({"name": name, "label": span_label(*args),
                                  "start": began - start, "end": ended - start,
                                  "parent": 0})

        return traced

    def wrap_generator(self, fn, name: str):
        stat = self._stat(name)
        stack = self.stack
        overhead = self.overhead

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            stat[0] += 1
            while True:
                stack.append(0.0)
                began = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    dt = clock() - began
                    stat[1] += dt - stack.pop()
                    stat[2] += dt
                    stack[-1] += dt + overhead
                stat[3] += 1
                yield item

        return traced

    def wrap_poly_mul(self, fn, name: str, poly_type):
        """Poly.__mul__ also counts len(a)*len(b), the schoolbook term pairs."""
        traced = self.wrap_call(fn, name)
        pairs = self.term_pairs

        def traced_mul(a, b):
            if isinstance(b, poly_type):
                pairs[0] += len(a.terms) * len(b.terms)
            elif isinstance(b, int) and b:
                pairs[0] += len(a.terms)
            return traced(a, b)

        return traced_mul

    def wrap(self, fn, name: str):
        if inspect.isgeneratorfunction(fn):
            return self.wrap_generator(fn, name)
        traced = self.wrap_call(fn, name)
        if hasattr(fn, "cache_info"):
            self.caches[name] = fn
            traced.cache_info = fn.cache_info
            traced.cache_clear = fn.cache_clear
        return traced

    # -- instrumentation ----------------------------------------------------------

    def calibrate(self, batches: int = 9, calls: int = 10_000) -> None:
        """Estimate self.overhead: the median over batches of the extra caller
        self time per call of a wrapped no-op over a direct call."""

        def noop():
            return None

        traced = self.wrap_call(noop, "calibration")
        extra = []
        for _ in range(batches):
            began = clock()
            for _ in range(calls):
                noop()
            direct = clock() - began
            self.stack.append(0.0)
            began = clock()
            for _ in range(calls):
                traced()
            wrapped = clock() - began - self.stack.pop()
            extra.append((wrapped - direct) / calls)
        del self.stats["calibration"]
        self.overhead = max(0.0, statistics.median(extra))

    def instrument(self) -> None:
        self.calibrate()
        modules = [m for n, m in list(sys.modules.items()) if n.startswith(PACKAGE + ".")]
        wrappers: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)
        cli = sys.modules[PACKAGE + ".cli"]
        checks = sys.modules[PACKAGE + ".checks"]
        poly_type = sys.modules[PACKAGE + ".algebra"].Poly
        spans = {
            checks.run_check: lambda check_id, *_: check_id,
            cli._row_value: lambda obj, n: f"{obj} {n}",
        }
        for fn, label in spans.items():
            wrappers[id(fn)] = (fn, self.wrap_call(fn, f"{_layer(fn.__module__)}.{fn.__name__}", label))

        for mod in modules:
            layer = _layer(mod.__name__)
            for key, val in list(vars(mod).items()):
                if key.startswith("_") or getattr(val, "__module__", None) != mod.__name__:
                    continue
                if isinstance(val, type):
                    self._instrument_class(val, layer, wrappers, poly_type)
                elif isinstance(val, (types.FunctionType, functools._lru_cache_wrapper)):
                    if id(val) not in wrappers:
                        wrappers[id(val)] = (val, self.wrap(val, f"{layer}.{key}"))

        # Rebind every module-level name that holds an original ...
        for mod in modules:
            for key, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, key, hit[1])
        # ... and every closure cell of a package function that captured one.
        own = {id(w) for _, w in wrappers.values()}
        for obj in gc.get_objects():
            if (not isinstance(obj, types.FunctionType) or id(obj) in own
                    or not (obj.__module__ or "").startswith(PACKAGE)):
                continue
            for cell in obj.__closure__ or ():
                try:
                    val = cell.cell_contents
                except ValueError:
                    continue
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    cell.cell_contents = hit[1]

    def _instrument_class(self, cls, layer, wrappers, poly_type) -> None:
        source = sys.modules[cls.__module__].__file__
        for key, val in list(vars(cls).items()):
            if key.startswith("_") and key not in DUNDERS:
                continue
            is_classmethod = isinstance(val, classmethod)
            fn = val.__func__ if is_classmethod else val
            if not isinstance(fn, types.FunctionType):
                continue
            if id(fn) not in wrappers:
                if fn.__code__.co_filename != source:
                    continue  # generated by dataclass, not written in the package
                name = f"{layer}.{cls.__name__}.{key.strip('_')}"
                if cls is poly_type and key == "__mul__":
                    wrapper = self.wrap_poly_mul(fn, name, poly_type)
                else:
                    wrapper = self.wrap(fn, name)
                wrappers[id(fn)] = (fn, wrapper)
            wrapper = wrappers[id(fn)][1]
            setattr(cls, key, classmethod(wrapper) if is_classmethod else wrapper)

    # -- report -----------------------------------------------------------------

    def report(self, argv: list[str], checks_catalog: list[str]) -> dict:
        end = clock() - self.start
        caches = {}
        for name, fn in self.caches.items():
            info = fn.cache_info()
            caches[name] = {"hits": info.hits, "misses": info.misses}
        return {
            "command": " ".join(argv),
            "wall_s": end,
            "wrapper_overhead_s": self.overhead,
            "stats": self.stats,
            "import_self_s": self.import_self_s,
            "term_pairs": self.term_pairs[0],
            "caches": caches,
            "catalog": checks_catalog,
            "spans": [{"name": "command", "label": " ".join(argv), "start": 0.0,
                       "end": end, "parent": None}] + self.spans,
        }


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    sys.meta_path.insert(0, tracer)
    import snakelab.cli  # loads every layer
    from snakelab import checks

    sys.meta_path.remove(tracer)
    tracer.instrument()
    sys.argv = ["snakelab", *argv]
    try:
        snakelab.cli.console_main()
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    report = tracer.report(argv, [c.id for c in checks.CHECKS if c.scalable])
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
