"""snakelab benchmark: the real CLI, one fresh interpreter per command.

    python3 perfbench/run.py --workload verify-catalog --seed 1 --seconds 36 --trace 0

Run from anywhere; the package is taken from `src/` next to this directory.
Each command starts a new interpreter, as a user's does, so the package's
`lru_cache`s start cold every time; an in-process repeat would make later
rounds nearly free.  `SNAKELAB_THREADS` is removed from the children's
environment.  Every command's exit status and stdout pass a gate (see
`gate`); a command that fails it counts in `failed`.

--trace 0  repeats passes over the workload's commands for --seconds and
           prints the end-to-end metrics of BENCHMARK.json.
--trace 1  alternates untraced passes with passes run under
           `trace_child.py` and prints the per-layer metrics.

The seed only shuffles the order of commands within a pass; the program
receives just its CLI arguments.  The last line of stdout is one JSON object;
the lines before it are the same numbers for a reader.  Trace reports are
kept in `.perfbench/` at the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

# Same entry point as the installed `snakelab` console script.
CLI = "from snakelab.cli import console_main; console_main()"

WORKLOADS = {
    "verify-catalog": [
        ["verify", "--all"],
    ],
    "series": [
        ["compute", "Q", "--n", "40"],
        ["compute", "R", "--n", "40"],
        ["compute", "Eq", "--n", "30"],
        ["verify", "--check", "thm-1.2", "--n", "20"],
    ],
    "enumerate": [
        ["compute", "S", "--n", "8"],
        ["compute", "B", "--n", "6"],
        ["compute", "E", "--n", "300"],
    ],
}
# Imports the package, builds the catalog and exits: the set-up every command pays.
SETUP_COMMAND = ["list-checks"]
SETUP_SAMPLES = 9
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# A run starts no new pass after RUN_LIMIT_S, whatever --seconds says, and
# kills any command still running at RUN_DEADLINE_S, so it ends within 180 s.
RUN_LIMIT_S = 110
RUN_DEADLINE_S = 170
CALIB_ITERATIONS = 400_000
# Loop CPU time that defines the reference host speed for rescaled times, and
# how strongly the commands follow the loop: the log-log slope of pass time on
# loop time was 0.53-0.77 per workload and 0.68 pooled (ten runs per workload,
# 2-vCPU VM).
CALIB_REF_S = 0.125
CALIB_EXPONENT = 0.7

LAYERS = ("algebra", "permstats", "eulerians", "motzkin", "bijections", "snakes",
          "checks", "cli")
STATUS_LINE = re.compile(r"^(pass|fail|skipped)\s+\S+\s+\(n <= -?\d+\)$")


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("SNAKELAB_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_command(argv: list[str], timeout: float, trace_path: Path | None = None) -> dict:
    """Run one CLI command in a fresh interpreter; return its exit code,
    stdout, wall time and the resource usage reported by wait4."""
    if trace_path is None:
        cmd = [sys.executable, "-c", CLI, *argv]
    else:
        cmd = [sys.executable, str(HERE / "trace_child.py"), str(trace_path), *argv]
    with tempfile.TemporaryFile(dir=OUT_DIR) as err:
        began = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=child_env(),
                                cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - began
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr_tail = err.read()[-400:].decode(errors="replace")
    return {
        "code": proc.returncode,
        "stdout": out,
        "stderr_tail": stderr_tail,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,  # Linux reports KiB
    }


def _literal_mismatch(text: str, obj: str, want: list[int]) -> str | None:
    got = {}
    for line in text.splitlines():
        m = re.fullmatch(rf"{obj}_(\d+) = (-?\d+)", line)
        if m:
            got[int(m.group(1))] = int(m.group(2))
    for n, value in enumerate(want):
        if got.get(n) != value:
            return f"{obj}_{n} is {got.get(n)}, the literal is {value}"
    return None


def gate(argv: list[str], result: dict, expected: dict) -> str | None:
    """None if the command's exit status and stdout are right, else why not."""
    if result["code"] != 0:
        return f"exit status {result['code']}: {result['stderr_tail'].strip()}"
    key = " ".join(argv)
    text = result["stdout"].decode(errors="replace")
    lines = text.splitlines()
    if argv[0] == "verify":
        want = expected["verify_check_count"][key]
        statuses = [m.group(1) for m in map(STATUS_LINE.match, lines) if m]
        if len(statuses) != want:
            return f"{len(statuses)} check lines, expected {want}"
        if any(s != "pass" for s in statuses):
            return f"statuses {sorted(set(statuses))}, expected only pass"
        summary = f"{want} checks: {want} passed, 0 failed"
        if not lines or lines[-1] != summary:
            return f"summary {lines[-1] if lines else ''!r}, expected {summary!r}"
        return None
    if argv[0] == "compute":
        digest = hashlib.sha256(result["stdout"]).hexdigest()
        if digest != expected["sha256_of_stdout"][key]:
            return f"stdout sha256 {digest} differs from the pinned digest"
        literal = expected["literal_rows"].get(argv[1])
        return literal and _literal_mismatch(text, argv[1], literal)
    if len(lines) != expected["list_checks_lines"]:
        return f"{len(lines)} catalog lines, expected {expected['list_checks_lines']}"
    return None


def host_calib() -> float:
    """CPU time of a fixed pure-Python loop of tuple, dict and integer work."""
    began = time.process_time()
    acc: dict[tuple[int, int, int], int] = {}
    for i in range(CALIB_ITERATIONS):
        key = (i & 7, i & 3, i % 5)
        acc[key] = acc.get(key, 0) + i * i
    return time.process_time() - began


class Runner:
    """Runs and gates commands, with a host-speed reading before and after each.

    The host's speed drifts by half or more within a minute, and the loop and
    a fixed command slow down together.  So each command's times are also
    given rescaled to a host on which the loop takes CALIB_REF_S:
    time * (CALIB_REF_S / mean(loop before, loop after)) ** CALIB_EXPONENT.
    """

    def __init__(self, expected: dict) -> None:
        self.expected = expected
        self.began = time.perf_counter()
        self.attempted = 0
        self.failures: list[str] = []
        self.calib = host_calib()

    def run(self, argv: list[str], trace_path: Path | None = None) -> dict:
        before = self.calib
        timeout = max(0.0, self.began + RUN_DEADLINE_S - time.perf_counter())
        result = run_command(argv, timeout, trace_path)
        self.calib = host_calib()
        result["host_calib_s"] = (before + self.calib) / 2
        result["scale"] = (CALIB_REF_S / result["host_calib_s"]) ** CALIB_EXPONENT
        self.attempted += 1
        reason = gate(argv, result, self.expected)
        if reason is not None:
            self.failures.append(f"{' '.join(argv)}: {reason}")
            print(f"gate failed: {' '.join(argv)}: {reason}", file=sys.stderr)
        return result

    def run_pass(self, commands, rng, trace_dir: Path | None = None) -> dict:
        order = list(commands)
        rng.shuffle(order)
        results, reports = [], []
        for i, argv in enumerate(order):
            trace_path = None if trace_dir is None else trace_dir / f"{i}.json"
            results.append(self.run(argv, trace_path))
            if trace_path is not None and trace_path.exists():
                reports.append(json.loads(trace_path.read_text()))
        return {
            "wall_s": sum(r["wall_s"] * r["scale"] for r in results),
            "cpu_s": sum(r["cpu_s"] * r["scale"] for r in results),
            "raw_wall_s": sum(r["wall_s"] for r in results),
            "rss_mb": max(r["rss_mb"] for r in results),
            "host_calib_s": statistics.median(r["host_calib_s"] for r in results),
            "reports": reports,
        }

    def repeat_passes(self, commands, rng, seconds, traced_dir=None):
        """Passes until the next would end past `seconds` (at least MIN_PASSES).
        With traced_dir, each round is an untraced pass then a traced one."""
        rounds = []
        minimum = MIN_PASSES if traced_dir is None else MIN_TRACED_PASSES
        measure_began = time.perf_counter()
        while True:
            round_began = time.perf_counter()
            plain = self.run_pass(commands, rng)
            traced = None
            if traced_dir is not None:
                pass_dir = traced_dir / f"pass{len(rounds)}"
                pass_dir.mkdir()
                traced = self.run_pass(commands, rng, pass_dir)
            rounds.append((plain, traced))
            now = time.perf_counter()
            last = now - round_began
            if now - self.began + last > RUN_LIMIT_S:
                break
            if len(rounds) >= minimum and now - measure_began + last > seconds:
                break
        return rounds


# -- per-layer metrics from trace reports ------------------------------------------


def layer_metrics(reports: list[dict]) -> dict[str, float]:
    """Flatten one traced pass (one report per command) into metric values."""
    stats: dict[str, list] = {}
    imports: dict[str, float] = {}
    pairs = 0
    hits = misses = 0
    check_s = {check_id: 0.0 for check_id in reports[0]["catalog"]}
    for report in reports:
        for name, row in report["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0, 0])
            for i, value in enumerate(row):
                acc[i] += value
        for layer, s in report["import_self_s"].items():
            imports[layer] = imports.get(layer, 0.0) + s
        pairs += report["term_pairs"]
        for name, info in report["caches"].items():
            if name.startswith("eulerians."):
                hits += info["hits"]
                misses += info["misses"]
        for span in report["spans"]:
            if span["name"] == "checks.run_check":
                label = span["label"]
                check_s[label] = check_s.get(label, 0.0) + span["end"] - span["start"]
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = imports.get(layer, 0.0) + sum(
            row[1] for name, row in stats.items() if name.startswith(layer + "."))
    for name, (calls, self_s, total_s, objects) in stats.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
        out[f"{name}.s"] = total_s
        out[f"{name}.objects"] = objects
    out["algebra.Poly.mul.term_pairs"] = pairs
    out["eulerians.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for check_id, s in check_s.items():
        out[f"checks.{check_id}.s"] = s
    return out


def is_count(name: str) -> bool:
    return name.endswith((".calls", ".objects", ".term_pairs"))


def trace_run(rounds, specs) -> tuple[dict, list[str]]:
    """Per-layer values: counts from the first traced pass, times as the
    median over traced passes.  Also lists counts that did not repeat."""
    passes = [layer_metrics(traced["reports"]) for _, traced in rounds]
    unstable = [name for name in passes[0] if is_count(name)
                and any(p.get(name) != passes[0][name] for p in passes[1:])]
    values = {}
    for spec in specs:
        name = spec["name"]
        if name == "trace_overhead_ratio":
            values[name] = (statistics.median(t["wall_s"] for _, t in rounds)
                            / statistics.median(p["wall_s"] for p, _ in rounds))
        elif is_count(name):
            values[name] = passes[0][name]
        else:
            values[name] = statistics.median(p[name] for p in passes)
    return values, unstable


# -- main ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "snakelab" / "cli.py").is_file():
        print(f"error: no snakelab package under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "expected.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)
    rng = random.Random(args.seed)
    commands = WORKLOADS[args.workload]
    runner = Runner(expected)

    # Untimed first run: writes bytecode caches, as any earlier use would have.
    runner.run(SETUP_COMMAND)

    if args.trace:
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            rounds = runner.repeat_passes(commands, rng, args.seconds, Path(tmp))
        specs = bench["per_layer"]
        values, unstable = trace_run(rounds, specs)
        report_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        report_path.write_text(json.dumps(
            [traced["reports"] for _, traced in rounds], indent=1))
        print_layer_split(args.workload, values, len(rounds), unstable, report_path)
    else:
        setup = [runner.run(SETUP_COMMAND) for _ in range(SETUP_SAMPLES)]
        rounds = runner.repeat_passes(commands, rng, args.seconds)
        passes = [plain for plain, _ in rounds]
        walls = [p["wall_s"] for p in passes]
        derived = {
            "wall_s": statistics.median(walls),
            "wall_s_tail": statistics.quantiles(walls, n=4)[2],
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
            "setup_s": statistics.median(r["wall_s"] * r["scale"] for r in setup),
            "pass_ratio": 1 - len(runner.failures) / runner.attempted,
        }
        specs = bench["end_to_end"]
        values = {spec["name"]: derived[spec["name"]] for spec in specs}
        print_end_to_end(args.workload, specs, values, passes, setup, runner)

    metrics = {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
               for spec in specs}
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0


def print_end_to_end(workload, specs, values, passes, setup, runner) -> None:
    n = len(passes)
    notes = {
        "wall_s": f"median of {n} passes",
        "wall_s_tail": f"p75 of {n} passes",
        "cpu_s": f"median of {n} passes, user+sys of the children",
        "peak_rss_mb": "median over passes of the largest ru_maxrss in the pass",
        "setup_s": f"median of {len(setup)} fresh `snakelab list-checks`",
        "pass_ratio": "commands that passed the gate / attempted",
    }
    print(f"workload {workload}: {n} passes of {len(WORKLOADS[workload])} command(s); "
          f"times rescaled to a host where the calibration loop takes {CALIB_REF_S} s")
    for spec in specs:
        name = spec["name"]
        print(f"  {name:<12} {values[name]:>10.4f} {spec['unit']:<6} {notes.get(name, '')}")
    failed = len(runner.failures)
    print(f"  {'fail_ratio':<12} {failed / runner.attempted:>10.4f} {'ratio':<6} "
          f"{failed} of {runner.attempted} commands failed the gate")
    for label, key in (("host_calib_s", "host_calib_s"), ("raw wall_s", "raw_wall_s"),
                       ("wall_s", "wall_s")):
        row = " ".join(f"{p[key]:.3f}" for p in passes)
        print(f"  {label:<12} per pass: {row}")
    raw_setup = statistics.median(r["wall_s"] for r in setup)
    print(f"  raw setup_s  {raw_setup:.4f} s (median, not rescaled)")


def print_layer_split(workload, values, n, unstable, report_path) -> None:
    total = sum(values[f"{layer}.self_s"] for layer in LAYERS) or 1.0
    print(f"workload {workload}: {n} traced passes, trace_overhead_ratio "
          f"{values['trace_overhead_ratio']:.3f}; reports in {report_path}")
    for layer in LAYERS:
        s = values[f"{layer}.self_s"]
        print(f"  {layer:<11} self {s:8.3f} s  {100 * s / total:5.1f}%")
    if unstable:
        print(f"  counts that differed between traced passes: {', '.join(unstable)}")
    else:
        print("  every count repeated exactly across traced passes")


if __name__ == "__main__":
    sys.exit(main())
