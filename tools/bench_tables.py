"""Time the permutation tables and `verify --all` of two source trees, alternately.

    python tools/bench_tables.py PARENT_SRC CHANGE_SRC [--runs 5] [--label pr33]

PARENT_SRC and CHANGE_SRC are `src/` directories, for example of the parent
commit unpacked with `git archive` and of this checkout.  Each run times, on
each side in a fresh interpreter (the side that goes first alternates):

  b8       `permstats._table(8, True)`, CPU seconds;
  a_le8    `permstats._table(n, False)` for n = 1..8 from a cold cache, CPU seconds;
  verify   `python -m snakelab.cli verify --all`, the child's CPU seconds.

Each run also times `host_calib` of `perfbench/run.py`, the host-speed loop
that the benchmark rescales by.  Next to the speedup of the medians, the
result gives the median, min and max of the per-pair ratios parent/change:
the two sides of a pair share the host's state, so that ratio is steadier
than a ratio of medians taken apart.  With --label the result is written to
BENCH_<label>.json at the repo root; it is always printed.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import host_calib  # noqa: E402

TIMED = {
    "b8": "P._table(8, True)",
    "a_le8": "[P._table(n, False) for n in range(1, 9)]",
}
PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); from snakelab import permstats as P; "
         "t = time.process_time(); {}; print(time.process_time() - t)")


def timed(src: str, name: str) -> float:
    if name != "verify":
        out = subprocess.run([sys.executable, "-c", PROBE.format(TIMED[name]), src],
                             capture_output=True, text=True, check=True).stdout
        return round(float(out), 4)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run([sys.executable, "-m", "snakelab.cli", "verify", "--all"], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode or not proc.stdout.endswith("53 checks: 53 passed, 0 failed\n"):
        raise SystemExit(f"verify --all failed under {src}")
    return round(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime, 4)


def _spread(ratios: list[float]) -> dict[str, float]:
    return {"median": round(statistics.median(ratios), 3), "min": round(min(ratios), 3),
            "max": round(max(ratios), 3)}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--label")
    args = parser.parse_args()
    sides = {"parent": str(Path(args.parent_src).resolve()), "change": str(Path(args.change_src).resolve())}
    runs = []
    for i in range(args.runs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        run = {"host_calib_s": round(host_calib(), 4), "first": order[0]}
        for name in (*TIMED, "verify"):
            for side in order:
                run.setdefault(side, {})[name] = timed(sides[side], name)
        print(json.dumps(run), file=sys.stderr, flush=True)
        runs.append(run)
    medians = {side: {name: statistics.median(r[side][name] for r in runs) for name in (*TIMED, "verify")}
               for side in sides}
    result = {
        "label": args.label,
        "host": {"cpus": os.cpu_count(), "system": f"{platform.system()} {platform.machine()}"},
        "python": platform.python_version(),
        "units": "CPU seconds; host_calib_s is perfbench/run.py's host_calib loop",
        "runs": runs,
        "medians": medians,
        "speedup_of_medians": {name: round(medians["parent"][name] / medians["change"][name], 3)
                               for name in (*TIMED, "verify")},
        "per_pair_ratio": {name: _spread([r["parent"][name] / r["change"][name] for r in runs])
                           for name in (*TIMED, "verify")},
    }
    text = json.dumps(result, indent=1)
    if args.label:
        (ROOT / f"BENCH_{args.label}.json").write_text(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
