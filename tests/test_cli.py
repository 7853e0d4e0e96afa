"""CLI behavior: subcommands, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import snakelab
from snakelab import checks as checklib
from snakelab import eulerians
from snakelab.algebra import ONE, T, Poly
from snakelab.checks import Check, CheckResult, _identity, run_check
from snakelab.cli import CLOSED_PIPE_EXIT, USAGE_EXIT, emit_table, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_single_check_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--check", "q2-golden")
        assert code == 0
        assert "pass" in out and "q2-golden" in out

    def test_unknown_check_lists_catalog(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--check", "nope")
        assert code == USAGE_EXIT
        assert "unknown check id" in err
        assert "thm-1.3-i" in err

    def test_repeated_check_runs_each_in_order(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--check", "q1-golden",
                               "--check", "q0-golden")
        assert code == 0
        lines = out.splitlines()
        assert [line.split()[1] for line in lines[:2]] == ["q1-golden", "q0-golden"]
        assert lines[-1] == "2 checks: 2 passed, 0 failed"

    def test_unknown_among_repeated_checks_runs_none(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--check", "q0-golden",
                                 "--check", "nope")
        assert code == USAGE_EXIT
        assert out == ""
        assert err.startswith("error: unknown check id 'nope'")

    def test_all_small_ceiling(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--all", "--n", "2")
        assert code == 0
        assert out.count("pass") == len(checklib.CHECKS) + 1  # summary line

    def test_exit_code_counts_failures(self, capsys, monkeypatch):
        broken = Check("broken", "always fails", 1, lambda n: "witness text")
        monkeypatch.setattr(checklib, "CHECKS", checklib.CHECKS[:3] + [broken])
        monkeypatch.setattr(
            checklib, "CHECKS_BY_ID", {c.id: c for c in checklib.CHECKS}
        )
        code, out, _ = run_cli(capsys, "verify", "--all")
        assert code == 1
        assert "counterexample: witness text" in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--check", "r-odd-at-t0", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["failures"] == 0
        (entry,) = payload["checks"]
        assert entry["id"] == "r-odd-at-t0"
        assert entry["status"] == "pass"
        assert "corrected" in entry["note"]

    def test_correction_note_printed(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--check", "r-odd-at-t0")
        assert code == 0
        assert "note: corrected" in out
        assert "R_(2m)(0,q) = E_(2m+1)(q)" in out

    def test_skipped_below_minimum(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--check", "thm-1.3-i", "--n", "0")
        assert code == 0
        assert "skip" in out

    # stdout of `verify --all` at the default ceilings, pinned before the
    # permutation and path checks moved onto shared per-n passes
    @pytest.mark.parametrize("fmt, digest", [
        ("text", "c4f25aded1c9c009d31194c73801d7aa668ccbf25b9d98eb704f608e9772a279"),
        ("json", "ffe4617f9544a9fbc01efe77702088e63151b148e09e3e685382880990e05774"),
    ])
    def test_all_stdout_digest(self, capsys, fmt, digest):
        code, out, _ = run_cli(capsys, "verify", "--all", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # the skip set: each series identity's min_n is its start; pinned at the
    # ceilings where those starts decide what runs
    @pytest.mark.parametrize("n, digest", [
        ("0", "f4ce91d41fd515e690da16da5beacf58a036bc3230b08352debbf176f2f2d400"),
        ("1", "94b92531f31d777e68f26e8fd52d44762d7b60e3926743b3eb127ad83ca56b81"),
    ])
    def test_small_ceiling_stdout_digest(self, capsys, n, digest):
        code, out, _ = run_cli(capsys, "verify", "--all", "--n", n)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "--all", "--n", "2")
        _, second, _ = run_cli(capsys, "verify", "--all", "--n", "2")
        assert first == second


class TestRunCheck:
    def test_known_ids_present(self):
        for check_id in ("thm-1.3-i", "prop-2.2", "lemma-3.5", "thm-5.8",
                         "q2-golden", "r-odd-at-t0"):
            assert check_id in checklib.CHECKS_BY_ID

    def test_pass_result(self):
        result = run_check("thm-1.3-i", 3)
        assert result == CheckResult("thm-1.3-i", 3, "pass", None, None)

    def test_fixed_checks_ignore_ceiling(self):
        assert run_check("q2-golden", 0).status == "pass"

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            run_check("nope")

    def test_every_catalog_entry_passes_small(self):
        for check in checklib.CHECKS:
            assert run_check(check.id, 2).status in ("pass", "skipped")


class TestIdentity:
    """The one loop behind every series identity of the catalog."""

    def test_returns_smallest_failing_n(self):
        check = _identity(lambda n: n, lambda n: n + (n >= 3))
        assert check(2) is None
        assert check(9) == "n=3: got 3, want 4"

    def test_honours_start_and_step(self):
        seen = []
        check = _identity(lambda n: seen.append(n) or n, lambda n: n, start=3, step=2)
        assert check(9) is None
        assert seen == [3, 5, 7, 9]
        seen.clear()
        assert check(2) is None
        assert seen == []

    def test_poly_witness_is_a_difference(self):
        check = _identity(lambda n: T ** n, lambda n: T ** n + (ONE if n == 2 else Poly()))
        assert check(5) == "n=2: lhs - rhs = -1"

    def test_pair_witness_names_the_first_differing_side(self):
        check = _identity(lambda n: (ONE, T, T), lambda n: (ONE, T + ONE, T + T))
        assert check(0) == "n=0: lhs - rhs = -1"

    @pytest.mark.parametrize("check_id, module, name, builds", [
        ("thm-corteel-cf", checklib, "jfraction_series", 1),
        ("thm-1.2", eulerians, "qr_series", 2),  # one table of Q, one of R
    ])
    def test_table_is_built_once_per_run(self, monkeypatch, check_id, module, name, builds):
        real = getattr(module, name)
        calls = []
        monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
        assert run_check(check_id, 6).status == "pass"
        assert len(calls) == builds
        assert all(args[-1] == 6 for args in calls)


    @pytest.mark.parametrize("check_id, n", [
        ("q-secant-at-t0", 30), ("r-odd-at-t0", 30), ("jv1", 7), ("jv2", 7),
    ])
    def test_q_euler_table_is_built_once_per_run(self, monkeypatch, check_id, n):
        # jv1 and jv2 enumerate permutations on the left, so they run at their
        # default ceiling
        real = eulerians.q_euler_numbers
        calls = []
        monkeypatch.setattr(eulerians, "q_euler_numbers", lambda m: calls.append(m) or real(m))
        assert run_check(check_id, n).status == "pass"
        assert calls == [n + 1]


class TestGoldenCheck:
    """The row shape of every worked-example golden."""

    def test_literal_match_and_witness(self):
        assert checklib._golden_check("g", "d", lambda: (1, "t"), (1, "t")).fn(0) is None
        check = checklib._golden_check("g", "d", lambda: (1, "t"), (2, "t"))
        assert not check.scalable and check.default_n == 0
        assert check.fn(0) == "got (1, 't'), want (2, 't')"

    def test_catalog_golden_reports_a_changed_value(self, monkeypatch):
        monkeypatch.setattr(checklib.permstats, "stats", lambda w: SimpleNamespace(cro_b=4))
        assert run_check("example-cro-golden").witness == "got 4, want 5"


class TestCompute:
    def test_euler_csv_golden(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "E", "--n", "5", "--format", "csv")
        assert code == 0
        assert out == "0,1\n1,1\n2,1\n3,2\n4,5\n5,16\n"

    def test_q_text_golden(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "Q", "--n", "1")
        assert code == 0
        assert out == "Q_0 = 1\nQ_1 = t\n"

    def test_springer_csv_golden(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "S", "--n", "3", "--format", "csv")
        assert code == 0
        assert out == "0,1\n1,1\n2,3\n3,11\n"

    def test_b_table(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "B", "--n", "1")
        assert out == "B_0 = 1\nB_1 = y*t + y^2\n"

    def test_eq_label(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "Eq", "--n", "3")
        assert out.splitlines()[3] == "E_3(q) = 1 + q"

    def test_json_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "compute", "R", "--n", "4", "--format", "json")
        _, second, _ = run_cli(capsys, "compute", "R", "--n", "4", "--format", "json")
        assert first == second
        payload = json.loads(first)
        assert payload["rows"][1] == [1, "t + t*q"]

    # the stdout digests that perfbench/expected.json gates on
    @pytest.mark.parametrize("argv, digest", [
        (("S", "--n", "8"), "8a31a5b4214dbb9776faa1be8cab24155f588b4b3c16cc749015c3a462bd7baa"),
        (("B", "--n", "6"), "ebf1db94355904624986a3fe953d7d5c0a9427a9b6bc3dda469aaf9bb2f458a8"),
        (("E", "--n", "300"), "b1961036d352e9333eb8acd068e205968f2cd10a1c281deced2328863a7ca6a9"),
        (("Q", "--n", "40"), "c0cf1a9977415628769e38656ef83c87f03279023899c02b4cbf5e2eaa876f2a"),
        (("R", "--n", "40"), "93bd00fa1a567168b2ccab93f497001b4c1ec5975b487023be92c433305d83ad"),
        (("Eq", "--n", "30"), "2de7d1f04a18750fb036a30547ffb50b359fa6f2c563a5881452978986fd7a7f"),
    ])
    def test_stdout_digest(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, "compute", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_emit_table_rejects_negative(self):
        with pytest.raises(ValueError):
            emit_table("E", -1, "text")

    def test_emit_table_rejects_unknown_format(self):
        with pytest.raises(ValueError, match="unknown format 'xml'"):
            emit_table("Q", 1, "xml")


class TestUsageErrors:
    def test_bad_subcommand(self, capsys):
        assert run_cli(capsys, "bogus")[0] == USAGE_EXIT

    def test_missing_required_n(self, capsys):
        assert run_cli(capsys, "compute", "E")[0] == USAGE_EXIT

    def test_verify_needs_selector(self, capsys):
        assert run_cli(capsys, "verify")[0] == USAGE_EXIT

    @pytest.mark.parametrize("argv", [
        ("--all", "--check", "q0-golden"),
        ("--check", "q0-golden", "--all"),
    ])
    def test_all_and_check_exclusive(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == USAGE_EXIT
        assert out == ""
        assert "not allowed with" in err

    def test_bad_object(self, capsys):
        assert run_cli(capsys, "compute", "X", "--n", "2")[0] == USAGE_EXIT

    @pytest.mark.parametrize("argv", [("compute", "Q"), ("verify", "--all")])
    def test_negative_n(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--n", "-1")
        assert code == USAGE_EXIT
        assert out == ""
        assert err.startswith("error:") and "--n" in err


class TestListChecks:
    def test_catalog_listing(self, capsys):
        code, out, _ = run_cli(capsys, "list-checks")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == len(checklib.CHECKS)
        assert any(line.startswith("thm-5.12") for line in lines)

    def test_listing_digest(self, capsys):
        code, out, _ = run_cli(capsys, "list-checks")
        assert code == 0
        digest = "044a3c337a6f0ec0165cb0a117ab524fc8bb95bf32fe06dae74de6e2a2729e3c"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_ids_are_unique(self):
        ids = [c.id for c in checklib.CHECKS]
        assert len(ids) == len(set(ids))


class TestClosedPipe:
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [("list-checks",), ("verify", "--all", "--n", "1")])
    def test_no_traceback_when_reader_leaves(self, argv, unbuffered):
        # the read end is closed before the command writes its first line
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=str(Path(snakelab.__file__).resolve().parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        try:
            proc = subprocess.run([sys.executable, "-m", "snakelab.cli", *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, env=env, text=True, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == CLOSED_PIPE_EXIT
        assert proc.stderr == ""  # no traceback, no "Exception ignored" report


_FOOTPRINT = """
import contextlib, io, sys
from snakelab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(sys.argv[1:])
print(" ".join(sorted(m for m in sys.modules if m.startswith("snakelab."))))
"""
_TABLE_LAYERS = {"cli", "algebra", "eulerians"}
_ALL_LAYERS = _TABLE_LAYERS | {"bijections", "checks", "motzkin", "permstats", "snakes"}


class TestImportFootprint:
    """Each command loads only the layers it runs: start-up is most of a
    `compute` at small n, and every fresh process pays it."""

    @pytest.mark.parametrize("argv, layers", [
        pytest.param(argv, layers, id=" ".join(argv)) for argv, layers in [
            *((("compute", obj, "--n", "2"), _TABLE_LAYERS) for obj in ("S", "E", "Eq", "Q", "R")),
            (("compute", "B", "--n", "2"), _TABLE_LAYERS | {"permstats"}),
            (("verify", "--check", "thm-1.2", "--n", "2"), _ALL_LAYERS),
            (("list-checks",), _ALL_LAYERS),
        ]
    ])
    def test_command_loads_only_its_layers(self, argv, layers):
        env = dict(os.environ, PYTHONPATH=str(Path(snakelab.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", _FOOTPRINT, *argv], capture_output=True,
                              env=env, text=True, timeout=120, check=True)
        assert proc.stdout.split() == sorted(f"snakelab.{layer}" for layer in layers)
