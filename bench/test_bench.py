"""Tests of the benchmark itself: its checks catch corrupted results, its
counts repeat exactly, its span accounting holds, and its declared
metrics match BENCHMARK.json.

Run from the root of the repository:  python -m pytest bench -q
(about two minutes; the repository's own suite under tests/ does not
collect these).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from worker import Checks  # noqa: E402


def fail_counts(workload, result) -> tuple[int, int]:
    checks = Checks(workload)
    checks.add(result)
    return checks.attempted, checks.failed


# --- checks with teeth -------------------------------------------------------

def test_accumulate_check_catches_shifted_sum():
    work = wl.Accumulate(wl.Accumulate.inputs(0))
    g = work.run()
    assert fail_counts(work, g)[1] == 0
    attempted, failed = fail_counts(work, g + 1e-5 * work.limit)
    assert failed == attempted > 0


def test_verify_check_catches_scaled_lambda():
    work = wl.Verify(wl.Verify.inputs(0))
    rows = work.run()
    assert fail_counts(work, rows)[1] == 0
    bad = [(lam * (1 + 1e-5), est, res, spread) for lam, est, res, spread in rows]
    attempted, failed = fail_counts(work, bad)
    assert failed == attempted == len(rows)


def test_field_check_catches_flipped_blade():
    work = wl.Field(wl.Field.inputs(0))
    fields = work.run()
    assert fail_counts(work, fields)[1] == 0
    for j in (0, 1, len(fields) - 1):  # even, odd and the highest degree
        bad = [f.copy() for f in fields]
        blade = int(abs(bad[j][0]).argmax())
        bad[j][0, blade] *= -1
        assert fail_counts(work, bad)[1] >= 1


def test_cli_check_catches_dropped_row():
    runner = run.Run(ROOT, 0.0)
    cli = run.CliRun(runner, wl.Cli.inputs(0))
    chi = wl.Cli.eigs_chi()
    for cmd in range(len(wl.CLI_COMMANDS)):
        cli.command(cmd)
    for cmd, code, out in cli.outputs:
        assert wl.Cli.check(cmd, code, out, None, chi)[0][0] <= wl.CLI_TOL
        lines = out.split(b"\r\n")
        dropped = b"\r\n".join(lines[:2] + lines[3:])
        assert wl.Cli.check(cmd, code, dropped, None, chi)[0][0] > wl.CLI_TOL
        assert wl.Cli.check(cmd, code, dropped, out, chi)[0][0] > wl.CLI_TOL
    # a nonzero exit fails even with the right output
    cmd, _, out = cli.outputs[0]
    assert wl.Cli.check(cmd, 1, out, out, chi)[0][0] > wl.CLI_TOL


def test_blade_sign_matches_package_table():
    from cliffordprolate.algebra import product_table

    for m in (2, 3, 4):
        idx, sign = product_table(m)
        for a in range(1 << m):
            for b in range(1 << m):
                assert wl.blade_sign(a, b) == sign[a, b] and a ^ b == idx[a, b]


# --- exact counts ------------------------------------------------------------

def traced_counts(name: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", name, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    res = json.loads(out.stdout.splitlines()[-1])
    assert res["correct"] and res["failed"] == 0
    return {k: v["value"] for k, v in res["metrics"].items()
            if not k.endswith(".self_share") and not k.startswith("trace.")}


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_counts_repeat_exactly(name):
    first = traced_counts(name, 7)
    assert first == traced_counts(name, 7)
    assert any(v for v in first.values())


# --- span accounting ---------------------------------------------------------

def test_self_times_add_up_to_the_pass():
    # [name, start, end, parent, pass, counts]
    tree = [["bench.pass", 0.0, 10.0, None, 1, None],
            ["a", 1.0, 6.0, 0, 1, {"rows": 3}],
            ["b", 2.0, 3.0, 1, 1, {"rows": 4}],
            ["a", 7.0, 8.0, 0, 1, {"rows": 5}],
            ["a", 0.0, 99.0, None, 2, None]]
    s = spans.summarize(tree, 1)
    assert s["layers"]["a"] == {"calls": 2, "self_s": 5.0, "rows": 8}
    assert s["layers"]["b"]["self_s"] == 1.0
    assert s["layers"]["bench.pass"]["self_s"] == 4.0
    assert s["accounting_error_s"] == 0.0
    # a child that outlasts its parent leaves a negative self time
    tree[2][2] = 9.0
    assert spans.summarize(tree, 1)["accounting_error_s"] > spans.ACCOUNTING_TOL_S


# --- the contract ------------------------------------------------------------

def test_declared_metrics_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == spans.PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(wl.WORKLOADS)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail([1.0, 2.0, 3.0]) == (2.0, 50)
    samples = [float(i) for i in range(40)]
    value, pct = run.tail(samples)
    assert sum(s > value for s in samples) == 10 and pct == 75


def test_refuses_to_run_without_the_package():
    bare = ROOT / ".bench_build" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert out.returncode != 0 and out.stdout == ""
