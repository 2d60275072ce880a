"""Run one benchmark workload against the package and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {accumulate,verify,field,cli,all}
                         [--seed N] [--seconds S] [--trace 0|1]

With --trace 0 it prints the end-to-end metrics, measured with tracing
off; with --trace 1 it prints the per-layer metrics of a traced run.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The package is taken from `src/` of
the current directory; without it the run exits with code 2.  Scratch
files (span dumps, full results) go to `.bench_build/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from workloads import CLI_COMMANDS, WORKLOADS, Cli

BENCH = Path(__file__).resolve().parent
SETUPS = 3  # fresh interpreters per untraced run; set-up time is their median
RUN_LIMIT_S = 170.0  # every run must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREADS = "1"  # at most nproc; one thread keeps pass times steady

END_TO_END = [  # name, unit
    ("setup_s", "s"), ("pass_s", "s"), ("pass_s_tail", "s"),
    ("items_per_s", "1/s"), ("peak_rss_mb", "MB"), ("digits", "digits"),
]

ENV_PROBE = """
import json, platform, cliffordprolate, cliffordprolate.cli, numpy, scipy
def blas(mod):
    try:
        return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except Exception:
        return None
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "openblas_numpy": blas(numpy),
                  "openblas_scipy": blas(scipy), "package": cliffordprolate.__file__}))
"""


class Run:
    """Settings and bookkeeping of one workload run in one checkout."""

    def __init__(self, root: Path, seconds: float):
        self.root = root
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.out_dir = root / ".bench_build"
        self.out_dir.mkdir(exist_ok=True)
        # measured processes read bytecode caches that the untimed first
        # import writes, whatever the caller's PYTHONDONTWRITEBYTECODE
        drop = ("CPSWF_", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
        self.env = {k: v for k, v in os.environ.items() if not k.startswith(drop)}
        self.env.update({v: THREADS for v in THREAD_VARS})
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["PYTHONHASHSEED"] = "0"

    def remaining(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def process(self, argv: list, stdin: bytes | None = None):
        """Run a child to completion; returns (wall seconds, exit code, stdout)."""
        t = time.perf_counter()
        try:
            p = subprocess.run(argv, input=stdin, capture_output=True, env=self.env,
                               cwd=self.root, timeout=self.remaining())
        except subprocess.TimeoutExpired:
            return time.perf_counter() - t, -1, b""
        dt = time.perf_counter() - t
        if p.returncode != 0:
            sys.stderr.write(p.stderr.decode("utf-8", "replace")[-2000:])
        return dt, p.returncode, p.stdout


def environment(run: Run, seed: int) -> dict:
    """Versions and settings of this run.  Doubles as the untimed first
    import, so that every measured process sees warm bytecode caches."""
    import importlib.util

    sources = sorted((run.root / "src" / "cliffordprolate").glob("*.py"))

    def pyc_warm() -> bool:
        return all(Path(importlib.util.cache_from_source(str(p))).exists() for p in sources)

    warm = pyc_warm()
    _, code, out = run.process([sys.executable, "-c", ENV_PROBE])
    if code != 0:
        raise SystemExit("cannot import cliffordprolate from src/")
    info = json.loads(out.decode().splitlines()[-1])
    if not Path(info["package"]).resolve().is_relative_to(run.root / "src"):
        raise SystemExit(f"imported {info['package']}, not the package in src/")
    commit = "unknown (not a git checkout)"
    if (run.root / ".git").exists():
        _, code, out = run.process(["git", "rev-parse", "HEAD"])
        commit = out.decode().strip() if code == 0 else commit
    return {"commit": commit, "seed": seed, **info, "nproc": os.cpu_count(),
            "blas_threads": {v: THREADS for v in THREAD_VARS},
            "pyc_warm_before_first_import": warm, "pyc_warm_after": pyc_warm()}


def tail(samples: list) -> tuple[float, int]:
    """Highest percentile with at least ten samples beyond it, and that
    percentile; the median when fewer than 20 samples leave no such
    percentile above it."""
    s = sorted(samples)
    n = len(s)
    if n >= 20:
        return s[n - 11], math.floor(100 * (n - 10) / n)
    return statistics.median(s), 50


def digits(worst: float | None) -> float:
    """-log10 of the worst relative error; an exact match reads 15.95."""
    if worst is None:
        return 0.0
    return -math.log10(max(worst, 2.0 ** -53))


def end_to_end(name: str, setup: list, samples: list, rss_kb: float,
               attempted: int, failed: int, worst) -> dict:
    items = WORKLOADS[name].items
    tail_s, pct = tail(samples)
    values = {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(samples),
        "pass_s_tail": tail_s,
        # per median pass: one pass slowed by the host moves it no more than pass_s
        "items_per_s": items / statistics.median(samples),
        "peak_rss_mb": rss_kb / 1024,
        "digits": digits(worst),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "pass_s": f"median of {len(samples)} warm passes",
        "pass_s_tail": f"p{pct} of {len(samples)} warm passes",
        "items_per_s": f"{items} x {WORKLOADS[name].item} per pass",
        "peak_rss_mb": "largest ru_maxrss of the measured processes",
        "digits": f"worst relative error {worst:.3g}" if worst is not None else "a check failed",
    }
    lines = [f"  {k:<12} {values[k]:<14.6g} {unit:<7} {notes[k]}" for k, unit in END_TO_END]
    frac = failed / attempted if attempted else 1.0
    lines.append(f"  {'fail_frac':<12} {frac:<14.6g} {'ratio':<7} "
                 f"{failed} failed of {attempted} checks")
    return {"metrics": {k: {"value": values[k], "unit": u} for k, u in END_TO_END},
            "lines": lines, "samples": samples, "setup": setup,
            "attempted": attempted, "failed": failed}


def worker(run: Run, spec: dict):
    _, code, out = run.process([sys.executable, str(BENCH / "worker.py")],
                               json.dumps(spec).encode())
    if code != 0:
        return None
    return json.loads(out.decode().splitlines()[-1])


def in_process(run: Run, name: str, inputs: dict, trace: bool) -> dict:
    spec = {"workload": name, "inputs": inputs, "trace": trace,
            "spans_path": str(run.out_dir / f"spans-{name}.json")}
    if trace:
        res = worker(run, {**spec, "seconds": run.seconds})
        if res is None:
            raise SystemExit(f"traced {name} worker failed")
        return res
    results = [worker(run, {**spec, "seconds": run.seconds / SETUPS}) for _ in range(SETUPS)]
    done = [r for r in results if r is not None]
    if not done:
        raise SystemExit(f"every {name} worker failed")
    crashed = len(results) - len(done)  # a crashed worker counts as one failed check
    worst = [r["worst_err"] for r in done]
    return end_to_end(
        name, [r["setup_s"] for r in done], [s for r in done for s in r["samples"]],
        max(r["maxrss_kb"] for r in done),
        sum(r["attempted"] for r in done) + crashed, sum(r["failed"] for r in done) + crashed,
        None if crashed or None in worst else max(worst))


class CliRun:
    """The cli workload: each command a fresh process, checked afterwards."""

    def __init__(self, run: Run, inputs: dict):
        self.run = run
        self.order = inputs["order"]
        self.outputs: list = []  # (command index, exit code, stdout)

    def command(self, cmd: int) -> float:
        argv = [sys.executable, "-m", "cliffordprolate.cli", *CLI_COMMANDS[cmd][0]]
        dt, code, out = self.run.process(argv)
        self.outputs.append((cmd, code, out))
        return dt

    def checks(self) -> tuple[int, int, float | None]:
        sys.path.insert(0, str(self.run.root / "src"))
        chi = Cli.eigs_chi()
        attempted = failed = 0
        worst, first = 0.0, {}
        for cmd, code, out in self.outputs:
            for err, tol in Cli.check(cmd, code, out, first.get(cmd), chi):
                attempted += 1
                failed += not err <= tol
                worst = max(worst, err)
            first.setdefault(cmd, out)
        return attempted, failed, worst if math.isfinite(worst) else None

    def untraced(self) -> dict:
        setup = [self.command(0) for _ in range(SETUPS)]
        samples = self.passes()
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return end_to_end("cli", setup, samples, rss, *self.checks())

    def passes(self) -> list:
        samples = []
        deadline = time.perf_counter() + self.run.seconds
        while not samples or time.perf_counter() < deadline:
            samples.append(sum(self.command(cmd) for cmd in self.order))
        return samples

    def traced(self) -> dict:
        tracer = spans.Tracer()
        path = self.run.out_dir / "spans-cli-child.json"

        def traced_pass(pass_id: int) -> dict:
            tracer.pass_id = pass_id
            root = tracer.open("bench.pass")
            caches: dict = {}
            for cmd in self.order:
                argv = [sys.executable, str(BENCH / "cli_traced.py"), str(path),
                        str(pass_id), *CLI_COMMANDS[cmd][0]]
                idx = tracer.open("cli.total")
                _, code, out = self.run.process(argv)
                tracer.close(idx)
                self.outputs.append((cmd, code, out))
                if path.exists():
                    child = json.loads(path.read_text())
                    path.unlink()
                    graft(tracer, child["spans"], idx)
                    for k, (hits, misses) in child["caches"].items():
                        h0, m0 = caches.get(k, (0, 0))
                        caches[k] = (h0 + hits, m0 + misses)
            tracer.close(root)
            tracer.pass_id = None
            summary = spans.summarize(tracer.spans, pass_id)
            summary["caches"] = caches
            summary["pass_s"] = sum(s[2] - s[1] for s in tracer.spans
                                    if s[4] == pass_id and s[0] == "cli.total")
            summary["import_share"] = sum(
                s[2] - s[1] for s in tracer.spans
                if s[4] == pass_id and s[0] == "cli.import") / summary["pass_s"]
            return summary

        cold = traced_pass(0)
        plain, warm = [], []
        deadline = time.perf_counter() + self.run.seconds
        while not warm or time.perf_counter() < deadline:
            plain.append(sum(self.command(cmd) for cmd in self.order))
            warm.append(traced_pass(len(warm) + 1))
        (self.run.out_dir / "spans-cli.json").write_text(json.dumps(tracer.spans))
        out = spans.traced_report(cold, warm, plain, 0.0, "cli")
        out["layer_share"] = statistics.median(p["import_share"] for p in warm)
        attempted, failed, _ = self.checks()
        out["attempted"] = attempted + out["accounting"][0]
        out["failed"] = failed + out["accounting"][1]
        return out


def graft(tracer: spans.Tracer, child: list, parent: int) -> None:
    """Append a child process's spans under the span `parent`; both
    processes time spans with the same monotonic clock."""
    offset = len(tracer.spans)
    for name, start, end, p, pass_id, counts in child:
        tracer.spans.append([name, start, end, parent if p is None else p + offset,
                             pass_id, counts])


def traced_lines(res: dict) -> list:
    lines = [f"  {k:<40} {v:.6g}" for k, v in res["per_layer"].items()]
    if "layer_share" in res:
        lines.append(f"  {'share of self time in its layers':<40} {res['layer_share']:.3f}")
    lines.append(f"  {'traced warm passes':<40} {res['passes']}")
    n, bad = res["accounting"]
    lines.append(f"  {'span accounting':<40} {n - bad} of {n} traced passes add up")
    lines.append(f"  {'fail_frac':<40} {res['failed'] / res['attempted']:.6g} "
                 f"({res['failed']} failed of {res['attempted']} checks)")
    return lines


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(root, seconds)
    env = environment(run, seed)
    inputs = WORKLOADS[name].inputs(seed)
    if name == "cli":
        res = CliRun(run, inputs).traced() if trace else CliRun(run, inputs).untraced()
    else:
        res = in_process(run, name, inputs, trace)
    if trace:
        res["metrics"] = {k: {"value": res["per_layer"][k], "unit": unit}
                          for k, unit, _ in spans.PER_LAYER}
        res["lines"] = traced_lines(res)
    res["env"] = env
    (run.out_dir / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({k: v for k, v in res.items() if k != "lines"}, indent=1))
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "cliffordprolate" / "__init__.py").is_file():
        print("bench/run.py: no src/cliffordprolate here; run it from the root "
              "of a checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        res = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        print(f"workload {name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
        print("\n".join(res["lines"]))
        print("env " + json.dumps(res["env"]))
        final["attempted"] += res["attempted"]
        final["failed"] += res["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        final["metrics"].update({prefix + k: v for k, v in res["metrics"].items()})
    final["correct"] = final["failed"] == 0
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
