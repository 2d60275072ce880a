"""One fresh interpreter of an in-process workload.

Reads a JSON spec on stdin: {"workload", "inputs", "seconds", "trace",
"spans_path"}.  Untraced, it times `import cliffordprolate` plus the
cold first pass (set-up), then runs warm passes back to back for
`seconds`.  Traced, it wraps the package's entry points (see spans.py),
traces the cold pass, then alternates untraced and traced warm passes so
that the two are measured under the same conditions.  Every pass result
is checked outside the timed region.  Prints one JSON line.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import sys
import time


class Checks:
    """Runs the workload's check on each result; a result identical to one
    already checked reuses that outcome."""

    def __init__(self, workload):
        self.workload = workload
        self.seen: dict = {}
        self.attempted = self.failed = 0
        self.worst = 0.0

    def raised(self) -> None:
        self.attempted += 1
        self.failed += 1
        self.worst = math.inf

    def add(self, result) -> None:
        key = digest(result)
        if key not in self.seen:
            self.seen[key] = self.workload.check(result)
        for err, tol in self.seen[key]:
            self.attempted += 1
            if not err <= tol:
                self.failed += 1
            self.worst = max(self.worst, err if err == err else math.inf)

    def report(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "worst_err": self.worst if math.isfinite(self.worst) else None}


def digest(result) -> str:
    h = hashlib.sha1()
    for part in result if isinstance(result, list) else [result]:
        h.update(part.tobytes() if hasattr(part, "tobytes") else repr(part).encode())
    return h.hexdigest()


def timed_pass(workload, checks: Checks):
    """Run one pass; returns (seconds, result), or (None, None) if it raised.
    The caller checks the result once the pass (and its trace) is closed."""
    t = time.perf_counter()
    try:
        result = workload.run()
    except Exception as exc:  # a failing pass is counted, not fatal
        print(f"pass raised {exc!r}", file=sys.stderr)
        checks.raised()
        return None, None
    return time.perf_counter() - t, result


def untraced(spec: dict) -> dict:
    t0 = time.perf_counter()
    import cliffordprolate  # noqa: F401  (the import is part of set-up)
    from workloads import IN_PROCESS

    workload = IN_PROCESS[spec["workload"]](spec["inputs"])
    cold = workload.run()
    setup_s = time.perf_counter() - t0
    checks = Checks(workload)
    checks.add(cold)
    # hold no result across a pass, so that peak RSS is the program's own
    del cold
    samples = []
    deadline = time.perf_counter() + spec["seconds"]
    while not samples or time.perf_counter() < deadline:
        dt, result = timed_pass(workload, checks)
        if dt is not None:
            checks.add(result)
            samples.append(dt)
        del result
        if dt is None and time.perf_counter() >= deadline:
            break
    return {"setup_s": setup_s, "samples": samples, **checks.report()}


def traced(spec: dict) -> dict:
    import cliffordprolate  # noqa: F401
    import spans
    from workloads import IN_PROCESS

    workload = IN_PROCESS[spec["workload"]](spec["inputs"])
    checks = Checks(workload)
    tracer = spans.Tracer()

    def traced_pass(pass_id: int):
        restore = spans.install(tracer)
        before = spans.cache_counts()
        tracer.pass_id = pass_id
        root = tracer.open("bench.pass")
        try:
            dt, result = timed_pass(workload, checks)
        finally:
            tracer.close(root)
            tracer.pass_id = None
            restore()
        caches = spans.cache_delta(before, spans.cache_counts())
        if dt is not None:
            checks.add(result)
        summary = spans.summarize(tracer.spans, pass_id)
        summary["caches"] = caches
        summary["pass_s"] = dt
        return summary, result

    cold, _ = traced_pass(0)
    plain, warm = [], []
    deadline = time.perf_counter() + spec["seconds"]
    while not warm or time.perf_counter() < deadline:
        dt, result = timed_pass(workload, checks)
        if dt is not None:
            checks.add(result)
            plain.append(dt)
        del result
        summary, result = traced_pass(len(warm) + 1)
        if not warm:
            first = result  # the overshoot is read from the first warm pass
        del result
        warm.append(summary)
    with open(spec["spans_path"], "w") as fh:
        json.dump(tracer.spans, fh)
    overshoot = 0.0
    if hasattr(workload, "overshoot") and first is not None:
        overshoot = workload.overshoot(first)
    out = spans.traced_report(cold, warm, plain, overshoot, spec["workload"])
    checks.attempted += out["accounting"][0]
    checks.failed += out["accounting"][1]
    return out | checks.report()


def main() -> None:
    spec = json.loads(sys.stdin.read())
    out = traced(spec) if spec["trace"] else untraced(spec)
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))


if __name__ == "__main__":
    main()
