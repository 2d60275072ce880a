"""Traced stand-in for `python -m cliffordprolate.cli ARGS`.

Usage: python bench/cli_traced.py SPANS_PATH PASS_ID ARGS...

Records `cli.import` (a fresh `import cliffordprolate.cli`) and
`cli.command` (`cliffordprolate.cli.main`), with the package's entry
points wrapped inside the command, writes the spans and cache counts to
SPANS_PATH, and exits with the command's exit code.  The parent process
records `cli.total` around the whole process.
"""

import json
import sys

import spans


def main() -> int:
    path, pass_id, *args = sys.argv[1:]
    tracer = spans.Tracer()
    tracer.pass_id = int(pass_id)
    idx = tracer.open("cli.import")
    import cliffordprolate.cli as cli
    tracer.close(idx)
    spans.install(tracer)
    before = spans.cache_counts()
    idx = tracer.open("cli.command")
    try:
        cli.main.main(args=args, prog_name="cliffordprolate")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (exc.code is not None)
    finally:
        tracer.close(idx)
    with open(path, "w") as fh:
        json.dump({"spans": tracer.spans,
                   "caches": spans.cache_delta(before, spans.cache_counts())}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
