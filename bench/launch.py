"""Run one ``mm`` command with layer spans.

    python3 bench/launch.py SPANS_JSON ARGV...

Behaves like ``python3 -m minmod.cli ARGV...`` (same output, exit code
and tracebacks) and writes the spans, the import time of ``minmod.cli``
and the growth of the r-matrix memo to SPANS_JSON when it exits.
"""

import sys
import time

import tracing


def main() -> None:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import minmod.cli
    import minmod.braiding
    import_s = time.perf_counter() - t0
    recorder = tracing.Recorder()
    t1 = time.perf_counter()
    bindings = tracing.install(recorder)
    install_s = time.perf_counter() - t1
    memo_before = len(minmod.braiding.memoized_queries())
    code = 1
    try:
        code = minmod.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        recorder.dump(spans_path, {
            "import_s": import_s,
            "install_s": install_s,
            "bindings": bindings,
            "r_memo_growth": len(minmod.braiding.memoized_queries()) - memo_before,
        })
    sys.exit(code)


if __name__ == "__main__":
    main()
