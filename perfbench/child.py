"""Run one ``hamiltonize`` command in this fresh interpreter and time it.

    python3 perfbench/child.py RESULT.json [--trace TRACE.json] -- ARGV...

Writes ``{"import_s", "main_s", "ref_s", "exit", "module"}`` to RESULT.json:
the time to import ``hamiltonize.cli`` (the set-up every command pays), the
time of ``hamiltonize.cli.main(ARGV)``, the durations of the reference
bursts, its exit code and the imported module's path.

A reference burst is fixed pure-Python work that shares no code with the
program, so its duration is the machine's speed at that moment.  Bursts run
back to back just before and just after ``main`` and, from a SIGALRM timer,
every ``BURST_PERIOD_S`` while it runs; ``main_s`` excludes them.  run.py
divides by them to take out the host's speed drift (see README.md).

With ``--trace`` the per-layer wrappers of ``tracing.py`` are installed
after the import and their spans and counts are written to TRACE.json when
the command returns; the timer is off then, so spans hold no bursts.  With
no ARGV only the import is timed.  Exits with the command's exit code.
"""

import signal
import sys
import time

BURST_ITERATIONS = 20_000
BURSTS_AROUND = 10  # back to back, before and after main
BURST_PERIOD_S = 0.03


def burst() -> float:
    """Seconds for a fixed pure-Python loop: this moment's machine speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(BURST_ITERATIONS):
        acc += i * i
    return time.perf_counter() - start


def main() -> int:
    args = sys.argv[1:]
    split = args.index("--") if "--" in args else len(args)
    result_path, options, argv = args[0], args[1:split], args[split + 1:]
    start = time.perf_counter()
    import hamiltonize.cli as cli
    import_s = time.perf_counter() - start

    tracer = None
    if options[:1] == ["--trace"]:
        import tracing

        tracer = tracing.install()
    code = 0
    main_s = 0.0
    ref_s: list[float] = []
    if argv:
        ref_s += [burst() for _ in range(BURSTS_AROUND)]
        during: list[float] = []
        if tracer is None:
            signal.signal(signal.SIGALRM, lambda *_: during.append(burst()))
            signal.setitimer(signal.ITIMER_REAL, BURST_PERIOD_S, BURST_PERIOD_S)
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        finally:
            main_s = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        main_s -= sum(during)
        sys.stdout.flush()
        ref_s += during + [burst() for _ in range(BURSTS_AROUND)]

    import json

    if tracer is not None:
        tracer.dump(options[1])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "main_s": main_s, "ref_s": ref_s, "exit": code,
                   "module": cli.__file__}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
