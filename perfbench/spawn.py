"""Start, time and reap the benchmark's children, one at a time.

A child's ru_maxrss starts from the peak RSS of the process it was
spawned from, so run.py, which builds large graph documents, must not
spawn CLI runs itself. This small process does: run with `python -S`,
it stays far below the CLI's own footprint.

Reads one JSON request per stdin line, {"argv", "stdout", "stderr",
"timeout"}, runs argv with stdout and stderr written to those files,
and answers one JSON line: {"code", "timed_out", "seconds",
"maxrss_kb"}. Exits at end of input.
"""

import json
import os
import signal
import sys
import time


def run(request):
    with open(request["stdout"], "wb") as out, \
            open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        pid = os.posix_spawn(request["argv"][0], request["argv"], os.environ,
                             file_actions=[
                                 (os.POSIX_SPAWN_OPEN, 0, os.devnull,
                                  os.O_RDONLY, 0),
                                 (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                                 (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
                             ])
        timed_out = []

        def kill(signum, frame):
            timed_out.append(True)
            os.kill(pid, signal.SIGKILL)

        signal.signal(signal.SIGALRM, kill)
        signal.setitimer(signal.ITIMER_REAL, request["timeout"])
        try:
            # wait4 reaps this child alone: ru_maxrss is its own peak
            _, status, usage = os.wait4(pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - start
    return {"code": os.waitstatus_to_exitcode(status),
            "timed_out": bool(timed_out), "seconds": seconds,
            "maxrss_kb": usage.ru_maxrss}


def main():
    # every child runs on the same CPU, so that no run is split across
    # CPUs that may be loaded differently
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
