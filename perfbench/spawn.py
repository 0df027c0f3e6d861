"""Runs the benchmark's child processes on behalf of run.py.

Linux carries a process's peak RSS across fork and exec: a child's
``ru_maxrss`` is at least the peak RSS of the process that spawned it.  run.py
imports numpy and bicoef and runs whole campaigns in process, so children it
spawned itself would report its peak, not their own.  This helper is started
before those imports and stays small, so the RSS it passes on (~10 MB) is below
that of any bicoef child.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "env": {...}, "stdout": path, "stderr": path}``, answered by
one JSON line on stdout, ``{"code", "wall_s", "cpu_s", "maxrss_bytes"}``.  The
child runs in this helper's working directory with stdin from /dev/null.  The
helper exits at end of input; on SIGTERM it kills and reaps the running child
first.
"""

import contextlib
import json
import os
import signal
import sys
import time

running = None


def on_term(signum, _frame):
    if running is not None:
        with contextlib.suppress(OSError):    # already reaped
            os.kill(running, signal.SIGKILL)
            os.waitpid(running, 0)
    sys.exit(128 + signum)


def main():
    global running
    signal.signal(signal.SIGTERM, on_term)
    for line in sys.stdin:
        req = json.loads(line)
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_OPEN, 1, req["stdout"], flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, req["stderr"], flags, 0o644)]
        start = time.perf_counter()
        running = os.posix_spawn(req["argv"][0], req["argv"], req["env"],
                                 file_actions=actions)
        _, status, ru = os.wait4(running, 0)
        wall = time.perf_counter() - start
        running = None
        print(json.dumps({"code": os.waitstatus_to_exitcode(status), "wall_s": wall,
                          "cpu_s": ru.ru_utime + ru.ru_stime,
                          "maxrss_bytes": ru.ru_maxrss * 1024}), flush=True)


if __name__ == "__main__":
    main()
