"""Spawn processes on request and report how each one ran.

Reads one JSON request per line on stdin, {"argv", "stdout", "stderr",
"timeout"}, runs it to completion and answers one JSON line on stdout:
{"wall_s", "cpu_s", "rss_mb", "exit_code", "killed"}.  Exits at end of input,
or on SIGTERM after killing and reaping the process it is running.

The peak RSS that wait4 reports for a child is at least its parent's RSS at
the moment it was spawned, because the child starts as a copy of the parent.
The benchmark process grows while it checks outputs, so it spawns through
this small process, whose own footprint stays below any CLI process's.

This process and every process it spawns run on one CPU.  A scan's worker
threads take the interpreter lock in turn; on two vCPUs of a shared host,
each hand-over must wake the other vCPU, and when the host is busy that
wake-up stalls the scan: identical lemma scans then took 4.2 to 7.7 s wall
for 3.9 to 4.9 s of CPU, while a single-threaded process beside them kept
wall equal to CPU.  On one CPU the hand-over is a local context switch.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(argv: list[str], stdout: str, stderr: str, timeout: float) -> dict:
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        lock = threading.Lock()
        state = {"reaped": False, "killed": False}

        def kill() -> None:
            with lock:
                if not state["reaped"]:
                    os.kill(proc.pid, signal.SIGKILL)
                    state["killed"] = True

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            # Wait without reaping, so the pid cannot be reused before the
            # timer is disarmed.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        except BaseException:
            # Stopped from outside (SIGTERM): take the child down too.
            timer.cancel()
            kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        with lock:
            state["reaped"] = True
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024, "exit_code": proc.returncode,
            "killed": state["killed"]}


def stop(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main() -> None:
    signal.signal(signal.SIGTERM, stop)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["stdout"], request["stderr"], request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
