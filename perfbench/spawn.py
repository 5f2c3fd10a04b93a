"""Launches the benchmark's measured processes and reports their cost.

A process's peak RSS, as wait4 reports it, counts the memory its parent
held when it was spawned. The runner holds the samples and the imports
it needs to check outputs, so it starts every measured process through
this helper, which imports next to nothing: each figure is then the
child's own.

Reads one JSON job per line on stdin, {"argv", "env", "log", "timeout"},
and answers each with one JSON line, {"code", "wall_s", "maxrss_mb"}.
The child's stdin and stdout are /dev/null and its stderr is appended to
"log". A child still running after "timeout" seconds is killed.
"""

import json
import os
import signal
import sys
import time


def run(job: dict) -> dict:
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_OPEN, 2, job["log"], os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(job["argv"][0], job["argv"], job["env"], file_actions=actions)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, job["timeout"])
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - t0
    return {"code": os.waitstatus_to_exitcode(status), "wall_s": wall,
            "maxrss_mb": usage.ru_maxrss / 1024.0}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
