"""Spawns the cold children of a benchmark run and measures each one.

A child's ru_maxrss also covers the peak RSS of the process that spawned
it: exec records the address space the child leaves, and a vfork child
borrows its parent's. run.py holds warm-run outputs and grows well past
a small CLI process, so it starts this launcher before anything else and
spawns every measured child from it; the launcher stays smaller than any
child.

Protocol: one JSON array per stdin line, [argv, stdout path, stderr
path, timeout s]; one JSON array per stdout line back, [exit code, wall
s, max RSS MB]. Children inherit the launcher's environment and working
directory. The launcher exits at end of input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        argv, stdout, stderr, timeout = json.loads(line)
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        sys.stdout.write(json.dumps([proc.returncode, wall, usage.ru_maxrss / 1024.0]) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
