"""Run one command to its end and record its exit code, wall time and peak RSS.

    python3 perfbench/child.py RESULT_JSON command [args...]

The command inherits this process's standard streams.  Its peak resident
set is read from its own rusage here, in a small process, and not in the
benchmark process: Linux charges a child made by fork or vfork with its
parent's resident high-water mark when the child calls exec, so a CLI
child spawned straight from the benchmark would report at least the
benchmark's own peak.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    result_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    proc = subprocess.Popen(argv)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"code": proc.returncode, "seconds": elapsed, "maxrss_kb": usage.ru_maxrss}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
