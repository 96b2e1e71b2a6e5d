"""Run one command; report its wall time, peak RSS and exit code.

Usage: python3 bench/launch.py RESULT_PATH TIMEOUT_S -- COMMAND...

Linux counts a new process's peak RSS (ru_maxrss) from the peak of the
process that spawned it, because exec folds the spawner's high-water mark
into the child's. run.py holds numpy and the outputs it checks, so it starts
every measured process through this small launcher, whose own peak is a few
MB, below that of any process that imports qubit_bandit.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path


def main() -> int:
    result, timeout, separator, *command = sys.argv[1:]
    if separator != "--" or not command:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.DEVNULL)
    timer = threading.Timer(float(timeout), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    Path(result).write_text(json.dumps(
        {"seconds": seconds, "peak_rss_mb": usage.ru_maxrss / 1024.0, "exit_code": proc.returncode}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
