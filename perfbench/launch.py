"""Operation launcher for run.py: fork, exec, wait4, report.

Linux carries the resident size a process had before exec into its
ru_maxrss, so a child forked straight from run.py (larger than a CLI run)
would report run.py's memory as its peak.  run.py starts this small
process once (`python3 -S -E launch.py`, about 10 MiB, below any Python
child) and has it start every operation.

Protocol, one JSON object per line: requests on stdin
{"argv", "stdout", "stderr", "timeout"}, replies on stdout
{"wall", "cpu", "rss_kib", "exit", "timed_out"}.  Exits at end of input.
"""

import json
import os
import signal
import sys
import time


def launch(argv, stdout, stderr, timeout):
    fds = [
        os.open(os.devnull, os.O_RDONLY),
        os.open(stdout, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        os.open(stderr, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            for target, fd in enumerate(fds):
                os.dup2(fd, target)
            os.execv(argv[0], argv)
        finally:
            os._exit(127)
    for fd in fds:
        os.close(fd)
    timed_out = []

    def kill(*_):
        timed_out.append(True)
        os.kill(pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return {
        "wall": time.perf_counter() - t0,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_kib": usage.ru_maxrss,
        "exit": os.waitstatus_to_exitcode(status),
        "timed_out": bool(timed_out),
    }


def main():
    for line in sys.stdin:
        reply = launch(**json.loads(line))
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
