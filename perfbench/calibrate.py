"""Host-speed calibration by co-runners sharing the invocation's CPUs.

    python3 perfbench/calibrate.py CPU

The benchmark runs on a shared host whose speed changes by up to a factor
of two within seconds, for the same work, in wall and CPU time alike.  A
co-runner is a process pinned to one CPU, at nice ``NICE``, that repeats a
fixed unit of pure-Python work and, whenever a byte arrives on its stdin,
answers with the number of units done and its own CPU time at the end of
the last one.  ``run.py`` pins each invocation to the co-runners' CPUs, in
the same session (the scheduler shares a CPU equally between sessions,
whatever their nice values), so the scheduler gives the co-runner about a
tenth of the CPU in slices of a few milliseconds spread over the
invocation, and both see the same host speed.  The co-runners' units per
CPU-second over the invocation, over ``REFERENCE_RATE``, is the speed
factor by which ``run.py`` scales the invocation's times: they become the
times on a host that runs the unit at ``REFERENCE_RATE``.

The unit does what the program's hot paths do (sparse products of dicts
keyed by exponent tuples, with int and Fraction coefficients) but calls no
code of the program, so a change to the program cannot move it.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
import time
from fractions import Fraction

# Units per CPU-second of a co-runner on the host the baseline was measured
# on (shared 2-CPU x86-64, CPython 3.11), sharing its CPU with an invocation,
# when the host was fast.
REFERENCE_RATE = 1000.0
NICE = 10


def _poly(seed: int, n: int, frac: bool) -> dict:
    terms = {}
    x = seed
    for _ in range(n):
        x = (x * 1103515245 + 12345) % 2147483648
        key = (x % 5, (x >> 3) % 4, (x >> 6) % 3, (x >> 9) % 3)
        c = (x >> 12) % 97 - 48 or 1
        terms[key] = Fraction(c, (x >> 20) % 7 + 1) if frac else c * 1000003
    return terms


def _mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(p + q for p, q in zip(m1, m2))
            c = out.get(m)
            if c is None:
                out[m] = c1 * c2
            else:
                c = c + c1 * c2
                if c:
                    out[m] = c
                else:
                    del out[m]
    return out


_INTS = (_poly(1, 24, False), _poly(2, 24, False))
_FRACS = (_poly(3, 8, True), _poly(4, 8, True))


def unit() -> int:
    """One unit of work; returns a checksum so that none of it is skipped."""
    return len(_mul(*_INTS)) + len(_mul(*_FRACS))


def serve(cpu: int) -> None:
    """Co-runner main loop; ends when stdin is closed."""
    os.sched_setaffinity(0, {cpu})
    os.nice(NICE)
    done, cpu_s = 0, time.process_time()
    while True:
        if select.select((0,), (), (), 0)[0]:
            if not os.read(0, 1):
                return
            os.write(1, f"{done} {cpu_s!r}\n".encode())
        unit()
        done, cpu_s = done + 1, time.process_time()


class CoRunners:
    """One co-runner on each of ``cpus``; a context manager that stops and
    waits for them on exit."""

    def __init__(self, cpus) -> None:
        self.cpus = tuple(cpus)
        self.procs: list[subprocess.Popen] = []
        try:
            for cpu in self.cpus:
                self.procs.append(subprocess.Popen(
                    [sys.executable, __file__, str(cpu)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0,
                ))
            self.sample()
        except BaseException:
            self.close()
            raise

    def sample(self) -> tuple[int, float]:
        """Units done and CPU seconds used, summed over the co-runners."""
        for p in self.procs:
            p.stdin.write(b".")
        units, cpu_s = 0, 0.0
        for p in self.procs:
            line = p.stdout.readline().split()
            if len(line) != 2:
                raise RuntimeError("co-runner exited")
            units += int(line[0])
            cpu_s += float(line[1])
        return units, cpu_s

    def close(self) -> None:
        for p in self.procs:
            p.stdin.close()
        for p in self.procs:
            try:
                p.wait(5)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
            p.stdout.close()

    def __enter__(self) -> "CoRunners":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    serve(int(sys.argv[1]))
