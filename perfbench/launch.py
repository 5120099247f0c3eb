"""Run one ``shiftedschur`` CLI invocation for the benchmark.

    python3 perfbench/launch.py READY_FD TRACE_DIR|- MEM_BYTES CPU_S -- ARGV...

Run with ``PYTHONPATH=src``.  The launcher caps its own address space and
CPU time with ``setrlimit`` (``--jobs`` workers inherit both), imports
``shiftedschur.cli``, writes the CPU seconds it has used so far (user+sys,
start-up and import) to READY_FD and closes it, then calls
``run(ARGV)`` and exits with its code.  With a TRACE_DIR it installs the
tracer first and writes the trace there.  Hitting the memory cap exits with
``MEMORY_CAP_EXIT``.
"""

import os
import resource
import sys

MEMORY_CAP_EXIT = 120


def main() -> int:
    ready_fd, trace_dir, mem_bytes, cpu_s, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    resource.setrlimit(resource.RLIMIT_AS, (int(mem_bytes), int(mem_bytes)))
    resource.setrlimit(resource.RLIMIT_CPU, (int(cpu_s), int(cpu_s)))
    try:
        import shiftedschur.cli as cli

        usage = resource.getrusage(resource.RUSAGE_SELF)
        os.write(int(ready_fd), repr(usage.ru_utime + usage.ru_stime).encode())
        os.close(int(ready_fd))
        if trace_dir == "-":
            return cli.run(argv)
        from tracer import Tracer

        tracer = Tracer(trace_dir)
        tracer.install()
        try:
            return cli.run(argv)
        finally:
            tracer.dump()
    except MemoryError:
        os.write(2, b"memory cap reached\n")
        return MEMORY_CAP_EXIT


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    sys.exit(code)
