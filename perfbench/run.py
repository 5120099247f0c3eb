"""Benchmark of the ``shiftedschur`` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  A workload is a seeded list of CLI
invocations (``workloads.py``); one pass runs each of them once, in order,
each in a fresh interpreter through ``launch.py``, because a CLI user pays
the import and the cold caches on every run.  A run makes
``max(1, round(S / nominal pass time))`` passes, so parent and child commits
measure the same work, after ``SETUP_PROBES`` runs of the warm-up
invocation, which is almost all set-up.

The host's speed changes by up to a factor of two within seconds, so with
``--trace 0`` each invocation shares its CPUs (one per ``--jobs`` worker)
with co-runners of a fixed unit of work (``calibrate.py``), and its times
are scaled by the co-runners' speed over it to those of a host of a fixed
speed.  Wall times include the co-runners' share of the CPUs, about a
tenth while the invocation keeps them busy.

Every invocation is checked.  It fails on a nonzero exit, the wall-clock
timeout, the memory cap, stdout that differs from its reference hash in
``references.json``, or stdout that differs from the invocation it is
cross-checked against (localize against molev).  The references ignore
``--jobs``, so ``expand`` and ``expand-jobs2`` must print the same bytes.

With ``--trace 0`` the last line reports the end-to-end metrics:

- ``setup_s``: CPU time of an invocation from spawn to ``shiftedschur.cli``
  imported, median over the invocations and set-up probes of the run;
- ``wall_s``: one pass, spawn to exit of each invocation, summed, with
  each invocation's time the median over the passes;
- ``cpu_s``: the same sum of the user+sys CPU of each invocation's process
  tree (``--jobs`` workers included), from ``os.wait4``;
- ``peak_rss_mb``: the largest peak RSS of a pass; median over passes;
- ``op_s.p50``, ``op_s.tail``: invocation latency over the run; the tail is
  the highest percentile with at least ten samples beyond it, or the
  largest sample when there are too few for that to lie above the median.

With ``--trace 1`` a run makes one untraced and one traced pass and reports
the per-layer metrics of the traced pass (see ``tracer.py``) and
``trace.overhead_ratio``, the traced over the untraced pass time.

All times of the end-to-end metrics are scaled.  The lines before the last
give each metric with its unit and sample count, the unscaled pass time,
the range of host speeds and the fail ratio.  The run exits nonzero without
a result when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from calibrate import REFERENCE_RATE, CoRunners
from launch import MEMORY_CAP_EXIT
from tracer import CACHED_MODULES, RENDER_GROUP

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCHER = HERE / "launch.py"
REFERENCES = HERE / "references.json"
TRACE_ROOT = ROOT / ".perfbench-trace"

INVOCATION_TIMEOUT_S = 60
RUN_LIMIT_S = 150
MEMORY_CAP_BYTES = 1 << 30
WARMUP = (("molev", "--lambda", "1", "--mu", "1", "--nu", "1"), b"1\n")
SETUP_PROBES = 6

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "op_s.p50": "s",
    "op_s.tail": "s",
}

# Per-layer metrics: (module.function, stats) and the counters.
SPAN_METRICS = [
    ("polyring.Poly.__mul__", ("calls", "self_s")),
    *((f"polyring.{f}", ("calls", "s")) for f in (
        "Poly.__add__", "poly_det", "divide_exact", "divide_linear",
        "Poly.substitute", "Poly.specialize_y", "canonical_string")),
    *((f"schur.{f}", ("calls", "s", "self_s")) for f in (
        "double_schur", "shifted_double_schur", "restrict_to_fixed_point")),
    ("structconst.compute_expansion", ("calls", "s")),
    ("structconst.multiply_schubert", ("self_s",)),
    ("structconst.structure_constants_via_localization", ("self_s",)),
    ("structconst.multiplication_table", ("s",)),
    (RENDER_GROUP, ("s",)),
    *((f"partitions.{f}", ("calls", "s")) for f in (
        "count_standard_tableaux", "partitions_between", "partitions_up_to")),
    *((f"comult.{f}", ("calls", "s")) for f in (
        "coproduct_power_polynomial", "verify_primitivity",
        "PowerPolynomial.__mul__", "TensorElement.__mul__")),
    ("cli.run", ("s", "self_s")),
]
STAT_INDEX = {"calls": 0, "s": 1, "self_s": 2}
COUNTERS = ("polyring.mul.term_products", "polyring.mul.terms_out")


class SetupError(Exception):
    """The program cannot be run at all; no result is printed."""


@dataclass
class Outcome:
    wall: float
    setup: float | None
    cpu: float
    rss_mb: float
    digest: str
    error: str | None
    # Host speed over the invocation relative to the reference.
    speed: float = 1.0

    @property
    def scaled_wall(self) -> float:
        return self.wall * self.speed

    @property
    def scaled_cpu(self) -> float:
        return self.cpu * self.speed


def ref_key(argv) -> str:
    """Reference key of an invocation: its argv without ``--jobs N``."""
    out = list(argv)
    if "--jobs" in out:
        i = out.index("--jobs")
        del out[i:i + 2]
    return " ".join(out)


def _wait_group_gone(pgid: int, limit_s: float = 10.0) -> None:
    """After a kill, wait until no process of the invocation's group is left."""
    end = time.monotonic() + limit_s
    while time.monotonic() < end:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def launch(argv, timeout: float, trace_dir: str = "-", cpus=None) -> Outcome:
    """Run one invocation in a fresh interpreter, in a process group of its
    own, on ``cpus`` if given."""
    ready_r, ready_w = os.pipe()
    cmd = [sys.executable, str(LAUNCHER), str(ready_w), trace_dir,
           str(MEMORY_CAP_BYTES), str(INVOCATION_TIMEOUT_S), "--", *argv]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    try:
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, pass_fds=(ready_w,), process_group=0,
            preexec_fn=None if cpus is None else lambda: os.sched_setaffinity(0, cpus),
        )
    finally:
        os.close(ready_w)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks = {out_fd: [], err_fd: [], ready_r: []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for fd in chunks:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            remaining = start + timeout - time.perf_counter()
            if remaining <= 0 and not timed_out:
                timed_out = True
                os.killpg(proc.pid, signal.SIGKILL)
            for key, _ in sel.select(None if timed_out else remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    os.close(ready_r)
    if timed_out:
        _wait_group_gone(proc.pid)
    stdout = b"".join(chunks[out_fd])
    ready = b"".join(chunks[ready_r])
    error = None
    if timed_out or code == -signal.SIGXCPU:
        error = "timeout"
    elif code == MEMORY_CAP_EXIT:
        error = "memory cap"
    elif code != 0:
        tail = b"".join(chunks[err_fd]).decode(errors="replace").strip().splitlines()
        error = f"exit {code}: {tail[-1] if tail else ''}"
    return Outcome(
        wall=wall,
        setup=float(ready) if ready else None,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        digest=hashlib.sha256(stdout).hexdigest(),
        error=error,
    )


def run_invocation(inv, earlier: list[Outcome], references, deadline: float,
                   trace_dir: Path | None = None,
                   corunners: CoRunners | None = None) -> Outcome:
    """Run one invocation of a pass (``earlier`` holds the pass so far),
    beside ``corunners`` if given, and mark it failed if it is."""
    timeout = min(INVOCATION_TIMEOUT_S, deadline - time.perf_counter())
    if timeout <= 0:
        return Outcome(0.0, None, 0.0, 0.0, "", "run time limit reached")
    if trace_dir is not None:
        os.makedirs(trace_dir)
    if corunners is None:
        out = launch(inv.argv, timeout, str(trace_dir or "-"))
    else:
        units, cpu_s = corunners.sample()
        out = launch(inv.argv, timeout, cpus=corunners.cpus)
        units_after, cpu_s_after = corunners.sample()
        out.speed = (units_after - units) / (cpu_s_after - cpu_s) / REFERENCE_RATE
    if out.error is None:
        expected = references.get(ref_key(inv.argv))
        if expected is None:
            out.error = "no reference output"
        elif out.digest != expected:
            out.error = "output differs from reference"
        elif inv.same_as is not None and out.digest != earlier[inv.same_as].digest:
            out.error = f"output differs from invocation {inv.same_as}"
    return out


def run_pass(invocations, references, deadline: float, corunners: CoRunners) -> list[Outcome]:
    outcomes: list[Outcome] = []
    for inv in invocations:
        outcomes.append(run_invocation(inv, outcomes, references, deadline, corunners=corunners))
    return outcomes


def run_passes(invocations, references, deadline: float,
               n_passes: int) -> tuple[list[Outcome], list[list[Outcome]]]:
    """The set-up probes and the passes, beside one co-runner per CPU the
    invocations use."""
    jobs = max(int(inv.argv[inv.argv.index("--jobs") + 1]) if "--jobs" in inv.argv else 1
               for inv in invocations)
    cpus = sorted(os.sched_getaffinity(0))[:jobs]
    probe = workloads.Invocation(WARMUP[0])
    with CoRunners(cpus) as corunners:
        probes = run_pass([probe] * SETUP_PROBES, references, deadline, corunners)
        return probes, [run_pass(invocations, references, deadline, corunners)
                        for _ in range(n_passes)]


def run_traced(invocations, references, deadline: float) -> tuple[list, list]:
    """An untraced and a traced pass, interleaved invocation by invocation so
    that drift in host speed cancels out of the overhead ratio."""
    plain: list[Outcome] = []
    traced: list[Outcome] = []
    for i, inv in enumerate(invocations):
        plain.append(run_invocation(inv, plain, references, deadline))
        traced.append(run_invocation(inv, traced, references, deadline, TRACE_ROOT / str(i)))
    return plain, traced


def tail_index(n: int) -> int:
    """Index in ascending order of the highest percentile with at least ten
    samples beyond it, or of the largest sample when that percentile would
    not lie above the median (fewer than 22 samples)."""
    return n - 11 if n - 11 > (n - 1) // 2 else n - 1


def pass_time(passes: list[list[Outcome]], field: str) -> float:
    """Time of one pass: each invocation's median over the passes, summed,
    so that a stall in one pass moves only the invocation it hit."""
    return sum(statistics.median(getattr(o, field) for o in column) for column in zip(*passes))


def end_to_end(probes: list[Outcome], passes: list[list[Outcome]]) -> tuple[dict, list[str]]:
    # Failed invocations are timed too: a timeout counts with its full wait.
    outcomes = [o for p in passes for o in p]
    setups = [o.setup * o.speed for o in probes + outcomes if o.setup is not None]
    latencies = sorted(o.scaled_wall for o in outcomes)
    t = tail_index(len(latencies))
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": pass_time(passes, "scaled_wall"),
        "cpu_s": pass_time(passes, "scaled_cpu"),
        "peak_rss_mb": statistics.median(max(o.rss_mb for o in p) for p in passes),
        "op_s.p50": statistics.median(latencies),
        "op_s.tail": latencies[t],
    }
    notes = {
        "setup_s": f"median of {len(setups)} invocations and probes",
        "wall_s": f"sum of per-invocation medians over {len(passes)} passes",
        "cpu_s": f"sum of per-invocation medians over {len(passes)} passes",
        "peak_rss_mb": f"median of {len(passes)} pass maxima",
        "op_s.p50": f"median of {len(latencies)} invocations",
        "op_s.tail": f"p{100 * (t + 1) / len(latencies):.1f} of {len(latencies)} invocations",
    }
    lines = [f"{k} = {v:.6g} {END_TO_END[k]} ({notes[k]})" for k, v in values.items()]
    speeds = sorted(o.speed for o in outcomes)
    lines.append(f"unscaled wall time of a pass = {pass_time(passes, 'wall'):.6g} s, "
                 f"host speed = {speeds[0]:.3f} to {speeds[-1]:.3f} of the reference")
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, lines


def merge_traces(trace_dir: Path) -> dict:
    """Sum the per-process trace files of a traced pass."""
    stats: dict[str, list] = {}
    pair_s: list[float] = []
    counts = dict.fromkeys(COUNTERS, 0)
    cache = {m: [0, 0, 0] for m in CACHED_MODULES}
    for path in sorted(trace_dir.glob("*/*.json")):
        record = json.loads(path.read_text())
        for key, rec in record["stats"].items():
            acc = stats.setdefault(key, [0, 0.0, 0.0])
            for j in range(3):
                acc[j] += rec[j]
        pair_s.extend(record["pair_s"])
        for key, value in record["counts"].items():
            counts[key] += value
        for module, values in record["cache"].items():
            cache[module] = [a + b for a, b in zip(cache[module], values)]
    return {"stats": stats, "pair_s": pair_s, "counts": counts, "cache": cache}


def per_layer(trace: dict, overhead: float) -> dict:
    metrics = {}
    for key, stat_names in SPAN_METRICS:
        rec = trace["stats"].get(key, [0, 0.0, 0.0])
        for stat in stat_names:
            unit = "count" if stat == "calls" else "s"
            metrics[f"{key}.{stat}"] = {"value": rec[STAT_INDEX[stat]], "unit": unit}
    pairs = sorted(trace["pair_s"])
    metrics["structconst.pair_s.p50"] = {
        "value": statistics.median(pairs) if pairs else 0.0, "unit": "s"}
    metrics["structconst.pair_s.tail"] = {
        "value": pairs[tail_index(len(pairs))] if pairs else 0.0, "unit": "s"}
    for key, value in trace["counts"].items():
        metrics[key] = {"value": value, "unit": "count"}
    for module, (hits, misses, entries) in trace["cache"].items():
        metrics[f"{module}.cache.hits"] = {"value": hits, "unit": "count"}
        metrics[f"{module}.cache.misses"] = {"value": misses, "unit": "count"}
        metrics[f"{module}.cache.entries"] = {"value": entries, "unit": "count"}
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    return metrics


def check_program(deadline: float) -> None:
    """One untimed invocation: fails fast when the package cannot run, and
    leaves the bytecode cache warm, as an installed CLI has it."""
    if not (ROOT / "src" / "shiftedschur" / "cli.py").is_file():
        raise SetupError(f"no shiftedschur package under {ROOT / 'src'}")
    argv, expected = WARMUP
    out = launch(argv, min(INVOCATION_TIMEOUT_S, deadline - time.perf_counter()))
    if out.error is not None or out.digest != hashlib.sha256(expected).hexdigest():
        raise SetupError(f"warm-up invocation failed: {out.error or 'wrong output'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.perf_counter() + RUN_LIMIT_S
    invocations = workloads.build(args.workload, args.seed)
    try:
        check_program(deadline)
        references = json.loads(REFERENCES.read_text())
        references[ref_key(WARMUP[0])] = hashlib.sha256(WARMUP[1]).hexdigest()
    except (SetupError, OSError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    if args.trace:
        shutil.rmtree(TRACE_ROOT, ignore_errors=True)
        try:
            plain, traced = run_traced(invocations, references, deadline)
            trace = merge_traces(TRACE_ROOT)
        finally:
            shutil.rmtree(TRACE_ROOT, ignore_errors=True)
        probes, done = [], [plain, traced]
        overhead = sum(o.wall for o in traced) / sum(o.wall for o in plain)
        metrics = per_layer(trace, overhead)
        lines = [f"{k} = {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
    else:
        nominal = workloads.NOMINAL_PASS_S[args.workload]
        probes, done = run_passes(invocations, references, deadline,
                                  max(1, round(args.seconds / nominal)))
        metrics, lines = end_to_end(probes, done)

    checked = [(WARMUP[0], o) for o in probes]
    checked += [(inv.argv, o) for p in done for inv, o in zip(invocations, p)]
    failures = [(argv, o.error) for argv, o in checked if o.error]
    for argv, error in failures:
        lines.append(f"FAILED {' '.join(argv)}: {error}")
    lines.append(f"fail_ratio = {len(failures)}/{len(checked)}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(checked),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
