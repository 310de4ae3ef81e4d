"""Benchmark of the cantorprod CLI: end-to-end runs, or one traced in-process run.

    python3 perfbench/run.py --workload standard --seed 1 --seconds 50 --trace 0

With `--trace 0` it runs the workload's commands (see workloads.py) as fresh
`python -m cantorprod.cli` subprocesses of this process, one at a time (a
closed loop with one client), pass after pass until the next pass would end
after `--seconds`.  Each child's wall time is divided by the host's
slowness around and inside it (hostspeed.py).  Every output is verified (verify.py).  With `--trace 1`
it replays the workload in-process through `cli.main` with spans around the
package's public functions instead (tracing.py).

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it print each metric
with its unit and sample count.  Exit code 0 when every output verified, 1
when one did not, 2 when the checkout has no `src/cantorprod`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import hostspeed
import tracing
import verify
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"

END_TO_END = ("wall_s", "key_cmd_s", "cmd_p50_ms", "cmd_tail_ms", "peak_rss_mb", "setup_s")
SETUP_PER_PASS = 3
# on `standard`: kernel slices in each gap, and seconds a child runs between
# the slices taken while it is paused (hostspeed.py)
CAL_SLICES = 4
CAL_EVERY_S = 0.01
CHILD_TIMEOUT_S = 120.0
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
MIN_BEYOND_TAIL = 10


@dataclass(frozen=True)
class ChildResult:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float  # spawn to reap, less the time the child was paused
    maxrss_mb: float
    slowness: tuple = ()  # host slowness samples taken while the child was paused


def child_env() -> dict:
    """The whole environment of every child: nothing else is inherited.

    The bytecode cache is pinned to a writable directory inside the checkout
    (so no start pays for compiling sources, and none writes outside it);
    CANTORPROD_THREADS is absent and --threads is never passed.
    """
    return {
        "PATH": os.environ.get("PATH", os.defpath),
        "PYTHONPATH": str(SRC),
        "PYTHONPYCACHEPREFIX": str(BUILD / "pycache"),
        "PYTHONHASHSEED": "0",
        "PYTHONUTF8": "1",
    }


def _pause_and_calibrate(pid: int) -> tuple[float, float | None]:
    """Stop the child, time one calibration slice, continue it; (paused seconds, slowness).

    The slowness is None when the child had already exited.
    """
    start = time.perf_counter()
    os.kill(pid, signal.SIGSTOP)
    # blocks until the child has stopped (or exited), without reaping it
    info = os.waitid(os.P_PID, pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
    if info.si_code != os.CLD_STOPPED:
        return time.perf_counter() - start, None
    [slowness] = hostspeed.slice_slowness(1)
    os.kill(pid, signal.SIGCONT)
    return time.perf_counter() - start, slowness


def run_child(argv: list[str], env: dict, calibrate_every: float | None = None) -> ChildResult:
    """Run argv to completion; its wall time, ru_maxrss and in-run slowness samples.

    With `calibrate_every`, the child is paused after each `calibrate_every`
    seconds of running while one calibration slice (hostspeed.py) runs on
    its CPU, so the slices sample the host's speed over the child's own
    run; the paused time is left out of its wall time.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT)
    chunks: dict = {proc.stdout: [], proc.stderr: []}
    paused = 0.0
    slowness = []
    next_pause = start + calibrate_every if calibrate_every else float("inf")
    try:
        with selectors.DefaultSelector() as sel:
            for stream in chunks:
                sel.register(stream, selectors.EVENT_READ)
            while sel.get_map():
                now = time.perf_counter()
                if now >= next_pause:
                    spent, sample = _pause_and_calibrate(proc.pid)
                    paused += spent
                    if sample is not None:
                        slowness.append(sample)
                    next_pause = time.perf_counter() + calibrate_every
                    continue
                timeout = start + paused + CHILD_TIMEOUT_S - now
                if timeout <= 0:
                    proc.kill()
                ready = sel.select(timeout=max(0.0, min(timeout, next_pause - now)))
                for key, _ in ready:
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
                        key.fileobj.close()
    except BaseException:
        # never leave a child behind, stopped or running
        proc.kill()
        os.waitpid(proc.pid, 0)
        raise
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start - paused
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        returncode=proc.returncode,
        stdout=b"".join(chunks[proc.stdout]).decode(),
        stderr=b"".join(chunks[proc.stderr]).decode(),
        wall_s=wall,
        maxrss_mb=usage.ru_maxrss / 1024,
        slowness=tuple(slowness),
    )


def cli_argv(cmd: workloads.Command) -> list[str]:
    return [sys.executable, "-m", "cantorprod.cli", *cmd.argv]


SETUP_ARGV = [sys.executable, "-c", "import cantorprod.cli"]


def warm_setup(env: dict) -> None:
    """One untimed `import cantorprod.cli`, which fills the bytecode cache."""
    warm = run_child(SETUP_ARGV, env)
    if warm.returncode != 0:
        raise RuntimeError(f"import cantorprod.cli failed:\n{warm.stderr}")


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated p-th percentile."""
    ordered = sorted(values)
    rank = p / 100 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_latency(latencies: dict[str, list[float]]) -> tuple[float, str]:
    """Highest listed percentile with at least ten samples beyond it, and its label.

    With fewer than 100 commands in a run (the heavy workloads) no percentile
    qualifies; the median run of the slowest command is reported instead.
    p50 is no candidate: a run near 20 commands would switch between two
    definitions from one run to the next.
    """
    values = [v for vs in latencies.values() for v in vs]
    for p in TAIL_PERCENTILES:
        if len(values) * (100 - p) / 100 >= MIN_BEYOND_TAIL:
            return percentile(values, p), f"p{p:g} of {len(values)} commands"
    label, slowest = max(latencies.items(), key=lambda item: statistics.median(item[1]))
    return statistics.median(slowest), f"median of {len(slowest)} `{label}` (only {len(values)} commands)"


def measure(workload: str, commands: list[workloads.Command], seconds: float, env: dict, references: dict):
    """Closed-loop passes over the commands; returns (metrics, attempted, failures).

    Every timing is a child's wall time divided by the host's slowness
    measured right before, after and (on `standard`) during it, and each
    metric is a median over the run.
    """
    warm_setup(env)
    if workload == "light":
        # ~0.1-s start-up-bound children: a reference child in each gap, no pauses
        timeline, every = hostspeed.Timeline(lambda: hostspeed.reference_slowness(env)), None
    else:
        # seconds-long sweep-bound children: slices in each gap and inside the run
        timeline, every = hostspeed.Timeline(lambda: hostspeed.slice_slowness(CAL_SLICES)), CAL_EVERY_S
    setup: list[int] = []
    runs: dict[str, list[int]] = {cmd.label: [] for cmd in commands}
    passes: list[list[int]] = []
    pass_rss: list[float] = []
    failures: list[str] = []
    attempted = 0
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        # set-up samples spread over the run, so one burst cannot carry them all
        for _ in range(SETUP_PER_PASS):
            result = run_child(SETUP_ARGV, env, every)
            setup.append(timeline.add(result.wall_s, result.slowness))
        this_pass = []
        rss = 0.0
        for cmd in commands:
            result = run_child(cli_argv(cmd), env, every)
            attempted += 1
            index = timeline.add(result.wall_s, result.slowness)
            runs[cmd.label].append(index)
            this_pass.append(index)
            rss = max(rss, result.maxrss_mb)
            problem = verify.verify(cmd, result.returncode, result.stdout, references)
            if problem:
                failures.append(f"{cmd.label}: {problem} {result.stderr.strip()}".strip())
        passes.append(this_pass)
        pass_rss.append(rss)
        end = time.perf_counter()
        if end + (end - start) > deadline:
            break
    norm = timeline.normalized
    latencies = {label: [norm(i) for i in indices] for label, indices in runs.items()}
    key = " ".join(workloads.key_command(workload))
    tail, tail_label = tail_latency(latencies)
    typical = [statistics.median(values) for values in latencies.values()]
    n = len(passes)
    raw_wall = statistics.median(sum(timeline.walls[i] for i in p) for p in passes)
    slowness = statistics.median(timeline.slowness(i) for i in range(len(timeline.walls)))
    metrics = {
        "wall_s": (statistics.median(sum(norm(i) for i in p) for p in passes), "s",
                   f"median of {n} passes; raw {raw_wall:.4g} s at a median host slowness of {slowness:.4g}"),
        "key_cmd_s": (statistics.median(latencies[key]), "s", f"median of {len(latencies[key])} `{key}`"),
        "cmd_p50_ms": (1000 * statistics.median(typical), "ms",
                       f"median over {len(typical)} commands of each one's median of {n} runs"),
        "cmd_tail_ms": (1000 * tail, "ms", tail_label),
        "peak_rss_mb": (statistics.median(pass_rss), "MB", f"median over {n} passes of the largest child ru_maxrss"),
        "setup_s": (statistics.median(norm(i) for i in setup), "s", f"median of {len(setup)} `import cantorprod.cli`"),
    }
    return metrics, attempted, failures


def machine_info() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "child_env": child_env(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cantorprod" / "cli.py").is_file():
        print(f"perfbench: no cantorprod sources under {SRC}", file=sys.stderr)
        return 2
    # A vforked child's ru_maxrss starts at this process's peak RSS (the kernel
    # records the borrowed memory map's high-water mark at exec); a forked
    # child's starts at this process's current anonymous RSS, which stays
    # below any cantorprod child's.
    subprocess._USE_VFORK = False
    # This process, the calibration slices and every child (which inherits the
    # mask) share one CPU, so the slices see the same host speed as the child.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    BUILD.mkdir(parents=True, exist_ok=True)
    env = child_env()
    commands = workloads.commands(args.workload, args.seed)
    references = verify.load_references()
    info = machine_info()
    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"machine: python {info['python']}, nproc {info['nproc']}, loadavg {info['loadavg']}")

    if args.trace:
        metrics, attempted, failures = tracing.traced_run(
            args.workload, args.seed, commands, args.seconds, env, references, BUILD, info
        )
    else:
        metrics, attempted, failures = measure(args.workload, commands, args.seconds, env, references)

    for failure in failures:
        print(f"FAILED {failure}")
    for name, (value, unit, note) in metrics.items():
        print(f"{name} = {value:.6g} {unit} ({note})")
    print(f"failed_frac = {len(failures) / attempted:.6g} ratio ({len(failures)} of {attempted} commands)")
    reported = {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": reported,
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
