#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the gammaseq CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a fixed list of ``gammaseq`` commands.  They run one
after another from this process, each as ``python -m gammaseq.cli ...``
with ``PYTHONPATH=src``, so every command pays a cold start and an empty
cache, as a user's does.  Nothing runs in parallel.

``--trace 0`` first starts the CLI many times to time set-up, then runs
whole rounds of the workload until ``--seconds`` have passed, reading
each command's CPU time and peak RSS with ``os.wait4``, and reports the
median round.  ``--trace 1`` runs one untraced round and one round
through ``perfbench/tracer.py``, which wraps the layers' public
functions, and reports the per-layer metrics.  Either way the outputs
of the first round are checked against ``perfbench/oracle.py`` after
the timed section, and every later round must print the same bytes.
``--seed`` picks the rows the oracle samples.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  A command that crashes without output counts as failed;
any other wrong output makes ``correct`` false and the exit code 1.
Results and traces are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
MIB = 1 << 20

SETUP_STARTS = 25  # one start is ~0.12 s
REFERENCE_S = 0.050  # the reference work's CPU time on a quiet machine, see reference_s
SAMPLE_EVERY_S = 0.5  # how often a running command is paused to time the reference
RUN_DEADLINE_S = 170.0  # the whole run, checks included, ends inside 180 s
CHECK_RESERVE_S = 25.0  # kept free for the oracle after the timed rounds

CATALOG_IDS = (
    "tims-tyrrell", "young", "anderson", "mortici-vernescu", "toth",
    "alzer-chen-qi", "qiu-vuorinen", "franel", "karatsuba", "mortici-refined",
    "detemple", "chen", "chen-mortici", "theorem22",
)

WORKLOADS = {
    "theorem22-sweep": [
        ["sweep-bounds", "--entry", "theorem22", "--from", "3", "--to", "10000",
         "--precision", "192"],
    ],
    "catalog-sweep": [
        ["sweep-bounds", "--entry", entry, "--to", "2000", "--precision", "128",
         "--format", "csv"]
        for entry in CATALOG_IDS
    ],
    "enclose-ladder": [
        *(["enclose", "--precision", str(p)] for p in (1024, 4096, 12288, 16384)),
        ["enclose", "--n", "1000000", "--precision", "160"],
    ],
    "eval-rate": [
        ["eval", "--seq", "s", "--n", "3", "--to", "5000", "--precision", "256"],
        ["eval", "--seq", "uplus", "--n", "1", "--to", "3000", "--precision", "256"],
        ["rate", "--seq", "s", "--grid-start", "16", "--grid-stop", "65536",
         "--precision", "256"],
        *(["rate", "--seq", seq, "--grid-start", "16", "--grid-stop", "1024",
           "--precision", "256"] for seq in ("gamma", "r", "s")),
        ["certify", "--target", "f"],
        ["certify", "--target", "g"],
        ["optimize", "--order", "5"],
    ],
}

END_TO_END = {"cpu_s": "s", "rows_per_cpu_s": "rows/s", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER = {
    "kernels.atanh_fixed.calls": "count",
    "kernels.atanh_fixed.self_s": "s",
    "kernels.atanh_fixed.bits": "bits",
    "kernels.gamma_series_fixed.self_s": "s",
    "kernels.harmonic_fixed.self_s": "s",
    "numerics.harmonic_exact.calls": "count",
    "numerics.harmonic_exact.self_s": "s",
    "numerics.ln_interval.calls": "count",
    "numerics.ln_interval.self_s": "s",
    "numerics.gamma_reference.self_s": "s",
    "numerics.gamma_reference.hit_ratio": "ratio",
    "numerics.decimal_str.self_s": "s",
    "sequences.evaluate_interval.calls": "count",
    "sequences.evaluate_interval.self_s": "s",
    "sequences.split_eval.self_s": "s",
    "sequences.evaluate.intervals_per_value": "calls/value",
    "rates.empirical_rate.self_s": "s",
    "bounds.sweep.self_s": "s",
    "bounds.side.self_s": "s",
    "bounds.attempts_per_row": "attempts/row",
    "bounds.report.self_s": "s",
    "bounds.row_payload_mb": "MB",
    "cli.self_s": "s",
    "cli.out_mb": "MB",
    "trace.overhead_s": "s",
}


@dataclass
class Result:
    args: list[str]
    code: int
    out: Path  # the command's stdout, kept on disk
    stderr_tail: str
    cpu_s: float
    rss_mb: float
    wall_s: float
    references: list[float]  # reference_s timed before, during and after the command

    @property
    def reference_s(self) -> float:
        return statistics.median(self.references)

    @property
    def scaled_cpu_s(self) -> float:
        return self.cpu_s * REFERENCE_S / self.reference_s

    @property
    def crashed(self) -> bool:
        # a crash leaves no output; wrong output that exits nonzero is a
        # check failure instead
        return self.code > 0 and self.out.stat().st_size == 0


def run_child(argv: list[str], out: Path, deadline: float, sample: bool = False) -> Result:
    """Run one child to its end; CPU and max RSS come from os.wait4.

    stdout goes straight to a file.  A child's ru_maxrss starts from the
    launching process's own peak RSS, so this process must stay smaller
    than every command while rounds are timed: it holds no output in
    memory and imports the oracle (mpmath) only after the timed rounds.

    With ``sample``, the child is stopped every SAMPLE_EVERY_S seconds
    while reference_s runs, so the machine's speed is also known in the
    middle of a long command; a stopped child spends no CPU time.
    """
    env = dict(os.environ, PYTHONPATH="src")
    lock = threading.Lock()
    reaped = threading.Event()
    waited = []
    references = []

    def reap():
        waited.append(os.wait4(proc.pid, 0))
        with lock:
            reaped.set()

    def send(sig) -> bool:
        with lock:
            if not reaped.is_set():
                os.kill(proc.pid, sig)
                return True
        return False

    with open(out, "wb") as stdout, tempfile.TemporaryFile(dir=out.parent) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=stdout, stderr=err)
        waiter = threading.Thread(target=reap)
        waiter.start()
        try:
            while not reaped.wait(max(0.0, min(deadline - time.monotonic(),
                                               SAMPLE_EVERY_S if sample else math.inf))):
                if time.monotonic() >= deadline:
                    send(signal.SIGKILL)
                elif send(signal.SIGSTOP):
                    _wait_stopped(proc.pid)
                    references.append(reference_s())
                    send(signal.SIGCONT)
        except BaseException:
            send(signal.SIGKILL)
            raise
        finally:
            waiter.join()
        wall = time.perf_counter() - start
        _, status, usage = waited[0]
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr_tail = err.read()[-2000:].decode(errors="replace")
    return Result(argv, proc.returncode, out, stderr_tail, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024, wall, references)


def _wait_stopped(pid: int) -> None:
    """Return once the process is stopped, or gone."""
    while True:
        try:
            with open(f"/proc/{pid}/stat", "rb") as fh:
                state = fh.read().rpartition(b")")[2].split()[0]
        except (FileNotFoundError, ProcessLookupError, IndexError):
            return
        if state in (b"T", b"t", b"Z", b"X"):
            return
        time.sleep(0.0005)


def reference_s() -> float:
    """CPU seconds of a fixed piece of work, run in this process.

    Other tenants of the machine slow this code and the workloads
    together, by up to 1.7x within a minute.  Timing this work before,
    during and after each command and scaling the command's CPU time by
    REFERENCE_S over it cancels about half of that drift; the workloads
    suffer more from cache contention than this does.  It uses no
    gammaseq code, so no change to the program can move it.
    """
    start = time.process_time()
    total = Fraction(0)
    for k in range(1, 600):
        total += Fraction(1, k)
    modulus = 3**20000 + 12345
    x = 7**15000
    for _ in range(24):
        x = x * x % modulus
    return time.process_time() - start


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "gammaseq.cli", *args]


def run_round(commands, tmp: Path, tag: str, deadline: float, traced=False) -> list[Result]:
    results = []
    before = reference_s()
    for i, args in enumerate(commands):
        out = tmp / f"{tag}-{i:02d}.out"
        if traced:
            argv = [sys.executable, str(BENCH / "tracer.py"), str(out.with_suffix(".trace")),
                    *args]
        else:
            argv = cli_argv(args)
        # spans time wall clock, so traced commands are never paused
        result = run_child(argv, out, deadline, sample=not traced)
        after = reference_s()
        result.args = args
        result.references = [before, *result.references, after]
        before = after
        results.append(result)
    return results


def warm_up(commands, tmp: Path, deadline: float) -> None:
    """One start, so that no timed command pays for writing bytecode caches."""
    run_child(cli_argv([commands[0][0], "--help"]), tmp / "help", deadline)


def time_setup(commands, tmp: Path, starts: int, deadline: float) -> tuple[float, float]:
    """(median, median scaled to reference speed) wall time of starts that
    stop right after argument parsing."""
    subcommands = sorted({args[0] for args in commands})
    walls, references = [], [reference_s()]
    for i in range(starts):
        walls.append(run_child(cli_argv([subcommands[i % len(subcommands)], "--help"]),
                               tmp / "help", deadline).wall_s)
        if i % 5 == 4:
            references.append(reference_s())
    wall = statistics.median(walls)
    return wall, wall * REFERENCE_S / statistics.median(references)


def check_rounds(rounds: list[list[Result]], seed: int) -> tuple[int, list[str]]:
    """(rows emitted by one round, problems found).

    The first round is checked by the oracle; every later round must
    repeat its exit codes and output byte for byte.
    """
    import oracle  # mpmath: only after the timed rounds, see run_child

    checker = oracle.Oracle(seed)
    rows = 0
    errors = []
    for result in rounds[0]:
        if result.crashed:
            continue
        if result.code != 0:
            errors.append(f"{' '.join(result.args)}: exit code {result.code}")
        count, problems = checker.check(result.args, result.out.read_bytes())
        rows += count
        errors.extend(problems)
    for later in rounds[1:]:
        for first, again in zip(rounds[0], later):
            if first.code != again.code or not filecmp.cmp(first.out, again.out, shallow=False):
                errors.append(f"{' '.join(first.args)}: output differs between rounds")
    return rows, errors


def layer_metrics(plain: list[Result], traced: list[Result]) -> tuple[dict, list[dict]]:
    """Per-layer metrics of the traced round, self times scaled to reference
    speed like cpu_s; also returns the traces read."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counters: dict[str, float] = {}
    hits = misses = nested_intervals = 0
    traces = []
    for result in traced:
        path = result.out.with_suffix(".trace")
        if not path.exists():
            continue
        trace = json.loads(path.read_text())
        trace["reference_s"] = result.reference_s
        traces.append(trace)
        scale = REFERENCE_S / result.reference_s
        for span in trace["spans"]:
            name = span["name"]
            calls[name] = calls.get(name, 0) + span["calls"]
            self_s[name] = self_s.get(name, 0.0) + span["self_s"] * scale
            if (span["parent"], name) == ("sequences.evaluate", "sequences.evaluate_interval"):
                nested_intervals += span["calls"]
        for key, value in trace["counters"].items():
            counters[key] = counters.get(key, 0) + value
        hits += trace["gamma_reference_cache"]["hits"]
        misses += trace["gamma_reference_cache"]["misses"]
    rows = counters.get("bounds.rows", 0)
    values = {
        "numerics.gamma_reference.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "kernels.atanh_fixed.bits": counters.get("kernels.atanh_fixed.bits", 0),
        "sequences.evaluate.intervals_per_value":
            nested_intervals / calls["sequences.evaluate"]
            if calls.get("sequences.evaluate") else 0.0,
        "bounds.attempts_per_row": counters.get("bounds.attempts", 0) / rows if rows else 0.0,
        "bounds.row_payload_mb": counters.get("bounds.row_payload_bits", 0) / 8 / MIB,
        "cli.out_mb": sum(r.out.stat().st_size for r in traced) / MIB,
        "trace.overhead_s": sum(r.scaled_cpu_s for r in traced)
        - sum(r.scaled_cpu_s for r in plain),
    }
    for name in PER_LAYER:
        if name not in values:
            span, _, kind = name.rpartition(".")
            values[name] = (calls if kind == "calls" else self_s).get(span, 0)
    return values, traces


def measure(workload: str, seed: int, seconds: int, trace: bool, tmp: Path,
            deadline: float) -> dict:
    commands = WORKLOADS[workload]
    warm_up(commands, tmp, deadline)
    if trace:
        rounds = [run_round(commands, tmp, "plain", deadline),
                  run_round(commands, tmp, "traced", deadline, traced=True)]
        metrics, traces = layer_metrics(*rounds)
        (OUT / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(traces, indent=1))
        _rows, errors = check_rounds(rounds, seed)
    else:
        setup_raw, setup = time_setup(commands, tmp, SETUP_STARTS, deadline)
        launcher_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rounds = []
        timed_from = time.monotonic()
        while True:
            round_start = time.monotonic()
            rounds.append(run_round(commands, tmp, f"r{len(rounds)}", deadline))
            now = time.monotonic()
            if (now - timed_from >= seconds
                    or now + (now - round_start) > deadline - CHECK_RESERVE_S):
                break
        print(f"  {len(rounds)} rounds; this process peaked at {launcher_mb:.1f} MB "
              "before them, the floor of every ru_maxrss below")
        rows, errors = check_rounds(rounds, seed)
        cpu = [sum(r.scaled_cpu_s for r in rnd) for rnd in rounds]
        raw = statistics.median(sum(r.cpu_s for r in rnd) for rnd in rounds)
        print(f"  unscaled: cpu_s {raw:.4f} s, setup_s {setup_raw:.4f} s")
        metrics = {
            "cpu_s": statistics.median(cpu),
            "rows_per_cpu_s": statistics.median(rows / c for c in cpu),
            "peak_rss_mb": statistics.median(max(r.rss_mb for r in rnd) for rnd in rounds),
            "setup_s": setup,
        }
    runs = [r for rnd in rounds for r in rnd]
    for r in runs:
        status = "crashed" if r.crashed else f"exit {r.code}"
        print(f"  {' '.join(r.args)}: {status}, cpu {r.cpu_s:.3f} s "
              f"(reference {r.reference_s:.4f} s), rss {r.rss_mb:.1f} MB, wall {r.wall_s:.3f} s")
        if r.crashed:
            last = r.stderr_tail.strip().splitlines()[-1:]
            print(f"    {last[0] if last else 'no message'}")
    for error in errors:
        print(f"CHECK FAILED: {error}")
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": not errors,
        "attempted": len(runs),
        "failed": sum(r.crashed for r in runs),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not (ROOT / "src" / "gammaseq" / "cli.py").is_file():
        print(f"error: no gammaseq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, "
          f"trace {args.trace}, python {sys.version.split()[0]}, {os.cpu_count()} cpus")
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                         Path(tmp), deadline)
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line)
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
