#!/usr/bin/env python3
"""roughcut benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload compare_2k --seed 1 --seconds 30 --trace 0

Run it from the root of a roughcut checkout; it imports roughcut from that
checkout's ``src/`` and nowhere else, and exits with status 2 when there is
none. Every operation's output is checked (see ``workloads.py``).

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
SETUP_PROBES child processes that each import roughcut and build the
inputs), ``op_s`` (median wall time of one operation after one warm-up) and
``peak_rss_mb`` (peak resident set of this process). ``--trace 1`` wraps
every public roughcut function binding, runs alternating untraced
operations and traced units (one set-up plus one operation), and reports the
per-layer metrics of ``layers.py`` as medians over the traced units.

The last line of standard output is the JSON result. The lines before it
hold the provenance, the result digest and ``failed_frac``. The full report
(and, when traced, every span) is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7
MIN_TIMED_OPS = 3
MIN_TRACED_UNITS = 2
DEFAULT_SEED = 1
WORKLOAD_NAMES = ("compare_2k", "efb_fine_200k", "csv_100k")


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def use_checkout_source() -> None:
    """Put the checkout's src/ first on sys.path and make sure roughcut comes from it."""
    package = SRC / "roughcut"
    if not (package / "__init__.py").is_file():
        die(f"no roughcut package at {package}; run from the root of a roughcut checkout")
    sys.path.insert(0, str(SRC))
    import roughcut

    if Path(roughcut.__file__).resolve().parent != package.resolve():
        die(f"imported roughcut from {roughcut.__file__}, not from {package}")


def probe_setup(workload: str, seed: int) -> None:
    """Child process: time importing roughcut and building the workload's inputs."""
    t0 = perf_counter()
    use_checkout_source()
    import workloads

    workloads.WORKLOADS[workload].build(seed)
    print(repr(perf_counter() - t0))


def setup_seconds(workload: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if done.returncode != 0:
            die(f"set-up probe failed:\n{done.stderr}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def source_files():
    return sorted((SRC / "roughcut").rglob("*.py")) + sorted((SRC / "roughcut").rglob("*.json"))


def code_sha256() -> str:
    """Digest of the library source and of this benchmark's own code."""
    digest = hashlib.sha256()
    for path in source_files() + sorted(HERE.glob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload: str, seed: int, trace: bool) -> dict:
    import numpy
    import roughcut

    loc = sum(path.read_bytes().count(b"\n") for path in source_files() if path.suffix == ".py")
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "roughcut": roughcut.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "os_cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "code_sha256": code_sha256(),
        "src_loc": loc,  # gauge, not gated
        "loop": "closed, one caller",
    }


class Runner:
    """Runs and checks operations of one workload, counting attempts and failures."""

    def __init__(self, workload, seed, scratch: Path, capture):
        self.workload = workload
        self.scratch = scratch
        self.capture = capture
        self.attempted = 0
        self.failed = 0
        self.digest = None
        self.problems: list[str] = []
        self.inputs = workload.build(seed)
        self.reference = workload.reference(seed, self.inputs)

    def op(self, inputs=None):
        """One checked operation; returns (seconds, output) or (None, None) if it raised."""
        self.attempted += 1
        try:
            if inputs is None:
                inputs = self.inputs
            elapsed, output = self.workload.run(inputs, self.scratch, self.capture)
            problems, digest = self.workload.check(self.reference, output, self.capture)
        except Exception:
            self.fail([traceback.format_exc()])
            return None, None
        if problems:
            self.fail(problems)
        elif self.digest is None:
            self.digest = digest
        return elapsed, output

    def fail(self, problems):
        self.failed += 1
        for problem in problems:
            print(f"perfbench: operation {self.attempted} failed: {problem}", file=sys.stderr)
        self.problems.extend(problems)


def timed_run(runner: Runner, seconds: float) -> list[float]:
    runner.op()  # warm-up: checked, not timed
    times = []
    start = perf_counter()
    while perf_counter() - start < seconds or len(times) < MIN_TIMED_OPS:
        elapsed = runner.op()[0]  # drop the output now, so it is not resident during the next op
        if elapsed is not None:
            times.append(elapsed)
        elif perf_counter() - start >= seconds:
            break
    return times


def traced_run(runner: Runner, seconds: float, seed: int, key: str):
    import layers
    import workloads
    from tracing import Tracer

    tracer = Tracer(workloads.MODULES, extras=layers.EXTRAS)
    runner.op()  # warm-up: checked, not traced
    units, traced_times, untraced_times = [], [], []
    start = perf_counter()
    while len(units) < MIN_TRACED_UNITS or perf_counter() - start < seconds:
        elapsed = runner.op()[0]
        if elapsed is not None:
            untraced_times.append(elapsed)
        unit = len(units)
        tracer.unit = unit
        first_span = len(tracer.spans)
        with tracer:
            inputs = runner.workload.build(seed)
            elapsed, output = runner.op(inputs)
        if elapsed is None:
            if perf_counter() - start >= seconds:
                break
            continue
        traced_times.append(elapsed)
        spans = tracer.spans[first_span:]
        units.append(layers.unit_metrics(spans, output.get("stderr_lines", 0)))

    values = {}
    if units:
        for name in units[0]:
            column = [u[name] for u in units]
            values[name] = column[0] if name in layers.EXACT else statistics.median(column)
        differing = [n for n in layers.EXACT if any(u[n] != units[0][n] for u in units)]
        if differing:
            runner.fail([f"exact counts differ between traced units: {differing}"])
        check_exact_against_earlier_run(runner, {n: values[n] for n in layers.EXACT}, key)
    traced = statistics.median(traced_times) if traced_times else 0.0
    untraced = statistics.median(untraced_times) if untraced_times else 0.0
    values.update({"trace.op_s": traced, "trace.untraced_op_s": untraced,
                   "trace.overhead_s": traced - untraced})
    return tracer, values, units


def check_exact_against_earlier_run(runner: Runner, exact: dict, key: str) -> None:
    """Exact counts must repeat between traced runs of the same code, workload and seed."""
    path = OUT / f"exact-{key}.json"
    if path.is_file():
        earlier = json.loads(path.read_text())
        differing = sorted(n for n in exact if earlier.get(n) != exact[n])
        if differing:
            runner.fail([f"exact counts differ from the traced run recorded in {path.name}: {differing}"])
    else:
        path.write_text(json.dumps(exact, indent=1, sort_keys=True) + "\n")


def metric(value, unit):
    return {"value": value, "unit": unit}


def check_declared(metrics: dict, trace: bool) -> None:
    """The metrics printed must be exactly those BENCHMARK.json declares, with its units."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    declared = json.loads(path.read_text())["per_layer" if trace else "end_to_end"]
    if {m["name"]: m["unit"] for m in declared} != {n: m["unit"] for n, m in metrics.items()}:
        die(f"printed metrics do not match the {'per_layer' if trace else 'end_to_end'} list of {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        die("--seed must be non-negative")

    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    use_checkout_source()
    trace = bool(args.trace)
    prov = provenance(args.workload, args.seed, trace)
    OUT.mkdir(exist_ok=True)
    setup_times = [] if trace else setup_seconds(args.workload, args.seed)

    import workloads
    from tracing import Capture

    workload = workloads.WORKLOADS[args.workload]
    run_start = perf_counter()
    with tempfile.TemporaryDirectory(dir=OUT) as scratch, Capture(workload.capture_bindings()) as capture:
        runner = Runner(workload, args.seed, Path(scratch), capture)
        if trace:
            key = f"{args.workload}-seed{args.seed}-{prov['code_sha256'][:16]}"
            tracer, values, units = traced_run(runner, args.seconds, args.seed, key)
        else:
            times = timed_run(runner, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {"provenance": prov, "digest": runner.digest, "problems": runner.problems}
    if trace:
        import layers

        units_of = {name: unit for name, unit, _, _ in layers.PER_LAYER}
        metrics = {name: metric(values.get(name, 0), units_of[name]) for name in units_of}
        report["units"] = units
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with spans_path.open("w", encoding="utf-8") as fh:
            for row in tracer.rows(run_start):
                fh.write(json.dumps(row, default=list) + "\n")
        report["spans_file"] = spans_path.name
    else:
        metrics = {
            "op_s": metric(statistics.median(times) if times else 0.0, "s"),
            "setup_s": metric(statistics.median(setup_times), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
        report["op_times_s"] = times
        report["setup_times_s"] = setup_times
    check_declared(metrics, trace)
    report["metrics"] = metrics
    report["attempted"] = runner.attempted
    report["failed"] = runner.failed
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=list) + "\n")

    print("provenance " + json.dumps(prov, sort_keys=True))
    print("digest " + json.dumps(runner.digest, sort_keys=True, default=list))
    if not trace:
        print(f"op_s {metrics['op_s']['value']:.6f} s (median of {len(times)} timed operations)")
        print(f"setup_s {metrics['setup_s']['value']:.6f} s (median of {len(setup_times)} set-ups)")
        print(f"peak_rss_mb {peak_rss_mb:.1f} MB")
    print(f"failed_frac {runner.failed / runner.attempted:.6f} ({runner.failed} of {runner.attempted} operations)")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
