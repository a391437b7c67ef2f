#!/usr/bin/env python3
"""qdiscord benchmark: one closed-loop workload per run, outputs checked.

    python3 perfbench/run.py --workload oracles --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

A run sets up the workload (imports qdiscord from ``src/``, generates the
inputs from ``--seed``, writes state files, runs one untimed warm-up item),
then repeats full passes over the workload's fixed item list, one caller and
one item at a time, while another pass fits in ``--seconds`` (at least one).
Every item's output is checked and must repeat byte for byte on every pass.

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run, which times passes untraced for half of ``--seconds`` and then
traced for the other half. A readable report goes to stderr. Scratch files
and the span dump of a traced run go under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"
WORKLOAD_NAMES = ("single_state", "sweeps", "validate", "oracles")
SETUP_PROBES = 7

# Per-layer metrics: the public functions whose cost an optimisation of that
# layer should move, by span name.
REPORTED = (
    "cli.build_parser", "cli.cmd_compute", "cli.cmd_sweep", "cli.run_validation",
    "states.DensityMatrix", "states.load_state", "states.make_family",
    "states.purify", "states.rank_of",
    "linalg.hermitian_eig", "linalg.partial_trace", "linalg.trace_product",
    "linalg.tensor",
    "measures.von_neumann_entropy", "measures.linear_entropy",
    "measures.wootters_concurrence",
    "channel.extract_channel", "channel.linear_cc_from_channel",
    "channel.reassemble_state", "channel.bloch_of", "channel.bloch_state",
    "discord.discord_rank2", "discord.koashi_winter_residual",
    "discord.monogamy_residual",
    "oracles.projective_classical_correlation", "oracles.decomposition_linear_cc",
    "oracles.random_decomposition",
)
ERROR_RATIOS = ("channel.extract_channel", "oracles.decomposition_linear_cc")
KERNEL_NAMES = ("numpy.linalg.eigh", "numpy.linalg.eigvalsh", "numpy.linalg.svd")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# The host's speed drifts by tens of percent within a second (identical
# passes of single_state ranged from 0.49 to 0.80 s within one minute on a
# 2-core VM), so raw times from runs minutes apart do not repeat. A SIGALRM
# handler therefore times a fixed reference kernel, which uses no qdiscord
# code, every REF_EVERY seconds, also in the middle of a long item; the
# handler's time is taken off the item it interrupted. Each item's time is
# scaled by REF_NOMINAL over the median kernel time around it (see
# Speed.scale), so reported times are seconds at the speed where the kernel
# takes REF_NOMINAL. Unscaled pass times go to stderr.
REF_EVERY = 0.05
REF_NOMINAL = 0.001
# The kernel mixes what qdiscord spends its time on: small eigh/einsum/kron
# calls, a batched eigvalsh, RNG construction and interpreter work, all on
# one thread as qdiscord runs. Kernel functions are bound here so that the
# tracer's counts never see them.
_REF_MATRIX = np.outer(np.arange(1.0, 5.0), np.arange(4.0, 0.0, -1.0)) + np.eye(4) * 1j
_REF_MATRIX = _REF_MATRIX + _REF_MATRIX.conj().T
_REF_BATCH = np.broadcast_to(np.eye(3) * 2 + 0.5, (256, 3, 3)).copy()
_eigh, _eigvalsh = np.linalg.eigh, np.linalg.eigvalsh


def _reference_kernel():
    m = _REF_MATRIX
    acc = 0.0
    for k in range(6):
        acc += float(_eigh(m)[0][0])
        acc += float(np.kron(m[:2, :2], m[:2, :2])[0, 0].real)
        acc += np.einsum("abcd,db->ac", m.reshape(2, 2, 2, 2), m[:2, :2]).real.sum()
        acc += float(np.random.default_rng(k).uniform())
        acc += sum(j * j for j in range(40))
        acc += len({str(i): i for i in range(10)})
    return acc + float(_eigvalsh(_REF_BATCH)[0, 0])


def reference_seconds():
    """One timing of the reference kernel."""
    started = time.perf_counter()
    _reference_kernel()
    return time.perf_counter() - started


class Speed:
    """Reference-kernel timings taken from a timer signal while items run."""

    def __init__(self):
        self.kernel = []
        self.spent = 0.0

    def sample(self, *_):
        started = time.perf_counter()
        self.kernel.append(reference_seconds())
        self.spent += time.perf_counter() - started

    @contextlib.contextmanager
    def sampling(self):
        started = time.perf_counter()
        _reference_kernel()  # a process's first call is ~10x slower; do not sample it
        self.spent += time.perf_counter() - started
        self.sample()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY, REF_EVERY)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def scale(self, first, last):
        """Factor for an item that ran while samples first..last-1 were taken.

        Uses the median of those and the two samples on either side, so one
        timing stretched by preemption does not rescale a short item.
        """
        return REF_NOMINAL / statistics.median(self.kernel[max(first - 2, 0):last + 2])


class Pass:
    """Scaled timing and failure totals of repeated passes over one item list."""

    def __init__(self, items):
        self.times = [[] for _ in items]
        self.pass_seconds = []
        self.raw_pass_seconds = []
        self.units = self.failed = 0


def run_item(item, expected, index, tracer=None, speed=None):
    """Run one item; return (seconds, failed units). Checks are not timed."""
    spent = speed.spent if speed else 0.0
    try:
        started = time.perf_counter()
        result = item.run() if tracer is None else tracer.call_item(index, item.run)
        elapsed = time.perf_counter() - started - ((speed.spent - spent) if speed else 0.0)
        output, failed = item.check(result)
    except Exception as exc:  # a raising item is a failed item, not a crash
        print(f"perfbench: {item.key} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return time.perf_counter() - started, item.units
    if expected.setdefault(index, output) != output:
        print(f"perfbench: {item.key} output differs from its first run", file=sys.stderr)
        failed = item.units
    elif failed:
        print(f"perfbench: {item.key} failed {failed} of {item.units} checks", file=sys.stderr)
    return elapsed, failed


def run_passes(items, seconds, expected, tracer=None):
    """Repeat whole passes while another one fits in ``seconds``; run at least one."""
    record = Pass(items)
    deadline = time.perf_counter() + seconds
    speed = Speed()
    passes = []
    with speed.sampling():
        while True:
            started = time.perf_counter()
            runs = []
            for i, item in enumerate(items):
                first = len(speed.kernel)
                elapsed, failed = run_item(item, expected, i, tracer, speed)
                runs.append((i, elapsed, first, len(speed.kernel)))
                record.units += item.units
                record.failed += failed
            passes.append(runs)
            now = time.perf_counter()
            if now + (now - started) > deadline:
                break
    for runs in passes:
        scaled = [(i, elapsed * speed.scale(first, last)) for i, elapsed, first, last in runs]
        for i, seconds_at_reference in scaled:
            record.times[i].append(seconds_at_reference)
        record.pass_seconds.append(sum(t for _, t in scaled))
        record.raw_pass_seconds.append(sum(elapsed for _, elapsed, _, _ in runs))
    return record


def tail(values):
    """Highest of p99/p95/p90/p75/p50 with at least 10 samples beyond it.

    Below 20 samples no such percentile exists and the maximum is reported.
    Returns (value, percentile, samples beyond it).
    """
    n = len(values)
    for q in (99, 95, 90, 75, 50):
        if n * (100 - q) / 100 >= 10:
            value = float(np.percentile(values, q))
            return value, q, sum(v > value for v in values)
    return max(values), 100, 0


def setup_probe(workload, seed):
    """Child process: set up once with the speed sampler running, then print
    the monotonic clock, the sampler's own time and the speed scale."""
    from workloads import build

    workdir = SCRATCH / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    speed = Speed()
    try:
        with speed.sampling():
            warmup, _ = build(workload, seed, workdir)
            run_item(warmup, {}, -1)
            ready, spent = time.monotonic(), speed.spent
        print(ready, spent, REF_NOMINAL / statistics.median(speed.kernel))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def setup_seconds(workload, seed):
    """Median over fresh processes of the time from spawn to the first timed
    item, each scaled by the kernel timings taken during its set-up."""
    samples = []
    for _ in range(SETUP_PROBES):
        spawned = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "0", "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        ready, spent, scale = map(float, done.stdout.split()[-3:])
        samples.append((ready - spawned - spent) * scale)
    return statistics.median(samples), samples


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(record, setup):
    per_item = [statistics.median(t) for t in record.times]
    tail_ms, q, beyond = tail([1000 * t for t in per_item])
    metrics = {
        "setup_s": metric(setup, "s"),
        "wall_s": metric(statistics.median(record.pass_seconds), "s"),
        "items_per_s": metric(record.units / sum(record.pass_seconds), "1/s"),
        "item_p50_ms": metric(1000 * statistics.median(per_item), "ms"),
        "item_tail_ms": metric(tail_ms, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {"item_tail_ms": f"p{q} of {len(per_item)} item medians, {beyond} beyond",
             "item_p50_ms": f"{len(per_item)} item medians over {len(record.pass_seconds)} passes",
             "wall_s": f"unscaled {statistics.median(record.raw_pass_seconds):.4g} s"}
    return metrics, notes


def per_layer(tracer, plain, traced):
    totals = tracer.totals()
    units = traced.units
    metrics = {}
    for name in REPORTED:
        calls, self_s, _ = totals.get(name, (0, 0.0, 0))
        metrics[f"{name}.calls_per_item"] = metric(calls / units, "count")
        metrics[f"{name}.self_ms_per_item"] = metric(1000 * self_s / units, "ms")
    for name in KERNEL_NAMES:
        metrics[f"{name}.calls_per_item"] = metric(tracer.kernel_calls[name] / units, "count")
    for name in ERROR_RATIOS:
        calls, _, raised = totals.get(name, (0, 0.0, 0))
        metrics[f"{name}.error_ratio"] = metric(raised / calls if calls else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = metric(
        statistics.median(traced.pass_seconds) / statistics.median(plain.pass_seconds), "ratio")
    return metrics


def run_workload(args):
    from spans import Tracer
    from workloads import build

    SCRATCH.mkdir(exist_ok=True)
    workdir = SCRATCH / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        warmup, items = build(args.workload, args.seed, workdir)
        expected = {}
        run_item(warmup, expected, -1)
        if not args.trace:
            record = run_passes(items, args.seconds, expected)
            setup, samples = setup_seconds(args.workload, args.seed)
            metrics, notes = end_to_end(record, setup)
            notes["setup_s"] = "median of " + ", ".join(f"{s:.3f}" for s in samples)
        else:
            plain = run_passes(items, args.seconds / 2, expected)
            tracer = Tracer()
            with tracer.installed():
                record = run_passes(items, args.seconds / 2, expected, tracer)
            tracer.write(SCRATCH / f"spans-{args.workload}.tsv")
            metrics, notes = per_layer(tracer, plain, record), {}
            record.failed += plain.failed
            record.units += plain.units
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(args.workload, record, metrics, notes)
    print(json.dumps({
        "correct": record.failed == 0,
        "attempted": record.units,
        "failed": record.failed,
        "metrics": metrics,
    }))
    return 0


def report(workload, record, metrics, notes):
    lines = [f"== {workload}: {record.units} units attempted, {record.failed} failed, "
             f"fail_ratio {record.failed / record.units:.6g}"]
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"  {name:<58} {m['value']:>14.6g} {m['unit']}{note}")
    print("\n".join(lines), file=sys.stderr)


def run_all(args):
    """Every workload in its own process; one table of all metrics."""
    failed = False
    for workload in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            failed = True
            continue
        result = json.loads(done.stdout.splitlines()[-1])
        failed |= not result["correct"]
        ratio = result["failed"] / result["attempted"]
        print(f"{workload:<13} {'fail_ratio':<58} {ratio:>14.6g} ratio")
        for name, m in result["metrics"].items():
            print(f"{workload:<13} {name:<58} {m['value']:>14.6g} {m['unit']}")
    return 1 if failed else 0


def main(argv=None):
    args = _parse(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
