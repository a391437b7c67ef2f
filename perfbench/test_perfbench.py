"""Tests of the benchmark itself: python -m pytest perfbench -q"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
from spans import ITEM_SPAN, Tracer
from qdiscord import cli, oracles

HERE = Path(__file__).resolve().parent


def _pass(items, tracer=None):
    """One pass; returns every item's output text and the pass record."""
    outputs = {}
    record = run.run_passes(items, 0, outputs, tracer)
    return [outputs[i] for i in range(len(items))], record


def _items(workload, workdir, count=None):
    _, items = workloads.build(workload, 3, workdir)
    return items[:count]


def test_same_seed_same_inputs(tmp_path):
    keys, files = [], []
    for name in ("a", "b"):
        workdir = tmp_path / name
        workdir.mkdir()
        keys.append([i.key for i in _items("validate", workdir)])
        _items("single_state", workdir)
        files.append([p.read_bytes() for p in sorted(workdir.iterdir())])
    assert keys[0] == keys[1] and files[0] == files[1] and len(files[0]) == 200


@pytest.mark.parametrize("workload,count", [("single_state", 60), ("sweeps", None)])
def test_traced_and_untraced_outputs_are_byte_identical(tmp_path, workload, count):
    items = _items(workload, tmp_path, count)
    plain, plain_record = _pass(items)
    tracer = Tracer()
    with tracer.installed():
        traced, traced_record = _pass(items, tracer)
    assert traced == plain
    assert plain_record.failed == traced_record.failed == 0
    assert not hasattr(cli.main, "__wrapped__")


def test_spans_nest_and_self_times_sum_to_wall(tmp_path):
    items = _items("single_state", tmp_path, 40) + _items("sweeps", tmp_path)[:1]
    tracer = Tracer()
    with tracer.installed():
        _, record = _pass(items, tracer)
    start, end = np.array(tracer.start), np.array(tracer.end)
    parent, item = np.array(tracer.parent), np.array(tracer.item)
    nested = parent >= 0
    assert np.all(start[parent[nested]] <= start[nested])
    assert np.all(end[nested] <= end[parent[nested]])
    assert np.all(item[nested] == item[parent[nested]])
    roots = ~nested
    assert {tracer.names[n] for n in np.array(tracer.name_id)[roots]} == {ITEM_SPAN}
    assert roots.sum() == len(items)

    totals = tracer.totals()
    self_sum = sum(self_s for _, self_s, _ in totals.values())
    root_sum = float(np.sum(end[roots] - start[roots]))
    assert self_sum == pytest.approx(root_sum, rel=1e-9)
    # The wall time excludes the speed sampler's signal handler, which runs
    # inside whichever span is open; it takes about 2% of the time.
    assert self_sum == pytest.approx(record.raw_pass_seconds[0], rel=0.05)
    assert totals["cli.build_parser"][0] == len(items)
    assert totals["oracles.projective_classical_correlation"][0] == 0


def test_kernel_counts_repeat_exactly(tmp_path):
    items = _items("single_state", tmp_path, 30)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed():
            _pass(items, tracer)
        counts.append(dict(tracer.kernel_calls))
    assert counts[0] == counts[1] and counts[0]["numpy.linalg.eigh"] > 0


@pytest.mark.parametrize("push,failed", [(2e-10, 201), (5e-11, 0)])
def test_output_past_tolerance_counts_as_failed(tmp_path, monkeypatch, push, failed):
    example1 = _items("sweeps", tmp_path)[:1]
    exact = cli.linear_classical_correlation
    monkeypatch.setattr(cli, "linear_classical_correlation", lambda rho: exact(rho) + push)
    _, record = _pass(example1)
    assert (record.units, record.failed) == (201, failed)


def test_oracle_past_bound_counts_as_failed(tmp_path, monkeypatch):
    items = [i for i in _items("oracles", tmp_path) if i.key.startswith("decomposition d=2")][:3]
    exact = oracles.decomposition_linear_cc
    monkeypatch.setattr(oracles, "decomposition_linear_cc",
                        lambda *a, **k: exact(*a, **k) + 2e-8)
    _, record = _pass(items)
    assert (record.units, record.failed) == (3, 3)


def test_tail_leaves_ten_samples_beyond():
    values = list(range(1, 201))
    value, q, beyond = run.tail(values)
    assert (q, beyond) == (95, 10)
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100, 0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweeps", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
