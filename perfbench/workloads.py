"""The benchmark's four workloads, built from a seed, with output checks.

Each workload is a fixed list of items, one pass. An item is one call into
the public API or into ``qdiscord.cli.main``; its ``run`` is timed and its
``check`` is not. ``check`` turns the result into the output text that must
repeat byte for byte on every pass, and counts the item's failed units.

Units are what ``items_per_s`` counts: a compute call in ``single_state``, a
grid point written in ``sweeps``, a trial in ``validate`` and an oracle call
in ``oracles``. Every tolerance below is one the repository already uses:
the acceptance criteria's and ``cli._CHECK_TOLERANCES``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if not (SRC / "qdiscord" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no qdiscord sources under {SRC}")
sys.path.insert(0, str(SRC))

from qdiscord import channel, cli, discord, linalg, measures, oracles, states  # noqa: E402
from qdiscord.errors import DegenerateDenominator  # noqa: E402

# single_state: rank-2 two-qubit states of four kinds, full-rank two-qubit
# states (the rank>2 fallback) and rank-2 states at dA=3 and dA=4.
STATE_MIX = (("random", 40), ("rho2", 30), ("horodecki", 30), ("two_bell", 30),
             ("full_rank", 30), ("qudit3", 20), ("qudit4", 20))
# validate: one call at N=1000 per pass, so the 25 oracle trials stay about a
# third of the time; the warm-up is a call at N=2, which runs both oracles.
VALIDATE_TRIALS, VALIDATE_WARMUP_TRIALS = 1000, 2
# oracles: (oracle, dA, calls per pass); decomposition trials as validate
# (d=2) and acceptance criterion 8 (d=3) use them. Item times vary about 3x
# by state for the projective oracle but little for the decomposition one;
# the counts put the median item inside the narrow dA=3 decomposition band,
# so item_p50_ms does not hinge on which projective states a seed draws.
ORACLE_MIX = (("decomposition", 2, 40), ("projective", 2, 80),
              ("decomposition", 3, 100), ("projective", 3, 40))
DECOMPOSITION_TRIALS = {2: 32, 3: 64}

TOL = cli._CHECK_TOLERANCES
Q_TOL = 1e-9         # acceptance criteria 1, 3, 4 (two-parameter slice) and 5
I2_TOL = 1e-10       # acceptance criterion 2


@dataclass
class Item:
    key: str
    units: int
    run: Callable[[], object]
    check: Callable[[object], tuple]   # result -> (output text, failed units)


def reference_h(x):
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def reference_f(x):
    return reference_h((1 + math.sqrt(1 - x)) / 2)


def run_cli(argv):
    """``cli.main`` with stdout captured; stderr carries timings and is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _unit(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _rank2(rng, dim_a):
    n = 2 * dim_a
    v1, v2 = _unit(rng, n), _unit(rng, n)
    v2 = v2 - np.vdot(v1, v2) * v1
    v2 = v2 / np.linalg.norm(v2)
    lam = rng.uniform(0.05, 0.95)
    return lam * np.outer(v1, v1.conj()) + (1 - lam) * np.outer(v2, v2.conj())


def _mixture(weight, first, second):
    a, b = np.asarray(first, dtype=complex), np.asarray(second, dtype=complex)
    return weight * np.outer(a, a.conj()) + (1 - weight) * np.outer(b, b.conj())


def _state_json(dims, m):
    m = m / np.trace(m).real
    rows = [[[float(c.real), float(c.imag)] for c in row] for row in m]
    return json.dumps({"dims": list(dims), "matrix": rows})


def _close(a, b, tol):
    return a is not None and b is not None and abs(a - b) <= tol


def _single_state_items(rng, workdir):
    s = 1 / math.sqrt(2)
    specs = []
    for kind, count in STATE_MIX:
        for _ in range(count):
            if kind == "random":
                dims, m = (2, 2), _rank2(rng, 2)

                def expect(d):
                    return (d["rank"] == 2 and d["reason"] is None
                            and _close(d["Q_discord"], d["I_mutual"] - d["I_cc"], Q_TOL)
                            and _close(d["I_mutual"], d["S_A"] + d["S_B"] - d["S_AB"], Q_TOL))
            elif kind == "rho2":
                x, theta, eta = rng.uniform(0, 1), *rng.uniform(0, 2 * math.pi, 2)
                dims = (2, 2)
                m = _mixture(x, [math.sin(theta), 0, 0, math.cos(theta)],
                             [0, math.sin(eta), math.cos(eta), 0])
                try:
                    ref = discord.discord_rho2_closed_form(x, theta, eta)
                except DegenerateDenominator:
                    ref = None

                def expect(d, ref=ref):
                    return d["rank"] <= 2 and (ref is None or _close(d["Q_discord"], ref, Q_TOL))
            elif kind == "horodecki":
                p = rng.uniform(0, 1)
                dims = (2, 2)
                m = _mixture(p, [0, s, s, 0], [1, 0, 0, 0])
                ref = reference_h(p / 2) - reference_h(p) + reference_f(2 * p * (1 - p))

                def expect(d, ref=ref):
                    return _close(d["Q_discord"], ref, Q_TOL)
            elif kind == "two_bell":
                lam = rng.uniform(0.05, 0.95)
                dims = (2, 2)
                m = _mixture(lam, [s, 0, 0, s], [0, s, s, 0])
                ref = 1 - reference_h(lam)

                def expect(d, ref=ref):
                    return _close(d["I_cc"], 1.0, Q_TOL) and _close(d["Q_discord"], ref, Q_TOL)
            else:
                if kind == "full_rank":
                    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                    dims, m, rank = (2, 2), g @ g.conj().T, 4
                else:
                    dim_a = int(kind[-1])
                    dims, m, rank = (dim_a, 2), _rank2(rng, dim_a), 2

                def expect(d, rank=rank):
                    return (d["rank"] == rank and d["I_cc"] is None
                            and d["Q_discord"] is None and bool(d["reason"]))
            specs.append((kind, dims, m, expect))
    items = []
    for i, (kind, dims, m, expect) in enumerate(specs):
        path = workdir / f"state{i:03d}.json"
        path.write_text(_state_json(dims, m), encoding="utf-8")
        argv = ["compute", "--state", str(path)]

        def check(result, expect=expect):
            code, out = result
            return out, int(code != 0 or not expect(json.loads(out)))

        items.append(Item(f"compute {kind} {i}", 1, lambda argv=argv: run_cli(argv), check))
    return items[0], items


def _sweep_items(rng, workdir):
    theta, eta = rng.uniform(0, 2 * math.pi, 2)
    sweeps = (
        ("example1", "x", 0.0, 2.0, 201, [], ("I2_cc", "I2_cc_closed", I2_TOL)),
        ("horodecki", "p", 0.0, 1.0, 101, [], ("Q_discord", "Q_closed_form", Q_TOL)),
        ("rho2", "x", 0.0, 1.0, 201, ["--theta", repr(float(theta)), "--eta", repr(float(eta))],
         ("Q_discord", "Q_closed_form", Q_TOL)),
    )
    items = []
    for family, param, start, stop, steps, extra, (got, want, tol) in sweeps:
        out = workdir / f"{family}.csv"
        argv = ["sweep", "--family", family, "--param", param, "--from", repr(start),
                "--to", repr(stop), "--steps", str(steps), *extra, "--out", str(out)]

        def check(result, out=out, steps=steps, got=got, want=want, tol=tol):
            code, _ = result
            text = out.read_text(encoding="utf-8") if out.exists() else ""
            out.unlink(missing_ok=True)
            rows = list(csv.DictReader(io.StringIO(text)))
            if code != 0 or len(rows) != steps:
                return text, steps
            return text, sum(abs(float(r[got]) - float(r[want])) > tol for r in rows)

        items.append(Item(f"sweep {family}", steps, lambda argv=argv: run_cli(argv), check))
    return items[0], items


def _validate_item(trials, seed):
    argv = ["validate", "--trials", str(trials), "--seed", str(seed)]

    def check(result):
        code, out = result
        return out, trials * int(code != 0 or json.loads(out)["pass"] is not True)

    return Item(f"validate seed {seed}", trials, lambda: run_cli(argv), check)


def _validate_items(rng, workdir):
    seed = int(rng.integers(0, 2**31))
    return (_validate_item(VALIDATE_WARMUP_TRIALS, seed),
            [_validate_item(VALIDATE_TRIALS, seed)])


def _oracle_item(kind, dim_a, i, rng):
    rho = states.DensityMatrix((dim_a, 2), _rank2(rng, dim_a))
    if kind == "decomposition":
        seed = int(rng.integers(0, 2**31))
        ref = channel.linear_classical_correlation(rho)

        def run():
            return oracles.decomposition_linear_cc(
                rho, trials=DECOMPOSITION_TRIALS[dim_a], seed=seed)

        def ok(v):
            return (v - ref <= TOL["decomposition_bound"]
                    and ref - v <= TOL["decomposition_attain"])
    else:
        if dim_a == 2:
            ref = discord.discord_rank2(rho).I_cc
        else:
            # No closed form at dA=3: the entropy drop of A cannot exceed S(A).
            ref = measures.von_neumann_entropy(linalg.partial_trace(rho.matrix, rho.dims, "A"))

        def run():
            return oracles.projective_classical_correlation(rho)

        def ok(v):
            return v - ref <= TOL["projective_bound"] and v >= -TOL["projective_bound"]

    def check(value):
        return repr(value), int(not ok(value))

    return Item(f"{kind} d={dim_a} {i}", 1, run, check)


def _oracle_items(rng, workdir):
    plan = [(kind, dim_a) for kind, dim_a, count in ORACLE_MIX for _ in range(count)]
    order = rng.permutation(len(plan))
    # The first item is the untimed warm-up; keep it a cheap one.
    first = next(i for i, j in enumerate(order) if plan[j] == ORACLE_MIX[0][:2])
    order[[0, first]] = order[[first, 0]]
    items = [_oracle_item(*plan[j], i, rng) for i, j in enumerate(order)]
    return items[0], items


PASSES = {
    "single_state": _single_state_items,
    "sweeps": _sweep_items,
    "validate": _validate_items,
    "oracles": _oracle_items,
}


def build(workload, seed, workdir):
    """(warm-up item, the pass's items), generated from ``seed`` by the
    benchmark's own RNG."""
    return PASSES[workload](np.random.default_rng(seed), Path(workdir))
