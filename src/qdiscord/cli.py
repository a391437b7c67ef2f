"""Command-line surface: single-state reports, figure sweeps, randomized
validation, and state inspection.

Exit codes: 0 success, 1 validation failure, 2 usage or input error. All
commands are deterministic given their arguments; timing goes to stderr so
stdout bytes are reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .channel import extract_channel, linear_classical_correlation, reassemble_state
from .discord import (
    correlation_report,
    discord_rank2,
    discord_rho2_closed_form,
    identity_residuals,
)
from .errors import DegenerateMarginal, QDiscordError
from .linalg import tensor
from .measures import binary_entropy, f_map
from .oracles import decomposition_linear_cc, projective_classical_correlation
from .states import (
    FAMILY_NAMES,
    DensityMatrix,
    FamilySpec,
    dump_state,
    load_state,
    make_family,
    make_random_rank2,
    random_unitary,
    trial_seed,
)

_CHECK_TOLERANCES = {
    "kw": 1e-8,
    "monogamy": 1e-8,
    "decomposition_bound": 1e-8,
    "decomposition_attain": 1e-6,
    "projective_bound": 1e-6,
    "projective_attain": 1e-6,
    "local_unitary": 1e-8,
    "roundtrip": 1e-9,
}
_ORACLE_TRIAL_CAP = 25


def _fmt_json(value) -> str:
    """JSON with floats at 12 significant digits, keys in insertion order."""
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12g")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        items = ", ".join(f"{json.dumps(k)}: {_fmt_json(v)}" for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt_json(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _parse_c_triple(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("--c expects three comma-separated reals")
    return tuple(float(p) for p in parts)


def _family_spec(args) -> FamilySpec:
    name = args.family
    if name == "bell_diagonal":
        if args.c is None:
            raise QDiscordError("family bell_diagonal requires --c c1,c2,c3")
        c1, c2, c3 = args.c
        return FamilySpec(name, {"c1": c1, "c2": c2, "c3": c3})
    if name == "horodecki":
        if args.p is None:
            raise QDiscordError("family horodecki requires --p")
        return FamilySpec(name, {"p": args.p})
    if name == "example1":
        if args.x is None:
            raise QDiscordError("family example1 requires --x")
        return FamilySpec(name, {"x": args.x})
    if name == "rho2":
        if args.x is None or args.theta is None or args.eta is None:
            raise QDiscordError("family rho2 requires --x, --theta and --eta")
        return FamilySpec(name, {"x": args.x, "theta": args.theta, "eta": args.eta})
    if name == "random_rank2":
        if args.seed is None:
            raise QDiscordError("family random_rank2 requires --seed")
        return FamilySpec(name, {"seed": args.seed, "da": args.da})
    raise QDiscordError(f"unknown family {name!r}")


def _load_input_state(args):
    """Returns (state, family spec or None) from --family flags or --state file."""
    if args.state is not None:
        with open(args.state, "r", encoding="utf-8") as handle:
            return load_state(handle.read()), None
    if args.family is None:
        raise QDiscordError("provide either --family or --state")
    spec = _family_spec(args)
    return make_family(spec), spec


def _family_payload(spec):
    if spec is None:
        return None
    return {"name": spec.name, "parameters": dict(spec.parameters)}


def cmd_compute(args) -> int:
    rho, spec = _load_input_state(args)
    fields = vars(correlation_report(rho, family=spec)).items()
    payload = {"family": _family_payload(spec)}
    payload.update((name, value) for name, value in fields if name != "family")
    print(_fmt_json(payload))
    return 0


def _example1_i2_closed(x: float) -> float:
    return max(1.0 / 9.0, (1.0 - 2.0 * x) ** 2 / 9.0)


def _horodecki_q_closed(p: float) -> float:
    return (
        binary_entropy(p / 2.0)
        - binary_entropy(p)
        + f_map(2.0 * p * (1.0 - p))
    )


def _sweep_grid(start: float, stop: float, steps: int):
    return [start + (stop - start) * i / (steps - 1) for i in range(steps)]


_REPORT_COLUMNS = ("S_A", "S_B", "S_AB", "I_mutual", "I_cc", "Q_discord")


def _report_rows(param: str, grid, report, closed):
    """Sweep rows of the report columns plus the family's closed-form discord."""
    header = [param, *_REPORT_COLUMNS, "Q_closed_form"]
    columns = [grid, *(getattr(report, name) for name in _REPORT_COLUMNS), closed]
    return header, [list(row) for row in zip(*columns)]


def _sweep_rows(args):
    """Header and rows of one sweep; all grid states go through one batched call."""
    grid = _sweep_grid(args.start, args.stop, args.steps)
    if args.family == "example1":
        if args.param != "x":
            raise QDiscordError("example1 sweeps over --param x")
        states = [make_family(FamilySpec("example1", {"x": x})) for x in grid]
        i2_cc = linear_classical_correlation(states)
        rows = [[x, i2, _example1_i2_closed(x)] for x, i2 in zip(grid, i2_cc)]
        return ["x", "I2_cc", "I2_cc_closed"], rows
    if args.family == "horodecki":
        if args.param != "p":
            raise QDiscordError("horodecki sweeps over --param p")
        report = discord_rank2(
            [make_family(FamilySpec("horodecki", {"p": p})) for p in grid]
        )
        return _report_rows("p", grid, report, _horodecki_q_closed(np.array(grid)))
    if args.family == "rho2":
        if args.param != "x":
            raise QDiscordError("rho2 sweeps over --param x")
        if args.theta is None or args.eta is None:
            raise QDiscordError("rho2 sweeps require fixed --theta and --eta")
        angles = {"theta": args.theta, "eta": args.eta}
        report = discord_rank2(
            [make_family(FamilySpec("rho2", {"x": x, **angles})) for x in grid]
        )
        closed = discord_rho2_closed_form(np.array(grid), args.theta, args.eta)
        closed = np.where(np.isnan(closed), report.Q_discord, closed)
        return _report_rows("x", grid, report, closed)
    raise QDiscordError(f"family {args.family!r} has no sweep schema")


def cmd_sweep(args) -> int:
    if args.steps < 2:
        raise QDiscordError(f"--steps must be at least 2, got {args.steps}")
    if not args.start < args.stop:
        raise QDiscordError(f"--from {args.start} must be below --to {args.stop}")
    header, rows = _sweep_rows(args)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    text = "\n".join(lines) + "\n"
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    return 0


def _parse_tolerance_overrides(pairs):
    tolerances = dict(_CHECK_TOLERANCES)
    for item in pairs or []:
        key, _, value = item.partition("=")
        if key not in tolerances or not value:
            known = ", ".join(sorted(tolerances))
            raise QDiscordError(f"--tol expects NAME=VALUE with NAME in {{{known}}}")
        tolerances[key] = float(value)
    return tolerances


def _local_unitary_twin(rho: DensityMatrix, seed: int) -> DensityMatrix:
    u_a = random_unitary(trial_seed(seed, 101), 2)
    u_b = random_unitary(trial_seed(seed, 102), 2)
    u = tensor(u_a, u_b)
    return DensityMatrix(rho.dims, u @ rho.matrix @ u.conj().T)


def _check_summary(residuals: np.ndarray, tolerance: float, skipped: int) -> dict:
    """A check's verdict from its per-trial residuals (NaN: not run); no run, no pass."""
    evaluated = int(np.count_nonzero(~np.isnan(residuals)))
    worst = int(np.nanargmax(residuals)) if evaluated else None
    max_residual = None if worst is None else float(residuals[worst])
    return {
        "max_residual": max_residual,
        "tolerance": float(tolerance),
        "pass": worst is not None and max_residual <= tolerance,
        "evaluated": evaluated,
        "skipped": skipped,
        "worst_trial": worst,
    }


def run_validation(trials: int, seed: int, tolerances=None) -> dict:
    """Run every identity and oracle check on seeded random rank-2 states.

    The closed-form checks make one batched call over all trials; roundtrip
    runs trial by trial, and the oracle-backed checks on the first 25 trials.
    Each check reports the trials it evaluated, those it skipped because
    rho_B is rank-1, and the trial of its largest residual.
    """
    tolerances = tolerances or dict(_CHECK_TOLERANCES)
    residuals = {name: np.full(trials, np.nan) for name in _CHECK_TOLERANCES}
    skipped = dict.fromkeys(_CHECK_TOLERANCES, 0)
    states = [make_random_rank2(trial_seed(seed, t)) for t in range(trials)]
    twins = [_local_unitary_twin(rho, trial_seed(seed, t)) for t, rho in enumerate(states)]
    report, kw, monogamy = identity_residuals(states)
    twin_report = discord_rank2(twins)
    residuals["kw"], residuals["monogamy"] = np.abs(kw), np.abs(monogamy)
    residuals["local_unitary"] = np.maximum(
        np.abs(report.Q_discord - twin_report.Q_discord),
        np.abs(report.I_cc - twin_report.I_cc),
    )
    for t, rho in enumerate(states):
        try:
            ch = extract_channel(rho)
        except DegenerateMarginal:
            skipped["roundtrip"] += 1
            continue
        residuals["roundtrip"][t] = np.max(np.abs(reassemble_state(ch) - rho.matrix))
    for t, rho in enumerate(states[:_ORACLE_TRIAL_CAP]):
        projective = projective_classical_correlation(rho)
        residuals["projective_bound"][t] = projective - report.I_cc[t]
        residuals["projective_attain"][t] = report.I_cc[t] - projective
        try:
            oracle = decomposition_linear_cc(rho, trials=32, seed=trial_seed(seed, t, 7))
        except DegenerateMarginal:
            skipped["decomposition_bound"] += 1
            skipped["decomposition_attain"] += 1
            continue
        residuals["decomposition_bound"][t] = oracle - report.I2_cc[t]
        residuals["decomposition_attain"][t] = report.I2_cc[t] - oracle
    checks = {
        name: _check_summary(residuals[name], tolerances[name], skipped[name])
        for name in _CHECK_TOLERANCES
    }
    return {
        "trials": trials,
        "seed": seed,
        "checks": checks,
        "pass": all(c["pass"] for c in checks.values()),
    }


def cmd_validate(args) -> int:
    if args.trials < 1:
        raise QDiscordError(f"--trials must be at least 1, got {args.trials}")
    tolerances = _parse_tolerance_overrides(args.tol)
    started = time.perf_counter()
    summary = run_validation(args.trials, args.seed, tolerances)
    elapsed = time.perf_counter() - started
    print(_fmt_json(summary))
    print(f"validation wall time: {elapsed:.2f} s", file=sys.stderr)
    return 0 if summary["pass"] else 1


def cmd_state_show(args) -> int:
    spec = _family_spec(args)
    print(dump_state(make_family(spec)))
    return 0


def _add_family_arguments(parser, include_state=False):
    parser.add_argument("--family", choices=FAMILY_NAMES, default=None)
    parser.add_argument("--c", type=_parse_c_triple, default=None,
                        help="bell_diagonal coefficients c1,c2,c3")
    parser.add_argument("--p", type=float, default=None, help="horodecki weight")
    parser.add_argument("--x", type=float, default=None,
                        help="example1 / rho2 parameter")
    parser.add_argument("--theta", type=float, default=None, help="rho2 angle")
    parser.add_argument("--eta", type=float, default=None, help="rho2 angle")
    parser.add_argument("--seed", type=int, default=None, help="random_rank2 seed")
    parser.add_argument("--da", type=int, default=2,
                        help="random_rank2 A-side dimension (2, 3 or 4)")
    if include_state:
        parser.add_argument("--state", default=None,
                            help="path to a state JSON file instead of --family")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdiscord",
        description="Closed-form quantum discord for rank-2 two-qubit states, "
        "with brute-force oracles and figure sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="report all correlations of one state")
    _add_family_arguments(compute, include_state=True)
    compute.set_defaults(handler=cmd_compute)

    sweep = sub.add_parser("sweep", help="write a CSV parameter sweep")
    _add_family_arguments(sweep)
    sweep.add_argument("--param", required=True, help="parameter to sweep")
    sweep.add_argument("--from", dest="start", type=float, required=True)
    sweep.add_argument("--to", dest="stop", type=float, required=True)
    sweep.add_argument("--steps", type=int, required=True)
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.set_defaults(handler=cmd_sweep)

    validate = sub.add_parser("validate", help="run the randomized identity suite")
    validate.add_argument("--trials", type=int, required=True)
    validate.add_argument("--seed", type=int, default=0)
    validate.add_argument("--tol", action="append", default=None,
                          metavar="NAME=VALUE",
                          help="override a check tolerance, e.g. kw=1e-6")
    validate.set_defaults(handler=cmd_validate)

    state = sub.add_parser("state", help="state utilities")
    state_sub = state.add_subparsers(dest="state_command", required=True)
    show = state_sub.add_parser("show", help="print a family state as JSON")
    _add_family_arguments(show)
    show.set_defaults(handler=cmd_state_show)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.handler(args)
    except (QDiscordError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
