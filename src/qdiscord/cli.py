"""Command-line surface: single-state reports, figure sweeps, randomized
validation, and state inspection.

Exit codes: 0 success, 1 validation failure, 2 usage or input error. All
commands are deterministic given their arguments; timing goes to stderr so
stdout bytes are reproducible.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import Callable, NamedTuple, Optional

import numpy as np

from .channel import extract_channel, in_blocks, linear_classical_correlation, reassemble_state
from .discord import (correlation_report, discord_rank2, discord_rho2_closed_form,
                      identity_residuals)
from .errors import DegenerateMarginal, QDiscordError
from .measures import binary_entropy, f_map
from .oracles import decomposition_linear_cc, projective_classical_correlation
from .states import (DensityMatrix, dump_state, load_state, make_bell_diagonal, make_example1,
                     make_horodecki, make_random_rank2, make_rho2, random_unitary, trial_seed)

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
_STAGES = ("draw_states", "twins", "residuals", "roundtrip", "oracles")


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
    try:
        c1, c2, c3 = (float(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("--c expects three comma-separated reals") from None
    return c1, c2, c3


def _parse_seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


_REPORT_COLUMNS = ("S_A", "S_B", "S_AB", "I_mutual", "I_cc", "Q_discord")


def _report_columns(report, closed):
    """The report columns plus the family's closed-form discord."""
    columns = [getattr(report, name) for name in _REPORT_COLUMNS]
    return [*_REPORT_COLUMNS, "Q_closed_form"], [*columns, closed]


def _example1_columns(grid, states, parameters):
    closed = [max(1.0 / 9.0, (1.0 - 2.0 * x) ** 2 / 9.0) for x in grid]
    return ["I2_cc", "I2_cc_closed"], [linear_classical_correlation(states), closed]


def _horodecki_columns(p, states, parameters):
    closed = binary_entropy(p / 2.0) - binary_entropy(p) + f_map(2.0 * p * (1.0 - p))
    return _report_columns(discord_rank2(states), closed)


def _rho2_columns(grid, states, parameters):
    report = discord_rank2(states)
    closed = discord_rho2_closed_form(grid, parameters["theta"], parameters["eta"])
    return _report_columns(report, np.where(np.isnan(closed), report.Q_discord, closed))


class _Family(NamedTuple):
    """A state family as the CLI sees it: the builder, the flags it takes
    positionally (in payload order), and for a sweepable family the swept
    flag and a ``(grid, states, parameters) -> (header, columns)`` function
    giving the measured and closed-form columns of the grid array and its
    stack of states."""

    build: Callable
    flags: tuple
    sweep: Optional[str] = None
    columns: Optional[Callable] = None


_FAMILIES = {
    "bell_diagonal": _Family(make_bell_diagonal, ("c",)),
    "horodecki": _Family(make_horodecki, ("p",), "p", _horodecki_columns),
    "example1": _Family(make_example1, ("x",), "x", _example1_columns),
    "rho2": _Family(make_rho2, ("x", "theta", "eta"), "x", _rho2_columns),
    "random_rank2": _Family(make_random_rank2, ("seed", "da")),
}


def _family_parameters(args, swept=None) -> dict:
    """The payload parameters of ``--family`` from its flags, naming every
    missing flag but ``swept``; the ``--c`` triple gives c1, c2 and c3."""
    flags = _FAMILIES[args.family].flags
    missing = [f"--{flag}" for flag in flags if flag != swept and getattr(args, flag) is None]
    if missing:
        listed = ", ".join(missing[:-1]) + " and " + missing[-1] if missing[1:] else missing[0]
        raise QDiscordError(f"family {args.family} requires {listed}")
    parameters = {}
    for flag in flags:
        value = getattr(args, flag)
        if isinstance(value, tuple):
            parameters.update((f"{flag}{i}", v) for i, v in enumerate(value, 1))
        else:
            parameters[flag] = value
    return parameters


def _family_state(args):
    """(state, payload parameters) of the ``--family`` flags."""
    parameters = _family_parameters(args)
    return _FAMILIES[args.family].build(*parameters.values()), parameters


def cmd_compute(args) -> int:
    if args.state is not None:
        with open(args.state, "r", encoding="utf-8") as handle:
            rho, family = load_state(handle.read()), None
    elif args.family is None:
        raise QDiscordError("provide either --family or --state")
    else:
        rho, parameters = _family_state(args)
        family = {"name": args.family, "parameters": parameters}
    print(_fmt_json({"family": family, **vars(correlation_report(rho))}))
    return 0


def cmd_sweep(args) -> int:
    """Write the CSV of one sweep; the grid is one stack of states."""
    if args.steps < 2:
        raise QDiscordError(f"--steps must be at least 2, got {args.steps}")
    for flag, value in (("--from", args.start), ("--to", args.stop)):
        if not math.isfinite(value):
            raise QDiscordError(f"{flag} must be a finite number, got {value}")
    if not args.start < args.stop:
        raise QDiscordError(f"--from {args.start} must be below --to {args.stop}")
    family = _FAMILIES[args.family]
    if family.sweep is None:
        raise QDiscordError(f"family {args.family!r} has no sweep schema")
    if args.param != family.sweep:
        raise QDiscordError(f"{args.family} sweeps over --param {family.sweep}")
    parameters = _family_parameters(args, swept=family.sweep)
    grid = args.start + (args.stop - args.start) * np.arange(args.steps) / (args.steps - 1)
    states = family.build(*{**parameters, family.sweep: grid}.values())
    header, columns = family.columns(grid, states, parameters)
    rows = (",".join(repr(float(v)) for v in row) for row in zip(grid, *columns))
    text = "\n".join([",".join([family.sweep, *header]), *rows]) + "\n"
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
        try:
            tolerances[key] = float(value)
        except ValueError:
            tolerances[key] = math.nan
        if not (math.isfinite(tolerances[key]) and tolerances[key] >= 0.0):
            raise QDiscordError(f"--tol {key} expects a finite non-negative number, "
                                f"got {value!r}")
    return tolerances


def _twin_correlations(seeds, rho: DensityMatrix) -> np.ndarray:
    """(I_cc, Q_discord) rows for the local-unitary twins of a stack of states,
    one trial seed per state: (U_A x U_B) rho (U_A x U_B)^dagger, with U_A and
    U_B drawn from the trial seed's substreams 101 and 102."""
    u_a = random_unitary([trial_seed(s, 101) for s in seeds], 2)
    u_b = random_unitary([trial_seed(s, 102) for s in seeds], 2)
    u = np.einsum("nac,nbd->nabcd", u_a, u_b).reshape(-1, 4, 4)
    rotated = np.einsum("nij,njk,nlk->nil", u, rho.matrix, u.conj())
    report = discord_rank2(DensityMatrix(rho.dims, rotated))
    return np.stack([report.I_cc, report.Q_discord])


def _roundtrip_residuals(rho: DensityMatrix) -> np.ndarray:
    """max|reassemble_state(extract_channel(rho)) - rho| per state of a stack;
    NaN where rho_B is rank-1 and the channel is undefined."""
    rebuilt = reassemble_state(extract_channel(rho))
    return np.max(np.abs(rebuilt - rho.matrix), axis=(1, 2))


def _check_summary(residuals: np.ndarray, tolerance: float, skipped: int, seed: int) -> dict:
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
        "worst_seed": None if worst is None else trial_seed(seed, worst),
    }


def run_validation(trials: int, seed: int, tolerances=None, stage_seconds=None) -> dict:
    """Run every identity and oracle check on seeded random rank-2 states.

    Trial t is the state of seed ``trial_seed(seed, t)``, drawn with all
    the others as one ``make_random_rank2`` stack. The closed-form checks,
    the local-unitary twins and the channel round trip each make one batched
    call per block of 128 trials; the oracle-backed checks run on the first
    25 trials. Each check reports the trials it evaluated, those it skipped
    because rho_B is rank-1, the trial of its largest residual and that
    trial's seed. A dict passed as ``stage_seconds`` receives the wall time
    of each stage and the total.
    """
    tolerances = tolerances or dict(_CHECK_TOLERANCES)
    residuals = {name: np.full(trials, np.nan) for name in _CHECK_TOLERANCES}
    skipped = dict.fromkeys(_CHECK_TOLERANCES, 0)
    laps = [time.perf_counter()]
    seeds = [trial_seed(seed, t) for t in range(trials)]
    states = make_random_rank2(seeds)
    laps.append(time.perf_counter())
    twin_i_cc, twin_q = in_blocks(_twin_correlations, seeds, states)
    laps.append(time.perf_counter())
    report, kw, monogamy = identity_residuals(states)
    residuals["kw"], residuals["monogamy"] = np.abs(kw), np.abs(monogamy)
    residuals["local_unitary"] = np.maximum(
        np.abs(report.Q_discord - twin_q), np.abs(report.I_cc - twin_i_cc)
    )
    laps.append(time.perf_counter())
    residuals["roundtrip"] = in_blocks(_roundtrip_residuals, states)
    skipped["roundtrip"] = int(np.count_nonzero(np.isnan(residuals["roundtrip"])))
    laps.append(time.perf_counter())
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
    laps.append(time.perf_counter())
    if stage_seconds is not None:
        stage_seconds.update(zip(_STAGES, np.diff(laps).tolist()), total=laps[-1] - laps[0])
    checks = {
        name: _check_summary(residuals[name], tolerances[name], skipped[name], seed)
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
    stage_seconds = {}
    summary = run_validation(args.trials, args.seed, tolerances, stage_seconds)
    print(_fmt_json(summary))
    print(_fmt_json({name: round(t, 6) for name, t in stage_seconds.items()}),
          file=sys.stderr)
    return 0 if summary["pass"] else 1


def cmd_state_show(args) -> int:
    print(dump_state(_family_state(args)[0]))
    return 0


def _add_family_arguments(parser, include_state=False):
    # With --state as the alternative, compute checks for --family itself.
    parser.add_argument("--family", choices=tuple(_FAMILIES), required=not include_state)
    parser.add_argument("--c", type=_parse_c_triple, default=None,
                        help="bell_diagonal coefficients c1,c2,c3")
    parser.add_argument("--p", type=float, default=None, help="horodecki weight")
    parser.add_argument("--x", type=float, default=None,
                        help="example1 / rho2 parameter")
    parser.add_argument("--theta", type=float, default=None, help="rho2 angle")
    parser.add_argument("--eta", type=float, default=None, help="rho2 angle")
    parser.add_argument("--seed", type=_parse_seed, default=None, help="random_rank2 seed")
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
    validate.add_argument("--seed", type=_parse_seed, default=0)
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
