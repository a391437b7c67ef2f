"""Command-line surface: single-state reports, figure sweeps, randomized
validation, and state inspection.

Exit codes: 0 success, 1 validation failure, 2 usage or input error. All
commands are deterministic given their arguments; timing goes to stderr so
stdout bytes are reproducible.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from typing import Callable, NamedTuple, Optional

import numpy as np

from .channel import linear_classical_correlation
from .discord import (correlation_report, discord_rank2, discord_rho2_closed_form,
                      identity_residuals)
from .errors import QDiscordError
from .measures import binary_entropy, f_map
from .oracles import decomposition_linear_cc, projective_classical_correlation
from .states import (dump_state, load_state, make_bell_diagonal, make_example1, make_horodecki,
                     make_random_rank2, make_rho2, random_trials)

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
# Upper bounds on the counts, checked before anything is allocated: a run
# holds about 2.0 kB per validate trial and 1.5 kB per sweep step at its peak
# (tracemalloc), so either bound keeps a run near 1 GB.
_MAX_TRIALS = 400_000
_MAX_STEPS = 600_000
# The same for --da: ``state show`` holds the (2 dA)^2 entries as Python
# lists, about 2.2 kB per dA^2 at its peak RSS (910 MB at dA = 640, where
# ``compute`` peaks at 192 MB).
_MAX_DA = 640
_STAGES = ("draw_states", "twins", "residuals", "projective", "decomposition")


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


# Every family flag, in the order ``_add_family_arguments`` adds them.
_FAMILY_FLAGS = tuple(dict.fromkeys(flag for family in _FAMILIES.values() for flag in family.flags))


def _listed(flags) -> str:
    """The flags as ``--a``, ``--a and --b`` or ``--a, --b and --c``."""
    named = [f"--{flag}" for flag in flags]
    return ", ".join(named[:-1]) + " and " + named[-1] if named[1:] else named[0]


def _family_parameters(args, swept=None) -> dict:
    """The payload parameters of ``--family`` from its flags, naming every
    missing flag but ``swept``; the ``--c`` triple gives c1, c2 and c3, and
    ``--da`` is 2 unless given."""
    values = {flag: getattr(args, flag) for flag in _FAMILIES[args.family].flags}
    if "da" in values and values["da"] is None:
        values["da"] = 2
    missing = [flag for flag, value in values.items() if flag != swept and value is None]
    if missing:
        raise QDiscordError(f"family {args.family} requires {_listed(missing)}")
    if "da" in values and not 1 <= values["da"] <= _MAX_DA:
        raise QDiscordError(f"--da must be between 1 and {_MAX_DA}, got {values['da']}")
    parameters = {}
    for flag, value in values.items():
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
        given = [flag for flag in _FAMILY_FLAGS if getattr(args, flag) is not None]
        if given:
            raise QDiscordError(f"--state takes no family flags, got {_listed(given)}")
        with open(args.state, "r", encoding="utf-8") as handle:
            rho, family = load_state(handle.read()), None
    else:
        rho, parameters = _family_state(args)
        family = {"name": args.family, "parameters": parameters}
    print(_fmt_json({"family": family, **vars(correlation_report(rho))}))
    return 0


def cmd_sweep(args) -> int:
    """Write the CSV of one sweep; the grid is one stack of states."""
    if args.steps < 2:
        raise QDiscordError(f"--steps must be at least 2, got {args.steps}")
    if args.steps > _MAX_STEPS:
        raise QDiscordError(f"--steps must be at most {_MAX_STEPS}, got {args.steps}")
    for flag, value in (("--from", args.start), ("--to", args.stop)):
        if not math.isfinite(value):
            raise QDiscordError(f"{flag} must be a finite number, got {value}")
    if not args.start < args.stop:
        raise QDiscordError(f"--from {args.start} must be below --to {args.stop}")
    if not math.isfinite((args.stop - args.start) * (args.steps - 1)):
        raise QDiscordError(f"--from {args.start} to --to {args.stop} in {args.steps} steps "
                            "overflows a float")
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
    with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
    return 0


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


def run_validation(trials: int, seed: int, stage_seconds=None) -> dict:
    """Run every identity and oracle check on seeded random rank-2 states.

    The trials are ``random_trials(seed, range(trials))``: the states and
    their local-unitary twins, two validated stacks from one Philox stream
    keyed by ``seed``, in which trial t owns a fixed block (trial 0's state
    is ``make_random_rank2(seed)``). So a trial replays alone from
    ``(seed, t)``. The closed-form checks, the round trip and the twins'
    closed forms each make one batched call on a whole stack, so their
    temporaries grow with ``trials``; the round trip rebuilds each state from
    the very channel images that I2_cc read, in the same
    ``identity_residuals`` call, so each stack is extracted once.
    The oracle-backed checks run on the first 25 trials, each oracle in one
    call on their stack; the decomposition oracle gives trial t the Philox
    key ``seed ^ ((t + 1) << 64)``, which differs from ``seed`` and stays
    below 2**128, and reads NaN where rho_B is rank-1. Each check reports
    the trials it evaluated, those it skipped because rho_B is rank-1, and
    the trial of its largest residual. A dict passed as ``stage_seconds``
    receives the wall time of each stage (``draw_states`` draws the states
    and their twins, ``twins`` is the twins' closed forms, the round trip
    counts under ``residuals``, and each oracle is its own stage) and the
    total.
    """
    residuals = {name: np.full(trials, np.nan) for name in _CHECK_TOLERANCES}
    skipped = dict.fromkeys(_CHECK_TOLERANCES, 0)
    laps = [time.perf_counter()]
    states, twins = random_trials(seed, range(trials))
    laps.append(time.perf_counter())
    twin = discord_rank2(twins)
    del twins  # 288 B per trial that would otherwise outlive its closed forms
    laps.append(time.perf_counter())
    report, kw, monogamy, residuals["roundtrip"] = identity_residuals(states)
    residuals["kw"], residuals["monogamy"] = np.abs(kw), np.abs(monogamy)
    residuals["local_unitary"] = np.maximum(
        np.abs(report.Q_discord - twin.Q_discord), np.abs(report.I_cc - twin.I_cc)
    )
    skipped["roundtrip"] = int(np.count_nonzero(np.isnan(residuals["roundtrip"])))
    laps.append(time.perf_counter())
    oracle_trials = slice(_ORACLE_TRIAL_CAP)
    oracle_states = states[oracle_trials]
    projective = projective_classical_correlation(oracle_states)
    residuals["projective_bound"][oracle_trials] = projective - report.I_cc[oracle_trials]
    residuals["projective_attain"][oracle_trials] = report.I_cc[oracle_trials] - projective
    laps.append(time.perf_counter())
    decomposition = decomposition_linear_cc(
        oracle_states, trials=32, seed=[seed ^ ((t + 1) << 64) for t in range(len(oracle_states))])
    residuals["decomposition_bound"][oracle_trials] = decomposition - report.I2_cc[oracle_trials]
    residuals["decomposition_attain"][oracle_trials] = report.I2_cc[oracle_trials] - decomposition
    skipped["decomposition_bound"] = skipped["decomposition_attain"] = int(
        np.count_nonzero(np.isnan(decomposition)))
    laps.append(time.perf_counter())
    if stage_seconds is not None:
        stage_seconds.update(zip(_STAGES, np.diff(laps).tolist()), total=laps[-1] - laps[0])
    checks = {
        name: _check_summary(residuals[name], _CHECK_TOLERANCES[name], skipped[name])
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
    if args.trials > _MAX_TRIALS:
        raise QDiscordError(f"--trials must be at most {_MAX_TRIALS}, got {args.trials}")
    stage_seconds = {}
    summary = run_validation(args.trials, args.seed, stage_seconds)
    print(_fmt_json(summary))
    print(_fmt_json({name: round(t, 6) for name, t in stage_seconds.items()}),
          file=sys.stderr)
    return 0 if summary["pass"] else 1


def cmd_state_show(args) -> int:
    print(dump_state(_family_state(args)[0]))
    return 0


def _add_family_arguments(parser, source=None):
    # --family is required, or one of the required group ``source``.
    (parser if source is None else source).add_argument(
        "--family", choices=tuple(_FAMILIES), required=source is None)
    parser.add_argument("--c", type=_parse_c_triple, default=None,
                        help="bell_diagonal coefficients c1,c2,c3")
    parser.add_argument("--p", type=float, default=None, help="horodecki weight")
    parser.add_argument("--x", type=float, default=None,
                        help="example1 / rho2 parameter")
    parser.add_argument("--theta", type=float, default=None, help="rho2 angle")
    parser.add_argument("--eta", type=float, default=None, help="rho2 angle")
    parser.add_argument("--seed", type=_parse_seed, default=None, help="random_rank2 seed")
    parser.add_argument("--da", type=int, default=None,
                        help=f"random_rank2 A-side dimension, 1 to {_MAX_DA} (default 2)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one, so
    callers must not change it. Each subcommand names its handler, which
    ``main`` looks up when it runs, so a replaced ``cmd_*`` is the one called."""
    parser = argparse.ArgumentParser(
        prog="qdiscord",
        description="Closed-form quantum discord for rank-2 two-qubit states, "
        "with brute-force oracles and figure sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="report all correlations of one state")
    source = compute.add_mutually_exclusive_group(required=True)
    source.add_argument("--state", help="path to a state JSON file instead of --family")
    _add_family_arguments(compute, source)
    compute.set_defaults(handler="cmd_compute")

    sweep = sub.add_parser("sweep", help="write a CSV parameter sweep")
    _add_family_arguments(sweep)
    sweep.add_argument("--param", required=True, help="parameter to sweep")
    sweep.add_argument("--from", dest="start", type=float, required=True)
    sweep.add_argument("--to", dest="stop", type=float, required=True)
    sweep.add_argument("--steps", type=int, required=True)
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.set_defaults(handler="cmd_sweep")

    validate = sub.add_parser("validate", help="run the randomized identity suite")
    validate.add_argument("--trials", type=int, required=True)
    validate.add_argument("--seed", type=_parse_seed, default=0)
    validate.set_defaults(handler="cmd_validate")

    state = sub.add_parser("state", help="state utilities")
    state_sub = state.add_subparsers(dest="state_command", required=True)
    show = state_sub.add_parser("show", help="print a family state as JSON")
    _add_family_arguments(show)
    show.set_defaults(handler="cmd_state_show")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return globals()[args.handler](args)
    except (QDiscordError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
