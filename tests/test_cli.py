import json
import logging
import math

import numpy as np
import pytest

from qdiscord import cli
from qdiscord.cli import main
from qdiscord.discord import discord_rank2, koashi_winter_residual, monogamy_residual
from qdiscord.channel import extract_channel, reassemble_state
from qdiscord.errors import DegenerateMarginal
from qdiscord.linalg import tensor
from qdiscord.states import (
    DensityMatrix,
    dump_state,
    make_bell_diagonal,
    make_example1,
    make_horodecki,
    make_random_rank2,
    make_rho2,
    random_unitary,
    trial_seed,
)

LOG2_3 = math.log2(3.0)


def reference_h(x):
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def reference_f(x):
    return reference_h((1 + math.sqrt(1 - x)) / 2)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# (name, flags, the state the flags describe, the payload parameters)
FAMILIES = [
    ("bell_diagonal", ["--c", "0.3,-0.2,0.1"], make_bell_diagonal(0.3, -0.2, 0.1),
     {"c1": 0.3, "c2": -0.2, "c3": 0.1}),
    ("horodecki", ["--p", "0.37"], make_horodecki(0.37), {"p": 0.37}),
    ("example1", ["--x", "0.7"], make_example1(0.7), {"x": 0.7}),
    ("rho2", ["--x", "0.3", "--theta", "1.0", "--eta", "2.0"], make_rho2(0.3, 1.0, 2.0),
     {"x": 0.3, "theta": 1.0, "eta": 2.0}),
    ("random_rank2", ["--seed", "11", "--da", "3"], make_random_rank2(11, 3),
     {"seed": 11, "da": 3}),
]


@pytest.mark.parametrize("name, flags, state, parameters", FAMILIES,
                         ids=[case[0] for case in FAMILIES])
def test_family_flags_build_the_builders_state(capsys, name, flags, state, parameters):
    code, out, _ = run(capsys, "state", "show", "--family", name, *flags)
    assert code == 0
    assert out == dump_state(state) + "\n"
    code, out, _ = run(capsys, "compute", "--family", name, *flags)
    assert code == 0
    family = json.loads(out)["family"]
    assert family == {"name": name, "parameters": parameters}
    assert list(family["parameters"]) == list(parameters)


@pytest.mark.parametrize("name, flags, missing", [
    ("bell_diagonal", [], "--c"),
    ("horodecki", [], "--p"),
    ("example1", [], "--x"),
    ("rho2", [], "--x, --theta and --eta"),
    ("rho2", ["--theta", "1"], "--x and --eta"),
    ("rho2", ["--x", "0.3", "--theta", "1"], "--eta"),
    ("random_rank2", ["--da", "3"], "--seed"),
])
@pytest.mark.parametrize("command", [["compute"], ["state", "show"]])
def test_missing_flags_are_each_named(capsys, command, name, flags, missing):
    code, out, err = run(capsys, *command, "--family", name, *flags)
    assert (code, out) == (2, "")
    assert err == f"error: family {name} requires {missing}\n"


class TestCompute:
    def test_horodecki_midpoint(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "horodecki", "--p", "0.5")
        assert code == 0
        doc = json.loads(out)
        assert doc["Q_discord"] == pytest.approx(0.412154161152, abs=1e-9)
        assert doc["I2_cc"] == pytest.approx(0.25, abs=1e-9)
        assert doc["rank"] == 2
        assert doc["reason"] is None
        assert doc["family"] == {"name": "horodecki", "parameters": {"p": 0.5}}

    def test_example1_rank2_endpoint(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "example1", "--x", "2")
        doc = json.loads(out)
        assert code == 0
        assert doc["Q_discord"] == pytest.approx(5 / 3 - LOG2_3, abs=1e-9)

    def test_example1_high_rank_emits_nulls_with_reason(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "example1", "--x", "1")
        doc = json.loads(out)
        assert code == 0
        assert doc["I_cc"] is None and doc["Q_discord"] is None
        assert doc["rank"] == 4
        assert "rank" in doc["reason"]
        assert doc["I2_cc"] == pytest.approx(1 / 9, abs=1e-9)

    def test_bell_diagonal_c100_is_classical(self, capsys):
        # (1, 0, 0) is the even two-Bell-state mixture: perfectly classically
        # correlated (I_cc = 1) with zero discord.
        code, out, _ = run(
            capsys, "compute", "--family", "bell_diagonal", "--c", "1,0,0"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["I_cc"] == pytest.approx(1.0, abs=1e-9)
        assert doc["Q_discord"] == pytest.approx(0.0, abs=1e-9)

    def test_bell_state_signature(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--family", "bell_diagonal", "--c", "1,-1,1"
        )
        doc = json.loads(out)
        assert doc["I_cc"] == pytest.approx(1.0, abs=1e-9)
        assert doc["Q_discord"] == pytest.approx(1.0, abs=1e-9)

    def test_twelve_significant_digits(self, capsys):
        _, out, _ = run(capsys, "compute", "--family", "horodecki", "--p", "0.5")
        assert '"Q_discord": 0.412154161152' in out

    def test_json_file_equals_family_flags_exactly(self, capsys, tmp_path):
        code, out, _ = run(capsys, "state", "show", "--family", "example1", "--x", "0.7")
        assert code == 0
        path = tmp_path / "state.json"
        path.write_text(out, encoding="utf-8")
        _, from_file, _ = run(capsys, "compute", "--state", str(path))
        _, from_flags, _ = run(capsys, "compute", "--family", "example1", "--x", "0.7")
        a, b = json.loads(from_file), json.loads(from_flags)
        a.pop("family")
        b.pop("family")
        assert a == b

    def test_missing_parameters_exit_2(self, capsys):
        code, _, err = run(capsys, "compute", "--family", "horodecki")
        assert code == 2
        assert "requires --p" in err

    @pytest.mark.parametrize("c", ["nan,0,0", "0,nan,0.5"])
    def test_non_finite_flag_exit_2(self, capsys, c):
        code, out, err = run(capsys, "compute", "--family", "bell_diagonal", "--c", c)
        assert (code, out) == (2, "")
        assert err == "error: matrix has a NaN or infinite entry\n"

    @pytest.mark.parametrize("c", ["a,b,c", "1,x,3", "1,2", "1,2,3,4"])
    def test_malformed_c_triple_is_named(self, capsys, c):
        code, out, err = run(capsys, "compute", "--family", "bell_diagonal", "--c", c)
        assert (code, out) == (2, "")
        assert err.endswith("error: argument --c: --c expects three comma-separated reals\n")
        assert "_parse_c_triple" not in err

    @pytest.mark.parametrize("literal", ["NaN", "Infinity"])
    def test_non_finite_state_file_exit_2(self, capsys, tmp_path, literal):
        path = tmp_path / "state.json"
        doc = json.loads(dump_state(make_horodecki(0.5)))
        doc["matrix"][1][2][0] = "LITERAL"
        path.write_text(json.dumps(doc).replace('"LITERAL"', literal), encoding="utf-8")
        code, out, err = run(capsys, "compute", "--state", str(path))
        assert (code, out) == (2, "")
        assert err == "error: matrix entries must be finite, got NaN or Infinity\n"

    def test_domain_error_exit_2(self, capsys):
        code, _, err = run(capsys, "compute", "--family", "horodecki", "--p", "1.5")
        assert code == 2
        assert "outside" in err

    def test_malformed_state_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"dims\": [2, 2]}", encoding="utf-8")
        code, _, err = run(capsys, "compute", "--state", str(path))
        assert code == 2
        assert "missing field" in err

    def test_random_rank2_family(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--family", "random_rank2", "--seed", "11"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["rank"] == 2
        assert doc["Q_discord"] >= -1e-9

    def test_wide_state_gets_linear_cc_only(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "random_rank2",
                           "--seed", "3", "--da", "3")
        doc = json.loads(out)
        assert code == 0
        assert doc["Q_discord"] is None
        assert doc["I2_cc"] >= 0.0
        assert "2x2" in doc["reason"]

    @pytest.mark.parametrize("dims", [(2, 1), (1, 2), (2, 3), (5, 2)])
    def test_unsupported_shape_exit_2(self, capsys, tmp_path, dims):
        n = dims[0] * dims[1]
        rows = [[[1.0 / n if i == j else 0.0, 0.0] for j in range(n)] for i in range(n)]
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"dims": list(dims), "matrix": rows}), encoding="utf-8")
        code, out, err = run(capsys, "compute", "--state", str(path))
        assert code == 2 and out == ""
        assert "(dA, 2) with dA in {2, 3, 4}" in err
        assert f"got dims {tuple(dims)}" in err

    def test_deterministic_bytes(self, capsys):
        _, first, _ = run(capsys, "compute", "--family", "rho2", "--x", "0.3",
                          "--theta", "1.0", "--eta", "2.0")
        _, second, _ = run(capsys, "compute", "--family", "rho2", "--x", "0.3",
                           "--theta", "1.0", "--eta", "2.0")
        assert first == second


class TestSweep:
    def test_example1_sweep_matches_closed_form(self, capsys, tmp_path):
        out_path = tmp_path / "fig1.csv"
        code, _, _ = run(capsys, "sweep", "--family", "example1", "--param", "x",
                         "--from", "0", "--to", "2", "--steps", "201",
                         "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "x,I2_cc,I2_cc_closed"
        assert len(lines) == 202
        for line in lines[1:]:
            x, i2, closed = (float(v) for v in line.split(","))
            assert i2 == pytest.approx(max(1 / 9, (1 - 2 * x) ** 2 / 9), abs=1e-10)
            assert closed == pytest.approx(i2, abs=1e-10)

    def test_horodecki_sweep_schema_and_values(self, capsys, tmp_path):
        out_path = tmp_path / "fig2.csv"
        code, _, _ = run(capsys, "sweep", "--family", "horodecki", "--param", "p",
                         "--from", "0", "--to", "1", "--steps", "101",
                         "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "p,S_A,S_B,S_AB,I_mutual,I_cc,Q_discord,Q_closed_form"
        assert len(lines) == 102
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        for p, _, _, _, _, _, q, q_closed in rows:
            assert q == pytest.approx(q_closed, abs=1e-9)
        assert rows[0][6] == pytest.approx(0.0, abs=1e-12)
        assert rows[-1][6] == pytest.approx(1.0, abs=1e-12)

    def test_rho2_slice_matches_reversed_horodecki(self, capsys, tmp_path):
        rho2_path = tmp_path / "rho2.csv"
        horo_path = tmp_path / "horo.csv"
        run(capsys, "sweep", "--family", "rho2", "--param", "x", "--from", "0",
            "--to", "1", "--steps", "51", "--theta", repr(math.pi / 2),
            "--eta", repr(math.pi / 4), "--out", str(rho2_path))
        run(capsys, "sweep", "--family", "horodecki", "--param", "p", "--from", "0",
            "--to", "1", "--steps", "51", "--out", str(horo_path))
        rho2_rows = [
            [float(v) for v in line.split(",")]
            for line in rho2_path.read_text().splitlines()[1:]
        ]
        horo_rows = [
            [float(v) for v in line.split(",")]
            for line in horo_path.read_text().splitlines()[1:]
        ]
        for rho2_row, horo_row in zip(rho2_rows, reversed(horo_rows)):
            assert rho2_row[0] == pytest.approx(1.0 - horo_row[0], abs=1e-12)
            assert rho2_row[6] == pytest.approx(horo_row[6], abs=1e-9)

    def test_deterministic_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run(capsys, "sweep", "--family", "horodecki", "--param", "p",
                "--from", "0", "--to", "1", "--steps", "21", "--out", str(path))
        assert a.read_bytes() == b.read_bytes()

    def test_line_endings_lf_only(self, capsys, tmp_path):
        path = tmp_path / "lf.csv"
        run(capsys, "sweep", "--family", "horodecki", "--param", "p",
            "--from", "0", "--to", "1", "--steps", "11", "--out", str(path))
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert not raw.startswith(b"\xef\xbb\xbf")

    def test_bad_step_count_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "--family", "horodecki", "--param", "p",
                           "--from", "0", "--to", "1", "--steps", "1",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "steps" in err

    def test_reversed_range_exit_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "sweep", "--family", "horodecki", "--param", "p",
                         "--from", "1", "--to", "0", "--steps", "11",
                         "--out", str(tmp_path / "x.csv"))
        assert code == 2

    @pytest.mark.parametrize("flag, value", [
        ("--from", "nan"), ("--from", "inf"), ("--to", "nan"), ("--to", "inf"),
    ])
    def test_non_finite_range_end_is_named(self, capsys, tmp_path, flag, value):
        ends = {"--from": "0", "--to": "1", flag: value}
        code, out, err = run(capsys, "sweep", "--family", "horodecki", "--param", "p",
                             "--from", ends["--from"], "--to", ends["--to"], "--steps", "3",
                             "--out", str(tmp_path / "x.csv"))
        assert (code, out) == (2, "")
        assert err == f"error: {flag} must be a finite number, got {value}\n"
        assert not (tmp_path / "x.csv").exists()

    def test_swept_flag_is_not_required(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "--family", "rho2", "--param", "x",
                           "--from", "0", "--to", "1", "--steps", "5", "--theta", "1",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert err == "error: family rho2 requires --eta\n"

    def test_family_is_required(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "--param", "x", "--from", "0", "--to", "1",
                           "--steps", "5", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "required: --family" in err

    def test_unknown_sweep_family_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "--family", "random_rank2", "--param",
                           "seed", "--from", "0", "--to", "1", "--steps", "5",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "sweep" in err


class TestValidate:
    def test_small_run_passes(self, capsys):
        code, out, err = run(capsys, "validate", "--trials", "25", "--seed", "42")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["trials"] == 25
        assert set(doc["checks"]) == {
            "kw", "monogamy", "decomposition_bound", "decomposition_attain",
            "projective_bound", "projective_attain", "local_unitary", "roundtrip",
        }
        assert doc["checks"]["kw"]["max_residual"] <= 1e-8
        counts = {name: (c["evaluated"], c["skipped"]) for name, c in doc["checks"].items()}
        assert set(counts.values()) == {(25, 0)}
        for check in doc["checks"].values():
            assert check["worst_seed"] == trial_seed(42, check["worst_trial"])
        assert list(json.loads(err)) == [
            "draw_states", "twins", "residuals", "roundtrip", "oracles", "total",
        ]

    def test_stage_times_go_to_stderr_and_stdout_stays_identical(self, capsys, caplog):
        _, first, err_first = run(capsys, "validate", "--trials", "40", "--seed", "8")
        caplog.set_level(logging.DEBUG, logger="qdiscord.oracles")
        _, second, err_second = run(capsys, "validate", "--trials", "40", "--seed", "8")
        assert len(caplog.records) == 50  # each oracle on each of the 25 oracle trials
        assert first == second
        assert "draw_states" not in first
        for err in (err_first, err_second):
            assert err.count("\n") == 1
            stages = json.loads(err)
            assert all(seconds >= 0 for seconds in stages.values())
            parts = sum(seconds for name, seconds in stages.items() if name != "total")
            assert parts == pytest.approx(stages["total"], abs=1e-5)

    def test_projective_checks_run_when_decomposition_skips(self, capsys, monkeypatch):
        def degenerate(*args, **kwargs):
            raise DegenerateMarginal("rank-1 marginal")

        monkeypatch.setattr(cli, "decomposition_linear_cc", degenerate)
        code, out, _ = run(capsys, "validate", "--trials", "30", "--seed", "3")
        assert code == 1
        checks = json.loads(out)["checks"]
        counts = {name: (c["evaluated"], c["skipped"]) for name, c in checks.items()}
        assert counts["projective_bound"] == counts["projective_attain"] == (25, 0)
        assert counts["decomposition_bound"] == counts["decomposition_attain"] == (0, 25)
        assert counts["kw"] == counts["roundtrip"] == (30, 0)
        for name in ("decomposition_bound", "decomposition_attain"):
            assert checks[name]["pass"] is False
            assert checks[name]["max_residual"] is None
            assert checks[name]["worst_trial"] is None
        assert checks["projective_bound"]["pass"] is True

    def test_worst_trial_reproduces_its_residual(self, capsys):
        seed = 42
        code, out, _ = run(capsys, "validate", "--trials", "60", "--seed", str(seed))
        assert code == 0
        checks = json.loads(out)["checks"]

        def local_unitary(rho, trial):
            twin_i_cc, twin_q = cli._twin_correlations([trial], rho[:])[:, 0]
            report = discord_rank2(rho)
            return max(abs(report.Q_discord - twin_q), abs(report.I_cc - twin_i_cc))

        recompute = {
            "kw": lambda rho, trial: abs(koashi_winter_residual(rho)),
            "monogamy": lambda rho, trial: abs(monogamy_residual(rho)),
            "projective_bound": lambda rho, trial: (
                cli.projective_classical_correlation(rho) - discord_rank2(rho).I_cc
            ),
            "roundtrip": lambda rho, trial: np.max(
                np.abs(reassemble_state(extract_channel(rho)) - rho.matrix)
            ),
            "local_unitary": local_unitary,
        }
        for name, residual in recompute.items():
            worst_trial, worst_seed = checks[name]["worst_trial"], checks[name]["worst_seed"]
            assert 0 <= worst_trial < (25 if name.startswith("projective") else 60)
            assert worst_seed == trial_seed(seed, worst_trial)
            rho = make_random_rank2(worst_seed)
            assert residual(rho, worst_seed) == pytest.approx(
                checks[name]["max_residual"], rel=1e-9, abs=1e-15
            )
        assert all(isinstance(c["worst_trial"], int) for c in checks.values())

    def test_twins_match_the_per_state_reference(self):
        # The batched twin draw against U = U_A x U_B built one trial at a time.
        seeds = [trial_seed(9, t) for t in range(150)]
        states = make_random_rank2(seeds)
        batch = cli.in_blocks(cli._twin_correlations, seeds, states)
        for n, (s, rho) in enumerate(zip(seeds, states)):
            u = tensor(random_unitary(trial_seed(s, 101), 2),
                       random_unitary(trial_seed(s, 102), 2))
            twin = discord_rank2(DensityMatrix((2, 2), u @ rho.matrix @ u.conj().T))
            assert batch[:, n] == pytest.approx([twin.I_cc, twin.Q_discord], abs=1e-13)

    def test_rank_one_marginal_trial_is_skipped_by_roundtrip(self, capsys, monkeypatch):
        seed, degenerate_trial = 4, 3
        draw = cli.make_random_rank2

        def with_product_state(seeds):
            matrices = draw(seeds).matrix.copy()
            matrices[degenerate_trial] = make_horodecki(0.0).matrix
            return DensityMatrix((2, 2), matrices)

        monkeypatch.setattr(cli, "make_random_rank2", with_product_state)
        code, out, _ = run(capsys, "validate", "--trials", "30", "--seed", str(seed))
        assert code == 0
        checks = json.loads(out)["checks"]
        assert (checks["roundtrip"]["evaluated"], checks["roundtrip"]["skipped"]) == (29, 1)
        assert checks["decomposition_bound"]["skipped"] == 1
        assert checks["kw"]["evaluated"] == checks["local_unitary"]["evaluated"] == 30

    def test_worst_trial_names_the_largest_of_distinct_residuals(self, capsys, monkeypatch):
        # Offset the decomposition oracle by a state-dependent amount so every
        # trial has a clearly different residual.
        exact = cli.decomposition_linear_cc
        monkeypatch.setattr(cli, "decomposition_linear_cc", lambda rho, **kw: (
            exact(rho, **kw) + 1e-3 * rho.matrix[0, 0].real))
        seed = 5
        code, out, _ = run(capsys, "validate", "--trials", "30", "--seed", str(seed))
        assert code == 1
        check = json.loads(out)["checks"]["decomposition_bound"]
        offsets = [1e-3 * make_random_rank2(trial_seed(seed, t)).matrix[0, 0].real
                   for t in range(25)]
        assert check["worst_trial"] == int(np.argmax(offsets))
        assert check["max_residual"] == pytest.approx(max(offsets), abs=1e-8)

    def test_unreachable_tolerance_fails(self, capsys):
        code, out, _ = run(capsys, "validate", "--trials", "10", "--seed", "7",
                           "--tol", "kw=1e-17")
        assert code == 1
        doc = json.loads(out)
        assert doc["pass"] is False
        assert doc["checks"]["kw"]["pass"] is False
        assert doc["checks"]["kw"]["tolerance"] == 1e-17

    def test_byte_identical_summaries(self, capsys):
        _, first, _ = run(capsys, "validate", "--trials", "100", "--seed", "42")
        _, second, _ = run(capsys, "validate", "--trials", "100", "--seed", "42")
        assert first == second

    def test_thousand_trials_pass(self, capsys):
        code, out, _ = run(capsys, "validate", "--trials", "1000", "--seed", "42")
        assert code == 0
        doc = json.loads(out)
        assert doc["checks"]["kw"]["max_residual"] <= 1e-8
        assert doc["checks"]["monogamy"]["max_residual"] <= 1e-8

    def test_unknown_check_name_exit_2(self, capsys):
        code, _, err = run(capsys, "validate", "--trials", "5", "--seed", "1",
                           "--tol", "nope=1e-3")
        assert code == 2
        assert "NAME" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "abc"])
    def test_bad_tolerance_value_is_named(self, capsys, value):
        code, out, err = run(capsys, "validate", "--trials", "5", "--seed", "1",
                             "--tol", f"kw={value}")
        assert (code, out) == (2, "")
        assert err == f"error: --tol kw expects a finite non-negative number, got '{value}'\n"

    def test_zero_trials_exit_2(self, capsys):
        code, _, _ = run(capsys, "validate", "--trials", "0", "--seed", "1")
        assert code == 2


@pytest.mark.parametrize("argv", [
    ["validate", "--trials", "3", "--seed", "-5"],
    ["compute", "--family", "random_rank2", "--seed", "-5"],
    ["state", "show", "--family", "random_rank2", "--seed", "-5"],
])
def test_negative_seed_is_named(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --seed: expected a non-negative integer, got '-5'\n")


class TestStateShow:
    def test_emits_parseable_schema(self, capsys):
        code, out, _ = run(capsys, "state", "show", "--family", "horodecki",
                           "--p", "0.5")
        assert code == 0
        doc = json.loads(out)
        assert doc["dims"] == [2, 2]
        matrix = np.array(
            [[complex(c[0], c[1]) for c in row] for row in doc["matrix"]]
        )
        from qdiscord.states import make_horodecki

        np.testing.assert_array_equal(matrix, make_horodecki(0.5).matrix)

    def test_usage_error_without_family(self, capsys):
        code, _, err = run(capsys, "state", "show")
        assert code == 2
        assert "the following arguments are required: --family" in err


class TestUsage:
    def test_no_command_exit_2(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_family_exit_2(self, capsys):
        code, _, _ = run(capsys, "compute", "--family", "ghz")
        assert code == 2
