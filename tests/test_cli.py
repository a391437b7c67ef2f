import argparse
import json
import logging
import math
import re
import shlex
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import haar_unitary
from hypothesis import given, settings
from hypothesis import strategies as st

from qdiscord import channel, cli, discord
from qdiscord.cli import main
from qdiscord.discord import correlation_report, discord_rank2, identity_residuals
from qdiscord.errors import QDiscordError
from qdiscord.linalg import partial_trace
from qdiscord.oracles import decomposition_linear_cc
from qdiscord.states import (
    MARGINAL_RANK_TOL,
    DensityMatrix,
    dump_state,
    make_bell_diagonal,
    make_example1,
    make_horodecki,
    make_random_rank2,
    make_rho2,
    random_trials,
)

LOG2_3 = math.log2(3.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def with_trial(drawn, trial, matrix):
    """``random_trials`` output ``(states, twins)`` with trial ``trial``'s state
    set to ``matrix`` and its twin to ``matrix`` under a Haar U_A x U_B, so
    ``local_unitary`` still compares two distinct states."""
    rng = np.random.default_rng(trial)
    u = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
    stacks = []
    for stack, member in zip(drawn, (matrix, u @ matrix @ u.conj().T)):
        matrices = stack.matrix.copy()
        matrices[trial] = member
        stacks.append(DensityMatrix(stack.dims, matrices))
    return tuple(stacks)


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


@pytest.mark.parametrize("argv, err", [
    (["compute", "--family", "horodecki", "--p", "0.3", "--x", "0.9", "--seed", "4"],
     "--family horodecki takes no family flags but --p, got --x and --seed"),
    (["state", "show", "--family", "example1", "--x", "0.5", "--p", "0.2"],
     "--family example1 takes no family flags but --x, got --p"),
    (["compute", "--family", "rho2", "--x", "0.3", "--theta", "1", "--eta", "2", "--da", "2"],
     "--family rho2 takes no family flags but --x, --theta and --eta, got --da"),
    (["compute", "--family", "random_rank2", "--c", "1,0,0"],
     "--family random_rank2 takes no family flags but --seed and --da, got --c"),
], ids=["compute", "state_show", "rho2", "random_rank2"])
def test_unread_family_flags_are_each_named(capsys, monkeypatch, argv, err):
    # A flag the chosen family does not read exits 2 before any state is built.
    def never_built(*parameters):
        raise AssertionError("a state was built")

    name = argv[argv.index("--family") + 1]
    monkeypatch.setitem(cli._FAMILIES, name, cli._FAMILIES[name]._replace(build=never_built))
    assert run(capsys, *argv) == (2, "", f"error: {err}\n")


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

    @pytest.mark.parametrize("source,message", [
        (["--family", "example1", "--x", "0.3", "--state", "h.json"],
         "argument --state: not allowed with argument --family"),
        (["--x", "0.3"], "one of the arguments --state --family is required"),
    ], ids=["both", "neither"])
    def test_exactly_one_of_family_and_state(self, capsys, tmp_path, monkeypatch, source,
                                             message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "h.json").write_text(dump_state(make_horodecki(0.3)), encoding="utf-8")
        code, out, err = run(capsys, "compute", *source)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: {message}\n")

    def test_state_alone_reads_the_file(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(dump_state(make_random_rank2(5, 3)), encoding="utf-8")
        code, out, err = run(capsys, "compute", "--state", str(path))
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["family"] is None
        assert doc["S_AB"] == pytest.approx(correlation_report(make_random_rank2(5, 3)).S_AB)

    @pytest.mark.parametrize("flags,named", [
        (["--p", "0.3", "--da", "5"], "--p and --da"),
        (["--da", "2"], "--da"),
        (["--seed", "3"], "--seed"),
        (["--c", "1,0,0", "--x", "0.5", "--theta", "1", "--eta", "2"],
         "--c, --x, --theta and --eta"),
    ])
    def test_state_with_family_flags_names_them(self, capsys, tmp_path, flags, named):
        # A family flag beside --state would go unread: it exits 2 instead.
        path = tmp_path / "s.json"
        path.write_text(dump_state(make_horodecki(0.3)), encoding="utf-8")
        code, out, err = run(capsys, "compute", "--state", str(path), *flags)
        assert (code, out) == (2, "")
        assert err == f"error: --state takes no family flags, got {named}\n"

    def test_da_defaults_to_two_qubits(self, capsys):
        _, out, _ = run(capsys, "compute", "--family", "random_rank2", "--seed", "11")
        assert json.loads(out)["family"]["parameters"] == {"seed": 11, "da": 2}
        _, shown, _ = run(capsys, "state", "show", "--family", "random_rank2", "--seed", "11")
        assert shown == dump_state(make_random_rank2(11)) + "\n"

    def test_missing_parameters_exit_2(self, capsys):
        code, _, err = run(capsys, "compute", "--family", "horodecki")
        assert code == 2
        assert "requires --p" in err

    @pytest.mark.parametrize("c", ["nan,0,0", "0,nan,0.5"])
    def test_non_finite_flag_exit_2(self, capsys, c):
        code, out, err = run(capsys, "compute", "--family", "bell_diagonal", "--c", c)
        assert (code, out) == (2, "")
        name = f"c{c.split(',').index('nan') + 1}"
        assert err == f"error: {name}=nan is not a finite number\n"

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

    def test_state_file_near_the_float_limit_exit_2(self, capsys, tmp_path):
        # Finite entries 1e308 and -1e308 on the diagonal, trace 1: refused
        # before m + m^dagger could overflow, so numpy prints no RuntimeWarning
        # (an error in this suite) and the message names the entry's size.
        path = tmp_path / "state.json"
        doc = json.loads(dump_state(make_horodecki(0.5)))
        doc["matrix"][0][0], doc["matrix"][3][3] = [1e308, 0.0], [-1e308, 0.0]
        doc["matrix"][1][1] = doc["matrix"][2][2] = [0.5, 0.0]
        doc["matrix"][1][2] = doc["matrix"][2][1] = [0.0, 0.0]
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "compute", "--state", str(path))
        assert (code, out) == (2, "")
        assert err == "error: matrix entries must be at most 1e+150 in modulus\n"

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

    def test_deeply_nested_state_file_exit_2(self, capsys, tmp_path):
        # 100000 brackets exceed the JSON decoder's recursion limit.
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        code, out, err = run(capsys, "compute", "--state", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: state document is nested too deeply: ")
        assert err.count("\n") == 1

    def test_random_rank2_family(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--family", "random_rank2", "--seed", "11"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["rank"] == 2
        assert doc["Q_discord"] >= -1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 42, 7919])
    def test_one_level_a_has_no_linear_classical_correlation(self, capsys, seed):
        # A 1-level A has no Bloch vector, so I2_cc is exactly 0, not the
        # rounding noise of its 1x1 images.
        code, out, _ = run(capsys, "compute", "--family", "random_rank2", "--seed", str(seed),
                           "--da", "1")
        assert code == 0
        assert '"I2_cc": 0,' in out

    def test_random_rank2_is_trial_zero_of_validate(self, capsys, monkeypatch):
        # compute --seed s reports, bit for bit, the state validate --seed s
        # draws as its trial 0.
        drawn = []
        monkeypatch.setattr(cli, "random_trials",
                            lambda *args: drawn.append(random_trials(*args)) or drawn[-1])
        assert run(capsys, "validate", "--trials", "30", "--seed", "17")[0] == 0
        code, out, _ = run(capsys, "compute", "--family", "random_rank2", "--seed", "17")
        assert code == 0
        family = {"name": "random_rank2", "parameters": {"seed": 17, "da": 2}}
        report = correlation_report(drawn[0][0][0])
        assert out == cli._fmt_json({"family": family, **vars(report)}) + "\n"

    def test_wide_state_gets_linear_cc_only(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "random_rank2",
                           "--seed", "3", "--da", "3")
        doc = json.loads(out)
        assert code == 0
        assert doc["Q_discord"] is None
        assert doc["I2_cc"] >= 0.0
        assert "2x2" in doc["reason"]

    def test_any_da_gets_a_report(self, capsys):
        # Past the old closed-form cap of dA = 4, I2_cc still reads, and I_cc
        # stays two-qubit.
        code, out, err = run(capsys, "compute", "--family", "random_rank2", "--seed", "1",
                             "--da", "5")
        doc = json.loads(out)
        assert (code, err) == (0, "")
        assert doc["I_cc"] is None and doc["Q_discord"] is None
        assert doc["reason"].endswith("rank-2 formulas need a 2x2 pair, got dims (5, 2)")
        assert doc["I2_cc"] == pytest.approx(
            channel.linear_classical_correlation(make_random_rank2(1, 5)), rel=1e-11)

    @pytest.mark.parametrize("da", [-1, 0, 1, cli._MAX_DA, cli._MAX_DA + 1, 10**13])
    @pytest.mark.parametrize("command", [["compute"], ["state", "show"]], ids=" ".join)
    def test_da_bound(self, capsys, monkeypatch, command, da):
        # --da is checked before any state is built; the builder is replaced,
        # so the test allocates nothing at any dA.
        calls = []

        def small_state(seed, dim_a):
            calls.append(dim_a)
            return make_random_rank2(seed)

        family = cli._FAMILIES["random_rank2"]._replace(build=small_state)
        monkeypatch.setitem(cli._FAMILIES, "random_rank2", family)
        code, out, err = run(capsys, *command, "--family", "random_rank2", "--seed", "7",
                             "--da", str(da))
        if 1 <= da <= cli._MAX_DA:
            assert (code, err, calls) == (0, "", [da])
        else:
            assert (code, out, calls) == (2, "", [])
            assert err == f"error: --da must be between 1 and {cli._MAX_DA}, got {da}\n"

    @pytest.mark.parametrize("dims", [(2, 1), (1, 2), (2, 3), (5, 2)])
    def test_unsupported_shape_exit_2(self, capsys, tmp_path, dims):
        n = dims[0] * dims[1]
        rows = [[[1.0 / n if i == j else 0.0, 0.0] for j in range(n)] for i in range(n)]
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"dims": list(dims), "matrix": rows}), encoding="utf-8")
        code, out, err = run(capsys, "compute", "--state", str(path))
        if dims[1] == 2:
            # B is a qubit, so any dA gets a report; I_cc stays two-qubit.
            doc = json.loads(out)
            assert code == 0 and err == ""
            assert doc["I2_cc"] == 0.0 and doc["I_cc"] is None
            assert f"2x2 pair, got dims {tuple(dims)}" in doc["reason"]
        else:
            assert code == 2 and out == ""
            assert f"error: dims must be (dA, 2), side B a qubit, got dims {tuple(dims)}\n" == err

    @pytest.mark.parametrize("dims", [[True, 4], [2, True]], ids=["true_4", "2_true"])
    def test_boolean_dims_are_rejected(self, capsys, tmp_path, dims):
        # JSON true is a Python bool, which is an int: it must not read as 1.
        rows = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"dims": dims, "matrix": rows}), encoding="utf-8")
        code, out, err = run(capsys, "compute", "--state", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: dims must be two positive integers, got {dims!r}\n"

    @pytest.mark.parametrize("cell, reason", [
        ([True, False], "true and false are not numbers"),
        ([1.0, False], "true and false are not numbers"),
        ({"re": 1.0, "im": 0.0}, "unhashable type: 'slice'"),
    ], ids=["true_false", "float_false", "object"])
    def test_non_numeric_entries_are_rejected(self, capsys, tmp_path, cell, reason):
        # Each would read as the pure state |00><00| if the entry were taken as 1.
        rows = [[[0.0, 0.0] for _ in range(4)] for _ in range(4)]
        rows[0][0] = cell
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"dims": [2, 2], "matrix": rows}), encoding="utf-8")
        code, out, err = run(capsys, "compute", "--state", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: matrix entries must be [re, im] pairs: {reason}\n"

    @pytest.mark.parametrize("cell", [[1.0, 0.0, 7.5], [1.0]], ids=["three_parts", "one_part"])
    def test_entries_of_other_lengths_are_rejected(self, capsys, tmp_path, cell):
        # [1.0, 0.0, 7.5] would read as 1+0j, and the state as |00><00|, if
        # only the first two parts were read.
        rows = [[[0.0, 0.0] for _ in range(4)] for _ in range(4)]
        rows[0][0] = cell
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"dims": [2, 2], "matrix": rows}), encoding="utf-8")
        code, out, err = run(capsys, "compute", "--state", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: matrix entries must be [re, im] pairs: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("dim_a,calls", [
        (2, [("eigvalsh", (1, 4, 4)), ("eigh", (1, 2, 2)), ("eigvalsh", (1, 3, 3))]),
        (3, [("eigvalsh", (1, 6, 6)), ("eigh", (1, 2, 2)), ("eigvalsh", (1, 3, 3)),
             ("eigvalsh", (1, 3, 3))]),
    ])
    def test_a_state_file_makes_each_kernel_call_once(self, capsys, monkeypatch, tmp_path,
                                                      dim_a, calls):
        # A one-state report is a batch of one: validation's spectrum of the
        # state, one eigh of rho_B and one eigvalsh of the channel's Gram
        # matrix, and at dA > 2 one eigvalsh of rho_A (a qubit rho_A has a
        # closed-form spectrum); no svd, qr or eig.
        path = tmp_path / "state.json"
        path.write_text(dump_state(make_random_rank2(7, dim_a=dim_a)), encoding="utf-8")
        made = []

        def counting(name, kernel):
            def call(a, *args, **kwargs):
                made.append((name, np.shape(a)))
                return kernel(a, *args, **kwargs)
            return call

        for name in ("eigvalsh", "eigh", "svd", "qr", "eig"):
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        code, out, _ = run(capsys, "compute", "--state", str(path))
        assert code == 0 and json.loads(out)["rank"] == 2
        assert made == calls

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

    @pytest.mark.parametrize("steps", [cli._MAX_STEPS, cli._MAX_STEPS + 1, 10**13])
    def test_step_count_bound(self, capsys, monkeypatch, tmp_path, steps):
        # The count is checked before the grid is built: past the bound the
        # sweep stops at once, at the bound it goes on to the family's flags.
        def past_the_count(*args, **kwargs):
            raise QDiscordError("past the count check")

        monkeypatch.setattr(cli, "_family_parameters", past_the_count)
        code, _, err = run(capsys, "sweep", "--family", "horodecki", "--param", "p",
                           "--from", "0", "--to", "1", "--steps", str(steps),
                           "--out", str(tmp_path / "x.csv"))
        assert code == 2
        if steps > cli._MAX_STEPS:
            assert err == f"error: --steps must be at most {cli._MAX_STEPS}, got {steps}\n"
        else:
            assert err == "error: past the count check\n"
        assert not (tmp_path / "x.csv").exists()

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

    @pytest.mark.parametrize("start, shown", [("0", "0.0"), ("-1e308", "-1e+308")])
    def test_range_whose_grid_overflows_is_named(self, capsys, tmp_path, start, shown):
        # (stop - start) * (steps - 1) is inf: the grid would read inf or nan
        # at points the user never typed.
        code, out, err = run(capsys, "sweep", "--family", "example1", "--param", "x",
                             f"--from={start}", "--to", "1e308", "--steps", "3",
                             "--out", str(tmp_path / "x.csv"))
        assert (code, out) == (2, "")
        assert err == f"error: --from {shown} to --to 1e+308 in 3 steps overflows a float\n"
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

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_out_exit_2(self, capsys, tmp_path, where):
        # main reports the OSError as it reports every input error.
        out_path = tmp_path / "missing" / "x.csv" if where == "missing directory" else tmp_path
        code, out, err = run(capsys, "sweep", "--family", "horodecki", "--param", "p",
                             "--from", "0", "--to", "1", "--steps", "5", "--out", str(out_path))
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and str(out_path) in err

    @pytest.mark.parametrize("name, param, flags, err", [
        ("horodecki", "p", ["--p", "0.9"],
         "--family horodecki --param p takes no family flags, got --p"),
        ("rho2", "x", ["--x", "0.3", "--theta", "1", "--eta", "2"],
         "--family rho2 --param x takes no family flags but --theta and --eta, got --x"),
    ], ids=["horodecki", "rho2"])
    def test_swept_flag_is_refused(self, capsys, tmp_path, name, param, flags, err):
        # The grid replaces the swept flag, so a value given for it would go unread.
        path = tmp_path / "x.csv"
        assert run(capsys, "sweep", "--family", name, "--param", param, "--from", "0", "--to",
                   "1", "--steps", "5", *flags, "--out", str(path)) == (2, "", f"error: {err}\n")
        assert not path.exists()

    @pytest.mark.parametrize("flags", [["--seed", "3"], ["--c", "1,0,0"], ["--da", "9"]], ids=str)
    def test_flags_of_unsweepable_families_are_not_offered(self, capsys, tmp_path, flags):
        path = tmp_path / "x.csv"
        code, out, err = run(capsys, "sweep", "--family", "horodecki", "--param", "p",
                             "--from", "0", "--to", "1", "--steps", "5", *flags,
                             "--out", str(path))
        assert (code, out) == (2, "")
        assert err.endswith(f"error: unrecognized arguments: {' '.join(flags)}\n")
        assert not path.exists()

    def test_unsweepable_family_is_not_a_choice(self, capsys, tmp_path):
        code, out, err = run(capsys, "sweep", "--family", "bell_diagonal", "--param", "c",
                             "--from", "0", "--to", "1", "--steps", "5",
                             "--out", str(tmp_path / "x.csv"))
        assert (code, out) == (2, "")
        assert "error: argument --family: invalid choice: 'bell_diagonal'" in err

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
            assert list(check) == ["max_residual", "tolerance", "pass", "evaluated", "skipped",
                                   "worst_trial"]
        assert list(json.loads(err)) == [
            "draw_states", "twins", "residuals", "projective", "decomposition", "total",
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
        calls = []

        def degenerate(rho, **kwargs):
            calls.append((len(rho), kwargs))
            return np.full(len(rho), np.nan)  # every member's rho_B rank-1

        monkeypatch.setattr(cli, "decomposition_linear_cc", degenerate)
        code, out, _ = run(capsys, "validate", "--trials", "30", "--seed", "3")
        assert code == 1
        # One call on the stack of the 25 oracle trials, one seed per trial.
        assert calls == [(25, {"trials": 32, "seed": [3 ^ ((t + 1) << 64) for t in range(25)]})]
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
        # Every check's worst case replays from two numbers on stdout, the
        # run's seed and the check's worst_trial: the trial drawn alone.
        code, out, _ = run(capsys, "validate", "--trials", "60", "--seed", "42")
        assert code == 0
        doc = json.loads(out)
        seed, checks = doc["seed"], doc["checks"]

        def local_unitary(rho, twin):
            report, twin = discord_rank2(rho), discord_rank2(twin)
            return max(abs(report.Q_discord - twin.Q_discord), abs(report.I_cc - twin.I_cc))

        def decomposition(rho, trial):
            return decomposition_linear_cc(rho, trials=32, seed=seed ^ ((trial + 1) << 64))

        recompute = {
            "kw": lambda rho, trial, *_: abs(identity_residuals(rho)[1]),
            "monogamy": lambda rho, trial, *_: abs(identity_residuals(rho)[2]),
            "decomposition_bound": lambda rho, trial, *_: (
                decomposition(rho, trial) - channel.linear_classical_correlation(rho)),
            "decomposition_attain": lambda rho, trial, *_: (
                channel.linear_classical_correlation(rho) - decomposition(rho, trial)),
            "projective_bound": lambda rho, trial, *_: (
                cli.projective_classical_correlation(rho) - discord_rank2(rho).I_cc),
            "projective_attain": lambda rho, trial, *_: (
                discord_rank2(rho).I_cc - cli.projective_classical_correlation(rho)),
            "local_unitary": lambda rho, trial, twin: local_unitary(rho, twin),
            "roundtrip": lambda rho, trial, *_: identity_residuals(rho)[3],
        }
        assert set(recompute) == set(checks)
        for name, residual in recompute.items():
            trial = checks[name]["worst_trial"]
            assert 0 <= trial < (60 if name in ("kw", "monogamy", "local_unitary",
                                                 "roundtrip") else 25)
            states, twins = random_trials(seed, range(trial, trial + 1))
            assert residual(states[0], trial, twins[0]) == pytest.approx(
                checks[name]["max_residual"], rel=1e-9, abs=1e-15
            ), name
        assert all(isinstance(c["worst_trial"], int) for c in checks.values())

    def test_twins_match_the_per_state_reference(self):
        # The twins' batched closed forms against each trial's state and twin
        # drawn alone and reported one at a time.
        states, twins = random_trials(9, range(150))
        batch = discord_rank2(twins)
        for n in range(150):
            rho, twin = random_trials(9, range(n, n + 1))
            np.testing.assert_array_equal(rho.matrix[0], states.matrix[n])
            np.testing.assert_array_equal(twin.matrix[0], twins.matrix[n])
            alone = discord_rank2(twin[0])
            assert [batch.I_cc[n], batch.Q_discord[n]] == pytest.approx(
                [alone.I_cc, alone.Q_discord], abs=1e-13)

    def test_trials_do_not_depend_on_the_block_they_fall_in(self, monkeypatch):
        # A trial's residuals are its own: the first 130 trials read the same
        # whether they are the whole run or the start of a 300-trial one.
        summary = cli._check_summary

        def per_trial_residuals(trials):
            captured = []
            monkeypatch.setattr(cli, "_check_summary", lambda residuals, *rest: (
                captured.append(residuals[:130]) or summary(residuals, *rest)))
            assert cli.run_validation(trials, 13)["pass"]
            return dict(zip(cli._CHECK_TOLERANCES, captured))

        short, long = per_trial_residuals(130), per_trial_residuals(300)
        assert set(short) == set(long) == set(cli._CHECK_TOLERANCES)
        for name in cli._CHECK_TOLERANCES:
            np.testing.assert_array_equal(short[name], long[name], err_msg=name)
        assert np.count_nonzero(short["local_unitary"]) > 0

    @pytest.mark.parametrize("trials", [1, 130, 300])
    def test_a_run_builds_one_bit_generator(self, monkeypatch, trials):
        # Outside the decomposition oracle, which keys one Philox per oracle
        # trial, a run builds one bit generator, keyed by its seed, and no
        # Generator of its own.
        built, philox = [], np.random.Philox

        def counting(*args, **kwargs):
            built.append(kwargs.get("key"))
            return philox(*args, **kwargs)

        def refused(*args, **kwargs):
            raise AssertionError("validate built a default_rng")

        monkeypatch.setattr(np.random, "Philox", counting)
        monkeypatch.setattr(np.random, "default_rng", refused)
        monkeypatch.setattr(cli, "decomposition_linear_cc",
                            lambda rho, **kwargs: np.full(len(rho), np.nan))
        cli.run_validation(trials, 21)
        assert built == [21]

    def test_decomposition_keys_are_their_own_philox_keys(self, monkeypatch):
        # Oracle trial t keys its decomposition stream seed ^ ((t + 1) << 64):
        # one key per trial, never the run's own key, always below 2**128.
        keys = []

        def record(rho, trials, seed):
            keys.append(seed)
            return np.full(len(rho), np.nan)

        monkeypatch.setattr(cli, "decomposition_linear_cc", record)
        for run_seed in (0, 42, 2**64 - 1, 2**128 - 1):
            cli.run_validation(30, run_seed)
            run_keys = keys.pop()
            assert run_keys == [run_seed ^ ((t + 1) << 64) for t in range(25)]
            assert len({run_seed, *run_keys}) == 26
            assert all(0 <= key < 2**128 for key in run_keys)

    @pytest.mark.parametrize("trials", [1, 130])
    def test_a_run_diagonalizes_each_stack_once(self, monkeypatch, trials):
        # The run validates two stacks, its states and their twins. Each 4x4
        # spectrum is the one validation computed, and each stack's channel
        # images are extracted once, for the report and the round trip both;
        # the oracles read neither.
        spectra, extractions = [], []
        eigvalsh, extract = np.linalg.eigvalsh, channel._extract_images

        def counting_eigvalsh(a, *args, **kwargs):
            if np.shape(a)[-2:] == (4, 4):
                spectra.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        def counting_extract(matrices, d_a):
            extractions.append(matrices.shape)
            return extract(matrices, d_a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        monkeypatch.setattr(channel, "_extract_images", counting_extract)
        assert cli.run_validation(trials, 21)["pass"]
        assert spectra == extractions == [(trials, 4, 4)] * 2

    def test_a_run_makes_one_eigh_per_stack(self, monkeypatch):
        # Every eigh of a run is batched over its stack: rho_B of the states
        # and of their twins in the two channel extractions, and on the 25
        # oracle states rho_B and the aligned chord's Gram matrix in the
        # decomposition oracle. The tangle's factor is a pivoted Cholesky one,
        # and the projective oracle reads its frames from the validated
        # spectrum: rank-2 two-qubit states need no eigenvectors.
        shapes, eigh = [], np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        assert cli.run_validation(1000, 42)["pass"]
        assert len(shapes) == 4
        assert sorted(shapes) == sorted([(1000, 2, 2), (1000, 2, 2), (25, 2, 2), (25, 3, 3)])

    def test_a_run_makes_no_qr(self, monkeypatch):
        # The twins' U_A and U_B are 2x2 at dA = 2, and a 2x2 Haar unitary is
        # drawn in closed form, so no QR runs.
        shapes, qr = [], np.linalg.qr

        def counting_qr(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        assert cli.run_validation(1000, 42)["pass"]
        assert shapes == []

    def test_a_run_makes_no_svd_and_no_qubit_eigvalsh_of_a_stack(self, monkeypatch):
        # The tangle is |A|_F^2 - 2|det A| of the 2x2 spin-flip matrix A, and
        # rho_A's spectrum is the closed 2x2 one; only the projective oracle
        # still runs eigvalsh on its 25 rho_A.
        svd_shapes, qubit_shapes = [], []
        svd, eigvalsh = np.linalg.svd, np.linalg.eigvalsh

        def counting_svd(a, *args, **kwargs):
            svd_shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        def counting_eigvalsh(a, *args, **kwargs):
            if np.shape(a)[-2:] == (2, 2):
                qubit_shapes.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        assert cli.run_validation(1000, 42)["pass"]
        assert svd_shapes == [] and qubit_shapes == [(25, 2, 2)]

    def test_rank_one_marginal_trial_is_skipped_by_roundtrip(self, capsys, monkeypatch):
        seed, degenerate_trial = 4, 3

        def with_product_state(*args):
            return with_trial(random_trials(*args), degenerate_trial, make_horodecki(0.0).matrix)

        monkeypatch.setattr(cli, "random_trials", with_product_state)
        code, out, _ = run(capsys, "validate", "--trials", "30", "--seed", str(seed))
        assert code == 0
        checks = json.loads(out)["checks"]
        assert (checks["roundtrip"]["evaluated"], checks["roundtrip"]["skipped"]) == (29, 1)
        assert checks["decomposition_bound"]["skipped"] == 1
        assert checks["kw"]["evaluated"] == checks["local_unitary"]["evaluated"] == 30

    @pytest.mark.parametrize("small,rank_one", [(5e-11, True), (2e-10, False)])
    def test_roundtrip_rank_one_cut(self, capsys, monkeypatch, small, rank_one):
        # Trial 27, past the oracle trials, is sqrt(1-e)|00> + sqrt(e)|11>, whose
        # rho_B = diag(1-e, e) sits on one side of MARGINAL_RANK_TOL.
        seed, trial = 6, 27
        psi = np.array([math.sqrt(1 - small), 0, 0, math.sqrt(small)], dtype=complex)
        near = DensityMatrix((2, 2), np.outer(psi, psi.conj()))

        def with_near_pure_marginal(*args):
            return with_trial(random_trials(*args), trial, near.matrix)

        monkeypatch.setattr(cli, "random_trials", with_near_pure_marginal)
        code, out, _ = run(capsys, "validate", "--trials", "30", "--seed", str(seed))
        assert code == 0
        check = json.loads(out)["checks"]["roundtrip"]
        assert (check["evaluated"], check["skipped"]) == ((29, 1) if rank_one else (30, 0))
        residual = identity_residuals(near)[3]
        if rank_one:
            assert np.isnan(residual)
        else:
            assert residual <= 1e-9

    def test_roundtrip_fails_on_a_perturbed_image(self, capsys, monkeypatch):
        # The identity image R_0 of trial 41 moved by 1e-6: I2_cc reads only
        # the Pauli images, so every check but roundtrip still passes.
        seed, trial = 11, 41
        target = random_trials(seed, range(trial, trial + 1))[0].matrix[0]
        exact = channel._extract_images

        def perturbed(matrices, d_a):
            lam, vecs, pure, images = exact(matrices, d_a)
            hit = np.all(matrices == target, axis=(1, 2))
            images = np.copy(images)
            images[hit, 0, 0, 0] += 1e-6
            return lam, vecs, pure, images

        monkeypatch.setattr(channel, "_extract_images", perturbed)
        code, out, _ = run(capsys, "validate", "--trials", "300", "--seed", str(seed))
        assert code == 1
        checks = json.loads(out)["checks"]
        assert [name for name, c in checks.items() if not c["pass"]] == ["roundtrip"]
        check = checks["roundtrip"]
        assert check["max_residual"] > 1e-8
        assert check["worst_trial"] == trial
        assert (check["evaluated"], check["skipped"]) == (300, 0)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.one_of(st.floats(min_value=0.5, max_value=0.95),
                     st.floats(min_value=1.05, max_value=2.0)))
    def test_marginal_rank_tol_seam_through_the_shared_extraction(self, seed, multiple):
        # A local filter F on B of trial 1 sets rho_B's eigenvalues to
        # (multiple * MARGINAL_RANK_TOL, 1 - that) and keeps the state's rank.
        drawn = random_trials(seed, range(3))
        member = drawn[0].matrix[1]
        lam, vecs = np.linalg.eigh(partial_trace(member, (2, 2), "B"))
        eps = multiple * MARGINAL_RANK_TOL
        f = vecs @ np.diag(np.sqrt(np.array([eps, 1.0 - eps]) / lam)) @ vecs.conj().T
        local = np.kron(np.eye(2), f)
        stack, twins = with_trial(drawn, 1, local @ member @ local.conj().T)
        def no_oracle(rho, **kwargs):
            return np.full(len(rho), np.nan)

        with mock.patch.multiple(cli, random_trials=lambda *args: (stack, twins),
                                 projective_classical_correlation=no_oracle,
                                 decomposition_linear_cc=no_oracle):
            check = cli.run_validation(3, seed)["checks"]["roundtrip"]
        i2_cc = correlation_report(stack).I2_cc[1]
        residual = identity_residuals(stack)[3][1]
        if multiple < 1.0:
            assert i2_cc == 0.0 and np.isnan(residual)
            assert (check["evaluated"], check["skipped"]) == (2, 1)
        else:
            assert i2_cc > 0.0 and residual <= 1e-9
            assert (check["evaluated"], check["skipped"]) == (3, 0)
        assert check["pass"]

    def test_worst_trial_names_the_largest_of_distinct_residuals(self, capsys, monkeypatch):
        # Offset the decomposition oracle by a state-dependent amount so every
        # trial has a clearly different residual.
        exact = cli.decomposition_linear_cc
        monkeypatch.setattr(cli, "decomposition_linear_cc", lambda rho, **kw: (
            exact(rho, **kw) + 1e-3 * rho.matrix[:, 0, 0].real))
        seed = 5
        code, out, _ = run(capsys, "validate", "--trials", "30", "--seed", str(seed))
        assert code == 1
        check = json.loads(out)["checks"]["decomposition_bound"]
        offsets = 1e-3 * random_trials(seed, range(25))[0].matrix[:, 0, 0].real
        assert check["worst_trial"] == int(np.argmax(offsets))
        assert check["max_residual"] == pytest.approx(max(offsets), abs=1e-8)

    @pytest.mark.parametrize("trials", [cli._MAX_TRIALS, cli._MAX_TRIALS + 1, 10**13])
    def test_trial_count_bound(self, capsys, monkeypatch, trials):
        # The count is checked before any trial is drawn; the run itself is
        # replaced, so the test allocates nothing at any count.
        calls = []

        def no_run(count, seed, stage_seconds):
            calls.append(count)
            return {"trials": count, "seed": seed, "checks": {}, "pass": True}

        monkeypatch.setattr(cli, "run_validation", no_run)
        code, out, err = run(capsys, "validate", "--trials", str(trials))
        if trials > cli._MAX_TRIALS:
            assert (code, out, calls) == (2, "", [])
            assert err == f"error: --trials must be at most {cli._MAX_TRIALS}, got {trials}\n"
        else:
            assert (code, calls) == (0, [trials])

    def test_unreachable_tolerance_fails(self, capsys, monkeypatch):
        monkeypatch.setitem(cli._CHECK_TOLERANCES, "kw", 1e-17)
        code, out, _ = run(capsys, "validate", "--trials", "10", "--seed", "7")
        assert code == 1
        doc = json.loads(out)
        assert doc["pass"] is False
        assert doc["checks"]["kw"]["pass"] is False
        assert doc["checks"]["kw"]["tolerance"] == 1e-17

    @pytest.mark.parametrize("quantity, delta, failing", [
        ("I_cc", 1e-7, {"kw"}),
        ("I_cc", -1e-7, {"kw"}),
        ("I_cc", 1e-5, {"kw", "projective_attain"}),
        ("I_cc", -1e-5, {"kw", "projective_bound"}),
        ("tau", 1e-7, {"kw", "monogamy"}),
        ("tau", -1e-7, {"kw", "monogamy"}),
        ("tau", 1e-5, {"kw", "monogamy"}),
        ("tau", -1e-5, {"kw", "monogamy"}),
        ("I2_cc", 1e-7, {"kw", "monogamy"}),
        ("I2_cc", -1e-7, {"decomposition_bound", "kw", "monogamy"}),
        ("I2_cc", 1e-5, {"decomposition_attain", "kw", "monogamy", "projective_attain"}),
        ("I2_cc", -1e-5, {"decomposition_bound", "kw", "monogamy", "projective_bound"}),
    ])
    def test_a_shifted_closed_form_fails_its_checks(self, monkeypatch, quantity, delta, failing):
        # Shift one closed-form quantity by delta. I_cc moves alone, tau moves
        # only the residuals, and I2_cc moves I_cc through f as well. The
        # local-unitary twins go through the same shift, so that check holds.
        report_fields, tangle, linear_cc = (discord._report_fields, discord._purified_tangle,
                                            discord.linear_cc_batch)

        def shifted_fields(rho):
            values, extracted = report_fields(rho)
            values["I_cc"] += delta
            values["Q_discord"] -= delta
            return values, extracted

        def shifted_linear_cc(rho):
            i2_cc, extracted = linear_cc(rho)
            return i2_cc + delta, extracted

        monkeypatch.setattr(discord, *{
            "I_cc": ("_report_fields", shifted_fields),
            "tau": ("_purified_tangle", lambda rho: tangle(rho) + delta),
            "I2_cc": ("linear_cc_batch", shifted_linear_cc),
        }[quantity])
        checks = cli.run_validation(100, 0)["checks"]
        assert {name for name, check in checks.items() if not check["pass"]} == failing

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

    def test_tolerances_are_not_an_option(self, capsys):
        code, out, err = run(capsys, "validate", "--trials", "5", "--seed", "1",
                             "--tol", "kw=1e-6")
        assert (code, out) == (2, "")
        assert err.endswith("error: unrecognized arguments: --tol kw=1e-6\n")

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


@pytest.mark.parametrize("argv", [
    ["validate", "--trials", "3"],
    ["compute", "--family", "random_rank2"],
    ["state", "show", "--family", "random_rank2"],
])
def test_seed_past_the_philox_keys_is_named(capsys, argv):
    # A seed keys a 128-bit Philox stream: 2**128 - 1 is the last one.
    assert run(capsys, *argv, "--seed", str(2**128 - 1))[0] == 0
    code, out, err = run(capsys, *argv, "--seed", str(2**128))
    assert (code, out) == (2, "")
    assert err == f"error: seed={2**128} outside [0, 2**128)\n"


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


class TestParserReuse:
    """One parser serves every ``main`` call of a process; no call may see
    another's arguments, and each runs the ``cmd_*`` function current then."""

    @staticmethod
    def run_alone(capsys, monkeypatch, *argv):
        """``run`` on a parser built for this call only."""
        with monkeypatch.context() as patch:
            patch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
            return run(capsys, *argv)

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("error", [
        ["compute", "--family", "ghz"],
        ["compute", "--family", "horodecki", "--p"],
        ["compute", "--family", "horodecki", "--p", "0.2", "--bogus"],
        ["compute", "--family", "horodecki", "--p", "0.2", "--x", "0.9"],
        ["validate", "--trials", "3", "--seed", "-5"],
        ["state"],
        ["nope"],
    ])
    def test_usage_error_leaves_nothing_behind(self, capsys, monkeypatch, error):
        argv = ["compute", "--family", "horodecki", "--p", "0.37"]
        alone = self.run_alone(capsys, monkeypatch, *argv)
        assert run(capsys, *error)[0] == 2
        assert run(capsys, *argv) == alone
        assert alone[0] == 0 and alone[2] == ""

    def test_calls_in_sequence_match_calls_alone(self, capsys, monkeypatch):
        calls = [
            ["compute", "--family", "random_rank2", "--seed", "11", "--da", "3"],
            ["compute", "--family", "rho2", "--x", "0.3", "--theta", "1.0", "--eta", "2.0"],
            ["state", "show", "--family", "random_rank2", "--seed", "11"],
            ["state", "show", "--family", "example1"],
        ]
        alone = [self.run_alone(capsys, monkeypatch, *argv) for argv in calls]
        assert [run(capsys, *argv) for argv in calls] == alone
        assert [code for code, _, _ in alone] == [0, 0, 0, 2]
        assert json.loads(alone[2][1])["dims"] == [2, 2]
        assert alone[3][2] == "error: family example1 requires --x\n"

    def test_handlers_are_looked_up_when_they_run(self, capsys, monkeypatch):
        argv = ["compute", "--family", "horodecki", "--p", "0.5"]
        assert run(capsys, *argv)[0] == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_compute", lambda args: seen.append(args) or 7)
        assert run(capsys, *argv) == (7, "", "")
        assert [(args.family, args.p) for args in seen] == [("horodecki", 0.5)]


class TestUsage:
    def test_no_command_exit_2(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_family_exit_2(self, capsys):
        code, _, _ = run(capsys, "compute", "--family", "ghz")
        assert code == 2


def _readme_commands():
    """The argument lists of the ``qdiscord`` lines of README's "Command line" block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("qdiscord ")]


def test_readme_command_line_examples_run(capsys, tmp_path):
    # Every documented command exits 0, with its --out and state file in tmp_path.
    commands = _readme_commands()
    assert len(commands) == 9 and {argv[0] for argv in commands} == {
        "compute", "sweep", "validate", "state"}
    (tmp_path / "mystate.json").write_text(dump_state(make_horodecki(0.5)), encoding="utf-8")
    outs = []
    for argv in commands:
        argv = [str(tmp_path / "mystate.json") if arg == "mystate.json" else arg for arg in argv]
        if "--out" in argv:
            at = argv.index("--out") + 1
            argv[at] = str(tmp_path / argv[at])
            outs.append(Path(argv[at]))
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        assert out or argv[0] == "sweep", argv
    # The two reference figures: 201 and 101 rows under a header.
    assert [path.name for path in outs] == ["fig1.csv", "fig2.csv"]
    assert [path.read_text(encoding="utf-8").count("\n") for path in outs] == [202, 102]


def _readme_replay():
    """The ``local_unitary`` replay block and the decomposition one-liner of
    README's "Validation checks" section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n### Validation checks\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    one_liner = "decomposition_linear_cc(" + section.split("`decomposition_linear_cc(", 1)[1]
    return block, one_liner.split("`", 1)[0]


def test_readme_replay_recipe_reproduces_the_worst_cases(capsys):
    # The recipe, run as written with seed and worst_trial from stdout,
    # prints each worst case's digits.
    code, out, _ = run(capsys, "validate", "--trials", "60", "--seed", "42")
    assert code == 0
    doc = json.loads(out)
    block, one_liner = _readme_replay()
    for name in ("local_unitary", "decomposition_bound", "decomposition_attain"):
        check = doc["checks"][name]
        scope = {"seed": doc["seed"], "worst_trial": check["worst_trial"]}
        exec(block, scope)
        decomposition = eval(one_liner, {"decomposition_linear_cc": decomposition_linear_cc},
                             scope)
        i2_cc = channel.linear_classical_correlation(scope["rho"])
        replayed = {"local_unitary": scope["residual"],
                    "decomposition_bound": decomposition - i2_cc,
                    "decomposition_attain": i2_cc - decomposition}[name]
        assert cli._fmt_json(replayed) == cli._fmt_json(check["max_residual"]), name


def _readme_family_table():
    """{family: (flags, sweep --param or None)} from README's family table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n### ", 1)[0]
    rows = [line.split("|")[1:4] for line in section.splitlines()
            if line.startswith("| `") and not line.startswith("| `--family`")]
    return {name.strip(" `"): (tuple(re.findall(r"--(\w+)", flags)),
                               None if param.strip() == "none" else param.strip(" `"))
            for name, flags, param in rows}


def _offered(*command):
    """(--family choices or None, every option but --help) of a subcommand of the parser."""
    parser = cli.build_parser()
    for name in command:
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[name]
    options = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
    family = [a.choices for a in parser._actions if "--family" in a.option_strings]
    return (list(family[0]) if family else None), options


def test_readme_family_table_is_the_cli_table_and_the_parser():
    table = _readme_family_table()
    assert table == {name: (family.flags, family.sweep) for name, family in cli._FAMILIES.items()}
    every_flag = {f"--{flag}" for flags, _ in table.values() for flag in flags}
    sweepable = [name for name, (_, param) in table.items() if param is not None]
    swept_flags = {f"--{flag}" for name in sweepable for flag in table[name][0]}
    assert len(every_flag) == 7 and sweepable == ["horodecki", "example1", "rho2"]
    assert _offered("compute") == (list(table), {"--state", "--family", *every_flag})
    assert _offered("state", "show") == (list(table), {"--family", *every_flag})
    assert _offered("sweep") == (sweepable, {"--family", *swept_flags, "--param", "--from",
                                             "--to", "--steps", "--out"})
    assert _offered("validate") == (None, {"--trials", "--seed"})
