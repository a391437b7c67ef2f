import ast
from pathlib import Path

import numpy as np
import pytest

import qdiscord

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "qdiscord").glob("*.py"))

PUBLIC_NAMES = {
    # submodules
    "channel", "discord", "errors", "linalg", "measures", "oracles", "states",
    # states
    "DensityMatrix", "dump_state", "load_state", "make_bell_diagonal", "make_example1",
    "make_horodecki", "make_random_rank2", "make_rho2", "random_trials",
    # linalg and measures
    "partial_trace", "binary_entropy", "eof_two_qubit", "f_map", "linear_entropy",
    "tangle_two_qubit", "von_neumann_entropy", "wootters_concurrence",
    # closed forms
    "linear_classical_correlation", "CorrelationReport", "correlation_report", "discord_rank2",
    "discord_rho2_closed_form", "identity_residuals",
    # oracles
    "decomposition_linear_cc", "projective_classical_correlation",
    # errors
    "ConsistencyError", "DegenerateDenominator", "DegenerateMarginal", "DimensionMismatch",
    "NotFinite", "NotHermitian", "NotPositive", "OutOfDomain", "QDiscordError", "RankTooHigh",
    "StateFormatError",
}


def test_public_api_is_pinned():
    # A name added to or removed from the package surface must be added to or
    # removed from this set too, so every change to the API is deliberate.
    assert set(qdiscord.__all__) == PUBLIC_NAMES
    assert len(qdiscord.__all__) == len(PUBLIC_NAMES)


def test_every_top_level_definition_has_a_caller():
    # A top-level function or class in src/ is public or used in src/: named by
    # an identifier, an attribute, an import or a string (the CLI dispatches its
    # handlers by name). One that only tests call belongs in the tests.
    defined, named = set(), set()
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        defined.update(node.name for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
    assert SOURCES
    assert defined - set(qdiscord.__all__) - named == set()


def test_only_states_sets_attributes_on_frozen_objects():
    # DensityMatrix is frozen: only its own module sets its validated fields,
    # so nothing else can attach state to it.
    setters = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                    and isinstance(node.value, ast.Name) and node.value.id == "object"):
                setters.add(path.name)
    assert setters == {"states.py"}


def test_cli_imports_no_private_name():
    # The command line reaches the library through its public names only.
    tree = ast.parse(next(path for path in SOURCES if path.name == "cli.py").read_text())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    assert imported and [name for name in imported if name.startswith("_")] == []


def test_only_states_tells_one_state_from_a_stack():
    # Every function that takes a DensityMatrix enters through states._stack_of
    # and leaves through states._unstack, so no other module reads .matrix.ndim.
    readers = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "ndim"
                    and isinstance(node.value, ast.Attribute) and node.value.attr == "matrix"):
                readers.add(path.name)
    assert readers == {"states.py"}


_CLOSED_FORM_RULE = r"\(dA, 2\) with dA in \{2, 3, 4\}"
_ORACLE_RULE = "measurement side B must be a qubit"
# The six functions that take exactly one DensityMatrix: each as a call giving
# one number per state, ``seed`` being the decomposition oracle's (one int for
# one state, one per member for a stack), and the message of its family's
# shape rule.
STATE_FUNCTIONS = {
    "linear_classical_correlation": (
        lambda rho, seed: qdiscord.linear_classical_correlation(rho), _CLOSED_FORM_RULE),
    "correlation_report": (
        lambda rho, seed: qdiscord.correlation_report(rho).Q_discord, _CLOSED_FORM_RULE),
    "discord_rank2": (lambda rho, seed: qdiscord.discord_rank2(rho).I_cc, _CLOSED_FORM_RULE),
    "identity_residuals": (
        lambda rho, seed: qdiscord.identity_residuals(rho)[1], _CLOSED_FORM_RULE),
    "projective_classical_correlation": (
        lambda rho, seed: qdiscord.projective_classical_correlation(rho), _ORACLE_RULE),
    "decomposition_linear_cc": (
        lambda rho, seed: qdiscord.decomposition_linear_cc(rho, trials=8, seed=seed),
        _ORACLE_RULE),
}


def _maximally_mixed(dims):
    n = dims[0] * dims[1]
    return qdiscord.DensityMatrix(dims, np.eye(n) / n)


@pytest.mark.parametrize("name", STATE_FUNCTIONS)
@pytest.mark.parametrize("given", ["raw ndarray", "list of one state"])
def test_state_functions_take_only_a_density_matrix(name, given):
    call, _ = STATE_FUNCTIONS[name]
    rho = qdiscord.make_random_rank2(3)
    rho = rho.matrix if given == "raw ndarray" else [rho]
    with pytest.raises(TypeError, match="expected a DensityMatrix, got (ndarray|list)$"):
        call(rho, 0)


@pytest.mark.parametrize("name", STATE_FUNCTIONS)
@pytest.mark.parametrize("dims", [(2, 1), (2, 3)], ids=str)
def test_state_functions_reject_a_b_side_other_than_a_qubit(name, dims):
    call, rule = STATE_FUNCTIONS[name]
    one = _maximally_mixed(dims)
    for rho, seed in ((one, 0), (one[[0, 0]], [0, 1])):
        with pytest.raises(qdiscord.DimensionMismatch, match=rule):
            call(rho, seed)


@pytest.mark.parametrize("name", STATE_FUNCTIONS)
@pytest.mark.parametrize("dims", [(1, 2), (5, 2)], ids=str)
def test_a_sides_outside_the_closed_forms(name, dims):
    # The closed forms take dA in {2, 3, 4}; the oracles measure B and take any dA.
    call, rule = STATE_FUNCTIONS[name]
    rho = _maximally_mixed(dims)
    if rule == _CLOSED_FORM_RULE:
        with pytest.raises(qdiscord.DimensionMismatch, match=rule):
            call(rho, 0)
    else:
        assert call(rho, 0) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("name", STATE_FUNCTIONS)
def test_one_state_gives_the_float_of_its_stack_of_one(name):
    call, _ = STATE_FUNCTIONS[name]
    rho = qdiscord.make_random_rank2(3)
    value, stacked = call(rho, 5), call(rho[:], [5])
    assert type(value) is float
    assert isinstance(stacked, np.ndarray) and stacked.shape == (1,)
    assert value == stacked[0]
