import ast
import importlib
import re
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


def test_readme_names_resolve():
    # Each code name README gives exists: a backticked module.name in that
    # module, a backticked _private name in some module, and each row of the
    # Tolerances table in the module it names as owner.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    modules = {path.stem: importlib.import_module(f"qdiscord.{path.stem}")
               for path in SOURCES if path.stem != "__init__"}
    qualified = re.findall(r"`(%s)\.(\w+)" % "|".join(modules), readme)
    private = set(re.findall(r"`(_\w+)`", readme))
    owned = re.findall(r"^\| `(\w+)` \| [^|]* \| `(\w+)` \|", readme, flags=re.M)
    assert len(qualified) >= 9 and len(private) >= 10 and len(owned) >= 11
    assert [f"{m}.{n}" for m, n in qualified if not hasattr(modules[m], n)] == []
    assert sorted(n for n in private if not any(hasattr(m, n) for m in modules.values())) == []
    assert [f"{m}.{n}" for n, m in owned if not hasattr(modules[m], n)] == []


def test_no_module_imports_a_private_name_from_measures():
    # The spin flip lives in linalg, and what other modules read of measures
    # is public there.
    imported = [alias.name for path in SOURCES for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom) and node.module == "measures"
                for alias in node.names]
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


def test_only_states_reads_the_b_side():
    # The one dims rule, B is a qubit, lives in states._stack_of, so no other
    # module reads .dim_b.
    readers = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "dim_b":
                readers.add(path.name)
    assert readers == {"states.py"}


_DIMS_RULE = r"^dims must be \(dA, 2\), side B a qubit, got dims "
# The six functions that take exactly one DensityMatrix, each as a call giving
# one number per state, ``seed`` being the decomposition oracle's (one int for
# one state, one per member for a stack).
STATE_FUNCTIONS = {
    "linear_classical_correlation": lambda rho, seed: qdiscord.linear_classical_correlation(rho),
    "correlation_report": lambda rho, seed: qdiscord.correlation_report(rho).Q_discord,
    "discord_rank2": lambda rho, seed: qdiscord.discord_rank2(rho).I_cc,
    "identity_residuals": lambda rho, seed: qdiscord.identity_residuals(rho)[1],
    "projective_classical_correlation":
        lambda rho, seed: qdiscord.projective_classical_correlation(rho),
    "decomposition_linear_cc":
        lambda rho, seed: qdiscord.decomposition_linear_cc(rho, trials=8, seed=seed),
}
# The two that give I_cc-derived values only for two-qubit states, and raise elsewhere.
_TWO_QUBIT_STRICT = {"discord_rank2", "identity_residuals"}


def _maximally_mixed(dims):
    n = dims[0] * dims[1]
    return qdiscord.DensityMatrix(dims, np.eye(n) / n)


@pytest.mark.parametrize("name", STATE_FUNCTIONS)
@pytest.mark.parametrize("given", ["raw ndarray", "list of one state"])
def test_state_functions_take_only_a_density_matrix(name, given):
    call = STATE_FUNCTIONS[name]
    rho = qdiscord.make_random_rank2(3)
    rho = rho.matrix if given == "raw ndarray" else [rho]
    with pytest.raises(TypeError, match="expected a DensityMatrix, got (ndarray|list)$"):
        call(rho, 0)


@pytest.mark.parametrize("name", STATE_FUNCTIONS)
@pytest.mark.parametrize("dims", [(2, 1), (2, 3)], ids=str)
def test_state_functions_reject_a_b_side_other_than_a_qubit(name, dims):
    call = STATE_FUNCTIONS[name]
    one = _maximally_mixed(dims)
    for rho, seed in ((one, 0), (one[[0, 0]], [0, 1])):
        with pytest.raises(qdiscord.DimensionMismatch, match=_DIMS_RULE + re.escape(str(dims))):
            call(rho, seed)


@pytest.mark.parametrize("name", STATE_FUNCTIONS)
@pytest.mark.parametrize("dims", [(1, 2), (5, 2)], ids=str)
def test_a_sides_outside_the_closed_forms(name, dims):
    # Every function takes any dA. I_cc and Q_discord stay two-qubit: the
    # report leaves them unset, and the two strict functions raise.
    call = STATE_FUNCTIONS[name]
    rho = _maximally_mixed(dims)
    if name in _TWO_QUBIT_STRICT:
        with pytest.raises(qdiscord.DimensionMismatch, match="need a 2x2 pair, got dims"):
            call(rho, 0)
    elif name == "correlation_report":
        assert call(rho, 0) is None
        assert "2x2" in qdiscord.correlation_report(rho).reason
    else:
        assert call(rho, 0) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("name", STATE_FUNCTIONS)
@pytest.mark.parametrize("index", [slice(3, 3), [], np.zeros(4, bool)], ids=["slice", "list", "mask"])
def test_an_empty_selection_is_refused_where_it_is_made(name, index):
    # The constructor's error, raised by the indexing itself, so no function
    # ever sees an empty stack.
    stack = qdiscord.random_trials(0, range(4))[0]
    with pytest.raises(qdiscord.DimensionMismatch, match="^a stack of states must not be empty$"):
        STATE_FUNCTIONS[name](stack[index], [])


@pytest.mark.parametrize("index", [(0, 1), (slice(None), 0), np.ones((4, 4), bool)],
                         ids=["member row", "row of every member", "2-d mask"])
def test_an_index_below_the_members_is_an_index_error(index):
    # Each would give an array of rows, (4, 4) like one state but no state.
    stack = qdiscord.random_trials(0, range(4))[0]
    with pytest.raises(IndexError, match="does not select states"):
        stack[index]


@pytest.mark.parametrize("name", STATE_FUNCTIONS)
def test_one_state_gives_the_float_of_its_stack_of_one(name):
    call = STATE_FUNCTIONS[name]
    rho = qdiscord.make_random_rank2(3)
    value, stacked = call(rho, 5), call(rho[:], [5])
    assert type(value) is float
    assert isinstance(stacked, np.ndarray) and stacked.shape == (1,)
    assert value == stacked[0]
