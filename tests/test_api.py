import ast
from pathlib import Path

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
