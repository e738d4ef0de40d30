"""The package's module graph is acyclic: every import points down the layers.

Each layer lists its public names in ``__all__``, which is also what the
benchmark's tracer wraps, so those lists are checked against the modules and
against the per-layer metrics of ``perfbench/spans.py``.  One rank cut,
``linalg._kept``, is all that reads the rank threshold, beside the gates
named in ``test_only_the_rank_cut_and_two_gates_read_the_rank_threshold``.
"""

import ast
import importlib
from pathlib import Path

import mapcert

LAYERS = ["linalg", "maps", "zeros", "certify", "experiments", "documents", "cli"]
PACKAGE = Path(mapcert.__file__).parent
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def relative_imports(path):
    """(module, names) of every ``from .X import`` in the file, function bodies included."""
    tree = ast.parse(path.read_text())
    return [
        (node.module, [alias.name for alias in node.names])
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
    ]


def test_every_import_points_down_the_layers():
    upward = []
    for layer in LAYERS + ["errors"]:
        for module, names in relative_imports(PACKAGE / f"{layer}.py"):
            if module is None and names == ["__version__"]:
                continue
            if module == "errors" and layer != "errors":
                continue  # errors is a leaf every layer may use
            if layer in LAYERS and module in LAYERS and LAYERS.index(module) < LAYERS.index(layer):
                continue
            upward.append((layer, module, names))
    assert upward == []


def test_layer_list_covers_the_package():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS) | {"errors"}


def top_level_names(path):
    """Names that a module's own top-level statements define."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_package_root_defines_only_the_version():
    # a docstring and one assignment: the root re-exports nothing
    body = ast.parse((PACKAGE / "__init__.py").read_text()).body
    assert [type(node).__name__ for node in body] == ["Expr", "Assign"]
    assert top_level_names(PACKAGE / "__init__.py") == {"__version__"}


def test_every_public_name_is_defined_in_its_layer():
    foreign = []
    for layer in LAYERS + ["errors"]:
        defined = top_level_names(PACKAGE / f"{layer}.py")
        module = importlib.import_module(f"mapcert.{layer}")
        foreign += [(layer, name) for name in module.__all__ if name not in defined]
    assert foreign == []


def metric_functions():
    """(layer, function) of every function a per-layer metric of spans.py reads.

    A METRICS key ``<layer>.<function>.<measure>`` names one function.  A key
    that is a group of ``_GROUPS`` names the ``<layer>.<function>`` strings in
    its member test instead; a ``<layer>.`` prefix there names no function.
    """
    tables = {}
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
            tables[node.targets[0].id] = node.value
    groups = {
        key.value: [c.value for c in ast.walk(member) if isinstance(c, ast.Constant) and isinstance(c.value, str)]
        for key, member in zip(tables["_GROUPS"].keys, tables["_GROUPS"].values)
    }
    functions = set()
    for key in ast.literal_eval(tables["METRICS"]):
        for name in groups.get(key, [key.rsplit(".", 1)[0]]):
            layer, _, rest = name.partition(".")
            function = rest.split(".")[0]
            if layer in LAYERS and function:
                functions.add((layer, function))
    return functions


def test_every_function_a_benchmark_metric_reads_is_public():
    functions = metric_functions()
    assert {("zeros", "weak_span_dim"), ("zeros", "strong_span_dim"), ("cli", "main")} <= functions
    missing = [
        (layer, name) for layer, name in sorted(functions)
        if name not in importlib.import_module(f"mapcert.{layer}").__all__
    ]
    assert missing == []


def rank_threshold_readers():
    """(layer, qualified function) of every read of ``.rank_rel_tol``; a module-level read has the name ''."""
    readers = set()

    def visit(node, layer, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, layer, scope + [child.name])
                continue
            if isinstance(child, ast.Attribute) and child.attr == "rank_rel_tol" and isinstance(child.ctx, ast.Load):
                readers.add((layer, ".".join(scope)))
            visit(child, layer, scope)

    for layer in LAYERS + ["errors"]:
        visit(ast.parse((PACKAGE / f"{layer}.py").read_text()), layer, [])
    return readers


def test_only_the_rank_cut_and_two_gates_read_the_rank_threshold():
    # the rank cut (_kept), the free-row rule, the Gram gate of irreducibility and the config's own checks
    assert rank_threshold_readers() == {
        ("linalg", "ToleranceConfig.__post_init__"),
        ("linalg", "ToleranceConfig.scaled"),
        ("linalg", "_kept"),
        ("linalg", "_free_rows"),
        ("certify", "_irreducible_on_image"),
    }
