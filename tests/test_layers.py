"""The package's module graph is acyclic: every import points down the layers."""

import ast
from pathlib import Path

import mapcert

LAYERS = ["linalg", "maps", "zeros", "certify", "experiments", "documents", "cli"]
PACKAGE = Path(mapcert.__file__).parent


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
