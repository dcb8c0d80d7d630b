"""The package must run on the oldest numpy that ``pyproject.toml`` allows.

``pyproject.toml`` allows ``numpy>=1.24``, and the tests run on a numpy 2
release, so a name that numpy 2.0 added would pass them and break on 1.x.
The source of ``src/jumpcompare`` is scanned for those names instead.
"""

import ast
import pathlib
from typing import List

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "jumpcompare"

# added in numpy 2.0 wherever they appear: as an attribute (``x.mT``,
# ``np.linalg.vecdot``) or imported by name
NEW_ANYWHERE = {"mT", "vecdot", "matrix_transpose", "permute_dims", "isdtype", "unstack"}
# added in 2.0 as module functions; arrays had the method ``astype`` before
NEW_IN_NUMPY = {"concat", "astype"}
NUMPY = {"np", "numpy"}


def numpy2_names(source: str) -> List[str]:
    """What ``source`` uses of numpy 2.0's new names, one entry each."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            if node.attr in NEW_ANYWHERE:
                found.append(f".{node.attr}")
            elif (node.attr in NEW_IN_NUMPY and isinstance(node.value, ast.Name)
                  and node.value.id in NUMPY):
                found.append(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            found += [a.name for a in node.names if a.name in NEW_ANYWHERE | NEW_IN_NUMPY]
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "asarray" and any(k.arg == "copy" for k in node.keywords):
                found.append("asarray(copy=)")
    return found


@pytest.mark.parametrize("source, want", [
    ("y = x.mT", [".mT"]),
    ("y = np.vecdot(a, b)", [".vecdot"]),
    ("y = np.linalg.matrix_transpose(a)", [".matrix_transpose"]),
    ("y = np.concat([a, b])", ["np.concat"]),
    ("y = np.permute_dims(a, (1, 0))", [".permute_dims"]),
    ("y = np.astype(a, float)", ["np.astype"]),
    ("ok = np.isdtype(a.dtype, 'real floating')", [".isdtype"]),
    ("parts = np.unstack(a)", [".unstack"]),
    ("y = np.asarray(a, dtype=float, copy=False)", ["asarray(copy=)"]),
    ("from numpy import concat, vecdot", ["concat", "vecdot"]),
    ("y = a.astype(float); z = np.concatenate([a]); w = np.asarray(a, dtype=float)", []),
])
def test_the_scan_finds_each_name(source, want):
    assert numpy2_names(source) == want


def test_the_package_uses_no_numpy2_only_name():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = {f.name: numpy2_names(f.read_text(encoding="utf-8")) for f in files}
    assert {name: hits for name, hits in found.items() if hits} == {}
