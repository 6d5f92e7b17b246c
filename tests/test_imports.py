"""Every name a package module imports is used (`__init__` re-exports its
imports on purpose and is left out)."""

import ast
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "indexcode"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by an import statement anywhere in `source` and never
    read as a name (an attribute access reads its base name)."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - read)


def test_scan_flags_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from dataclasses import dataclass, field as dfield\n"
              "def f():\n"
              "    from math import comb\n"
              "    return os.path.sep, np.zeros(comb(3, 2))\n")
    assert unused_imports(source) == ["dataclass", "dfield"]


def test_modules_found():
    assert {"sim.py", "decoding.py", "fields.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_package_import_loads_no_process_pool():
    # only trial_campaign(..., workers > 1) needs a process pool, and
    # concurrent.futures brings multiprocessing and logging with it
    code = ("import sys, indexcode, indexcode.cli; print(sorted(m for m in "
            "('concurrent.futures', 'multiprocessing', 'logging') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         cwd=SRC.parent).stdout
    assert out.split() == ["[]"]
