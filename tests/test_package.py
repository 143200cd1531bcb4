"""The package loads its layers lazily: a command pays only for what it uses."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mcmkit

SRC = str(Path(mcmkit.__file__).resolve().parent.parent)


def _run(args, cwd):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable] + args, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120, check=True)


def _imported(stderr: str):
    """mcmkit modules named in ``-X importtime`` output."""
    names = (line.rsplit("|", 1)[-1].strip() for line in stderr.splitlines()
             if line.startswith("import time:"))
    return {n for n in names if n.split(".")[0] == "mcmkit"}


def test_import_loads_only_errors(tmp_path):
    code = "import sys, mcmkit; print(sorted(m for m in sys.modules if m.startswith('mcmkit')))"
    out = _run(["-c", code], tmp_path).stdout
    assert out.strip() == "['mcmkit', 'mcmkit.errors']"


def test_mf_validate_skips_unused_layers(tmp_path):
    mf = tmp_path / "mf.json"
    mf.write_text(json.dumps({"ring": {"char": 7, "vars": ["x", "y"], "weights": [3, 2]},
                              "f": "x^2+y^3", "phi": [["x", "y"], ["y^2", "-x"]],
                              "psi": [["x", "y"], ["y^2", "-x"]]}))
    proc = _run(["-X", "importtime", "-m", "mcmkit.cli", "mf-validate", "--mf", str(mf)],
                tmp_path)
    assert json.loads(proc.stdout)["valid"] is True
    loaded = _imported(proc.stderr)
    assert {"mcmkit.linalg", "mcmkit.rings", "mcmkit.modules", "mcmkit.mf"} <= loaded
    assert not loaded & {"mcmkit.quiver", "mcmkit.homs", "mcmkit.functors", "mcmkit.cisupport"}


def test_attribute_access_loads_the_layer():
    assert mcmkit.resolution.resolve is mcmkit.resolve
    assert "resolution" in dir(mcmkit)


def test_star_import_binds_all_names():
    namespace = {}
    exec("from mcmkit import *", namespace)
    missing = [name for name in mcmkit.__all__ if name not in namespace]
    assert not missing
    assert namespace["resolve"] is mcmkit.resolution.resolve
    assert namespace["GF"] is mcmkit.linalg.GF


@pytest.mark.parametrize("name", sorted(mcmkit._EXPORTS))
def test_every_name_a_module_lists_in_all_is_live(name):
    module = importlib.import_module(f"mcmkit.{name}")
    exec(f"from mcmkit.{name} import *", {})  # raises on a name __all__ lists but the module lacks
    if "__all__" in vars(module):  # the package exports only what the module lists
        assert set(mcmkit._EXPORTS[name]) <= set(module.__all__)
