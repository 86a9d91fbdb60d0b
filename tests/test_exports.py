import ast
import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import varinterp

MODULES = ["varinterp"] + [f"varinterp.{info.name}"
                           for info in pkgutil.iter_modules(varinterp.__path__)]

PACKAGE_DIR = varinterp.__path__[0]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def test_no_function_body_imports():
    # every import is a top-level statement of its module, so the import
    # graph is the one the module headers show
    found = []
    for filename in sorted(os.listdir(PACKAGE_DIR)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE_DIR, filename)) as fh:
            tree = ast.parse(fh.read(), filename)
        found += [f"{filename}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and node not in tree.body]
    assert found == []


def test_python_m_varinterp_runs_without_warnings():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE_DIR))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "varinterp",
         "check", "k-oracle", "--trials", "3"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert '"pass": true' in proc.stdout


def test_each_exported_object_has_one_name():
    names = {}
    for name in MODULES:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", []):
            names.setdefault(id(getattr(module, attr)), set()).add(attr)
    assert [sorted(group) for group in names.values() if len(group) > 1] == []
