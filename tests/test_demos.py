"""The demos are too slow for the unit suite, so this only checks that
every name they, and README's python blocks, import from firl still
exists."""

import ast
import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                           re.M | re.S)


def _firl_imports(source, filename):
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "firl":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "firl":
                    yield alias.name, None


def _check_imports(source, label):
    imports = list(_firl_imports(source, label))
    assert imports, "%s imports nothing from firl" % label
    for module, name in imports:
        mod = importlib.import_module(module)
        if name is not None:
            assert hasattr(mod, name), "%s: %s has no %s" % (label, module, name)


def test_there_are_demos():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    _check_imports(demo.read_text(), demo.name)


def test_there_are_readme_python_blocks():
    assert README_BLOCKS


@pytest.mark.parametrize("index", range(len(README_BLOCKS)))
def test_readme_python_block_imports_resolve(index):
    _check_imports(README_BLOCKS[index], "README.md python block %d" % index)
