"""Public API hygiene: exports exist, are importable, and documented."""

import ast
import importlib
import inspect
import pathlib
import re
import sys

import pytest

import repro

SUBPACKAGES = [
    "repro.core",
    "repro.samplers",
    "repro.baselines",
    "repro.workloads",
    "repro.asymptotics",
    "repro.experiments",
]


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            if name == "__version__":
                continue
            assert hasattr(repro, name), f"missing export {name}"

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_subpackages_import(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"

    def test_subpackage_alls_resolve(self):
        for module_name in SUBPACKAGES:
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), f"{module_name}.{name} missing"


class TestDocumentation:
    def test_public_classes_documented(self):
        undocumented = []
        for name in repro.__all__:
            obj = getattr(repro, name, None)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ or "").strip():
                    undocumented.append(name)
        assert not undocumented, f"undocumented exports: {undocumented}"

    def test_public_methods_documented(self):
        """Every public method on exported classes carries a docstring
        (possibly inherited from the base class that defines its contract)."""
        missing = []
        for name in repro.__all__:
            obj = getattr(repro, name, None)
            if not inspect.isclass(obj):
                continue
            for attr_name, attr in vars(obj).items():
                if attr_name.startswith("_") or not callable(attr):
                    continue
                resolved = getattr(obj, attr_name, attr)
                if not (inspect.getdoc(resolved) or "").strip():
                    missing.append(f"{name}.{attr_name}")
        assert not missing, f"undocumented methods: {missing}"

    def test_experiment_modules_have_run_and_main(self):
        from repro import experiments

        for name in experiments.__all__:
            module = getattr(experiments, name)
            assert callable(getattr(module, "run", None)), name
            assert callable(getattr(module, "main", None)), name


class TestPackaging:
    def test_every_third_party_import_is_a_declared_dependency(self):
        """Each non-stdlib top-level module imported under ``src/repro``
        is named in ``[project] dependencies``, so an install from the
        package metadata alone can import every module.  The TOML is read
        as text: ``tomllib`` needs Python 3.11 and CI also runs 3.10."""
        root = pathlib.Path(__file__).resolve().parents[1]
        text = (root / "pyproject.toml").read_text()
        block = re.search(
            r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S
        ).group(1)
        declared = {
            re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower()
            for spec in re.findall(r'"([^"]+)"', block)
        }
        imported = set()
        for path in (root / "src" / "repro").rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                imported.update(name.split(".")[0] for name in names)
        third_party = {
            name for name in imported
            if name not in sys.stdlib_module_names and name != "repro"
        }
        assert "numpy" in third_party
        assert third_party <= declared, sorted(third_party - declared)
