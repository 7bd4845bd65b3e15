"""Package-level tests: public API surface, version, and metadata."""

from __future__ import annotations

import importlib
import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parents[1] / "src"

#: Exports whose value has no ``__module__`` to name their defining module.
DEFINED_IN = {"__version__": "repro.version", "ALGORITHMS": "repro.core.registry"}


class TestPublicApi:
    def test_version_is_exposed(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing name {name!r}"

    @pytest.mark.parametrize(
        "module",
        [
            "repro.tensor",
            "repro.stream",
            "repro.als",
            "repro.core",
            "repro.baselines",
            "repro.data",
            "repro.metrics",
            "repro.anomaly",
            "repro.experiments",
            "repro.analysis",
            "repro.cli",
        ],
    )
    def test_subpackages_import_cleanly(self, module):
        imported = importlib.import_module(module)
        assert imported.__doc__, f"{module} is missing a module docstring"

    def test_algorithm_and_baseline_registries_are_disjoint(self):
        from repro.baselines import available_baselines
        from repro.core import available_algorithms

        assert not set(available_algorithms()) & set(available_baselines())

    def test_exceptions_share_base_class(self):
        from repro import exceptions

        for name in dir(exceptions):
            obj = getattr(exceptions, name)
            if isinstance(obj, type) and issubclass(obj, Exception) and name != "ReproError":
                if obj.__module__ == "repro.exceptions":
                    assert issubclass(obj, exceptions.ReproError)

    @pytest.mark.parametrize(
        "module, name, parameter",
        [
            # The experiments derive the engine from the update rule.
            ("repro.experiments.config", "ExperimentSettings", "batched"),
            ("repro.experiments.runner", "run_method", "batched"),
            ("repro.experiments.parallel", "method_task", "batched"),
            # ALS always starts from uniform random factors.
            ("repro.als.als", "ALSConfig", "init"),
            ("repro.als.als", "decompose", "init"),
            ("repro.als.initialization", "initialize_factors", "strategy"),
        ],
    )
    def test_options_with_one_value_in_use_are_constants(
        self, module, name, parameter
    ):
        target = getattr(importlib.import_module(module), name)
        assert parameter not in inspect.signature(target).parameters


class TestLazyExports:
    """``repro`` and ``repro.service`` import their exports on first access."""

    def test_light_imports_load_no_numpy(self):
        code = textwrap.dedent(
            """
            import contextlib
            import io
            import sys

            import repro
            print("numpy" in sys.modules)
            import repro.service
            print("numpy" in sys.modules)
            import repro.cli
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    repro.cli.run(["lint", "--list-rules"])
                except SystemExit as stop:
                    status = stop.code
            print(status, "numpy" in sys.modules)
            """
        )
        completed = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.splitlines() == ["False", "False", "0 False"]

    @pytest.mark.parametrize("package", ["repro", "repro.service"])
    def test_exports_are_their_defining_modules_objects(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            value = getattr(module, name)
            home = DEFINED_IN.get(name) or value.__module__
            assert getattr(importlib.import_module(home), name) is value, name
            assert getattr(module, name) is value, name

    @pytest.mark.parametrize("package", ["repro", "repro.service"])
    def test_dir_lists_every_export(self, package):
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(dir(module))

    @pytest.mark.parametrize("package", ["repro", "repro.service"])
    def test_an_unknown_name_raises_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_export"):
            module.no_such_export
        assert not hasattr(module, "no_such_export")
