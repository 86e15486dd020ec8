"""The package's import graph: numpy-free start for the discrete commands, stable names."""

import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import permflow
import permflow.cli

SRC = str(Path(permflow.__file__).resolve().parent.parent)
MODULES = ("perms", "core", "flow", "projection", "dtree", "slicing")
#: Each command, and every layer function it calls through a `cli` binding.
BINDINGS_CALLED = {
    "flow events --n 5": ("vertex_of", "crossing_events", "estimate_sorting"),
    "flow trace --n 4 --t-end 1": ("vertex_of", "sample_trace"),
    "flow trace --projected --n 4 --t-end 1": ("vertex_of", "integrate_projected"),
    "report": ("vertex_of", "crossing_events", "estimate_sorting", "info_lower_bound"),
    "dtree --n 3": ("info_lower_bound", "build_optimal"),
    "slice --n 4 --constraints 1<2": ("parse_constraints", "feasible_count", "isolates_sorted"),
    "slice --n 3 --instrument merge --input 3,1,2": ("instrument", "isolates_sorted"),
}


def run_fresh(body: str) -> subprocess.CompletedProcess:
    """Run ``body`` in a new interpreter that imports permflow from this tree."""
    code = f"import sys; sys.path.insert(0, {SRC!r})\n{body}"
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )


class TestNumpyFreeStart:
    def test_slice_and_dtree_load_no_numpy(self):
        done = run_fresh(
            "import contextlib, io\n"
            "import permflow\n"
            "import permflow.cli\n"
            "assert 'numpy' not in sys.modules, 'import permflow loaded numpy'\n"
            "argvs = [\n"
            "    ['slice', '--n', '6', '--constraints', '1<2,3<4'],\n"
            "    ['slice', '--n', '5', '--instrument', 'quick', '--input', '3,1,5,2,4'],\n"
            "    ['dtree', '--n', '4'],\n"
            "]\n"
            "for argv in argvs:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert permflow.cli.main(argv) == 0, argv\n"
            "print('numpy' in sys.modules)\n"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"

    def test_flow_events_loads_numpy(self):
        # the check above is not vacuous: a numpy command does show up
        done = run_fresh(
            "import contextlib, io\n"
            "import permflow.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert permflow.cli.main(['flow', 'events', '--n', '5']) == 0\n"
            "print('numpy' in sys.modules)\n"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "True\n"


class TestLayersLoadWithTheirCommands:
    """Each command loads the layers it uses: `dtree`, `slicing` and `csv` only with theirs.

    No discrete command loads `dataclasses` or `inspect`: their layers
    define their records without them.
    """

    LOADED = (
        "print(sorted(m for m in sys.modules if m.startswith('permflow.')"
        " or m in ('csv', 'numpy', 'dataclasses', 'inspect')))\n"
    )

    def loaded_after(self, body: str) -> list:
        done = run_fresh(body + self.LOADED)
        assert done.returncode == 0, done.stderr
        return eval(done.stdout)

    def test_package_loads_no_layer(self):
        assert self.loaded_after("import permflow\n") == []

    def test_cli_loads_perms_alone(self):
        assert self.loaded_after("import permflow.cli\n") == ["permflow.cli", "permflow.perms"]

    def test_probe_sees_an_import_of_dataclasses(self):
        # the checks here are not vacuous: `dataclasses` and `inspect` show up
        loaded = self.loaded_after("import dataclasses\n")
        assert loaded == ["dataclasses", "inspect"]

    @pytest.mark.parametrize(
        "argv, layer",
        [
            (["dtree", "--n", "4"], ["permflow.dtree"]),
            (["slice", "--n", "6", "--constraints", "1<2,3<4"], ["permflow.slicing"]),
            (["slice", "--n", "5", "--instrument", "heap", "--input", "3,1,5,2,4"], ["permflow.slicing"]),
            (["bench", "--n-min", "2", "--n-max", "9"], []),
        ],
    )
    def test_command_loads_its_layer_alone(self, argv, layer):
        loaded = self.loaded_after(
            "import contextlib, io\n"
            "import permflow.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert permflow.cli.main({argv!r}) == 0\n"
        )
        assert loaded == sorted(["permflow.cli", "permflow.perms", *layer])

    @pytest.mark.parametrize(
        "argv, layers",
        [
            (["flow", "trace", "--projected", "--n", "4", "--t-end", "1"], ["core", "projection"]),
            (["flow", "trace", "--n", "4", "--t-end", "1"], ["core", "flow"]),
            (["flow", "events", "--n", "5"], ["core", "flow"]),
            (["report"], ["core", "dtree", "flow"]),
        ],
    )
    def test_flow_command_loads_its_layers(self, argv, layers):
        # both evaluators' sample type, bound and time reader live in `core`,
        # so a projected trace loads no `flow` and an exact one no `projection`
        loaded = self.loaded_after(
            "import contextlib, io\n"
            "import permflow.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert permflow.cli.main({argv!r}) == 0\n"
        )
        modules = [m for m in loaded if m.startswith("permflow.")]
        assert modules == sorted(f"permflow.{m}" for m in ["cli", "perms", *layers])

    def test_layer_name_loads_that_layer_and_perms(self):
        loaded = self.loaded_after("from permflow import dtree\n")
        assert loaded == ["permflow.dtree", "permflow.perms"]

    @pytest.mark.parametrize(
        "command, name",
        [(command, name) for command, names in BINDINGS_CALLED.items() for name in names],
    )
    def test_patch_of_a_cli_binding_is_what_the_command_calls(
        self, command, name, monkeypatch, capsys
    ):
        argv = command.split()
        assert permflow.cli.main(argv) == 0
        plain = capsys.readouterr().out
        calls = []
        bound = getattr(permflow.cli, name)

        def spy(*args, **kwargs):
            calls.append(name)
            return bound(*args, **kwargs)

        monkeypatch.setattr(permflow.cli, name, spy)
        assert permflow.cli.main(argv) == 0
        assert permflow.cli.main(argv) == 0
        assert calls == [name, name]
        assert capsys.readouterr().out == plain * 2

    @pytest.mark.parametrize("handler", [h for h in vars(permflow.cli) if h.startswith("_cmd_")])
    def test_handler_imports_no_layer(self, handler):
        # a handler-local import would hide the layer function from a patch of `cli`
        assert "from ." not in inspect.getsource(getattr(permflow.cli, handler))

    def test_wrapper_of_a_first_call_binding_sees_every_call(self):
        # a tracer wraps the binding before its module has loaded; the first
        # call must not rebind the name past the wrapper
        done = run_fresh(
            "import contextlib, io\n"
            "import permflow.cli as cli\n"
            "calls = []\n"
            "first = cli.instrument\n"
            "def wrapper(*args):\n"
            "    calls.append(args[0])\n"
            "    return first(*args)\n"
            "cli.instrument = wrapper\n"
            "argv = ['slice', '--n', '3', '--instrument', 'quick', '--input', '2,3,1']\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(argv) == 0 and cli.main(argv) == 0\n"
            "cli.instrument = first\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(argv) == 0\n"
            "import permflow.slicing\n"
            "print(calls, cli.instrument is permflow.slicing.instrument)\n"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "['quick', 'quick'] True\n"


class TestLazyNames:
    """The numpy layers' names resolve through their modules' `__all__` on first use."""

    @pytest.mark.parametrize("name", ["__wrapped__", "_nope"])
    def test_private_probe_loads_no_numpy(self, name):
        done = run_fresh(
            "import permflow\n"
            f"print(hasattr(permflow, {name!r}), 'numpy' in sys.modules)\n"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False False\n"

    def test_all_and_star_import_are_the_union_of_the_modules(self):
        lists = [importlib.import_module(f"permflow.{m}").__all__ for m in MODULES]
        expected = [*sorted({name for names in lists for name in names}), "__version__"]
        done = run_fresh(
            "namespace = {}\n"
            "exec('from permflow import *', namespace)\n"
            "import permflow\n"
            "print(repr(permflow.__all__))\n"
            "print(repr([k for k in namespace if k != '__builtins__']))\n"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == f"{expected!r}\n{expected!r}\n"

    def test_discrete_names_load_no_numpy(self):
        done = run_fresh(
            "import permflow\n"
            "from permflow import dtree, perms, slicing\n"
            "for module in (perms, dtree, slicing):\n"
            "    for name in module.__all__:\n"
            "        getattr(permflow, name)\n"
            "print('numpy' in sys.modules)\n"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"

    @pytest.mark.parametrize("name", ["__all__", "vertex_of"])
    def test_numpy_layer_name_loads_numpy(self, name):
        done = run_fresh(
            "import permflow\n"
            "assert 'numpy' not in sys.modules\n"
            f"getattr(permflow, {name!r})\n"
            "print('numpy' in sys.modules)\n"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "True\n"

    def test_missing_name_raises_attribute_error_naming_it(self):
        done = run_fresh(
            "import permflow\n"
            "try:\n"
            "    permflow.no_such_name\n"
            "except AttributeError as exc:\n"
            "    print(exc)\n"
        )
        assert done.returncode == 0, done.stderr
        assert "'no_such_name'" in done.stdout


class TestPublicNames:
    @pytest.mark.parametrize("name", sorted(set(permflow.__all__) - {"__version__"}))
    def test_name_is_its_defining_module_object(self, name):
        value = getattr(permflow, name)
        homes = [
            module
            for module in (importlib.import_module(f"permflow.{m}") for m in MODULES)
            if name in module.__all__
        ]
        assert len(homes) == 1, f"{name} is listed in the __all__ of {homes}, not of one module"
        assert getattr(homes[0], name) is value, f"{homes[0].__name__}.{name}"

    @pytest.mark.parametrize("module", MODULES)
    def test_every_module_name_is_exported(self, module):
        defining = importlib.import_module(f"permflow.{module}")
        for name in defining.__all__:
            assert name in permflow.__all__, f"{module}.{name}"
            assert getattr(permflow, name) is getattr(defining, name), f"{module}.{name}"

    @pytest.mark.parametrize(
        "name",
        [
            "FlowTrace",
            "ProjectedTrace",
            "active_ties",
            "comparison_count",
            "crossing_time",
            "is_contradictory",
            "log2_factorial",
            "project_velocity",
            "sorted_vertex",
            "tree_from_dict",
            "tree_from_json",
        ],
    )
    def test_removed_name_is_gone(self, name):
        # each had a replacement and no caller outside the tests
        assert name not in permflow.__all__
        with pytest.raises(AttributeError, match=name):
            getattr(permflow, name)
        for m in MODULES:
            assert not hasattr(importlib.import_module(f"permflow.{m}"), name), m

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            permflow.no_such_name  # noqa: B018

    def test_core_keeps_its_discrete_names(self):
        from permflow.core import (
            Permutation,
            SizeLimitError,
            StateVector,
            inversions,
            vertex_of,
        )

        assert inversions(Permutation.reverse(4)) == 6
        assert isinstance(vertex_of([2, 1]), StateVector)
        assert issubclass(SizeLimitError, ValueError)

    def test_core_size_limit_error_exits_three(self, monkeypatch, capsys):
        import permflow.core

        def over(*args, **kwargs):
            raise permflow.core.SizeLimitError("over the limit")

        assert permflow.cli.SizeLimitError is permflow.core.SizeLimitError
        monkeypatch.setattr(permflow.cli, "feasible_count", over)
        assert permflow.cli.main(["slice", "--n", "3", "--constraints", ""]) == 3
        assert capsys.readouterr().err == "error: over the limit\n"
