"""A command-line process loads only the modules its subcommand runs, and the
shipped package holds nothing else.

Each run is a fresh process that calls the CLI's ``main`` and then lists the
``stoqlift.*`` entries of ``sys.modules``. The five subcommands below load
every module under ``src/stoqlift`` between them, so a test-only helper (such
as ``tests/random_ops.py``) cannot creep back in. The console script that
``pyproject.toml`` declares resolves to the CLI.
"""

import importlib
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import stoqlift
from stoqlift import lifts

PACKAGE = Path(stoqlift.__file__).resolve().parent
DATA = PACKAGE.parents[1] / "demos" / "data"
ENV = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
RUN_CLI = ("import contextlib, io\n"
           "from stoqlift.cli import main\n"
           "with contextlib.redirect_stdout(io.StringIO()):\n"
           "    assert main(sys.argv[1:]) == 0")
KERNELS = {"errors", "_arrays", "kernels", "serialization", "cli"}

#: One subcommand per module group and the stoqlift modules it loads.
RUNS = {
    "validate-kernel": (["validate", DATA / "flip_kernel.json"], KERNELS),
    "lift": (["lift", DATA / "flip_kernel.json"], KERNELS | {"lifts"}),
    "theorem1": (["divisibility", "--mode", "theorem1",
                  DATA / "hadamard_conjugation.json", DATA / "identity_channel.json"],
                 KERNELS | {"lifts", "division"}),
    "ck-checklist": (["demo", "ck-checklist"], KERNELS | {"lifts", "dynamics"}),
    "phase-memory": (["demo", "phase-memory"], KERNELS | {"lifts", "memory"}),
}


def loaded(code: str, *argv) -> set[str]:
    """The ``stoqlift.*`` modules, without the package prefix, that a fresh
    ``python -c code *argv`` process holds once ``code`` has run."""
    script = (f"import sys\n{code}\n"
              "print(*(m for m in sys.modules if m.startswith('stoqlift.')))")
    out = subprocess.run([sys.executable, "-c", script, *map(str, argv)],
                         env=ENV, capture_output=True, text=True, check=True).stdout
    return {name.removeprefix("stoqlift.") for name in out.split()}


@pytest.mark.parametrize("argv, modules", RUNS.values(), ids=RUNS)
def test_subcommand_loads_only_its_modules(argv, modules):
    assert loaded(RUN_CLI, *argv) == modules


def test_subcommands_load_every_shipped_module():
    shipped = {path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__"}
    assert set().union(*(modules for _, modules in RUNS.values())) == shipped


@pytest.mark.parametrize("argv, hashes", [(["demo", "theta-triviality"], False),
                                          (RUNS["validate-kernel"][0], True)])
def test_only_a_run_that_reads_a_file_loads_hashlib(argv, hashes):
    # The process exits nonzero, and ``loaded`` raises, if the assert fails.
    loaded(f"{RUN_CLI}\nassert ('hashlib' in sys.modules) is {hashes}", *argv)


def test_package_import_loads_only_errors():
    assert loaded("import stoqlift") == {"errors"}


def test_submodule_attribute_imports_the_submodule():
    assert loaded("import stoqlift; stoqlift.division") == {
        "errors", "_arrays", "kernels", "lifts", "division"}


def test_namespace_resolves_every_public_name():
    names = {}
    exec("from stoqlift import *", names)
    del names["__builtins__"]
    assert sorted(names) == sorted(stoqlift.__all__)
    assert set(names) <= set(dir(stoqlift))
    modules = {name for name, value in names.items() if isinstance(value, type(stoqlift))}
    assert modules == {"errors", "kernels", "lifts", "dynamics", "memory", "division"}
    assert len(names) == 85  # the six modules and 79 names they define
    for name in names.keys() - modules:
        assert getattr(sys.modules[names[name].__module__], name) is names[name]
    with pytest.raises(AttributeError, match="no attribute 'serialize'"):
        stoqlift.serialize


def test_package_reads_each_name_from_its_module(monkeypatch):
    # A patch in place at the package's first read of a name, once undone,
    # must not stay visible through the package.
    original = lifts.check_cptp
    monkeypatch.delitem(vars(stoqlift), "check_cptp", raising=False)
    with monkeypatch.context() as patch:
        patch.setattr(lifts, "check_cptp", len)
        assert stoqlift.check_cptp is len
    assert stoqlift.check_cptp is original


@pytest.mark.parametrize("name, code", [("flip_kernel.json", 0), ("missing.json", 2)])
def test_console_script_target_runs_the_cli(name, code, monkeypatch, capsys):
    pyproject = tomllib.loads((PACKAGE.parents[1] / "pyproject.toml").read_text())
    module, _, attribute = pyproject["project"]["scripts"]["stoqlift"].partition(":")
    target = getattr(importlib.import_module(module), attribute)
    monkeypatch.setattr(sys, "argv", ["stoqlift", "validate", str(DATA / name)])
    with pytest.raises(SystemExit) as exc:
        target()
    assert exc.value.code == code
    assert bool(capsys.readouterr().out) == (code == 0)  # a report only on success
