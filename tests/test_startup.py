"""Start-up without scipy: only the NLP needs it, and it is imported when the
first instance is assembled. The package root loads nothing, states the
version that pyproject.toml declares, and each module imports on its own.
Each import check runs in a fresh interpreter, as this suite's own process
has scipy loaded. No module of the package, the tests or the scripts
imports a name it never reads."""

import ast
import json
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gasadapt
from gasadapt import controller, fileio, nlp
from gasadapt.fixtures import chain5, chain5_network_dict, chain5_scenario_dict
from gasadapt.models import ModelLevel

SRC = str(Path(gasadapt.__file__).resolve().parents[1])

# the scipy modules loaded in a fresh interpreter, as a sorted list
LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def _fresh(code, *args):
    """The JSON document that `code`, run in a fresh interpreter with the
    package on its path, prints as its last line of output."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r})\n{code}",
         *map(str, args)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


STARTUP = f"""
import json
net, scn, sol, out = sys.argv[1:]
import gasadapt, gasadapt.cli
from gasadapt import cli, nlp
seen = {{"import": {LOADED}}}
for argv in (
    ["estimate", "--network", net, "--solution", sol, "--out", out + "/est.csv"],
    ["simulate", "--level", "2", "--q", "80", "--out", out + "/profile.csv"],
    ["validate-params", "--network", net],
):
    assert cli.main(argv) == cli.EXIT_OK, argv
seen["commands"] = {LOADED}
seen["resolved"] = [
    nlp.spla.splu is sys.modules["scipy.sparse.linalg"].splu,
    nlp.lapack.dtbtrs is sys.modules["scipy.linalg.lapack"].dtbtrs,
]
assert cli.main(["nlp-solve", "--network", net, "--scenario", scn,
                 "--out", out + "/uniform.json"]) == cli.EXIT_OK
seen["nlp-solve"] = "scipy.sparse.linalg" in sys.modules
print(json.dumps(seen))
"""


def test_startup_loads_scipy_only_for_the_nlp(tmp_path):
    net_path, scn_path = tmp_path / "net.json", tmp_path / "scn.json"
    net_path.write_text(json.dumps(chain5_network_dict()))
    scn_path.write_text(json.dumps(chain5_scenario_dict()))
    # the in-process solve that `nlp-solve` repeats with its defaults, level 1
    # and 4 intervals per pipe; its solution is what `estimate` reads
    net, gas, scn = chain5()
    state = {pid: (ModelLevel.of(1), pipe.length / 4) for pid, pipe in net.pipes.items()}
    sol = nlp.solve(nlp.assemble(net, scn, gas, state))
    doc = fileio.solution_to_dict(sol)
    sol_path = tmp_path / "sol.json"
    fileio.write_json(doc, sol_path)

    seen = _fresh(STARTUP, net_path, scn_path, sol_path, tmp_path)
    assert seen["import"] == []
    assert seen["commands"] == []
    assert seen["resolved"] == [True, True]
    assert seen["nlp-solve"]
    assert json.loads((tmp_path / "uniform.json").read_text()) == json.loads(
        json.dumps(doc))
    assert (tmp_path / "est.csv").read_text().count("\n") == 1 + len(net.pipes)


COUNTED = """
import json
from gasadapt import controller, nlp
from gasadapt.fixtures import chain5

# patched before the first assemble, as perfbench's tracer patches splu
calls = {"splu": 0, "factor": 0}
splu, factor = nlp.spla.splu, nlp.KktSystem._factor

def counting_splu(*args, **kwargs):
    calls["splu"] += 1
    return splu(*args, **kwargs)

def counting_factor(*args, **kwargs):
    calls["factor"] += 1
    return factor(*args, **kwargs)

nlp.spla.splu, nlp.KktSystem._factor = counting_splu, counting_factor
net, gas, scn = chain5()
_, state = controller.run(net, scn, gas, controller.AdaptiveConfig())
calls["solves"] = len(state.trace)
print(json.dumps(calls))
"""


def test_splu_patched_before_the_first_assemble_counts_every_factorization(
    monkeypatch,
):
    calls = _fresh(COUNTED)
    # every factorization reaches the patched splu, as many as in this
    # process, where scipy was loaded before the patch
    counted = []
    splu = nlp.spla.splu
    monkeypatch.setattr(
        nlp.spla, "splu", lambda *a, **k: counted.append(1) or splu(*a, **k))
    net, gas, scn = chain5()
    _, state = controller.run(net, scn, gas, controller.AdaptiveConfig())
    assert calls["solves"] == len(state.trace) == 13
    assert calls["splu"] == calls["factor"] == len(counted) > 0


ROOT = """
import json
import gasadapt
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] in ("gasadapt", "numpy"))))
"""


def test_package_root_loads_no_submodule_and_no_numpy():
    assert _fresh(ROOT) == ["gasadapt"]


SUBMODULE = """
import json
import gasadapt.integrate as m
print(json.dumps([m is sys.modules["gasadapt.integrate"], hasattr(m, "Grid")]))
"""


def test_import_as_binds_the_integrate_module_not_the_function():
    assert _fresh(SUBMODULE) == [True, True]


def test_version_is_the_one_pyproject_declares():
    # read with a regex: Python 3.10 has no tomllib, and the suite runs from
    # src/ without the package installed, so no metadata holds the version
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    declared = re.findall(r'^version = "([^"]+)"$', pyproject.read_text(), re.M)
    assert declared == [gasadapt.__version__]


# every module of the package, each imported first in a fresh interpreter,
# so that no import cycle hides behind an import order that works
MODULES = sorted(m.name for m in pkgutil.iter_modules(gasadapt.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_on_its_own(module):
    code = ("import importlib, json\n"
            "print(json.dumps(importlib.import_module(sys.argv[1]).__name__))")
    assert _fresh(code, f"gasadapt.{module}") == f"gasadapt.{module}"


REPO = Path(__file__).resolve().parents[1]


def _unread_imports(path):
    """(line, name) of each name that the module at `path` imports and never
    reads; `from __future__` imports are directives, not names."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]  # a of a.b
                imported.setdefault(name, node.lineno)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_every_imported_name_is_read():
    unread = [
        f"{path.relative_to(REPO)}:{line}: {name}"
        for folder in ("src/gasadapt", "tests", "scripts")
        for path in sorted((REPO / folder).rglob("*.py"))
        for line, name in _unread_imports(path)
    ]
    assert unread == []
