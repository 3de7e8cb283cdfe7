"""The package surface: every public name resolves to its defining
module's object, and importing the package or the CLI loads only the
modules a command needs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import divalg


@pytest.mark.parametrize("name", divalg.__all__)
def test_public_name_is_its_defining_modules_object(name):
    obj = getattr(divalg, name)
    assert obj.__module__.startswith("divalg.")
    assert getattr(sys.modules[obj.__module__], name) is obj


def test_rebinding_in_the_defining_module_shows_through(monkeypatch):
    # the package caches no name, so a tracer's rebinding is seen and undone
    from divalg import core
    original = core.sign_pair
    monkeypatch.setattr(core, "sign_pair", lambda *args: None)
    assert divalg.sign_pair is core.sign_pair
    monkeypatch.undo()
    assert divalg.sign_pair is original


def test_dir_lists_every_public_name():
    names = dir(divalg)
    assert "__all__" in names and set(divalg.__all__) <= set(names)


def test_star_import_binds_every_public_name():
    scope = {}
    exec("from divalg import *", scope)
    assert {name: scope[name] for name in divalg.__all__} == \
        {name: getattr(divalg, name) for name in divalg.__all__}


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        divalg.no_such_name


def test_from_import_still_reaches_submodules():
    from divalg import cli, samples
    assert cli is sys.modules["divalg.cli"]
    assert samples is sys.modules["divalg.samples"]


# run in a fresh interpreter: this session has imported every module
_FOOTPRINT = """
import json, sys
loaded = lambda: sorted(n for n in sys.modules if n.startswith("divalg."))
import divalg
steps = {"import divalg": loaded()}
import divalg.cli
steps["import divalg.cli"] = loaded()
divalg.cli.main(["sign-pair", sys.argv[1]])
steps["sign-pair"] = loaded()
print(json.dumps(steps))
"""


def test_one_shot_command_loads_only_the_modules_it_runs(tmp_path):
    from divalg.core import classical
    from divalg.io import write_algebra

    path = tmp_path / "h.json"
    write_algebra(classical("H"), path)
    src = Path(divalg.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", _FOOTPRINT, str(path)],
                         env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True).stdout
    steps = json.loads(out.splitlines()[-1])
    assert steps["import divalg"] == []
    unused = {"divalg.verify", "divalg.samples", "divalg.dim2",
              "divalg.quat", "divalg.equadratic"}
    for step in ("import divalg.cli", "sign-pair"):
        assert unused.isdisjoint(steps[step]), step
