"""The package surface: every public name resolves to its defining
module's object and has a caller, importing the package or the CLI
loads only the modules a command needs, and every cut-off is an entry
of one table."""

import ast
import json
import os
import re
import subprocess
import sys
import tokenize
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


_KIND = re.compile(r"# (relative|unit|budget|scale-dependent absolute): \S")
_ENTRY = re.compile(r"(_?[A-Z][A-Z0-9_]*) = \S+")


def _tokens(path: Path) -> list[tokenize.TokenInfo]:
    with path.open() as f:
        return list(tokenize.generate_tokens(f.readline))


def _negative_exponent_literals(path: Path) -> list[int]:
    """Line numbers of the numbers with a negative exponent in a module."""
    return [tok.start[0] for tok in _tokens(path)
            if tok.type == tokenize.NUMBER and re.search("[eE]-", tok.string)]


def test_every_cut_off_is_an_entry_of_the_one_table():
    # verify.py is left out: each of its check bounds is stated in the
    # law its report prints
    src = Path(divalg.__file__).parent
    found = {p.name: _negative_exponent_literals(p)
             for p in sorted(src.glob("*.py")) if p.name != "verify.py"}
    table = found.pop("matkit.py")
    assert {name: rows for name, rows in found.items() if rows} == {}
    # one block of entries, each a comment naming its kind, then
    # NAME = value; and every entry is read in code somewhere, not only
    # named in a comment or docstring
    assert table == list(range(table[0], table[-1] + 1, 2))
    lines = (src / "matkit.py").read_text().splitlines()
    names = [tok.string for p in src.glob("*.py") for tok in _tokens(p)
             if tok.type == tokenize.NAME]
    for row in table:
        assert _KIND.match(lines[row - 2]), lines[row - 2]
        entry = _ENTRY.fullmatch(lines[row - 1])
        assert entry, lines[row - 1]
        assert names.count(entry.group(1)) > 1, entry.group(1)


def test_every_public_name_has_a_caller():
    # a public module-level function or class is exported, or read by a
    # name token (not a docstring or comment) in the package or the
    # benchmark outside its own definition; a name only the tests call
    # is dead code
    src = Path(divalg.__file__).resolve().parent
    bench = src.parents[1] / "perfbench"
    # without the benchmark its callers' names would be reported as dead
    assert bench.is_dir(), f"{bench} is missing; it holds callers"
    defs = {node.name: (path, node) for path in sorted(src.glob("*.py"))
            for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}
    readers = [*src.glob("*.py"), *bench.glob("*.py")]
    reads = [(path, tok.start[0], tok.string) for path in readers
             for tok in _tokens(path) if tok.type == tokenize.NAME]

    def read_elsewhere(name):
        home, node = defs[name]
        first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
        return any(word == name and not (path == home and
                                         first <= row <= node.end_lineno)
                   for path, row, word in reads)

    called = {name for name in defs
              if name in divalg.__all__ or read_elsewhere(name)}
    assert sorted(set(defs) - called) == []
