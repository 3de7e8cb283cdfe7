"""Smoke tests of the demo scripts, run in-process at small sizes."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("count", [7, 12])
def test_block_census_rows_sum_to_count(capsys, count):
    assert load("block_census").main(["--count", str(count),
                                      "--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [ln.split() for ln in lines[2:5]]
    assert [int(r[0]) for r in rows] == [2, 4, 8]
    assert sum(int(r[-1]) for r in rows) == count
    assert all(sum(map(int, r[1:-1])) == int(r[-1]) for r in rows)


def test_block_census_matches_per_algebra_loop():
    from collections import Counter

    from divalg.core import sign_pair
    from divalg.samples import division_corpus

    mod = load("block_census")
    want = {2: Counter(), 4: Counter(), 8: Counter()}
    for alg in division_corpus(60, seed=0):
        want[alg.dim][sign_pair(alg).block] += 1
    assert mod.census(count=60, seed=0) == want


def test_separation_demo_top_object_has_six_automorphisms(capsys):
    assert load("separation_demo").main(["--samples", "3",
                                         "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "Aut(1,1,I,I): 6 elements" in out
