import json

import numpy as np
import pytest

from divalg.core import classical
from divalg.io import algebra_from_dict, algebra_to_dict, \
    decorated_from_dict, decorated_to_dict, normal_form_from_dict, \
    normal_form_to_dict, pair_from_dict, pair_to_dict, read_algebra, \
    read_json, write_algebra
from divalg.samples import random_2d_division, random_division, \
    random_normal_form_many, random_quat_pair

from conftest import random_decoration


@pytest.mark.parametrize("make", [
    lambda: classical("C"),
    lambda: classical("H"),
    lambda: classical("O"),
    lambda: random_2d_division(4),
    lambda: random_division(4, 5),
    lambda: random_division(8, 6),
])
def test_algebra_round_trip_is_bitwise(make):
    alg = make()
    doc = json.loads(json.dumps(algebra_to_dict(alg)))
    back = algebra_from_dict(doc)
    assert np.array_equal(back.c, alg.c)
    assert back.label == alg.label


def test_algebra_file_round_trip(tmp_path):
    alg = random_division(4, 9)
    path = tmp_path / "alg.json"
    write_algebra(alg, path)
    assert np.array_equal(read_algebra(path).c, alg.c)


def test_algebra_dict_shape_check():
    with pytest.raises(ValueError):
        algebra_from_dict({"dim": 3, "labels": [],
                           "structure": np.zeros((2, 2, 2)).tolist()})
    with pytest.raises(ValueError):
        algebra_from_dict({"labels": []})


def test_decorated_round_trip():
    x = random_decoration(classical("H"), 3)
    doc = json.loads(json.dumps(decorated_to_dict(x)))
    back = decorated_from_dict(doc)
    assert np.array_equal(back.alg.c, x.alg.c)
    assert np.array_equal(back.u, x.u)
    assert np.array_equal(back.v, x.v)


def test_decorated_dict_requires_splitting():
    doc = algebra_to_dict(classical("H"))
    with pytest.raises(ValueError):
        decorated_from_dict(doc)


def test_pair_round_trip():
    s, t = random_quat_pair(11)
    doc = json.loads(json.dumps(pair_to_dict(s, t)))
    s2, t2 = pair_from_dict(doc)
    assert np.array_equal(s, s2) and np.array_equal(t, t2)


def test_pair_requires_square_matching():
    with pytest.raises(ValueError):
        pair_from_dict({"S": [[1.0, 0.0]], "T": [[1.0, 0.0]]})
    with pytest.raises(ValueError):
        pair_from_dict({"S": np.eye(2).tolist(), "T": np.eye(3).tolist()})


def test_normal_form_round_trip():
    nf = random_normal_form_many(1, 13)[0]
    doc = json.loads(json.dumps(normal_form_to_dict(nf)))
    back = normal_form_from_dict(doc)
    assert (back.i, back.j) == (nf.i, nf.j)
    assert np.array_equal(back.a, nf.a) and np.array_equal(back.b, nf.b)


def test_read_json_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError):
        read_json(path)
    path.write_text("[1, 2]")
    with pytest.raises(ValueError):
        read_json(path)
