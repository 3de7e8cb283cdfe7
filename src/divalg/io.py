"""JSON reading and writing for algebras, decorations and operator pairs.

Documents are plain JSON (no binary formats): an algebra is
``{"dim": n, "labels": [...], "structure": [[[c_ijk]]]}`` with the
structure tensor indexed left factor, right factor, component; a
decorated algebra adds ``"U"`` and ``"V"`` as arrays of column vectors;
an operator pair is ``{"S": [[...]], "T": [[...]]}``.  Floats are
emitted with Python's shortest round-trip repr, so write-then-read
reproduces every tensor bit for bit.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .core import Algebra

if TYPE_CHECKING:
    from .decorated import DecoratedAlgebra


def algebra_to_dict(alg: Algebra) -> dict:
    return {
        "dim": alg.dim,
        "labels": [alg.label] if alg.label else [],
        "structure": alg.c.tolist(),
    }


def _numbers(doc: dict, key: str) -> np.ndarray:
    """doc[key] as a float array, or ValueError naming key where a leaf
    of its nested lists is not a JSON number (a bool is not one): not
    np.asarray, which reads "2" as 2.0 and true as 1.0."""
    value = doc[key]
    todo = [value]
    while todo:
        x = todo.pop()
        if isinstance(x, list):
            todo.extend(x)
        elif isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ValueError(f"{key} must hold JSON numbers only, "
                             f"got {x!r}")
    return np.asarray(value, dtype=float)


def algebra_from_dict(doc: dict) -> Algebra:
    try:
        dim = doc["dim"]
        labels = doc.get("labels", [])
        c = _numbers(doc, "structure")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"not an algebra document: {exc}") from exc
    # not int(), which reads 2.9, "2" and true as 2, 2 and 1
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ValueError(f"dim must be an integer, got {dim!r}")
    if c.shape != (dim, dim, dim):
        raise ValueError(f"structure shape {c.shape} does not match "
                         f"dim {dim}")
    if not (isinstance(labels, list)
            and all(isinstance(s, str) for s in labels)):
        raise ValueError(f"labels must be a list of strings, got {labels!r}")
    return Algebra(c, label="; ".join(labels))


def decorated_to_dict(dec: DecoratedAlgebra) -> dict:
    doc = algebra_to_dict(dec.alg)
    doc["U"] = dec.u.T.tolist()
    doc["V"] = dec.v.T.tolist()
    return doc


def decorated_from_dict(doc: dict) -> DecoratedAlgebra:
    from .decorated import decorate
    alg = algebra_from_dict(doc)
    try:
        u = _numbers(doc, "U").T
        v = _numbers(doc, "V").T
    except (KeyError, TypeError) as exc:
        raise ValueError(f"not a decorated-algebra document: {exc}") from exc
    return decorate(alg, u, v)


def normal_form_to_dict(nf) -> dict:
    return {"i": nf.i, "j": nf.j, "A": nf.a.tolist(), "B": nf.b.tolist()}


def normal_form_from_dict(doc: dict):
    from .dim2 import NormalForm2D
    try:
        return NormalForm2D(doc["i"], doc["j"], _numbers(doc, "A"),
                            _numbers(doc, "B"))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"not a normal-form document: {exc}") from exc


def pair_to_dict(s, t) -> dict:
    return {"S": np.asarray(s, dtype=float).tolist(),
            "T": np.asarray(t, dtype=float).tolist()}


def pair_from_dict(doc: dict) -> tuple[np.ndarray, np.ndarray]:
    try:
        s = _numbers(doc, "S")
        t = _numbers(doc, "T")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"not an operator-pair document: {exc}") from exc
    if s.ndim != 2 or s.shape != t.shape or s.shape[0] != s.shape[1]:
        raise ValueError("S and T must be square matrices of equal size")
    return s, t


def write_json(doc: dict, path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def read_json(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return doc


def write_algebra(alg: Algebra, path) -> None:
    write_json(algebra_to_dict(alg), path)


def read_algebra(path) -> Algebra:
    return algebra_from_dict(read_json(path))


def read_pair(path) -> tuple[np.ndarray, np.ndarray]:
    return pair_from_dict(read_json(path))
