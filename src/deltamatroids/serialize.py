"""JSON file formats for matroids, delta-matroids, and graphs.

All emitters are canonical (family members ascending by mask, ground order
preserved), so dump -> load -> dump is byte-stable.  Loaders certify the
relevant axiom and reject bad families with the witness in the error.
Labels cross the boundary once per family: a type pass over all members and
one batch of label-to-bit reads on load, the ground's label tables on dump.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from pathlib import Path
from typing import Any, Union

from .core import GroundSet, InputError, SetFamily, _decode_family
from .delta import DeltaMatroid
from .matroids import Matroid
from .rigidity import Multigraph


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InputError(msg)


def _labels_list(obj: Any, what: str) -> list[str]:
    _require(isinstance(obj, list) and all(isinstance(x, str) for x in obj), f"{what} must be a list of strings")
    return obj


def family_from_json(obj: Any, members_key: str) -> SetFamily:
    _require(isinstance(obj, dict), "expected a JSON object")
    _require("ground" in obj, 'missing "ground"')
    _require(members_key in obj, f'missing "{members_key}"')
    ground = GroundSet(tuple(_labels_list(obj["ground"], '"ground"')))
    members = obj[members_key]
    _require(isinstance(members, list), f'"{members_key}" must be a list')
    # every member's type before any label is read: two C-level loops over all members
    lists = all(map(isinstance, members, repeat(list)))
    strings = lists and all(map(isinstance, chain.from_iterable(members), repeat(str)))
    _require(strings, "family member must be a list of strings")
    return SetFamily.from_labels(ground, members)


def matroid_to_json(m: Matroid) -> dict:
    # labels from the code: reading m.bases would cache a decoded SetFamily on m for its lifetime
    return {"ground": list(m.ground.labels), "bases": m.ground._label_lists(_decode_family(m._bases))}


def matroid_from_json(obj: Any) -> Matroid:
    """Load and certify; non-matroids are rejected with the witness."""
    return Matroid.certify(family_from_json(obj, "bases"))


def delta_to_json(d: DeltaMatroid) -> dict:
    return {"ground": list(d.ground.labels), "feasibles": d.ground._label_lists(_decode_family(d._feasibles))}


def delta_from_json(obj: Any) -> DeltaMatroid:
    return DeltaMatroid.certify(family_from_json(obj, "feasibles"))


def graph_to_json(g: Multigraph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [{"id": e, "ends": [u, v]} for e, (u, v) in g.edges],
    }


def graph_from_json(obj: Any) -> Multigraph:
    _require(isinstance(obj, dict), "expected a JSON object")
    _require("vertices" in obj and "edges" in obj, 'graph file needs "vertices" and "edges"')
    vertices = _labels_list(obj["vertices"], '"vertices"')
    edges = []
    _require(isinstance(obj["edges"], list), '"edges" must be a list')
    for e in obj["edges"]:
        _require(isinstance(e, dict) and "id" in e and "ends" in e, 'each edge needs "id" and "ends"')
        ends = _labels_list(e["ends"], '"ends"')
        _require(len(ends) == 2, '"ends" must have exactly two vertices')
        _require(isinstance(e["id"], str), '"id" must be a string')
        edges.append((e["id"], (ends[0], ends[1])))
    return Multigraph(tuple(vertices), tuple(edges))


def load_json(path: Union[str, Path]) -> Any:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"cannot read {path}: {e}") from e
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise InputError(f"{path} is not valid JSON: {e}") from e


def dumps_canonical(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=False) + "\n"
