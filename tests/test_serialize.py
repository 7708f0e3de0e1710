import json

import pytest

from deltamatroids import AxiomError, GroundSet, InputError, default_ground, uniform
from deltamatroids.delta import DeltaMatroid
from deltamatroids.rigidity import CORPUS
from deltamatroids.search import enumerate_delta_matroids, enumerate_matroids
from deltamatroids.serialize import (
    delta_from_json,
    delta_to_json,
    dumps_canonical,
    graph_from_json,
    graph_to_json,
    load_json,
    matroid_from_json,
    matroid_to_json,
)


class TestMatroidFormat:
    def test_round_trip(self):
        m = uniform(2, default_ground(4))
        again = matroid_from_json(matroid_to_json(m))
        assert again == m

    def test_dump_is_byte_stable(self):
        m = uniform(2, GroundSet.of("1", "2", "3"))
        once = dumps_canonical(matroid_to_json(m))
        twice = dumps_canonical(matroid_to_json(matroid_from_json(json.loads(once))))
        assert once == twice

    def test_non_matroid_rejected_with_witness(self):
        obj = {"ground": ["a", "b", "c"], "bases": [["a"], ["b", "c"]]}
        with pytest.raises(AxiomError) as exc:
            matroid_from_json(obj)
        assert exc.value.violation.pivot == "b"

    def test_malformed_objects(self):
        for obj in ({}, {"ground": "abc", "bases": []}, {"ground": ["a"], "bases": "x"}, 7):
            with pytest.raises(InputError):
                matroid_from_json(obj)


class TestDeltaFormat:
    def test_round_trip(self):
        g = default_ground(2)
        d = DeltaMatroid.certify(
            delta_from_json({"ground": ["a", "b"], "feasibles": [[], ["a", "b"]]}).feasibles
        )
        assert delta_to_json(d) == {"ground": ["a", "b"], "feasibles": [[], ["a", "b"]]}
        assert d.ground == g

    def test_loading_certifies(self):
        with pytest.raises(AxiomError):
            delta_from_json({"ground": ["a", "b", "c"], "feasibles": [[], ["a", "b", "c"]]})


class TestDumpsReadTheCode:
    def test_dumps_cache_no_decoded_family_on_universe_objects(self):
        # the universe objects live as long as the process: a dump builds its
        # labels from the family code and caches no SetFamily on them
        for key, objects, dump in (
            ("bases", list(enumerate_matroids(4)), matroid_to_json),
            ("feasibles", list(enumerate_delta_matroids(4)), delta_to_json),
        ):
            for obj in objects:
                vars(obj).pop(key, None)  # what an earlier reader cached
            dumped = [dump(obj) for obj in objects]
            assert [obj for obj in objects if key in vars(obj)] == []
            assert dumped == [
                {"ground": list(obj.ground.labels), key: getattr(obj, key).member_labels()} for obj in objects
            ]


class TestGraphFormat:
    def test_round_trip_corpus(self):
        for g in CORPUS.values():
            assert graph_from_json(graph_to_json(g)) == g

    def test_malformed_edges(self):
        with pytest.raises(InputError):
            graph_from_json({"vertices": ["u"], "edges": [{"id": "e"}]})
        with pytest.raises(InputError):
            graph_from_json({"vertices": ["u"], "edges": [{"id": "e", "ends": ["u"]}]})


class TestFiles:
    def test_load_json_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_json(tmp_path / "nope.json")

    def test_load_json_bad_syntax(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(InputError):
            load_json(p)
