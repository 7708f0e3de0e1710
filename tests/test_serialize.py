import json
from itertools import product

import pytest

from deltamatroids import AxiomError, GroundSet, InputError, SetFamily, default_ground, uniform
from deltamatroids.delta import DeltaMatroid
from deltamatroids.rigidity import CORPUS
from deltamatroids.search import enumerate_delta_matroids, enumerate_matroids
from deltamatroids.serialize import (
    delta_from_json,
    delta_to_json,
    dumps_canonical,
    family_from_json,
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
        # the matroid universe lives as long as the process, and an enumerated
        # delta-matroid is made from its code: a dump builds its labels from the
        # family code and caches no SetFamily on either
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


def reference_family_from_json(obj, members_key):
    """The loader as it read labels one member at a time: every member's type
    first, then each member's labels in order, the first bad one named."""

    def labels_list(x, what):
        if not (isinstance(x, list) and all(isinstance(lab, str) for lab in x)):
            raise InputError(f"{what} must be a list of strings")
        return x

    ground = GroundSet(tuple(labels_list(obj["ground"], '"ground"')))
    members = [labels_list(m, "family member") for m in obj[members_key]]
    return SetFamily(ground, tuple(reference_mask(ground, m) for m in members))


def reference_mask(ground, labels):
    """A mask label by label: an unknown label, or one named twice, is named at once."""
    index = {lab: i for i, lab in enumerate(ground.labels)}
    mask = 0
    for lab in labels:
        if index.get(lab) is None:
            raise InputError(f"label {lab!r} not in ground set {ground.labels!r}")
        if mask >> index[lab] & 1:
            raise InputError(f"label {lab!r} named twice in one subset of {ground.labels!r}")
        mask |= 1 << index[lab]
    return mask


def outcome(fn, *args):
    """What a call gives: its family's masks, or its error's type and message."""
    try:
        got = fn(*args)
    except (InputError, TypeError) as e:
        return type(e).__name__, str(e)
    return "ok", got.masks if isinstance(got, SetFamily) else got


# one of each kind of member, good and bad, and bad ones mixed inside a member
MEMBERS = {
    "good": ["b", "a"],
    "empty": [],
    "not a list": "ab",
    "not a string": ["a", 7],
    "unknown": ["z"],
    "twice": ["b", "b"],
    "unknown then twice": ["y", "a", "a"],
    "twice then unknown": ["a", "a", "y"],
    "string then not": ["z", None],
}


class TestFamilyBoundary:
    @pytest.mark.parametrize(
        "members, message",
        [
            ([["a"], "ab"], "family member must be a list of strings"),
            ([["a"], ["a", 1]], "family member must be a list of strings"),
            ([["z"], ["a", 1]], "family member must be a list of strings"),  # types before labels
            ([["a"], ["c", "z"]], "label 'z' not in ground set ('a', 'b', 'c')"),
            ([["b", "a", "b"], ["z"]], "label 'b' named twice in one subset of ('a', 'b', 'c')"),
            ([["a", "a", "z"]], "label 'a' named twice in one subset of ('a', 'b', 'c')"),
            ([["z", "a", "a"]], "label 'z' not in ground set ('a', 'b', 'c')"),
        ],
    )
    def test_exact_messages(self, members, message):
        with pytest.raises(InputError) as err:
            family_from_json({"ground": ["a", "b", "c"], "bases": members}, "bases")
        assert str(err.value) == message

    def test_every_mix_of_up_to_three_members_errs_as_the_reference(self):
        # each ordered choice of up to three members: the same masks, or the
        # same first error, as the member-by-member loader
        seen = set()
        for k in range(4):
            for names in product(MEMBERS, repeat=k):
                obj = {"ground": ["a", "b", "c"], "feasibles": [MEMBERS[name] for name in names]}
                want = outcome(reference_family_from_json, obj, "feasibles")
                assert outcome(family_from_json, obj, "feasibles") == want, names
                seen.add(want[1] if want[0] == "InputError" else want[0])
        assert len(seen) == 6, seen  # masks, and five distinct first errors

    def test_from_labels_and_subset_err_as_the_reference(self):
        # the Python entry points take any iterables, generators too, and
        # read no member's type first: the first bad label in order is named
        g = default_ground(3)
        pool = {**MEMBERS, "not a list": ("c", "a"), "unhashable": ["a", ["b"]], "generator": "gen"}
        for k in range(3):
            for names in product(pool, repeat=k):

                def members():
                    return [(lab for lab in "ca") if name == "generator" else pool[name] for name in names]

                want = outcome(lambda: SetFamily(g, tuple(reference_mask(g, m) for m in members())))
                assert outcome(SetFamily.from_labels, g, members()) == want, names
                assert outcome(SetFamily.from_labels, g, iter(members())) == want, names
        for name, labels in pool.items():
            for arg in (labels, iter(labels)):
                want = outcome(reference_mask, g, labels)
                assert outcome(lambda: g.subset(arg).mask) == want, name

    def test_round_trip_of_every_family_on_three_elements(self):
        g = GroundSet.of("x", "y", "z")
        for code in range(1 << 8):
            fam = SetFamily(g, tuple(m for m in g.all_masks() if code >> m & 1))
            obj = {"ground": list(g.labels), "feasibles": fam.member_labels()}
            assert family_from_json(obj, "feasibles") == fam


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
