import pytest
from hypothesis import given
from hypothesis import strategies as st

from deltamatroids import (
    GroundSet,
    InputError,
    SetFamily,
    Subset,
    default_ground,
    maximal_members,
    minimal_members,
    uniform,
)


class TestGroundSet:
    def test_labels_are_ordered_and_indexed(self):
        g = GroundSet.of("a", "b", "c")
        assert g.size == 3
        assert g.index("b") == 1
        assert g.labels_of(0b101) == ("a", "c")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InputError):
            GroundSet.of("a", "a")

    def test_cap_at_16_elements(self):
        GroundSet(tuple(f"e{i}" for i in range(16)))
        with pytest.raises(InputError):
            GroundSet(tuple(f"e{i}" for i in range(17)))

    def test_unknown_label(self):
        with pytest.raises(InputError):
            default_ground(2).index("z")


class TestSubset:
    def test_mask_outside_ground_rejected(self):
        with pytest.raises(InputError):
            Subset(default_ground(2), 0b100)

    def test_sym_diff_definition(self):
        g = default_ground(3)
        assert g.subset("ab") ^ g.subset("bc") == g.subset("ac")

    def test_sym_diff_self_cancels(self):
        g = default_ground(4)
        x = g.subset("ad")
        assert x ^ x == g.subset()

    def test_sym_diff_disjoint_sets(self):
        # {a,d,e} symmetric-difference {b} is {a,b,d,e}
        g = default_ground(5)
        assert g.subset("ade") ^ g.subset("b") == g.subset("abde")

    def test_mismatched_grounds_rejected(self):
        a = default_ground(2).subset("a")
        b = GroundSet.of("x", "y").subset("x")
        with pytest.raises(InputError):
            a ^ b

    def test_exhaustive_group_laws_up_to_4(self):
        # commutative, associative, identity empty set, every set self-inverse
        for n in range(5):
            g = default_ground(n)
            subs = [Subset(g, m) for m in g.all_masks()]
            empty = Subset(g, 0)
            for a in subs:
                assert a ^ empty == a
                assert a ^ a == empty
                for b in subs:
                    assert a ^ b == b ^ a
            if n <= 3:
                for a in subs:
                    for b in subs:
                        for c in subs:
                            assert (a ^ b) ^ c == a ^ (b ^ c)

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    def test_sym_diff_matches_set_semantics(self, x, y, z):
        g = default_ground(8)
        a, b = Subset(g, x), Subset(g, y)
        assert set((a ^ b).labels) == set(a.labels) ^ set(b.labels)


class TestFamilies:
    def test_members_canonical_and_deduped(self):
        g = default_ground(2)
        fam = SetFamily(g, (0b10, 0b01, 0b10))
        assert fam.masks == (0b01, 0b10)

    @pytest.mark.parametrize(
        "masks, named",
        [
            ((0b01, -1), "-0b1"),
            ((0b100, 0b01), "0b100"),
            ((0b1000, 0b01, -3), "-0b11"),  # both kinds: the smallest mask is named
        ],
    )
    def test_out_of_range_member_named(self, masks, named):
        with pytest.raises(InputError) as err:
            SetFamily(default_ground(2), masks)
        assert str(err.value) == f"mask {named} has bits outside ground set of size 2"

    def test_membership_matches_set_definition(self):
        # reference: the definition by a set of member masks
        for n in range(4):
            g, other = default_ground(n), GroundSet(tuple("vwxyz"[:n]))
            for code in range(0, 1 << (1 << n), 5):
                fam = SetFamily(g, tuple(m for m in g.all_masks() if code >> m & 1))
                for mask in g.all_masks():
                    for s in (Subset(g, mask), Subset(other, mask)):
                        assert (s in fam) == (s.ground == fam.ground and s.mask in set(fam.masks))

    def test_minimal_members(self):
        g = default_ground(3)
        fam = SetFamily.from_labels(g, [["a"], ["a", "b"], ["c"]])
        assert minimal_members(fam) == SetFamily.from_labels(g, [["a"], ["c"]])
        assert minimal_members(SetFamily(g, ())) == SetFamily(g, ())

    def test_maximal_members(self):
        g = default_ground(3)
        fam = SetFamily.from_labels(g, [["a"], ["a", "b"], ["c"]])
        assert maximal_members(fam) == SetFamily.from_labels(g, [["a", "b"], ["c"]])
        single = SetFamily.from_labels(g, [["b"]])
        assert maximal_members(single) == single

    def test_minimal_dependents_of_u23(self):
        # oracle: enumerate all subsets, keep the non-independent ones, take minimal
        g = default_ground(3)
        m = uniform(2, g)
        indep = {frozenset(s.labels) for s in m.independents()}
        dependents = [
            Subset(g, mask) for mask in g.all_masks() if frozenset(g.labels_of(mask)) not in indep
        ]
        fam = SetFamily.from_subsets(g, dependents)
        assert minimal_members(fam) == SetFamily.from_labels(g, [["a", "b", "c"]])

    def test_maximal_of_two_size_classes(self):
        # sizes k-1 and k+1 with k=2, n=4: the maximal members are the 3-sets
        g = default_ground(4)
        fam = SetFamily(g, tuple(m for m in g.all_masks() if m.bit_count() in (1, 3)))
        assert maximal_members(fam).masks == tuple(m for m in g.all_masks() if m.bit_count() == 3)

    def test_extreme_members_match_definitions_on_every_family(self):
        for n in range(4):
            g = default_ground(n)
            for code in range(1 << (1 << n)):  # every family, the empty one included
                masks = tuple(i for i in g.all_masks() if code >> i & 1)
                fam = SetFamily(g, masks)
                # a member is minimal (maximal) when no other member is a subset (superset) of it
                mins = tuple(m for m in masks if not any(k != m and k & ~m == 0 for k in masks))
                maxs = tuple(m for m in masks if not any(k != m and m & ~k == 0 for k in masks))
                assert minimal_members(fam).masks == mins, (n, code)
                assert maximal_members(fam).masks == maxs, (n, code)

    def test_minimal_covers_every_member(self):
        for n in range(4):
            g = default_ground(n)
            for code in range(1, 1 << (1 << n), 7):
                masks = tuple(i for i in g.all_masks() if code >> i & 1)
                fam = SetFamily(g, masks)
                mins = minimal_members(fam)
                assert set(mins.masks) <= set(fam.masks)
                for m in fam.masks:
                    assert any(k & ~m == 0 for k in mins.masks)
