import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from deltamatroids import (
    GroundSet,
    InputError,
    SetFamily,
    Subset,
    default_ground,
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

    @pytest.mark.parametrize("n", (-1, 17))
    def test_default_ground_outside_the_cap(self, n):
        with pytest.raises(InputError) as err:
            default_ground(n)
        assert str(err.value) == f"ground size {n} outside 0..16"

    @staticmethod
    def reference_labels(g, mask):
        return tuple(lab for i, lab in enumerate(g.labels) if mask >> i & 1)

    def test_label_tables_read_the_labels_of_every_mask(self):
        # every mask up to n = 12, and seeded masks on 13 to 16 elements
        rng = random.Random(5)
        for n in range(17):
            g = GroundSet(tuple(f"e{n - i}" for i in range(n)))  # labels out of their sort order
            masks = list(g.all_masks()) if n <= 12 else [0, g.full_mask, *rng.sample(range(1 << n), 3000)]
            want = [self.reference_labels(g, m) for m in masks]
            assert [g.labels_of(m) for m in masks] == want, n
            assert g._label_lists(masks) == [list(w) for w in want], n
            fam = SetFamily(g, tuple(masks))
            assert fam.member_labels() == [list(self.reference_labels(g, m)) for m in fam.masks], n

    @staticmethod
    def reference_tables(labels):
        """The label tables as each ground built its own: per block of four
        elements (four blocks, padded), the labels of each submask of the block."""
        blocks = []
        for p in range(0, 16, 4):
            table = [()]
            for lab in labels[p : p + 4]:
                table += [t + (lab,) for t in table]
            blocks.append(tuple(table))
        return tuple(blocks)

    def test_grounds_with_equal_labels_share_equal_label_tables(self):
        for n in range(17):
            for labels in (default_ground(n).labels, tuple(f"e{n - i}" for i in range(n))):
                first, fresh = GroundSet(labels)._nibbles, GroundSet(labels)._nibbles
                assert first == self.reference_tables(labels), (n, labels)
                assert all(a is b for a, b in zip(first, fresh)), (n, labels)

    def test_labels_of_rejects_masks_outside_the_ground(self):
        for n in (0, 3, 4, 11, 12, 16):
            g = default_ground(n)
            for mask in (-1, -(1 << n), 1 << n, g.full_mask + 1 << 3, 1 << 16, 1 << 40):
                with pytest.raises(InputError) as err:
                    g.labels_of(mask)
                assert str(err.value) == f"mask {mask:#b} has bits outside ground set of size {n}"


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

    def test_from_labels_builds_each_mask(self):
        g = default_ground(3)
        fam = SetFamily.from_labels(g, [["c", "a"], [], ("b",), "ab"])
        assert fam.masks == (0b000, 0b010, 0b011, 0b101)

    def test_from_labels_rejects_a_label_named_twice(self):
        g = default_ground(2)
        with pytest.raises(InputError) as err:
            SetFamily.from_labels(g, [["b"], ["a", "b", "a"]])
        assert str(err.value) == "label 'a' named twice in one subset of ('a', 'b')"
        with pytest.raises(InputError):
            g.subset("bb")

    def test_from_labels_unknown_label_names_the_ground(self):
        g = default_ground(2)
        with pytest.raises(InputError) as err:
            SetFamily.from_labels(g, [["a"], ["z"]])
        assert str(err.value) == "label 'z' not in ground set ('a', 'b')"

    def test_membership_matches_set_definition(self):
        # reference: the definition by a set of member masks
        for n in range(4):
            g, other = default_ground(n), GroundSet(tuple("vwxyz"[:n]))
            for code in range(0, 1 << (1 << n), 5):
                fam = SetFamily(g, tuple(m for m in g.all_masks() if code >> m & 1))
                for mask in g.all_masks():
                    for s in (Subset(g, mask), Subset(other, mask)):
                        assert (s in fam) == (s.ground == fam.ground and s.mask in set(fam.masks))


def test_complement_reverses_the_code_bits_up_to_n12():
    # from n = 3 on the code's bytes go through one reversal table; the
    # reference reverses the code's 2^n-bit string
    from deltamatroids.core import _complement

    rng = random.Random(34)
    for n in range(13):
        width = 1 << n
        codes = [0, 1, 1 << (width - 1), (1 << width) - 1] + [rng.getrandbits(width) for _ in range(40)]
        for code in codes:
            assert _complement(code, n) == int(format(code, f"0{width}b")[::-1], 2), (n, code)


def test_code_layers_are_the_least_and_greatest_size_members():
    # every nonempty code up to n = 3, then seeded codes at n = 4..10: dense,
    # sparse, single-size (a whole size or part of one) and the full family;
    # the reference decodes the family and keeps its extreme-size members
    from deltamatroids.core import _code_layers, _decode_family

    def reference(code):
        masks = _decode_family(code)
        sizes = [m.bit_count() for m in masks]
        return tuple(sum(1 << m for m in masks if m.bit_count() == k) for k in (min(sizes), max(sizes)))

    cases = [(n, code) for n in range(4) for code in range(1, 1 << (1 << n))]
    rng = random.Random(42)
    for n in range(4, 11):
        width = 1 << n
        cases += [(n, (1 << width) - 1)]
        cases += [(n, rng.getrandbits(width) | 1 << rng.randrange(width)) for _ in range(20)]
        cases += [(n, sum(1 << rng.randrange(width) for _ in range(3))) for _ in range(20)]
        for k in range(n + 1):
            layer = sum(1 << m for m in range(width) if m.bit_count() == k)
            cases += [(n, layer), (n, layer & rng.getrandbits(width) or layer)]
    for n, code in cases:
        assert _code_layers(code, n) == reference(code), (n, code)
    assert _code_layers(0, 4) == (0, 0)
