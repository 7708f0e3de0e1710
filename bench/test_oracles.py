"""Tests of the benchmark's own oracles against known counts and closed forms.

    python3 -m pytest bench/test_oracles.py
"""

from itertools import combinations
from math import comb

import oracles as orc


def _literal_delta(fam) -> bool:
    """Symmetric exchange read straight off the definition, on frozensets."""
    sets = {frozenset(orc.bits(m)) for m in fam}
    for f1 in sets:
        for f2 in sets:
            diff = f1 ^ f2
            for x in diff:
                if not any(f1 ^ {x, y} in sets for y in diff):
                    return False
    return bool(sets)


def test_matroid_counts_match_oeis_a058673():
    assert tuple(len(orc.matroid_codes(n)) for n in range(5)) == orc.MATROID_COUNTS == (1, 2, 5, 16, 68)


def test_delta_enumeration_matches_the_literal_definition():
    for n in range(4):
        want = [c for c in range(1, 1 << (1 << n)) if _literal_delta(orc.decode(c))]
        assert orc.delta_codes(n) == want
    assert [len(orc.delta_codes(n)) for n in range(3)] == [1, 3, 15]


def test_every_matroid_basis_family_is_a_delta_family():
    for code in orc.matroid_codes(4):
        assert orc.is_delta_family(orc.decode(code))


def test_fmax_universe_counts_uniform_sides():
    # n = 1: {∅}, {a}, {∅, a}; every upper and every lower matroid is uniform
    assert orc.fmax_universe(1, orc.delta_codes(1)) == 6


def test_uniform_sandwich_closed_form():
    for n in range(7):
        for k in range(n + 1):
            for j in range(k + 1):
                direct = [m for m in range(1 << n) if j <= m.bit_count() <= k]
                assert orc.sandwich_size_uniform(n, k, j) == len(direct)
    assert orc.sandwich_size_sum([(4, 2, 1), (5, 3, 2)]) == (4 + 6) * (10 + 10)


def test_spanning_tree_counts_match_cayley():
    for nv in range(2, 6):
        edges = list(combinations(range(nv), 2))
        assert len(orc.maximal_forests(nv, edges)) == nv ** (nv - 2)


def test_forests_of_a_multigraph():
    # a loop and a parallel pair: bases are one of the two parallel edges
    edges = [(0, 0), (0, 1), (0, 1)]
    assert orc.maximal_forests(2, edges) == [0b010, 0b100]


def test_graphic_sandwich_of_a_contraction():
    # triangle upper, triangle with one edge contracted lower: forests of
    # the triangle whose edges span the two merged vertices
    tri = [(0, 1), (1, 2), (0, 2)]
    merged = [(0, 0), (0, 1), (0, 1)]
    got = orc.graphic_sandwich(3, tri, 2, merged)
    assert got == [m for m in range(8) if m & 0b110 and m != 0b111]


def test_circuits_and_the_unpairable_witness():
    # upper bases {ce, de}, lower bases {d}, {e} on a..e: cd is an upper
    # circuit while the lower circuits inside it (c alone) do not cover d
    c, d, e = 1 << 2, 1 << 3, 1 << 4
    upper, lower = [c | e, d | e], [d, e]
    assert orc.offending_circuit_ok(c | d, upper, lower)
    assert not orc.offending_circuit_ok(d | e, upper, lower)
    assert orc.replay_blocks_realization(c | e, d, 4, upper, lower)
    assert not orc.replay_blocks_realization(d | e, d, 4, upper, lower)


def test_uniform_circuits():
    bases = orc.uniform_bases(5, 2)
    indep = orc.independents(bases)
    circuits = [m for m in range(32) if orc.is_circuit(m, indep)]
    assert len(circuits) == comb(5, 3) and all(m.bit_count() == 3 for m in circuits)
