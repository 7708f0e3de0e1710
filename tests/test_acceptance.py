"""Acceptance suite: the exit criteria, all exact (boolean) checks.

Run `pytest tests/test_acceptance.py -s` to see one pass/fail line per
criterion.  Criteria 1-6 are judged on one collection of reports; criterion
7 collects them again from cold caches, and runs two commands in fresh
interpreters under two hash seeds, and compares bytes.
"""

import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from deltamatroids import (
    CORPUS,
    DeltaMatroid,
    GroundSet,
    SetFamily,
    construct_sandwich,
    cycle_matroid,
    default_ground,
    direct_sum,
    find_unpairable_pair,
    fmax_upper_uniform,
    is_pairable,
    is_quotient,
    rigidity_feasible_family,
    rigidity_matroid,
    uniform,
    verify_cone_quotient,
    verify_property,
)
from deltamatroids.delta import _delta_ok
from deltamatroids.matroids import _indicator
from deltamatroids.search import _codes, _objects
from deltamatroids.serialize import matroid_from_json


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE criterion {num} ({desc}): FAIL")
        raise
    print(f"\nACCEPTANCE criterion {num} ({desc}): PASS")


REPORT_KEYS = (
    ("uplow", 4),
    ("necessity-circuit-union", 4),
    ("mb-equicardinal", 4),
    ("independents-are-delta", 4),
    ("spanning-are-delta", 4),
    ("sufficiency-sandwich", 1),
    ("sufficiency-sandwich", 2),
    ("sufficiency-sandwich", 3),
    ("sufficiency-sandwich", 4),
)


def _collect_reports():
    _codes.cache_clear()  # each collection builds its universes cold
    _objects.cache_clear()
    _delta_ok.cache_clear()
    reports = {k: verify_property(k[0], k[1]) for k in REPORT_KEYS}
    reports[("unpairable-pair", 5)] = find_unpairable_pair(5)
    return reports


@pytest.fixture(scope="module")
def reports():
    return _collect_reports()


@pytest.fixture(scope="module")
def reports_again():
    return _collect_reports()


def test_criterion_1_axiom_exhaustives(reports):
    with criterion(1, "axiom exhaustives at n=4"):
        assert (1 << 16) - 1 == 65535  # candidate nonempty families scanned
        uplow = reports[("uplow", 4)]
        necessity = reports[("necessity-circuit-union", 4)]
        assert uplow.holds and uplow.witnesses == []
        assert necessity.holds and necessity.witnesses == []
        # both quantify over the same exchange-certified families
        assert uplow.universe_size == necessity.universe_size > 0


def test_criterion_2_main_theorem_round_trip(reports):
    with criterion(2, "main theorem round trip over all matroid pairs, n<=4"):
        for n in range(1, 5):
            rep = reports[("sufficiency-sandwich", n)]
            assert rep.holds and rep.witnesses == [], f"n={n}"
            assert rep.universe_size > 0


def test_criterion_3_single_matroid_theorems(reports):
    with criterion(3, "independent and spanning families are exchange families"):
        assert reports[("mb-equicardinal", 4)].holds
        assert reports[("independents-are-delta", 4)].holds
        assert reports[("spanning-are-delta", 4)].holds


def test_criterion_4_worked_examples():
    with criterion(4, "worked examples reproduce exactly"):
        # (a) sizes 1 and 3 on four elements
        g4 = default_ground(4)
        d = DeltaMatroid.certify(
            SetFamily(g4, tuple(m for m in g4.all_masks() if m.bit_count() in (1, 3)))
        )
        assert d.upper == uniform(3, g4) and d.lower == uniform(1, g4)

        # (b) rank-5 uniform over the split lower matroid
        ml = direct_sum(
            uniform(2, GroundSet.of("1", "2", "3")), uniform(2, GroundSet.of("a", "b", "c"))
        )
        mu = uniform(5, ml.ground)
        assert is_pairable(mu, ml).pairable
        sandwich = DeltaMatroid.certify(construct_sandwich(mu, ml))
        assert sandwich.upper == mu and sandwich.lower == ml

        # (c) distinct delta-matroids sharing upper and lower matroids
        g2 = default_ground(2)
        d1 = DeltaMatroid.certify(SetFamily.from_labels(g2, [[], ["a"], ["b"], ["a", "b"]]))
        d2 = DeltaMatroid.certify(SetFamily.from_labels(g2, [[], ["a", "b"]]))
        assert d1 != d2 and d1.upper == d2.upper and d1.lower == d2.lower

        # (d) the maximal-family example on {a,b,c,d}
        base = SetFamily(
            g4, tuple(m for m in g4.all_masks() if m.bit_count() in (1, 2)) + (g4.full_mask,)
        )
        db = DeltaMatroid.certify(base)
        out = fmax_upper_uniform(db)
        three_sets = tuple(m for m in g4.all_masks() if m.bit_count() == 3)
        assert set(out.masks) == set(base.masks) | set(three_sets)
        dm = DeltaMatroid.certify(out)
        assert dm.upper == db.upper and dm.lower == db.lower
        # single-set augmentation: anything further breaks the axiom or the pair
        for extra in g4.all_masks():
            if extra in set(out.masks):
                continue
            aug = _indicator(set(out.masks) | {extra}, 4)
            if _delta_ok(aug):
                da = DeltaMatroid._trusted(g4, aug)
                assert da.upper != dm.upper or da.lower != dm.lower


def test_criterion_5_rigidity_suite():
    with criterion(5, "rigidity suite over the graph corpus"):
        for name, g in CORPUS.items():
            fam = rigidity_feasible_family(g)
            DeltaMatroid.certify(fam)  # raises on failure
            assert verify_cone_quotient(g).both_hold, name
            assert is_quotient(cycle_matroid(g), rigidity_matroid(g)), name


def test_criterion_6_counterexample_reproduction(reports):
    with criterion(6, "counterexample search at n=5"):
        report = reports[("unpairable-pair", 5)]
        assert report.holds and report.witnesses
        wit = report.witnesses[0]
        mu = matroid_from_json(wit["upper"])
        ml = matroid_from_json(wit["lower"])
        # both basis-level necessary conditions hold
        assert all(mu.is_independent(b) for b in ml.bases)
        assert all(ml.is_spanning(b) for b in mu.bases)
        # the pair still fails the circuit-union condition, on a 2-circuit
        rep = is_pairable(mu, ml)
        assert not rep.pairable
        assert len(wit["offending_circuit"]) == 2
        assert list(rep.offending_circuit.labels) == wit["offending_circuit"]
        # exchange-failure replay: a feasible pair and pivot with no partner
        replay = wit["replay"]
        g = mu.ground
        sandwich = set(construct_sandwich(mu, ml).masks)
        f1 = g.subset(replay["first"])
        f2 = g.subset(replay["second"])
        pivot = g.subset([replay["pivot"]])
        assert pivot.mask & (f1 ^ f2).mask
        for lab in f1 ^ f2:
            assert (f1 ^ (pivot | g.subset([lab]))).mask not in sandwich


def _cli_stdout(seed, *argv):
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "deltamatroids.cli", *argv], env=env, capture_output=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_criterion_7_determinism(reports, reports_again):
    with criterion(7, "byte-identical reports from cold caches and under two hash seeds"):
        assert set(reports) == set(reports_again)
        for key in reports:
            assert reports[key].canonical_bytes() == reports_again[key].canonical_bytes(), key
        for argv in (("verify", "sufficiency-sandwich", "--n", "3"), ("search", "unpairable", "--n", "5")):
            assert _cli_stdout("0", *argv) == _cli_stdout("1", *argv), argv
