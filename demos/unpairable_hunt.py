"""Hunt for an unpairable matroid pair, and explore realization extremes.

Run with `python3 demos/unpairable_hunt.py`.  The first part searches five
elements for a counterexample: two matroids on those elements that
satisfy both basis-level sandwich conditions yet admit no delta-matroid
with those upper and lower matroids.  (Such pairs exist from three elements
on; the one found here has the same two-element offending circuit.)  The second part asks whether, for a
pairable pair, the smallest and largest realizations are unique.
"""

from deltamatroids import (
    AxiomError,
    DeltaMatroid,
    SetFamily,
    construct_sandwich,
    default_ground,
    find_unpairable_pair,
    uniform,
)
from deltamatroids.serialize import matroid_from_json

# -- part one: the counterexample ----------------------------------------

report = find_unpairable_pair(5)
wit = report.witnesses[0]
mu = matroid_from_json(wit["upper"])
ml = matroid_from_json(wit["lower"])

print("counterexample found over ground", list(mu.ground.labels))
print("  upper bases:", [sorted(b.labels) for b in mu.bases])
print("  lower bases:", [sorted(b.labels) for b in ml.bases])
print("  every lower basis is upper-independent:",
      all(mu.is_independent(b) for b in ml.bases))
print("  every upper basis is lower-spanning:",
      all(ml.is_spanning(b) for b in mu.bases))
print("  offending upper circuit (not a union of lower circuits):",
      wit["offending_circuit"])
print("  candidate families exhausted with no realization:",
      wit["candidates_exhausted"])
print("  exchange failure replay:", wit["replay"])
print()

# -- part two: are extreme realizations unique? --------------------------

# For a pairable pair, the sandwich family is the unique LARGEST realization:
# every realization lives inside it (its members must be upper-independent
# and lower-spanning).  Whether the SMALLEST is also unique is less obvious;
# enumerate every realization of one pair and look.
g = default_ground(3)
mu3, ml3 = uniform(3, g), uniform(1, g)
sandwich = construct_sandwich(mu3, ml3)
forced = set(mu3.bases.masks) | set(ml3.bases.masks)
optional = [m for m in sandwich.masks if m not in forced]

realizations = []
for pick in range(1 << len(optional)):
    masks = tuple(sorted(forced | {optional[i] for i in range(len(optional)) if pick >> i & 1}))
    try:
        d = DeltaMatroid.certify(SetFamily(g, masks))
    except AxiomError:
        continue
    if d.upper == mu3 and d.lower == ml3:
        realizations.append(masks)

sizes = sorted(len(r) for r in realizations)
smallest = [r for r in realizations if len(r) == sizes[0]]
largest = [r for r in realizations if len(r) == sizes[-1]]
print(f"pair U(3,3) over U(1,3): {len(realizations)} realizations, sizes {sizes}")
print(f"  unique largest (the sandwich): {len(largest) == 1 and largest[0] == sandwich.masks}")
print(f"  number of minimum-size realizations: {len(smallest)}")
for r in smallest:
    print("   ", SetFamily(g, r).member_labels())
