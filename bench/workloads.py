"""The three workloads: seeded inputs, the queries that feed them to the
program, and the checks of every output against `oracles`.

A workload is (setup, queries, check).  `setup(dm, seed)` builds the inputs,
`queries(dm, inputs)` returns (label, thunk) pairs that call into the
program, and `check(inputs, outputs, oracle)` returns one line per wrong
output.  Thunks reach the program through module attributes (`dm.delta.x`)
at call time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import io
import itertools
import json
import random
import sys
import types
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path

import oracles as orc

LABELS = "abcdefghijk"

PROPERTY_IDS = (
    "mb-equicardinal",
    "independents-are-delta",
    "spanning-are-delta",
    "uplow",
    "necessity-circuit-union",
    "sufficiency-sandwich",
    "dual-exchange",
    "fmax-maximal",
)


def import_program(root: Path) -> types.SimpleNamespace:
    """Import deltamatroids from the checkout's src/ and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import deltamatroids
    import deltamatroids.cli

    if src not in Path(deltamatroids.__file__).resolve().parents:
        raise ImportError(f"deltamatroids came from {deltamatroids.__file__}, not {src}")
    mods = ("cli", "core", "delta", "matroids", "rigidity", "search", "serialize")
    return types.SimpleNamespace(**{m: sys.modules[f"deltamatroids.{m}"] for m in mods})


def _masks(ground: list[str], members: list[list[str]]) -> list[int]:
    index = {lab: i for i, lab in enumerate(ground)}
    return [sum(1 << index[x] for x in m) for m in members]


def _labels(mask: int, ground) -> list[str]:
    return [ground[i] for i in orc.bits(mask)]


# -- cli-sweep ----------------------------------------------------------------
# The whole n <= 4 universe plus the n = 5 graphic search: its inputs are
# exhaustive, so the seed changes nothing.

CLI_COMMANDS = (
    ["enumerate", "matroid", "--n", "4"],
    ["enumerate", "delta", "--n", "4"],
    *(["verify", pid, "--n", "4"] for pid in PROPERTY_IDS),
    ["search", "unpairable", "--n", "5"],
)


def cli_oracle() -> dict:
    """Brute-force universes at n = 4; run by the parent, outside any timing."""
    mcodes = orc.matroid_codes(4)
    dcodes = orc.delta_codes(4)
    return {"matroid_codes": mcodes, "delta_codes": dcodes, "fmax_universe": orc.fmax_universe(4, dcodes)}


def cli_setup(dm, seed: int) -> list[list[str]]:
    return [list(c) for c in CLI_COMMANDS]


def _run_cli(dm, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = dm.cli.main(argv)
    if rc == 2:  # the CLI's input-error exit: the query did not run
        raise RuntimeError(f"deltamatroids {' '.join(argv)}: {err.getvalue().strip()}")
    return rc, out.getvalue()


def cli_queries(dm, inputs):
    return [(" ".join(argv), partial(_run_cli, dm, argv)) for argv in inputs]


def _codes(items: list[dict], key: str) -> set[int]:
    return {sum(1 << m for m in _masks(it["ground"], it[key])) for it in items}


def _check_unpairable(w: dict) -> list[str]:
    ground = w["upper"]["ground"]
    up = _masks(ground, w["upper"]["bases"])
    low = _masks(ground, w["lower"]["bases"])
    bad = []
    if not (orc.is_basis_family(up) and orc.is_basis_family(low)):
        bad.append("witness sides are not both matroids")
    indep = orc.independents(up)
    if not all(b in indep for b in low) or not all(orc.is_spanning(b, low) for b in up):
        bad.append("witness fails a basis-level necessary condition")
    circuit = _masks(ground, [w["offending_circuit"]])[0]
    if not orc.offending_circuit_ok(circuit, up, low):
        bad.append("offending circuit is not an upper circuit outside the lower circuit unions")
    r = w.get("replay")
    if r is None:
        bad.append("witness has no replay triple")
    else:
        first, second = _masks(ground, [r["first"], r["second"]])
        pivot = ground.index(r["pivot"])
        if not orc.replay_blocks_realization(first, second, pivot, up, low):
            bad.append("replay triple does not block every realization")
    return bad


def cli_check(inputs, outputs, oracle) -> list[str]:
    n_mat = len(oracle["matroid_codes"])
    n_delta = len(oracle["delta_codes"])
    universe = {
        "mb-equicardinal": n_mat,
        "independents-are-delta": n_mat,
        "spanning-are-delta": n_mat,
        "uplow": n_delta,
        "necessity-circuit-union": n_delta,
        "sufficiency-sandwich": n_mat * n_mat,
        "dual-exchange": n_delta,
        "fmax-maximal": oracle["fmax_universe"],
    }
    bad = []
    if n_mat != orc.MATROID_COUNTS[4]:
        bad.append(f"oracle found {n_mat} matroids at n=4, OEIS A058673 says {orc.MATROID_COUNTS[4]}")
    for argv, out in zip(inputs, outputs):
        if out is None:
            continue
        rc, text = out
        what = " ".join(argv)
        payload = json.loads(text)
        if rc != 0:
            bad.append(f"{what}: exit code {rc}")
        elif argv[0] == "enumerate":
            key, want = ("bases", oracle["matroid_codes"]) if argv[1] == "matroid" else ("feasibles", oracle["delta_codes"])
            if payload["count"] != len(want) or _codes(payload["items"], key) != set(want):
                bad.append(f"{what}: {payload['count']} structures differ from the brute force's {len(want)}")
        elif argv[0] == "verify":
            pid = argv[1]
            if not payload["holds"] or payload["witnesses"]:
                bad.append(f"{what}: property reported false")
            if payload["universe_size"] != universe[pid]:
                bad.append(f"{what}: universe {payload['universe_size']}, brute force {universe[pid]}")
        else:
            if not payload["holds"] or len(payload["witnesses"]) != 1:
                bad.append(f"{what}: no witness")
            else:
                bad += [f"{what}: {b}" for b in _check_unpairable(payload["witnesses"][0])]
    return bad


# -- pair-construct -----------------------------------------------------------
# The seed relabels the ground set of each uniform and direct-sum pair and
# draws the graphs of the graphic pairs.  It does not choose between a pair
# and its dual: U(8,11)/U(7,11) costs 20% more than U(4,11)/U(3,11), so
# such a choice would make run time swing with the seed.

UNIFORM_SLOTS = ((11, 4, 3), (10, 5, 4), (10, 5, 3), (9, 5, 3), (8, 4, 2))
SUM_SLOTS = (((5, 3, 2), (6, 3, 2)), ((4, 2, 1), (5, 3, 2)), ((4, 2, 2), (6, 4, 2)))
UNIFORM_UNPAIRABLE = ((10, 3, 5), (11, 4, 6))
SUM_UNPAIRABLE = (((5, 2, 2), (6, 3, 4)), ((4, 3, 1), (5, 1, 2)))
GRAPHIC_QUOTIENT = ((6, 9), (6, 9), (6, 10), (7, 10))
GRAPHIC_UNPAIRABLE = ((6, 9), (6, 10))


def _matroid_obj(n: int, bases: list[int]) -> dict:
    ground = list(LABELS[:n])
    return {"ground": ground, "bases": [_labels(b, ground) for b in bases]}


def _sum_bases(parts, which: int) -> list[int]:
    """Bases of the direct sum of U(part[which], part[0]) over the parts."""
    per_part, shift = [], 0
    for p in parts:
        per_part.append([b << shift for b in orc.uniform_bases(p[0], p[which])])
        shift += p[0]
    return sorted(sum(c) for c in itertools.product(*per_part))


def _permute(mask: int, perm: list[int]) -> int:
    return sum(1 << perm[i] for i in orc.bits(mask))


def _connected_graph(rng: random.Random, nv: int, ne: int) -> list[tuple[int, int]]:
    pairs = list(itertools.combinations(range(nv), 2))
    while True:
        rng.shuffle(pairs)
        edges = sorted(pairs[:ne])
        if orc.components(nv, edges, (1 << ne) - 1) == 1:
            return edges


def pair_setup(dm, seed: int) -> list[dict]:
    rng = random.Random(seed)
    specs = []
    for n, k, j in UNIFORM_SLOTS:
        specs.append({"kind": "uniform", "parts": [[n, k, j]], "pairable": True})
    for parts in SUM_SLOTS:
        specs.append({"kind": "sum", "parts": [list(p) for p in parts], "pairable": True})
    for n, k, j in UNIFORM_UNPAIRABLE:
        specs.append({"kind": "uniform", "parts": [[n, k, j]], "pairable": False})
    for parts in SUM_UNPAIRABLE:
        specs.append({"kind": "sum", "parts": [list(p) for p in parts], "pairable": False})
    for nv, ne in GRAPHIC_QUOTIENT:
        # identifying two vertices of G gives a graph whose cycle matroid is
        # a quotient of M(G), so the pair is pairable
        edges = _connected_graph(rng, nv, ne)
        a, b = rng.sample(range(nv), 2)
        merged = [tuple(sorted(x if x != b else a for x in e)) for e in edges]
        relabel = {v: i for i, v in enumerate(sorted({x for x in range(nv) if x != b}))}
        lower = [(relabel[u], relabel[v]) for u, v in merged]
        specs.append({"kind": "graphic", "upper": [nv, edges], "lower": [nv - 1, lower], "pairable": True})
    for nv, ne in GRAPHIC_UNPAIRABLE:
        # relabelling the edges keeps the rank; a quotient of equal rank is
        # the matroid itself, so a relabelling with other bases is unpairable
        edges = _connected_graph(rng, nv, ne)
        while True:
            perm = rng.sample(range(ne), ne)
            lower = [edges[perm[i]] for i in range(ne)]
            if orc.maximal_forests(nv, lower) != orc.maximal_forests(nv, edges):
                break
        specs.append({"kind": "graphic", "upper": [nv, edges], "lower": [nv, lower], "pairable": False})
    for s in specs:
        if s["kind"] == "graphic":
            n = len(s["upper"][1])
            s["upper_bases"] = orc.maximal_forests(*s["upper"])
            s["lower_bases"] = orc.maximal_forests(*s["lower"])
        else:
            n = sum(p[0] for p in s["parts"])
            s["perm"] = rng.sample(range(n), n)
            s["upper_bases"] = sorted(_permute(b, s["perm"]) for b in _sum_bases(s["parts"], 1))
            s["lower_bases"] = sorted(_permute(b, s["perm"]) for b in _sum_bases(s["parts"], 2))
        s["n"] = n
        s["upper_obj"] = _matroid_obj(n, s["upper_bases"])
        s["lower_obj"] = _matroid_obj(n, s["lower_bases"])
    return specs


def _pair_query(dm, spec: dict) -> dict:
    load = dm.serialize.family_from_json
    mu = dm.matroids.Matroid.certify(load(spec["upper_obj"], "bases"))
    ml = dm.matroids.Matroid.certify(load(spec["lower_obj"], "bases"))
    rep = dm.delta.is_pairable(mu, ml)
    out = {"ranks": [mu.rank, ml.rank], "bases": [list(mu.bases.masks), list(ml.bases.masks)], "pairable": rep.pairable}
    if rep.pairable:
        d = dm.delta.DeltaMatroid.certify(dm.delta.construct_sandwich(mu, ml))
        out["sandwich_upper"] = list(d.upper.bases.masks)
        out["sandwich_lower"] = list(d.lower.bases.masks)
        out["feasibles"] = dm.serialize.delta_to_json(d)
    else:
        out["circuit"] = list(rep.offending_circuit.labels)
    return out


def pair_queries(dm, inputs):
    return [(f"{s['kind']} n={s['n']}", partial(_pair_query, dm, s)) for s in inputs]


def _sandwich(spec: dict) -> set[int]:
    if spec["kind"] == "graphic":
        return set(orc.graphic_sandwich(*spec["upper"], *spec["lower"]))
    sets, shift = [], 0
    for n, k, j in spec["parts"]:
        sets.append([m << shift for m in range(1 << n) if j <= m.bit_count() <= k])
        shift += n
    return {_permute(sum(c), spec["perm"]) for c in itertools.product(*sets)}


def _rank(bases: list[int]) -> int:
    return bases[0].bit_count()


def pair_check(inputs, outputs, oracle) -> list[str]:
    bad = []
    for spec, out in zip(inputs, outputs):
        if out is None:
            continue
        what = f"{spec['kind']} pair {spec.get('parts') or spec['upper'][0]}"
        up, low = spec["upper_bases"], spec["lower_bases"]
        if out["ranks"] != [_rank(up), _rank(low)] or out["bases"] != [up, low]:
            bad.append(f"{what}: certified matroids differ from the input")
        if out["pairable"] != spec["pairable"]:
            bad.append(f"{what}: pairable={out['pairable']}, theory says {spec['pairable']}")
        elif spec["pairable"]:
            ground = out["feasibles"]["ground"]
            feas = set(_masks(ground, out["feasibles"]["feasibles"]))
            # uniform parts have the closed form; graphs the union-find count
            size = len(_sandwich(spec)) if spec["kind"] == "graphic" else orc.sandwich_size_sum(spec["parts"])
            if len(feas) != size or feas != _sandwich(spec):
                bad.append(f"{what}: sandwich of {len(feas)} sets, oracle {size}")
            if out["sandwich_upper"] != up or out["sandwich_lower"] != low:
                bad.append(f"{what}: sandwich does not realize the pair")
        else:
            c = _masks(spec["upper_obj"]["ground"], [out["circuit"]])[0]
            if not orc.offending_circuit_ok(c, up, low):
                bad.append(f"{what}: offending circuit {out['circuit']} does not re-check")
    return bad


# -- cone-rigidity ------------------------------------------------------------
# Fixed graph shapes; the seed relabels their vertices and reorders their
# edges.  Cost depends on the shape (two connected 7-edge graphs on 5
# vertices differ by 2x), so drawing shapes at random would make run time
# swing with the seed.  Cones stay at 11-12 edges: a 13-edge cone takes
# 1.4-3 s, which would leave too few rounds in a run.


def _complement(nv: int, missing: str) -> list[tuple[int, int]]:
    gone = {tuple(sorted(map(int, e))) for e in missing.split()}
    return [e for e in itertools.combinations(range(nv), 2) if e not in gone]


CONE_SHAPES = (
    (5, _complement(5, "01 02 12")),  # K5 minus a triangle
    (5, _complement(5, "01 12 23")),  # K5 minus a 3-edge path
    (5, _complement(5, "01 02 03")),  # K5 minus a 3-edge star
    (5, _complement(5, "01 12 34")),  # K5 minus a 2-path and an edge
    (5, _complement(5, "01 12 23 03")),  # K5 minus a 4-cycle
    (5, _complement(5, "01 12 23 34")),  # K5 minus a 4-edge path
)
FEASIBLE_SHAPES = (
    (5, _complement(5, "")),  # K5
    (5, _complement(5, "01 23")),
    (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]),  # prism
    (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5), (0, 4)]),
)


def _relabel(rng: random.Random, nv: int, edges) -> list[tuple[int, int]]:
    perm = rng.sample(range(nv), nv)
    out = [tuple(sorted((perm[u], perm[v]))) for u, v in edges]
    rng.shuffle(out)
    return out


def _multigraph(dm, nv: int, edges):
    vs = [f"v{i}" for i in range(nv)]
    return dm.rigidity.Multigraph.build(vs, [(f"e{i}", vs[u], vs[v]) for i, (u, v) in enumerate(edges)])


def cone_setup(dm, seed: int) -> list[dict]:
    rng = random.Random(seed)
    items = [{"kind": "cone", "name": name, "graph": g} for name, g in dm.rigidity.CORPUS.items()]
    for nv, shape in CONE_SHAPES:
        edges = _relabel(rng, nv, shape)
        items.append({"kind": "cone", "name": f"G({nv},{len(edges)})", "graph": _multigraph(dm, nv, edges)})
    for nv, shape in FEASIBLE_SHAPES:
        edges = _relabel(rng, nv, shape)
        items.append(
            {"kind": "feasible", "name": f"G({nv},{len(edges)})", "nv": nv, "edges": edges, "graph": _multigraph(dm, nv, edges)}
        )
    return items


def _cone_query(dm, item: dict):
    g = item["graph"]
    if item["kind"] == "cone":
        rep = dm.rigidity.verify_cone_quotient(g)
        return [rep.deletion_identity, rep.contraction_identity]
    d = dm.delta.DeltaMatroid.certify(dm.rigidity.rigidity_feasible_family(g))
    return {"feasibles": list(d.feasibles.masks), "lower": list(d.lower.bases.masks)}


def cone_queries(dm, inputs):
    return [(f"{it['kind']} {it['name']}", partial(_cone_query, dm, it)) for it in inputs]


def _sparse_23(edges, mask: int) -> bool:
    """Every nonempty edge subset F has |F| <= 2|V(F)| - 3."""
    for s in orc.submasks(mask):
        if s:
            verts = {x for i in orc.bits(s) for x in edges[i]}
            if s.bit_count() > 2 * len(verts) - 3:
                return False
    return True


def cone_check(inputs, outputs, oracle) -> list[str]:
    bad = []
    for item, out in zip(inputs, outputs):
        if out is None:
            continue
        if item["kind"] == "cone":
            if out != [True, True]:
                bad.append(f"cone {item['name']}: identities {out}, theory says both hold")
            continue
        nv, edges = item["nv"], item["edges"]
        trees = orc.maximal_forests(nv, edges)
        if out["lower"] != trees:
            bad.append(f"feasible {item['name']}: lower matroid has {len(out['lower'])} bases, {len(trees)} spanning trees")
        want = [
            m for m in range(1 << len(edges)) if orc.components(nv, edges, m) == 1 and _sparse_23(edges, m)
        ]
        if out["feasibles"] != want:
            bad.append(f"feasible {item['name']}: {len(out['feasibles'])} feasible sets, brute force {len(want)}")
    return bad


WORKLOADS = {
    "cli-sweep": (cli_setup, cli_queries, cli_check),
    "pair-construct": (pair_setup, pair_queries, pair_check),
    "cone-rigidity": (cone_setup, cone_queries, cone_check),
}

ORACLES = {"cli-sweep": cli_oracle}
