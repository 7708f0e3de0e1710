import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from deltamatroids import GroundSet, SetFamily, check_basis_axiom, default_ground, direct_sum, uniform
from deltamatroids.cli import main
from deltamatroids.matroids import _decode_family
from deltamatroids.rigidity import CORPUS
from deltamatroids.search import delta_codes, matroid_codes
from deltamatroids.serialize import dumps_canonical, graph_to_json, matroid_to_json


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)

    return write


def run(capsys, *argv):
    code = main(["--format", "json", *argv])
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestCheck:
    def test_delta_ok(self, files, capsys):
        path = files("d.json", {"ground": ["a", "b"], "feasibles": [[], ["a", "b"]]})
        code, payload = run(capsys, "check", "delta", path)
        assert code == 0 and payload["ok"]

    def test_matroid_violation(self, files, capsys):
        path = files("m.json", {"ground": ["a", "b", "c"], "bases": [["a"], ["b", "c"]]})
        code, payload = run(capsys, "check", "matroid", path)
        assert code == 1
        assert payload["witness"]["pivot"] == "b"
        assert payload["witness"]["first"] == ["b", "c"]

    def test_malformed_file(self, tmp_path, capsys):
        p = tmp_path / "x.json"
        for content in (b"{oops", b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000):
            p.write_bytes(content)
            assert main(["check", "matroid", str(p)]) == 2, content[:8]

    def test_missing_file(self):
        assert main(["check", "delta", "/no/such/file.json"]) == 2


class TestUpperLower:
    def test_two_size_classes(self, files, capsys):
        g = default_ground(4)
        members = [list(g.labels_of(m)) for m in g.all_masks() if m.bit_count() in (1, 3)]
        path = files("d.json", {"ground": list(g.labels), "feasibles": members})
        code, payload = run(capsys, "upper-lower", path)
        assert code == 0
        assert payload["upper"] == matroid_to_json(uniform(3, g))
        assert payload["lower"] == matroid_to_json(uniform(1, g))

    def test_bases_only_family(self, files, capsys):
        path = files("d.json", {"ground": ["a", "b"], "feasibles": [["a"], ["b"]]})
        code, payload = run(capsys, "upper-lower", path)
        assert code == 0 and payload["upper"] == payload["lower"]

    def test_non_delta_input(self, files, capsys):
        path = files("d.json", {"ground": ["a", "b", "c"], "feasibles": [[], ["a", "b", "c"]]})
        code, payload = run(capsys, "upper-lower", path)
        assert code == 1 and "witness" in payload


class TestPair:
    @pytest.fixture
    def u56_pair(self, files):
        ml = direct_sum(uniform(2, GroundSet.of("1", "2", "3")), uniform(2, GroundSet.of("a", "b", "c")))
        mu = uniform(5, ml.ground)
        return files("mu.json", matroid_to_json(mu)), files("ml.json", matroid_to_json(ml))

    def test_pairable_with_construct(self, u56_pair, capsys):
        code, payload = run(capsys, "pair", *u56_pair, "--construct")
        assert code == 0 and payload["pairable"]
        assert len(payload["sandwich"]["feasibles"]) > 9

    def test_unpairable(self, files, capsys):
        mu = files("mu.json", {"ground": ["a", "b"], "bases": [["a"]]})
        ml = files("ml.json", {"ground": ["a", "b"], "bases": [["b"]]})
        code, payload = run(capsys, "pair", mu, ml)
        assert code == 1
        assert payload["offending_circuit"] == ["b"]

    def test_uncertified_input_follows_format(self, files, capsys):
        bad = files("bad.json", {"ground": ["a", "b", "c"], "bases": [["a"], ["b", "c"]]})
        good = files("good.json", {"ground": ["a", "b", "c"], "bases": [["a"]]})
        violation = check_basis_axiom(SetFamily.from_labels(default_ground(3), [["a"], ["b", "c"]]))
        for argv in (["pair", bad, good], ["pair", good, bad], ["check", "matroid", bad]):
            assert main(["--format", "text", *argv]) == 1
            assert capsys.readouterr().out == violation.describe() + "\n"
            assert main(["--format", "json", *argv]) == 1
            payload = {"ok": False, "witness": violation.to_json()}
            assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"

    def test_mismatched_grounds(self, files, capsys):
        mu = files("mu.json", {"ground": ["a", "b"], "bases": [["a"]]})
        ml = files("ml.json", {"ground": ["x", "y"], "bases": [["x"]]})
        assert main(["pair", mu, ml]) == 2


class TestConeCheck:
    def test_triangle(self, files, capsys):
        path = files("g.json", graph_to_json(CORPUS["triangle"]))
        code, payload = run(capsys, "cone-check", path)
        assert code == 0 and payload["ok"]
        assert payload["deletion_identity"] and payload["contraction_identity"]

    def test_corpus_batch(self, capsys):
        code, payload = run(capsys, "cone-check", "--corpus")
        assert code == 0
        assert set(payload["graphs"]) == set(CORPUS)

    def test_cone_labels_that_collide_with_each_other(self, files, capsys):
        edges = [{"id": "x0-a'", "ends": ["a", "a'"]}, {"id": "e", "ends": ["a'", "a''"]}]
        path = files("g.json", {"vertices": ["a", "a'", "a''"], "edges": edges})
        code, payload = run(capsys, "cone-check", path)
        assert code == 0 and payload["ok"]

    def test_disconnected_graph(self, files, capsys):
        path = files(
            "g.json",
            {
                "vertices": ["u", "v", "w", "x"],
                "edges": [{"id": "e1", "ends": ["u", "v"]}, {"id": "e2", "ends": ["w", "x"]}],
            },
        )
        assert main(["cone-check", path]) == 2


class TestVerifyAndSearch:
    def test_verify_uplow(self, capsys):
        code, payload = run(capsys, "verify", "uplow", "--n", "3")
        assert code == 0 and payload["holds"]

    def test_verify_bogus_id(self, capsys):
        assert main(["verify", "bogus-id", "--n", "3"]) == 2

    def test_search_finds_witness(self, capsys):
        code, payload = run(capsys, "search", "unpairable", "--n", "5")
        assert code == 0
        assert payload["witnesses"][0]["offending_circuit"]

    def test_search_empty_at_n2(self, capsys):
        code, payload = run(capsys, "search", "unpairable", "--n", "2")
        assert code == 1 and payload["witnesses"] == []


class TestEnumerate:
    def test_matroids(self, capsys):
        code, payload = run(capsys, "enumerate", "matroid", "--n", "2")
        assert code == 0 and payload["count"] == 5

    def test_deltas(self, capsys):
        code, payload = run(capsys, "enumerate", "delta", "--n", "2")
        assert code == 0 and payload["count"] == 15

    def test_cap(self, capsys):
        assert main(["enumerate", "matroid", "--n", "5"]) == 2

    @pytest.mark.parametrize("kind", ["matroid", "delta"])
    def test_bytes_match_the_payload_dump(self, kind, capsys):
        # reference: the whole payload built as a dict tree, then dumped
        key, codes = ("bases", matroid_codes) if kind == "matroid" else ("feasibles", delta_codes)
        for n in range(5):
            g = default_ground(n)
            items = [
                {"ground": list(g.labels), key: [list(g.labels_of(m)) for m in _decode_family(c)]}
                for c in codes(n)
            ]
            assert main(["--format", "json", "enumerate", kind, "--n", str(n)]) == 0
            assert capsys.readouterr().out == json.dumps({"count": len(items), "items": items}, indent=2) + "\n"
            assert main(["--format", "text", "enumerate", kind, "--n", str(n)]) == 0
            assert capsys.readouterr().out == f"{len(items)} structures at n={n}\n"


class TestOutputRoundTrip:
    def test_payload_round_trips_through_loaders(self, files, capsys):
        # emitted matroid JSON loads back and re-serializes bit-exactly
        from deltamatroids.serialize import matroid_from_json

        g = default_ground(4)
        members = [list(g.labels_of(m)) for m in g.all_masks() if m.bit_count() in (1, 3)]
        path = files("d.json", {"ground": list(g.labels), "feasibles": members})
        _, payload = run(capsys, "upper-lower", path)
        for key in ("upper", "lower"):
            once = dumps_canonical(payload[key])
            assert dumps_canonical(matroid_to_json(matroid_from_json(json.loads(once)))) == once

    def test_usage_error_exit_code(self):
        assert main(["no-such-command"]) == 2
        assert main([]) == 2


def test_reader_closing_the_pipe_early_ends_quietly():
    # `deltamatroids enumerate delta --n 4 | head -1`: the payload is far
    # larger than a pipe buffer, so the write meets the closed pipe
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "deltamatroids.cli", "enumerate", "delta", "--n", "4"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 141
    assert err == b""


def test_import_loads_no_process_pool():
    # sweeps run in one process; a pool import would cost set-up time and memory
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    snippet = (
        "import deltamatroids.cli, sys\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'"
        " or m.startswith('concurrent.futures')))\n"
    )
    out = subprocess.run([sys.executable, "-c", snippet], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"
