"""Tests for the benchmark's own code: the generators, the span arithmetic
and the tracer's install/uninstall.

    python3 -m pytest -q bench
"""

import json
import random
import sys

import pytest

import run  # puts this checkout's src first on sys.path
import tracer
import workloads
from flipcert import cli, serialize
from flipcert.complexes import Complex, f_vector
from flipcert.polytopes import cube_polytope, dual_complex, named_polytope
from flipcert.quasitoric import CharacteristicPair, check_freeness
from flipcert.surgery import certificate_from_doc, verify_certificate


def _pair_key(pair):
    return serialize.polytope_to_doc(pair.polytope), pair.matrix


def test_truncations_are_deterministic_per_seed():
    first = workloads.truncated_cube(random.Random(7), 30)
    again = workloads.truncated_cube(random.Random(7), 30)
    other = workloads.truncated_cube(random.Random(8), 30)
    assert _pair_key(first) == _pair_key(again)
    assert _pair_key(first) != _pair_key(other)


@pytest.mark.parametrize("seed", range(5))
def test_truncations_are_valid_blow_ups(seed):
    rng = random.Random(seed)
    cuts = rng.randint(*run.TRUNCATE_CUTS)
    pair = workloads.truncated_cube(rng, cuts)
    workloads.check_pair(pair)
    assert pair.polytope.dim == 3
    assert pair.polytope.facet_count == 6 + cuts
    assert len(pair.polytope.vertices) == 8 + 2 * cuts
    k = dual_complex(pair.polytope).complex
    assert f_vector(k) == (6 + cuts, 3 * (4 + cuts), 2 * (4 + cuts))
    assert check_freeness(pair).ok


def test_check_pair_rejects_a_matrix_that_is_not_free():
    pair = workloads.truncated_cube(random.Random(3), 5)
    doubled = tuple((2 * row[0],) + row[1:] for row in pair.matrix)
    with pytest.raises(workloads.GeneratorError):
        workloads.check_pair(CharacteristicPair(pair.polytope, doubled))


def test_relabel_is_deterministic_and_isomorphic():
    base = named_polytope("prism")
    first = workloads.relabel(base, random.Random(1))
    assert first == workloads.relabel(base, random.Random(1))
    workloads.check_polytope(first)
    assert sorted(first.facet_names) == sorted(base.facet_names)
    assert f_vector(dual_complex(first).complex) == f_vector(dual_complex(base).complex)


def test_relabelled_certificates_verify_like_the_original():
    _, doc = run.certify_in_library(cube_polytope(4), 3)
    copy = workloads.relabel_certificate(doc, random.Random(2))
    assert copy["dual_hash"] != doc["dual_hash"]
    assert copy["reduction_moves"] != doc["reduction_moves"]
    report = verify_certificate(certificate_from_doc(copy))
    assert report.established
    copy["steps"][-1]["post_f_vector"][0] += 1
    assert not verify_certificate(certificate_from_doc(copy)).established


def test_workload_batches_are_deterministic_per_seed():
    first, again, other = (run.setup("truncate", seed) for seed in (4, 4, 5))
    assert first.ops == again.ops and first.files == again.files
    assert first.files != other.files


def test_spread_cuts_cover_the_range_evenly():
    cuts = run._spread_cuts(41)
    assert cuts == list(range(20, 61))
    assert min(run._spread_cuts(120)) == 20 and max(run._spread_cuts(120)) == 60


def test_self_times_on_a_hand_built_tree():
    # root [0, 10] with children a [1, 4] and b [5, 9]; b has c [6, 8].
    # A second root [20, 30] has overlapping children [21, 25] and [23, 27]
    # (covered once: 6) and a child running past its end [28, 33] (clipped).
    starts = [0.0, 1.0, 5.0, 6.0, 20.0, 21.0, 23.0, 28.0]
    ends = [10.0, 4.0, 9.0, 8.0, 30.0, 25.0, 27.0, 33.0]
    parents = [-1, 0, 0, 2, -1, 4, 4, 4]
    got = tracer.self_times(starts, ends, parents)
    assert got == pytest.approx([3.0, 3.0, 2.0, 2.0, 2.0, 4.0, 4.0, 5.0])


def _flipcert_namespaces():
    snapshot = {}
    for name, module in sys.modules.items():
        if name == "flipcert" or name.startswith("flipcert."):
            snapshot[name] = dict(vars(module))
    snapshot["Complex.__init__"] = Complex.__dict__["__init__"]
    return snapshot


def _certify(tmp_path, name):
    source = tmp_path / "cube3.json"
    source.write_text(serialize.dump(serialize.polytope_to_doc(cube_polytope(3))))
    out = tmp_path / name
    assert cli.main(["certify", str(source), "--output", str(out)]) == 0
    return out.read_bytes()


def test_traced_run_records_spans_and_restores_originals(tmp_path):
    before = _flipcert_namespaces()
    plain = _certify(tmp_path, "plain.json")
    trace = tracer.Tracer()
    trace.install()
    try:
        assert cli.main is not before["flipcert.cli"]["main"]
        traced = _certify(tmp_path, "traced.json")
    finally:
        trace.uninstall()
    after = _flipcert_namespaces()
    assert after.keys() == before.keys()
    for name, namespace in before.items():
        if isinstance(namespace, dict):
            for attr, value in namespace.items():
                assert after[name][attr] is value, f"{name}.{attr}"
        else:
            assert after[name] is namespace
    assert traced == plain
    calls, self_s = trace.totals()
    assert calls["cli.main"] == 1
    assert calls["moves.enumerate_moves.greedy"] > 0
    assert calls["moves.enumerate_moves.anneal"] > 0
    assert calls["complexes.Complex"] > 0
    assert trace.counts["reduction.moves"] > 0
    roots = sum(e - s for s, e, p in zip(trace.starts, trace.ends, trace.parents)
                if p < 0)
    assert sum(self_s.values()) == pytest.approx(roots)


def test_install_twice_is_refused():
    trace = tracer.Tracer()
    trace.install()
    try:
        with pytest.raises(RuntimeError):
            trace.install()
    finally:
        trace.uninstall()


def test_layer_metrics_match_the_declared_per_layer_metrics(tmp_path):
    trace = tracer.Tracer()
    trace.install()
    try:
        _certify(tmp_path, "out.json")
    finally:
        trace.uninstall()
    metrics = run.layer_metrics(trace, 1.0, 1.0)
    declared = {m["name"] for m in run.declared_metrics(trace=1)}
    assert declared <= metrics.keys()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "ops_per_s", "op_s.p50", "op_s.p90", "peak_rss_mb"}
