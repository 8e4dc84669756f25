"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import functools
import random
import time

import flipcert as fc
from flipcert.moves import Move
from flipcert.quasitoric import CharacteristicPair, vertex_minor_determinant
from flipcert.reduction import ReductionOptions
from flipcert.surgery import (
    MalformedCertificate,
    certificate_from_doc,
    certificate_to_doc,
    verify_certificate,
)
from flipcert.errors import InputError

from conftest import B5_FACETS, certificate_mutation_sites, walk_pairs
from reference import cpn_pair, flip_distance_oracle

# Shortest strict reduction length of the octahedral sphere, established by
# the breadth-first oracle before the annealing search existed; the oracle
# test below recomputes it.
L_OCT = 3

STRICT_CORPUS = {"prism": 1, "cube-3": 2, "dodecahedron": 8}


def criterion(num, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {num}: FAIL - {description}")
                raise
            print(f"[acceptance] criterion {num}: PASS - {description}")
        return run
    return wrap


@criterion(1, "definition fidelity: worked moves exact, 1000 round-trips < 5 s")
def test_definition_fidelity():
    start = time.perf_counter()
    delta3 = fc.Complex(2, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
    b5 = fc.Complex(2, B5_FACETS)
    grown = fc.apply_move(delta3, Move((0, 1, 2), (4,), 0))
    assert set(grown.facets) == {
        (0, 1, 3), (0, 2, 3), (1, 2, 3), (0, 1, 4), (0, 2, 4), (1, 2, 4),
    }
    shrunk = fc.apply_move(b5, Move((4,), (0, 1, 2), 2))
    assert set(shrunk.facets) == {(0, 1, 2), (0, 1, 5), (0, 2, 5), (1, 2, 5)}
    flipped = fc.apply_move(b5, Move((0, 1), (4, 5), 1))
    assert set(flipped.facets) == {
        (1, 2, 4), (0, 2, 4), (1, 2, 5), (0, 2, 5), (0, 4, 5), (1, 4, 5),
    }
    count = 0
    for k, move in walk_pairs(seed=2024, count=1000):
        assert fc.apply_move(fc.apply_move(k, move), fc.inverse_move(move)) == k
        count += 1
    assert count == 1000
    assert time.perf_counter() - start < 5.0


@criterion(2, "surgery dictionary: codimension 2n-2i = 2+2j on every corpus step")
def test_surgery_dictionary(corpus_certs):
    for name, (dual, result, cert) in corpus_certs.items():
        n = dual.polytope.dim
        for step in cert.steps:
            i = step.construction_type
            j = n - 1 - i
            assert i + j == n - 1
            assert step.codimension == 2 * n - 2 * i == 2 + 2 * j, name
        strict = all(m.move_type != 0 for m in result.moves)
        assert strict, name  # default options are strict mode
        if cert.steps:
            assert cert.min_codimension >= 4, name
        else:
            assert cert.min_codimension is None, name


@criterion(3, "strict reductions avoid type 0; construction types stay in 0..n-2")
def test_ewald_range_strictness(corpus_certs):
    for name, (dual, result, cert) in corpus_certs.items():
        n = dual.polytope.dim
        assert all(m.move_type >= 1 for m in result.moves), name
        assert all(0 <= s.construction_type <= n - 2 for s in cert.steps), name


@criterion(4, "oracle: B5 distance 1, octahedron distance 3; annealing within 2x")
def test_oracle_consistency():
    b5 = fc.Complex(2, B5_FACETS)
    octa = fc.dual_complex(fc.named_polytope("cube-3")).complex
    assert flip_distance_oracle(b5, {1, 2}, 3) == 1
    assert flip_distance_oracle(octa, {1, 2}, 6) == L_OCT
    for k in (b5, octa):
        start = time.perf_counter()
        result = fc.reduce_to_simplex(k, ReductionOptions())
        assert result.succeeded
        assert len(result.moves) <= 2 * L_OCT
        assert time.perf_counter() - start < 10.0


@criterion(5, "replay soundness: simplex-boundary endpoints, invariants preserved")
def test_sphere_certificate_soundness(corpus_certs):
    for name, (dual, result, _) in corpus_certs.items():
        assert result.succeeded, name
        current = dual.complex
        euler = fc.euler_characteristic(current)
        for move in result.moves:
            current = fc.apply_move(current, move)
            assert fc.euler_characteristic(current) == euler, name
            if current.dim >= 1:
                assert fc.is_pseudomanifold(current), name
        assert current == result.final, name
        assert fc.is_boundary_of_simplex(current), name


@criterion(6, "certificate integrity: corpus accepted, 100/100 mutations rejected")
def test_certificate_integrity(corpus_certs):
    start = time.perf_counter()
    for name, (_, _, cert) in corpus_certs.items():
        assert verify_certificate(cert).established, name
    docs = [
        certificate_to_doc(corpus_certs["prism"][2]),
        certificate_to_doc(corpus_certs["cube-3"][2]),
    ]
    rng = random.Random(99)
    detected = 0
    for trial in range(100):
        doc = docs[trial % len(docs)]
        label, mutate = rng.choice(certificate_mutation_sites(doc))
        mutated = mutate(doc)
        assert mutated != doc, label
        try:
            cert = certificate_from_doc(mutated)
        except (MalformedCertificate, InputError):
            detected += 1
            continue
        report = verify_certificate(cert)
        assert not report.established, label
        assert report.failures(), label  # a localized failing check
        detected += 1
    assert detected == 100
    assert time.perf_counter() - start < 10.0


@criterion(7, "torus accounting: extra circles m-(n+1); dims (2n+1)+k = m+n")
def test_torus_accounting(corpus_certs):
    for name, (dual, _, cert) in corpus_certs.items():
        m = dual.polytope.facet_count
        n = dual.polytope.dim
        assert cert.base_stage.extra_circles == m - (n + 1), name
        assert cert.base_stage.sphere_dimension + cert.base_stage.extra_circles == m + n, name
    for name, expected in STRICT_CORPUS.items():
        assert corpus_certs[name][2].base_stage.extra_circles == expected, name


@criterion(8, "freeness: diagonal-circle pairs pass for n=1..8, zero column fails")
def test_freeness():
    for n in range(1, 9):
        pair = cpn_pair(n)
        report = fc.check_freeness(pair)
        assert report.ok
        for vertex in pair.polytope.vertices:
            assert vertex_minor_determinant(pair, vertex) in (1, -1)
    polytope = fc.simplex_polytope(2)
    singular = CharacteristicPair(polytope, ((0, 1, 0), (0, 0, 1)))
    report = fc.check_freeness(singular)
    incident = {i for i, v in enumerate(polytope.vertices) if 0 in v}
    assert {v for v, _ in report.failing_vertices} == incident
    assert all(det == 0 for _, det in report.failing_vertices)


@criterion(9, "desk-scale budget: dodecahedron certifies within 120 s")
def test_desk_scale_budget():
    start = time.perf_counter()
    dual = fc.dual_complex(fc.named_polytope("dodecahedron"))
    result = fc.reduce_to_simplex(dual.complex, ReductionOptions())
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    assert result.succeeded  # with the defaults this search is reliable
    cert = fc.build_ledger(dual, result)
    assert verify_certificate(cert).established
