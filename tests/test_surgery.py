import random
import time

import pytest

import flipcert as fc
from flipcert.errors import InputError
from flipcert.moves import Move
from flipcert.quasitoric import CharacteristicPair, NotFree, ShapeMismatch
from flipcert.reduction import ReductionResult
from flipcert.serialize import digest
from flipcert.surgery import (
    CITATIONS,
    MalformedCertificate,
    NotReduced,
    NotVerified,
    build_ledger,
    certificate_from_doc,
    certificate_to_doc,
    codimension_for,
    psc_statement,
    report_to_doc,
    verify_certificate,
)

from conftest import (
    certificate_mutation_sites,
    checker_outcomes,
    count_calls,
)
from reference import cpn_pair


def test_simplex_certificates_are_trivial_chains(corpus_certs):
    for n in range(1, 6):
        _, _, cert = corpus_certs[f"simplex-{n}"]
        assert cert.steps == ()
        assert cert.base_stage.sphere_dimension == 2 * n + 1
        assert cert.base_stage.extra_circles == 0
        assert cert.min_codimension is None
        assert cert.verified


def test_prism_certificate(corpus_certs):
    _, result, cert = corpus_certs["prism"]
    assert len(result.moves) == 1 and result.moves[0].move_type == 2
    (step,) = cert.steps
    assert step.construction_type == 0
    assert step.codimension == 6
    assert step.torus_rank_delta == 1
    assert cert.base_stage.extra_circles == 1 == cert.polytope.facet_count - 4
    assert cert.verified


def test_cube3_certificate(corpus_certs):
    _, _, cert = corpus_certs["cube-3"]
    zero_steps = [s for s in cert.steps if s.construction_type == 0]
    assert len(zero_steps) == 2
    assert cert.base_stage.extra_circles == 2
    assert all(s.codimension in (4, 6) for s in cert.steps)
    assert cert.min_codimension >= 4


def test_codimension_formula_agreement(corpus_certs):
    for name, (dual, _, cert) in corpus_certs.items():
        n = dual.polytope.dim
        for step in cert.steps:
            j = n - 1 - step.construction_type
            assert step.codimension == codimension_for(n, step.construction_type)
            assert step.codimension == 2 + 2 * j, name


def test_torus_conservation(corpus_certs):
    for name, (dual, _, cert) in corpus_certs.items():
        delta_sum = sum(s.torus_rank_delta for s in cert.steps)
        assert delta_sum == len(dual.complex.support) - (dual.polytope.dim + 1), name


def test_build_ledger_requires_success(b5):
    dual = fc.dual_complex(fc.named_polytope("prism"))
    failed = ReductionResult((), dual.complex, False, 10)
    with pytest.raises(NotReduced):
        build_ledger(dual, failed)



def test_build_ledger_reads_the_final_state_not_the_flag(corpus_certs):
    # the replay proves that the moves reach the simplex-boundary final
    # complex, so a result whose flag understates that still certifies
    dual, result, cert = corpus_certs["cube-3"]
    unflagged = ReductionResult(result.moves, result.final, False, 0)
    again = build_ledger(dual, unflagged)
    assert again == cert
    assert verify_certificate(again).established

def test_build_ledger_rejects_moves_that_do_not_replay(corpus_certs):
    dual, result, _ = corpus_certs["cube-3"]
    first = result.moves[0]
    bogus = Move(first.sigma, tuple(v + 100 for v in first.tau), first.move_type)
    mistyped = Move(first.sigma, first.tau, first.move_type + 1)
    forged = (
        ReductionResult((bogus,) + result.moves[1:], result.final, True, 3),
        ReductionResult((mistyped,) + result.moves[1:], result.final, True, 3),
        ReductionResult(result.moves[1:], result.final, True, 3),
        ReductionResult((), result.final, True, 0),
        ReductionResult(result.moves, dual.complex, True, 3),
    )
    for claimed in forged:
        with pytest.raises(NotReduced):
            build_ledger(dual, claimed)


def test_verify_accepts_corpus(corpus_certs):
    for name, (_, _, cert) in corpus_certs.items():
        report = verify_certificate(cert)
        assert report.established, (name, report.failures())


def test_verify_round_trips_through_json(corpus_certs):
    _, _, cert = corpus_certs["cube-3"]
    again = certificate_from_doc(certificate_to_doc(cert))
    assert verify_certificate(again).established


def test_tampered_codimension_is_localized(corpus_certs):
    _, _, cert = corpus_certs["prism"]
    doc = certificate_to_doc(cert)
    doc["steps"][0]["codimension"] = 2
    report = verify_certificate(certificate_from_doc(doc))
    assert not report.established
    names = {c.name: c.detail for c in report.failures()}
    assert "codimension-formula" in names
    assert "at step 0" in names["codimension-formula"]


def test_each_step_check_reports_its_first_failing_step(corpus_certs):
    _, _, cert = corpus_certs["cube-3"]
    doc = certificate_to_doc(cert)
    assert len(doc["steps"]) > 1
    for step in doc["steps"]:
        step["codimension"] += 2
        step["torus_rank_delta"] += 1
        step["post_f_vector"][0] += 1
    report = verify_certificate(certificate_from_doc(doc))
    names = {c.name: c.detail for c in report.failures()}
    assert names["codimension-formula"] == "codimension formula violated at step 0"
    assert names["construction-replay"] == "post f-vector mismatch at step 0"
    assert names["torus-rank-deltas"] == "torus rank delta wrong at step 0"

    doc = certificate_to_doc(cert)
    for step in doc["steps"]:
        step["index"] += 1
    report = verify_certificate(certificate_from_doc(doc))
    names = {c.name: c.detail for c in report.failures()}
    assert names["steps-mirror-moves"] == "step 0 records index 1"


def test_deleted_move_breaks_replay(corpus_certs):
    _, _, cert = corpus_certs["prism"]
    doc = certificate_to_doc(cert)
    del doc["reduction_moves"][0]
    report = verify_certificate(certificate_from_doc(doc))
    assert not report.established
    names = {c.name: c.detail for c in report.failures()}
    assert names["reduction-replay"] == "replay endpoint is not boundary of simplex"


def test_a_chain_cut_short_fails_only_where_it_is_refuted(corpus_certs):
    # the last reduction move removes a vertex, so without it and the step
    # that undoes it the replay ends one vertex short of the simplex
    # boundary; the steps still mirror the moves, and the stage records
    # what they hold
    _, _, cert = corpus_certs["cube-3"]
    doc = certificate_to_doc(cert)
    assert doc["reduction_moves"].pop()["type"] == 2
    assert doc["steps"].pop(0)["construction_type"] == 0
    for index, step in enumerate(doc["steps"]):
        step["index"] = index
    doc["base_stage"]["extra_circles"] = sum(
        step["construction_type"] == 0 for step in doc["steps"])
    doc["min_codimension"] = min(step["codimension"] for step in doc["steps"])
    report = verify_certificate(certificate_from_doc(doc))
    assert [c.name for c in report.failures()] == [
        "reduction-replay", "construction-replay", "verified-flag"]
    assert report.failures()[0].detail == "replay endpoint is not boundary of simplex"


def test_free_mode_zero_move_yields_unverified_certificate(delta3):
    # a detour through a vertex addition and straight back still reduces, but
    # the construction chain then contains a codimension-2 surgery
    moves = (Move((0, 1, 2), (4,), 0), Move((4,), (0, 1, 2), 2))
    dual = fc.dual_complex(fc.simplex_polytope(3))
    result = ReductionResult(moves, fc.replay(dual.complex, moves), True, 2)
    cert = build_ledger(dual, result)
    assert [s.codimension for s in cert.steps] == [6, 2]
    assert cert.min_codimension == 2
    assert not cert.verified
    report = verify_certificate(cert)
    assert not report.established
    failing = {c.name for c in report.failures()}
    assert failing == {"codimension-threshold"}


def test_mutation_fuzz_smoke(corpus_certs):
    _, _, cert = corpus_certs["prism"]
    doc = certificate_to_doc(cert)
    rng = random.Random(3)
    sites = certificate_mutation_sites(doc)
    for label, mutate in rng.sample(sites, min(len(sites), 25)):
        mutated = mutate(doc)
        try:
            parsed = certificate_from_doc(mutated)
        except (MalformedCertificate, InputError):
            continue
        report = verify_certificate(parsed)
        assert not report.established, label
        assert report.failures(), label


#: Digest of every parsed mutant's report in the exhaustive sweep below, in
#: corpus and site order: any change to a check's outcome or detail string on
#: any mutant changes it.
SWEEP_DIGEST = "sha256:d10778de18807fcd0074f590ce1dd2fc4e0a40b8c08b7141a02b83deaf7aa8c6"


def test_exhaustive_mutation_sweep(corpus_certs):
    sites = 0
    reports = []
    for name, (_, _, cert) in corpus_certs.items():
        doc = certificate_to_doc(cert)
        for label, mutate in certificate_mutation_sites(doc):
            sites += 1
            try:
                parsed = certificate_from_doc(mutate(doc))
            except (MalformedCertificate, InputError):
                continue
            report = verify_certificate(parsed)
            assert not report.established, (name, label)
            assert report.failures(), (name, label)
            doc_report = report_to_doc(report)
            for c in doc_report["checks"]:
                assert c["ok"] == (c["detail"] == ""), (name, label, c)
            assert doc_report["consistent"] == doc_report["established"]
            reports.append([name, label, doc_report])
    assert (sites, len(reports)) == (704, 523)
    assert digest(reports) == SWEEP_DIGEST


def test_empty_chain_never_counts_faces(monkeypatch):
    # f_vector and the replay's vertex stars are built only for a move:
    # f_vector on simplex-22 would exhaust memory, so both refuse
    def refuse(*args):
        raise AssertionError("faces counted for an empty chain")

    dual = fc.dual_complex(fc.simplex_polytope(22))
    result = ReductionResult((), dual.complex, True, 0)
    monkeypatch.setattr("flipcert.moves._vertex_stars", refuse)
    calls = count_calls(monkeypatch, "f_vector", refuse)
    cert = build_ledger(dual, result)
    assert cert.steps == ()
    assert verify_certificate(cert).established
    assert calls == []


def test_empty_chain_builds_no_vertex_stars(monkeypatch):
    # simplex-24's dual holds 25 * 2**25 faces; a refusing count and star
    # index fail fast where a replay that built them would exhaust memory
    def refuse(*args):
        raise AssertionError("replay state built for an empty chain")

    monkeypatch.setattr("flipcert.moves._vertex_stars", refuse)
    count_calls(monkeypatch, "f_vector", refuse)
    start = time.perf_counter()
    dual = fc.dual_complex(fc.simplex_polytope(24))
    assert fc.replay(dual.complex, []) is dual.complex
    cert = build_ledger(dual, ReductionResult((), dual.complex, True, 0))
    assert cert.steps == ()
    assert verify_certificate(cert).established
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("path", (
    "reduction.f_vector_after",
    "moves.enumerate_moves",
    "moves.FaceTable",
    "reduction._greedy_vertex_removals",
    "reduction.reduce_to_simplex",
))
def test_the_checker_never_runs_the_search(monkeypatch, corpus_certs, path):
    # ledger and verify take their f-vectors and their verdicts from the
    # vertex-star replay alone, on sound and on mutated certificates; it
    # words a rejected move's reason from its own stars too, and
    # test_fast_paths.py holds it off the reference judge
    import sys

    def refuse(*args):
        raise AssertionError(f"{path} called outside the search")

    owner, name = path.split(".")
    original = getattr(sys.modules[f"flipcert.{owner}"], name)
    patched = []
    for module_name, module in list(sys.modules.items()):
        if (module_name.startswith("flipcert")
                and getattr(module, name, None) is original):
            monkeypatch.setattr(module, name, refuse)
            patched.append(module_name)
    assert f"flipcert.{owner}" in patched
    refuted = 0
    for dual, result, _ in corpus_certs.values():
        cert = build_ledger(dual, result)
        assert verify_certificate(cert).established
        doc = certificate_to_doc(cert)
        for label, mutate in certificate_mutation_sites(doc):
            try:
                parsed = certificate_from_doc(mutate(doc))
            except (MalformedCertificate, InputError):
                continue
            assert not verify_certificate(parsed).established, label
            refuted += 1
    assert refuted


def test_the_checker_counts_no_faces(monkeypatch, corpus_certs, b5):
    # the replay counts no faces, and the ledger and verify step every
    # f-vector back from the simplex boundary's closed form: with f_vector
    # refused everywhere, build_ledger, verify_certificate and replay give
    # what they give unpatched on every corpus certificate, every mutation
    # site and every corrupted move
    def refuse(k):
        raise AssertionError("the checker counted faces")

    expected = checker_outcomes(corpus_certs, b5)
    assert any(len(cert.steps) > 1 for _, _, cert in corpus_certs.values())
    calls = count_calls(monkeypatch, "f_vector", refuse)
    assert checker_outcomes(corpus_certs, b5) == expected
    assert calls == []


def test_psc_statement_for_simplex_names_projective_quotient(corpus_certs):
    _, _, cert = corpus_certs["simplex-2"]
    statement = psc_statement(cert, cpn_pair(2))
    assert statement.moment_angle_dim == 5
    assert statement.quotient["manifold_dim"] == 4
    assert "complex-projective" in statement.quotient["description"]
    assert any("S^5" in claim for claim, _ in statement.clauses)


def test_psc_statement_for_cube_without_pair(corpus_certs):
    _, _, cert = corpus_certs["cube-3"]
    statement = psc_statement(cert)
    assert statement.moment_angle_dim == 9
    assert statement.quotient is None
    assert statement.clauses[-1][1] == CITATIONS[2]


def test_psc_statement_requires_verified(delta3):
    moves = (Move((0, 1, 2), (4,), 0), Move((4,), (0, 1, 2), 2))
    dual = fc.dual_complex(fc.simplex_polytope(3))
    cert = build_ledger(
        dual, ReductionResult(moves, fc.replay(dual.complex, moves), True, 2)
    )
    with pytest.raises(NotVerified):
        psc_statement(cert)


def test_psc_statement_requires_freeness(corpus_certs):
    _, _, cert = corpus_certs["simplex-2"]
    singular = CharacteristicPair(cert.polytope, ((0, 1, 0), (0, 0, 1)))
    with pytest.raises(NotFree):
        psc_statement(cert, singular)
    with pytest.raises(ShapeMismatch):
        psc_statement(cert, cpn_pair(3))


def test_base_stage_dimension_identity(corpus_certs):
    for name, (dual, _, cert) in corpus_certs.items():
        m = dual.polytope.facet_count
        n = dual.polytope.dim
        assert cert.base_stage.sphere_dimension + cert.base_stage.extra_circles == m + n, name
