import random

import pytest

import flipcert as fc
from flipcert.errors import InputError
from flipcert.moves import Move
from flipcert.quasitoric import CharacteristicPair, ShapeMismatch
from flipcert.reduction import ReductionResult
from flipcert.serialize import digest
from flipcert.surgery import (
    CITATIONS,
    FreenessFailed,
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

from conftest import certificate_mutation_sites


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


def test_deleted_move_breaks_replay(corpus_certs):
    _, _, cert = corpus_certs["prism"]
    doc = certificate_to_doc(cert)
    del doc["reduction_moves"][0]
    report = verify_certificate(certificate_from_doc(doc))
    assert not report.established
    names = {c.name: c.detail for c in report.failures()}
    assert names["reduction-replay"] == "replay endpoint is not boundary of simplex"


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
SWEEP_DIGEST = "sha256:b98f674c69604fe527af52277e7ffa6394e2680e8c234fdc618f7f06e25c0163"


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
            reports.append([name, label, report_to_doc(report)])
    assert (sites, len(reports)) == (704, 523)
    assert digest(reports) == SWEEP_DIGEST


def test_empty_chain_never_counts_faces(monkeypatch):
    # f_vector is exponential in the dimension: on simplex-22 it would hang
    def refuse(k):
        raise AssertionError("f_vector called on an empty chain")

    dual = fc.dual_complex(fc.simplex_polytope(22))
    result = ReductionResult((), dual.complex, True, 0)
    monkeypatch.setattr("flipcert.surgery.f_vector", refuse)
    cert = build_ledger(dual, result)
    assert cert.steps == ()
    assert verify_certificate(cert).established


def test_psc_statement_for_simplex_names_projective_quotient(corpus_certs):
    _, _, cert = corpus_certs["simplex-2"]
    statement = psc_statement(cert, fc.cpn_pair(2))
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
    with pytest.raises(FreenessFailed):
        psc_statement(cert, singular)
    with pytest.raises(ShapeMismatch):
        psc_statement(cert, fc.cpn_pair(3))


def test_base_stage_dimension_identity(corpus_certs):
    for name, (dual, _, cert) in corpus_certs.items():
        m = dual.polytope.facet_count
        n = dual.polytope.dim
        assert cert.base_stage.sphere_dimension + cert.base_stage.extra_circles == m + n, name
