"""Surgery ledgers: from a reduction to a verified, replayable certificate.

Reversing a reduction of the dual complex and inverting each move yields the
construction-direction chain: starting from the moment-angle manifold of the
simplex, a sphere of dimension 2n+1, every construction move of type ``i``
acts as an equivariant surgery of codimension ``2n - 2i`` (equivalently
``2 + 2j`` for the reduction type ``j = n-1-i``), with type-0 moves each
contributing one extra circle factor to the ambient torus.  A certificate
records that chain with exact codimensions; verification recomputes every
claim from scratch and never trusts the stored flags.
"""

from dataclasses import dataclass
from typing import Optional

from .complexes import f_vector, is_boundary_of_simplex
from .errors import FlipcertError, InputError
from .moves import inverse_move
from .polytopes import DualComplexMap, SimplePolytope, dual_complex
from .quasitoric import CharacteristicPair, ShapeMismatch, check_freeness
from .reduction import ReductionResult, ReplayFailure, replay_states
from .serialize import (
    complex_digest,
    move_from_doc,
    move_to_doc,
    polytope_from_doc,
    polytope_to_doc,
    require,
)


class NotReduced(InputError):
    pass


class MalformedCertificate(InputError):
    pass


class NotVerified(FlipcertError):
    pass


class FreenessFailed(FlipcertError):
    pass


#: Codimension every recorded surgery must meet before a chain verifies.
CODIMENSION_THRESHOLD = 3

#: Fixed anchor strings carried by every certificate.  These name the facts
#: the combinatorial ledger relies on and the literature that supplies them;
#: the analytic implications are emitted as cited claims, never re-proved.
CITATIONS = (
    "base-psc: the round sphere S^(2n+1) times flat circle factors carries "
    "a torus-invariant metric of positive scalar curvature",
    "surgery-psc: an invariant metric of positive scalar curvature survives "
    "equivariant surgery of codimension at least three "
    "(Berard Bergery, Theorem 11.1; Hanke, Theorem 2)",
    "flip-surgery-dictionary: a bistellar i-move on the dual complex of a "
    "simple n-polytope acts on the moment-angle manifold as an equivariant "
    "surgery of codimension 2n-2i, adding a circle factor when i=0 and "
    "absorbing one when i=n-1 "
    "(Buchstaber-Panov, Example 6.22 and Construction 6.23)",
    "simplex-reduction: the dual complex of every simple n-polytope, n >= 3, "
    "is connected to the boundary of the n-simplex by bistellar k-moves "
    "with 0 <= k <= n-2 (Ewald)",
    "free-quotient-psc: positive scalar curvature descends to the quotient "
    "by a freely acting subtorus (Berard Bergery, Theorem C)",
    "intermediates: intermediate complexes are verified as pure "
    "pseudomanifold spheres reached from the input dual by bistellar moves; "
    "convex realizability of the input and of intermediates is not certified",
)


@dataclass(frozen=True)
class SurgeryStep:
    index: int
    construction_type: int
    sigma: tuple
    tau: tuple
    codimension: int
    torus_rank_delta: int
    post_f_vector: tuple


@dataclass(frozen=True)
class BaseStage:
    sphere_dimension: int
    extra_circles: int


@dataclass(frozen=True)
class SurgeryCertificate:
    polytope: SimplePolytope
    dual_hash: str
    reduction_moves: tuple
    steps: tuple
    base_stage: BaseStage
    min_codimension: Optional[int]  # None for the empty chain
    citations: tuple
    verified: bool


def codimension_for(n: int, construction_type: int) -> int:
    """Surgery codimension ``2n - 2i`` of a construction move of type ``i``
    over an n-polytope."""
    return 2 * n - 2 * construction_type


def build_ledger(dual: DualComplexMap, result: ReductionResult) -> SurgeryCertificate:
    """Translate a successful reduction into the construction-direction
    surgery chain, replaying it to pin down every intermediate f-vector.

    The base stage is the moment-angle manifold of the simplex (a sphere of
    dimension 2n+1) times one circle per construction-type-0 step.
    """
    if not result.succeeded or not is_boundary_of_simplex(result.final):
        raise NotReduced("the reduction did not reach a simplex boundary")
    # inverse_move drops the declared type, so the replay below cannot see it
    if any(m.move_type != len(m.tau) - 1 for m in result.moves):
        raise NotReduced("a recorded move declares the wrong type")
    n = dual.polytope.dim
    construction_moves = [inverse_move(m) for m in reversed(result.moves)]
    steps = []
    current = result.final
    states = replay_states(current, construction_moves)
    try:
        for index, (move, current) in enumerate(zip(construction_moves, states)):
            i = move.move_type
            steps.append(SurgeryStep(
                index=index,
                construction_type=i,
                sigma=move.sigma,
                tau=move.tau,
                codimension=codimension_for(n, i),
                torus_rank_delta=1 if i == 0 else 0,
                post_f_vector=f_vector(current),
            ))
    except ReplayFailure as exc:
        raise NotReduced(
            f"construction step {exc.index} does not replay: {exc.reason}"
        )
    # moves are exact inverses, so this also proves the forward replay
    if current != dual.complex:
        raise NotReduced("construction replay does not return to the dual complex")
    extra_circles = sum(s.torus_rank_delta for s in steps)
    codims = [s.codimension for s in steps]
    min_codim = min(codims) if codims else None
    verified = all(c >= CODIMENSION_THRESHOLD for c in codims)
    return SurgeryCertificate(
        polytope=dual.polytope,
        dual_hash=complex_digest(dual.complex),
        reduction_moves=tuple(result.moves),
        steps=tuple(steps),
        base_stage=BaseStage(2 * n + 1, extra_circles),
        min_codimension=min_codim,
        citations=CITATIONS,
        verified=verified,
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple
    verified_claim: bool  # the flag the certificate carries

    @property
    def consistent(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def established(self) -> bool:
        """True when the certificate is internally consistent and actually
        establishes the codimension->=3 chain."""
        return self.consistent and self.verified_claim

    def failures(self) -> list:
        return [c for c in self.checks if not c.ok]


def verify_certificate(cert: SurgeryCertificate) -> VerificationReport:
    """Recompute every claim of an untrusted certificate.

    Nothing recorded in the certificate is taken at face value: the dual
    complex and its hash, the reduction replay, every post f-vector, every
    codimension, the torus accounting and the verified flag are all rebuilt
    from the polytope and the move list and compared against the stored
    values.  One forward replay yields every post f-vector: once the steps
    mirror the moves, step ``k`` undoes reduction move ``L-1-k`` exactly, so
    it ends on the complex that move starts from.
    """
    checks = []

    def check(name, ok, detail=""):
        checks.append(CheckResult(name, bool(ok), detail))
        return bool(ok)

    n = cert.polytope.dim
    m = cert.polytope.facet_count
    dual = dual_complex(cert.polytope)
    check(
        "dual-hash",
        complex_digest(dual.complex) == cert.dual_hash,
        "stored dual hash does not match the polytope's dual complex",
    )

    reduction_ok = False
    pre_f_vectors = []  # of the complex each reduction move starts from
    try:
        endpoint = dual.complex
        for state in replay_states(dual.complex, cert.reduction_moves):
            pre_f_vectors.append(f_vector(endpoint))
            endpoint = state
        reduction_ok = is_boundary_of_simplex(endpoint)
        check(
            "reduction-replay",
            reduction_ok,
            "" if reduction_ok else "replay endpoint is not boundary of simplex",
        )
    except ReplayFailure as exc:
        check("reduction-replay", False, str(exc))

    if len(cert.steps) != len(cert.reduction_moves):
        mirror_ok = check(
            "steps-mirror-moves", False,
            f"{len(cert.steps)} steps for {len(cert.reduction_moves)} moves",
        )
    else:
        detail = ""
        for k, step in enumerate(cert.steps):
            move = cert.reduction_moves[len(cert.reduction_moves) - 1 - k]
            expected = inverse_move(move)
            if step.index != k:
                detail = f"step {k} records index {step.index}"
            elif (step.sigma, step.tau) != (expected.sigma, expected.tau):
                detail = f"step {k} does not invert reduction move {len(cert.reduction_moves) - 1 - k}"
            elif step.construction_type != n - 1 - move.move_type:
                detail = (
                    f"step {k} has construction type {step.construction_type}, "
                    f"expected {n - 1 - move.move_type}"
                )
            if detail:
                break
        mirror_ok = check("steps-mirror-moves", not detail, detail)

    detail = ""
    for step in cert.steps:
        if step.codimension != codimension_for(n, step.construction_type):
            detail = f"codimension formula violated at step {step.index}"
            break
    check("codimension-formula", not detail, detail)

    construction_ok = False
    if reduction_ok and mirror_ok:
        detail = ""
        for step, expected in zip(cert.steps, reversed(pre_f_vectors)):
            if expected != tuple(step.post_f_vector):
                detail = f"post f-vector mismatch at step {step.index}"
                break
        construction_ok = check("construction-replay", not detail, detail)
    else:
        check(
            "construction-replay", False,
            "not evaluated: reduction replay or step mirror failed",
        )

    detail = ""
    for step in cert.steps:
        expected = 1 if step.construction_type == 0 else 0
        if step.torus_rank_delta != expected:
            detail = f"torus rank delta wrong at step {step.index}"
            break
    check("torus-rank-deltas", not detail, detail)

    total_delta = sum(1 for s in cert.steps if s.construction_type == 0)
    circles_ok = cert.base_stage.extra_circles == total_delta
    strict = all(mv.move_type != 0 for mv in cert.reduction_moves)
    if circles_ok and strict:
        circles_ok = cert.base_stage.extra_circles == m - (n + 1)
    check(
        "extra-circles",
        circles_ok,
        "" if circles_ok else
        f"extra_circles {cert.base_stage.extra_circles} inconsistent with the chain",
    )

    check(
        "base-stage",
        cert.base_stage.sphere_dimension == 2 * n + 1,
        f"base sphere dimension should be {2 * n + 1}",
    )

    codims = [s.codimension for s in cert.steps]
    recomputed_min = min(codims) if codims else None
    check(
        "min-codimension",
        cert.min_codimension == recomputed_min,
        f"recorded {cert.min_codimension}, recomputed {recomputed_min}",
    )

    threshold_ok = all(c >= CODIMENSION_THRESHOLD for c in codims)
    check(
        "codimension-threshold",
        threshold_ok,
        "" if threshold_ok else
        f"minimum codimension {recomputed_min} is below {CODIMENSION_THRESHOLD}",
    )

    check(
        "citations-intact",
        tuple(cert.citations) == CITATIONS,
        "citation anchors differ from the fixed list",
    )

    recomputed_verified = reduction_ok and construction_ok and threshold_ok
    check(
        "verified-flag",
        cert.verified == recomputed_verified,
        f"certificate claims verified={cert.verified}, "
        f"recomputation gives {recomputed_verified}",
    )

    return VerificationReport(checks=tuple(checks), verified_claim=cert.verified)


@dataclass(frozen=True)
class PscStatement:
    """The conclusion chain a verified certificate supports, clause by
    clause, each with its citation anchor.  Only the combinatorial
    hypotheses are checked here; the analytic steps are cited claims."""

    clauses: tuple  # (claim, citation) pairs
    moment_angle_dim: int
    quotient: Optional[dict]


def psc_statement(cert: SurgeryCertificate,
                  pair: Optional[CharacteristicPair] = None) -> PscStatement:
    if not cert.verified:
        raise NotVerified("certificate is not verified; no statement emitted")
    n = cert.polytope.dim
    m = cert.polytope.facet_count
    k = cert.base_stage.extra_circles
    sphere_dim = cert.base_stage.sphere_dimension
    clauses = [(
        f"the base stage S^{sphere_dim} x T^{k} carries an invariant metric "
        f"of positive scalar curvature",
        CITATIONS[0],
    )]
    if cert.steps:
        clauses.append((
            f"each of the {len(cert.steps)} recorded equivariant surgeries has "
            f"codimension >= {CODIMENSION_THRESHOLD} "
            f"(minimum {cert.min_codimension}), so an invariant metric of "
            f"positive scalar curvature survives every step",
            CITATIONS[1],
        ))
    else:
        clauses.append((
            "the surgery chain is empty: the moment-angle manifold is the "
            "base stage itself",
            CITATIONS[2],
        ))
    clauses.append((
        f"hence the moment-angle manifold of the polytope, of dimension "
        f"{m + n}, carries an invariant metric of positive scalar curvature",
        CITATIONS[2],
    ))
    quotient = None
    if pair is not None:
        if pair.polytope != cert.polytope:
            raise ShapeMismatch(
                "characteristic pair is defined over a different polytope"
            )
        report = check_freeness(pair)
        if not report.ok:
            raise FreenessFailed(
                f"subtorus does not act freely; failing vertices "
                f"{[v for v, _ in report.failing_vertices]}"
            )
        if m == n + 1:
            description = (
                f"complex-projective-type quotient S^{sphere_dim}/S^1 "
                f"of dimension {2 * n}"
            )
        else:
            description = (
                f"quotient of the moment-angle manifold by a freely acting "
                f"rank-{m - n} subtorus, of dimension {2 * n}"
            )
        quotient = {
            "description": description,
            "manifold_dim": 2 * n,
            "torus_action_rank": n,
            "quotient_torus_rank": m - n,
        }
        clauses.append((
            f"the rank-{m - n} subtorus encoded by the characteristic matrix "
            f"acts freely (every vertex minor has determinant +-1), so the "
            f"{description} inherits an invariant metric of positive scalar "
            f"curvature",
            CITATIONS[4],
        ))
    return PscStatement(
        clauses=tuple(clauses),
        moment_angle_dim=m + n,
        quotient=quotient,
    )


# -- certificate (de)serialization -------------------------------------------

def step_to_doc(step: SurgeryStep) -> dict:
    return {
        "index": step.index,
        "construction_type": step.construction_type,
        "sigma": list(step.sigma),
        "tau": list(step.tau),
        "codimension": step.codimension,
        "torus_rank_delta": step.torus_rank_delta,
        "post_f_vector": list(step.post_f_vector),
    }


def certificate_to_doc(cert: SurgeryCertificate) -> dict:
    return {
        "polytope": polytope_to_doc(cert.polytope),
        "dual_hash": cert.dual_hash,
        "reduction_moves": [move_to_doc(m) for m in cert.reduction_moves],
        "steps": [step_to_doc(s) for s in cert.steps],
        "base_stage": {
            "sphere_dimension": cert.base_stage.sphere_dimension,
            "extra_circles": cert.base_stage.extra_circles,
        },
        "min_codimension": cert.min_codimension,
        "citations": list(cert.citations),
        "verified": cert.verified,
    }


def _step_from_doc(doc) -> SurgeryStep:
    index = require(doc, "index", int, "step")
    ctype = require(doc, "construction_type", int, "step")
    sigma = require(doc, "sigma", [int], "step")
    tau = require(doc, "tau", [int], "step")
    codim = require(doc, "codimension", int, "step")
    delta = require(doc, "torus_rank_delta", int, "step")
    post = require(doc, "post_f_vector", [int], "step")
    return SurgeryStep(
        index=index,
        construction_type=ctype,
        sigma=tuple(sorted(sigma)),
        tau=tuple(sorted(tau)),
        codimension=codim,
        torus_rank_delta=delta,
        post_f_vector=tuple(post),
    )


def certificate_from_doc(doc) -> SurgeryCertificate:
    """Parse an untrusted certificate document, enforcing the schema only;
    semantic claims are left to :func:`verify_certificate`."""
    try:
        polytope = polytope_from_doc(require(doc, "polytope", dict, "certificate"))
        dual_hash = require(doc, "dual_hash", str, "certificate")
        moves = [
            move_from_doc(m)
            for m in require(doc, "reduction_moves", list, "certificate")
        ]
        steps = [
            _step_from_doc(s) for s in require(doc, "steps", list, "certificate")
        ]
        stage_doc = require(doc, "base_stage", dict, "certificate")
        stage = BaseStage(
            sphere_dimension=require(stage_doc, "sphere_dimension", int, "base_stage"),
            extra_circles=require(stage_doc, "extra_circles", int, "base_stage"),
        )
        min_codim = require(doc, "min_codimension", (int, None), "certificate")
        citations = require(doc, "citations", [str], "certificate")
        verified = require(doc, "verified", bool, "certificate")
    except InputError as exc:
        raise MalformedCertificate(str(exc))
    return SurgeryCertificate(
        polytope=polytope,
        dual_hash=dual_hash,
        reduction_moves=tuple(moves),
        steps=tuple(steps),
        base_stage=stage,
        min_codimension=min_codim,
        citations=tuple(citations),
        verified=verified,
    )


def statement_to_doc(statement: PscStatement) -> dict:
    return {
        "clauses": [
            {"claim": claim, "citation": citation}
            for claim, citation in statement.clauses
        ],
        "moment_angle_dim": statement.moment_angle_dim,
        "quotient": statement.quotient,
    }


def report_to_doc(report: VerificationReport) -> dict:
    return {
        "checks": [
            {"name": c.name, "ok": c.ok, "detail": c.detail}
            for c in report.checks
        ],
        "verified_claim": report.verified_claim,
        "consistent": report.consistent,
        "established": report.established,
    }
