"""Surgery ledgers: from a reduction to a verified, replayable certificate.

Reversing a reduction of the dual complex and inverting each move yields the
construction-direction chain: starting from the moment-angle manifold of the
simplex, a sphere of dimension 2n+1, every construction move of type ``i``
acts as an equivariant surgery of codimension ``2n - 2i`` (equivalently
``2 + 2j`` for the reduction type ``j = n-1-i``), with type-0 moves each
contributing one extra circle factor to the ambient torus.  A certificate
records that chain with exact codimensions.  The ledger and verification
each run one forward replay on vertex stars and count no faces: every
f-vector is stepped back from the simplex boundary it ends on.
Verification recomputes every claim, never trusting the stored flags.
"""

import math
from dataclasses import dataclass
from typing import Optional

from .complexes import is_boundary_of_simplex
from .errors import FlipcertError, InputError
from .moves import ReplayFailure, f_vector_change, inverse_move, replay
from .polytopes import DualComplexMap, SimplePolytope, dual_complex
from .quasitoric import CharacteristicPair, ShapeMismatch, quotient_descriptor
from .serialize import (
    complex_digest,
    fields,
    move_from_doc,
    move_to_doc,
    polytope_from_doc,
    polytope_to_doc,
)


class NotReduced(InputError):
    pass


class MalformedCertificate(InputError):
    pass


class NotVerified(FlipcertError):
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


def _post_f_vectors(n: int, moves) -> list:
    """Each step's post f-vector: the f-vector each reduction move starts
    from, the last move's first, when ``moves`` replay to the boundary of
    the ``n``-simplex, whose ``e``-faces are all ``C(n + 1, e + 1)`` sets of
    ``e + 1`` vertices.  Exact: a move the replay accepts meets the
    hypotheses of ``moves.f_vector_change``, so the f-vector before it is
    the one after it less that change."""
    f, posts = [math.comb(n + 1, e + 1) for e in range(n)], []
    for move in reversed(moves):
        change = f_vector_change(len(move.sigma), len(move.tau))
        posts.append(f := tuple(a - b for a, b in zip(f, change)))
    return posts


def build_ledger(dual: DualComplexMap, result) -> SurgeryCertificate:
    """Translate a reduction whose ``final`` is a simplex boundary into the
    construction-direction surgery chain.  Of the ``ReductionResult`` it reads
    only ``moves`` and ``final``, never the ``succeeded`` flag.

    One vertex-star replay from the dual checks the moves, must end on
    ``result.final``, proving the moves reach it, and counts no faces.
    Step ``k`` undoes reduction move ``L-1-k``, so its post f-vector is that
    of the complex the move starts from, as :func:`verify_certificate` reads
    it too.  The base stage is the moment-angle manifold of the simplex
    (a sphere of dimension 2n+1) times one circle per construction-type-0 step.
    """
    if not is_boundary_of_simplex(result.final):
        raise NotReduced("the reduction did not reach a simplex boundary")
    try:
        endpoint = replay(dual.complex, result.moves)
    except ReplayFailure as exc:
        raise NotReduced(f"reduction move {exc.index} does not replay: {exc.reason}")
    if endpoint != result.final:
        raise NotReduced("the reduction moves do not reach the recorded final complex")
    n = dual.polytope.dim
    posts, steps = _post_f_vectors(n, result.moves), []
    for index, move in enumerate(map(inverse_move, reversed(result.moves))):
        i = move.move_type
        steps.append(SurgeryStep(
            index=index,
            construction_type=i,
            sigma=move.sigma,
            tau=move.tau,
            codimension=codimension_for(n, i),
            torus_rank_delta=1 if i == 0 else 0,
            post_f_vector=posts[index],
        ))
    codims = [s.codimension for s in steps]
    return SurgeryCertificate(
        polytope=dual.polytope,
        dual_hash=complex_digest(dual.complex),
        reduction_moves=tuple(result.moves),
        steps=tuple(steps),
        base_stage=BaseStage(2 * n + 1, sum(s.torus_rank_delta for s in steps)),
        min_codimension=min(codims, default=None),
        citations=CITATIONS,
        verified=all(c >= CODIMENSION_THRESHOLD for c in codims),
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    detail: str  # why the check fails; empty exactly when it passes

    @property
    def ok(self) -> bool:
        return not self.detail


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple
    verified_claim: bool  # the flag the certificate carries

    @property
    def established(self) -> bool:
        """True when every check passes.  Passing reduction, construction
        and threshold checks recompute ``verified`` as true, so a passing
        ``verified-flag`` check then forces ``verified_claim``: the
        certificate establishes the codimension->=3 chain."""
        return all(c.ok for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c.ok]


def _first_failure(details) -> str:
    """The first non-empty detail among a check's per-step details, or ""
    when every step passes."""
    return next(filter(None, details), "")


def verify_certificate(cert: SurgeryCertificate) -> VerificationReport:
    """Recompute every claim of an untrusted certificate.

    Nothing recorded in the certificate is taken at face value: the dual
    complex and its hash, the reduction replay, every post f-vector, every
    codimension, the torus accounting and the verified flag are all rebuilt
    from the polytope and the move list and compared against the stored
    values.  Once the vertex-star replay ends on a simplex boundary and the
    steps mirror the moves, step ``k`` undoes reduction move ``L-1-k``, so
    it ends on the complex that move starts from.
    """
    checks = []

    def check(name, failed, detail):
        """Record one check, which fails exactly when ``failed`` holds and
        then carries ``detail``; return whether it passed."""
        checks.append(CheckResult(name, detail if failed else ""))
        return not failed

    n = cert.polytope.dim
    m = cert.polytope.facet_count
    moves = cert.reduction_moves
    dual = dual_complex(cert.polytope)
    check(
        "dual-hash",
        complex_digest(dual.complex) != cert.dual_hash,
        "stored dual hash does not match the polytope's dual complex",
    )

    detail = "replay endpoint is not boundary of simplex"
    try:
        failed = not is_boundary_of_simplex(replay(dual.complex, moves))
    except ReplayFailure as exc:
        failed, detail = True, str(exc)
    reduction_ok = check("reduction-replay", failed, detail)

    def mirror_failure(k, step):
        move = moves[len(moves) - 1 - k]
        if step.index != k:
            return f"step {k} records index {step.index}"
        if (step.sigma, step.tau) != (move.tau, move.sigma):
            return f"step {k} does not invert reduction move {len(moves) - 1 - k}"
        if step.construction_type != n - 1 - move.move_type:
            return (
                f"step {k} has construction type {step.construction_type}, "
                f"expected {n - 1 - move.move_type}"
            )
        return ""

    if len(cert.steps) != len(moves):
        detail = f"{len(cert.steps)} steps for {len(moves)} moves"
    else:
        detail = _first_failure(map(mirror_failure, range(len(moves)), cert.steps))
    mirror_ok = check("steps-mirror-moves", bool(detail), detail)

    detail = _first_failure(
        f"codimension formula violated at step {step.index}"
        for step in cert.steps
        if step.codimension != codimension_for(n, step.construction_type)
    )
    check("codimension-formula", bool(detail), detail)

    if reduction_ok and mirror_ok:
        detail = _first_failure(
            f"post f-vector mismatch at step {step.index}"
            for step, expected in zip(cert.steps, _post_f_vectors(n, moves))
            if expected != tuple(step.post_f_vector)
        )
    else:
        detail = "not evaluated: reduction replay or step mirror failed"
    construction_ok = check("construction-replay", bool(detail), detail)

    detail = _first_failure(
        f"torus rank delta wrong at step {step.index}"
        for step in cert.steps
        if step.torus_rank_delta != (1 if step.construction_type == 0 else 0)
    )
    check("torus-rank-deltas", bool(detail), detail)

    circles = cert.base_stage.extra_circles
    strict = all(mv.move_type != 0 for mv in moves)
    check(
        "extra-circles",
        circles != sum(1 for s in cert.steps if s.construction_type == 0)
        or (strict and circles != m - (n + 1)),
        f"extra_circles {circles} inconsistent with the chain",
    )

    check(
        "base-stage",
        cert.base_stage.sphere_dimension != 2 * n + 1,
        f"base sphere dimension should be {2 * n + 1}",
    )

    codims = [s.codimension for s in cert.steps]
    recomputed_min = min(codims, default=None)
    check(
        "min-codimension",
        cert.min_codimension != recomputed_min,
        f"recorded {cert.min_codimension}, recomputed {recomputed_min}",
    )

    threshold_ok = check(
        "codimension-threshold",
        any(c < CODIMENSION_THRESHOLD for c in codims),
        f"minimum codimension {recomputed_min} is below {CODIMENSION_THRESHOLD}",
    )

    check(
        "citations-intact",
        tuple(cert.citations) != CITATIONS,
        "citation anchors differ from the fixed list",
    )

    recomputed_verified = reduction_ok and construction_ok and threshold_ok
    check(
        "verified-flag",
        cert.verified != recomputed_verified,
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
        quotient = quotient_descriptor(pair)  # raises NotFree
        del quotient["moment_angle_dim"]  # the statement carries it itself
        rank, dim = quotient["quotient_torus_rank"], quotient["manifold_dim"]
        if rank == 1:
            description = (
                f"complex-projective-type quotient S^{sphere_dim}/S^1 "
                f"of dimension {dim}"
            )
        else:
            description = (
                f"quotient of the moment-angle manifold by a freely acting "
                f"rank-{rank} subtorus, of dimension {dim}"
            )
        quotient["description"] = description
        clauses.append((
            f"the rank-{rank} subtorus encoded by the characteristic matrix "
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
    index, construction_type, sigma, tau, codim, delta, post = fields(
        doc, "step", index=int, construction_type=int, sigma=[int], tau=[int],
        codimension=int, torus_rank_delta=int, post_f_vector=[int],
    )
    return SurgeryStep(
        index, construction_type, tuple(sorted(sigma)), tuple(sorted(tau)),
        codim, delta, tuple(post),
    )


def certificate_from_doc(doc) -> SurgeryCertificate:
    """Parse an untrusted certificate document, enforcing the schema only;
    semantic claims are left to :func:`verify_certificate`.  Its own keys
    are checked before the records nested in them."""
    try:
        (polytope, dual_hash, moves, steps, stage, min_codim, citations,
         verified) = fields(
            doc, "certificate", polytope=dict, dual_hash=str,
            reduction_moves=list, steps=list, base_stage=dict,
            min_codimension=(int, None), citations=[str], verified=bool,
        )
        polytope = polytope_from_doc(polytope)
        moves = tuple(move_from_doc(m) for m in moves)
        steps = tuple(_step_from_doc(s) for s in steps)
        stage = BaseStage(*fields(
            stage, "base_stage", sphere_dimension=int, extra_circles=int
        ))
    except InputError as exc:
        raise MalformedCertificate(str(exc))
    return SurgeryCertificate(
        polytope=polytope,
        dual_hash=dual_hash,
        reduction_moves=moves,
        steps=steps,
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
        "consistent": report.established,  # the schema keeps both keys
        "established": report.established,
    }
