"""JSON codecs with normative orderings, plus the canonical digest.

Emitted documents are deterministic: facet lists sorted lexicographically
with ascending ids inside each facet, keys sorted, compact separators.  The
digest of a document is the SHA-256 of its canonical JSON, prefixed with the
algorithm name so certificates record how they were hashed.
"""

import hashlib
import json

from .complexes import Complex, is_int
from .errors import InputError
from .moves import Move
from .polytopes import SimplePolytope, make_polytope
from .quasitoric import CharacteristicPair


class MalformedDocument(InputError):
    pass


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def digest(doc) -> str:
    raw = canonical_json(doc).encode("utf-8")
    return "sha256:" + hashlib.sha256(raw).hexdigest()


def _fits(value, kind) -> bool:
    if isinstance(kind, list):
        inner = kind[0]
        return isinstance(value, list) and all(
            type(v) is inner or _fits(v, inner) for v in value)
    if isinstance(kind, tuple):
        return any(_fits(value, k) for k in kind)
    if kind is None:
        return value is None
    return is_int(value) if kind is int else isinstance(value, kind)


def _kind_name(kind) -> str:
    if isinstance(kind, list):
        return "list of " + _kind_name(kind[0])
    if isinstance(kind, tuple):
        return " or ".join(map(_kind_name, kind))
    return "null" if kind is None else kind.__name__


def fields(doc, where, /, **kinds) -> list:
    """The values of ``doc`` at the keys of ``kinds``, checked in the order
    given and returned in that order.  A kind is a type, ``None`` for null,
    ``[k]`` for a list of kind ``k`` or a tuple of alternatives.  Ints are
    judged by ``complexes.is_int``, the one integer rule: never a bool."""
    values = []
    for key, kind in kinds.items():
        if not isinstance(doc, dict) or key not in doc:
            raise MalformedDocument(f"{where}: missing key {key!r}")
        value = doc[key]
        if not _fits(value, kind):
            raise MalformedDocument(
                f"{where}: {key!r} must be {_kind_name(kind)}, "
                f"got {type(value).__name__}"
            )
        values.append(value)
    return values


# -- complexes ---------------------------------------------------------------

def complex_to_doc(k: Complex) -> dict:
    return {"dim": k.dim, "facets": [list(f) for f in k.facets]}


def complex_from_doc(doc) -> Complex:
    return Complex(*fields(doc, "complex", dim=int, facets=[[int]]))


def complex_digest(k: Complex) -> str:
    return digest(complex_to_doc(k))


# -- moves -------------------------------------------------------------------

def move_to_doc(m: Move) -> dict:
    return {"type": m.move_type, "sigma": list(m.sigma), "tau": list(m.tau)}


def move_from_doc(doc) -> Move:
    move_type, sigma, tau = fields(doc, "move", type=int, sigma=[int], tau=[int])
    return Move(tuple(sorted(sigma)), tuple(sorted(tau)), move_type)


def move_sequence_to_doc(start: Complex, moves) -> dict:
    return {
        "start_hash": complex_digest(start),
        "moves": [move_to_doc(m) for m in moves],
    }


def move_sequence_from_doc(doc):
    """Returns (start_hash or None, list of moves).  Accepts a bare list of
    moves, a ``{"start_hash"?, "moves": [...]}`` sequence, or a document
    holding one such sequence under ``"moves"`` (``reduce`` output)."""
    if isinstance(doc, list):
        return None, [move_from_doc(m) for m in doc]
    if isinstance(doc, dict):
        if isinstance(doc.get("moves"), dict):
            doc = doc["moves"]  # unwrapped once: deeper nesting is refused
        doc = {"start_hash": None, **doc}  # the one optional key
    moves, start_hash = fields(
        doc, "move sequence", moves=list, start_hash=(str, None)
    )
    return start_hash, [move_from_doc(m) for m in moves]


# -- polytopes ---------------------------------------------------------------

def polytope_to_doc(p: SimplePolytope) -> dict:
    return {
        "dim": p.dim,
        "facets": list(p.facet_names),
        "vertices": [sorted(v) for v in p.vertices],
    }


def polytope_from_doc(doc) -> SimplePolytope:
    dim, names, vertices = fields(
        doc, "polytope", dim=int, facets=[str], vertices=[[int]]
    )
    p = make_polytope(dim, names, vertices)
    for v in vertices:  # a vertex on dim facets, listed with more indices
        if len(v) != dim:
            raise MalformedDocument(f"polytope: vertex {v} repeats a facet index")
    return p


# -- reduction results -------------------------------------------------------

def reduction_result_to_doc(start: Complex, result) -> dict:
    """Reads a ``ReductionResult``'s succeeded, steps_examined, moves, final."""
    return {
        "succeeded": result.succeeded,
        "steps_examined": result.steps_examined,
        "moves": move_sequence_to_doc(start, result.moves),
        "final": complex_to_doc(result.final),
    }


# -- characteristic matrices ---------------------------------------------------

def lambda_to_doc(pair: CharacteristicPair) -> dict:
    return {
        "rows": pair.polytope.dim,
        "cols": pair.polytope.facet_count,
        "entries": [list(row) for row in pair.matrix],
    }


def lambda_from_doc(doc, polytope: SimplePolytope) -> CharacteristicPair:
    """Parse a characteristic matrix, checking its shape against ``polytope``."""
    rows, cols, entries = fields(doc, "lambda", rows=int, cols=int, entries=[[int]])
    if rows != len(entries) or any(len(row) != cols for row in entries):
        raise MalformedDocument(
            f"lambda: declared {rows}x{cols}, entries do not have that shape"
        )
    return CharacteristicPair(polytope, tuple(tuple(row) for row in entries))


def dump(doc) -> str:
    """Normative output form: sorted keys, compact, trailing newline."""
    return canonical_json(doc) + "\n"
