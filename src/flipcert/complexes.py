"""Pure simplicial complexes stored by their maximal simplices.

A simplex is a strictly increasing tuple of non-negative integer vertex ids;
the empty tuple is the empty simplex (dimension -1).  A :class:`Complex` is a
pure complex: every facet has the same dimension, and all lower faces are
derived on demand.  Values are frozen slotted dataclasses that copy and pickle.

Vertex ids are non-negative ints by ``is_int``, the one integer rule, and need
not be contiguous: moves delete and create vertices; relabeling breaks replay.

``Complex(dim, facets)`` validates every facet and takes all outside data.
The private ``Complex._derived`` only sorts and deduplicates facets cut out
of a validated complex, kept by the search from one, or read off a checked
``SimplePolytope``; only ``link``, ``moves.apply_move``,
``moves.FaceTable.snapshot`` and ``polytopes.dual_complex`` may call it.

``has_face`` and ``link``, with ``moves.is_applicable``, are the tests'
reference judge, not exported: they stay here for the benchmark tracer's spans.
"""

import itertools
from dataclasses import dataclass, field

from .errors import InputError

Simplex = tuple


class WrongFacetSize(InputError):
    pass


class DuplicateVertexInFacet(InputError):
    pass


class BadVertexId(InputError):
    pass


class EmptyComplex(InputError):
    pass


class NotAFace(InputError):
    pass


class DimensionTooLow(InputError):
    pass


class BadDimension(InputError):
    pass


def is_int(v) -> bool:
    """The one integer rule of every gate: an int that is not a bool."""
    return type(v) is int or (isinstance(v, int) and not isinstance(v, bool))


def as_simplex(vertices) -> Simplex:
    """Judge every vertex id, then sort them into a simplex tuple."""
    vs = tuple(vertices)
    for v in vs:
        if not is_int(v):
            raise BadVertexId(f"vertex id {v!r} is not a non-negative integer")
    vs = tuple(sorted(vs))
    if vs and vs[0] < 0:  # the smallest id is named, whatever the order given
        raise BadVertexId(f"vertex id {vs[0]!r} is not a non-negative integer")
    for a, b in zip(vs, vs[1:]):
        if a == b:
            raise DuplicateVertexInFacet(f"vertex {a} repeated in {vs}")
    return vs


@dataclass(frozen=True, slots=True, repr=False)
class Complex:
    """A pure simplicial complex, identified by its facet set.

    ``dim`` is the common facet dimension.  ``dim == -1`` is allowed only for
    the join identity ``{∅}`` (a single empty facet), which also arises as the
    link of a facet.  A complex with no facets at all is rejected.
    """

    dim: int
    facets: tuple
    support: frozenset = field(compare=False)

    def __init__(self, dim: int, facets):
        if not is_int(dim):
            raise BadDimension(f"complex dimension must be an int, got {dim!r}")
        cleaned = sorted({as_simplex(f) for f in facets})
        if not cleaned:
            raise EmptyComplex("a complex needs at least one facet")
        for f in cleaned:
            if len(f) != dim + 1:
                raise WrongFacetSize(
                    f"facet {f} has {len(f)} vertices, expected {dim + 1}"
                )
        self._set_fields(dim, cleaned)

    @classmethod
    def _derived(cls, dim: int, facets) -> "Complex":
        """Trusted path: at least one facet, each a sorted tuple of
        ``dim + 1`` valid ids.  Sorts and deduplicates only."""
        k = object.__new__(cls)
        k._set_fields(dim, sorted(set(facets)))
        return k

    def _set_fields(self, dim, cleaned):
        facets = tuple(cleaned)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "facets", facets)
        object.__setattr__(
            self, "support", frozenset(itertools.chain.from_iterable(facets))
        )

    def __repr__(self):
        return f"Complex(dim={self.dim}, facets={len(self.facets)})"


def has_face(k: Complex, s) -> bool:
    """True iff ``s`` is contained in some facet of ``k``.

    The empty simplex is a face of every complex.
    """
    ss = set(s)
    return any(ss.issubset(f) for f in k.facets)


def link(k: Complex, s) -> Complex:
    """The link of a face: all faces disjoint from ``s`` whose union with
    ``s`` lies in ``k``, given by maximal members.

    For a pure complex the maximal members are exactly ``f - s`` over facets
    ``f`` containing ``s``, so the result is pure of dimension
    ``k.dim - len(s)``.
    """
    s = as_simplex(s)
    ss = set(s)
    residues = [tuple(v for v in f if v not in ss) for f in k.facets if ss.issubset(f)]
    if not residues:
        raise NotAFace(f"{s} is not a face of {k!r}")
    return Complex._derived(k.dim - len(s), residues)


def f_vector(k: Complex) -> tuple:
    """Face counts by dimension, ``(f_0, ..., f_dim)``, via subset
    enumeration of the facets with deduplication."""
    return tuple(
        len(set().union(*(itertools.combinations(f, d + 1) for f in k.facets)))
        for d in range(k.dim + 1)
    )


def euler_characteristic(k: Complex) -> int:
    return sum((-1) ** d * fd for d, fd in enumerate(f_vector(k)))


def is_pseudomanifold(k: Complex) -> bool:
    """True iff every ridge lies in exactly two facets and the facet
    adjacency graph (facets sharing a ridge) is connected."""
    if k.dim < 1:
        raise DimensionTooLow("pseudomanifold test needs dimension >= 1")
    ridge_to_facets = {}
    for idx, f in enumerate(k.facets):
        for r in itertools.combinations(f, k.dim):
            ridge_to_facets.setdefault(r, []).append(idx)
    if any(len(owners) != 2 for owners in ridge_to_facets.values()):
        return False
    adjacency = {i: set() for i in range(len(k.facets))}
    for a, b in ridge_to_facets.values():
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen = {0}
    queue = [0]
    while queue:
        cur = queue.pop()
        for nxt in adjacency[cur]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return len(seen) == len(k.facets)


def is_boundary_of_simplex(k: Complex) -> bool:
    """True iff ``k`` is the full boundary of a simplex: ``dim + 2`` vertices
    carrying every possible facet."""
    if len(k.support) != k.dim + 2:
        return False
    # dim+2 distinct (dim+1)-subsets of a (dim+2)-set are all of them.
    return len(k.facets) == k.dim + 2
