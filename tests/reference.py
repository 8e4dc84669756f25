"""Plain reference paths that the package no longer needs itself, kept for
the tests that hold its fast paths to them, the builders that only the
tests call, and the breadth-first flip-distance oracle, with its canonical
form, that bounds the search.

The input gates are kept here with every type test a call to ``is_int``:
``check_polytope`` (``SimplePolytope``), ``check_pair``
(``CharacteristicPair``) and ``fits`` (the schema reader's kind test), each
judging one element at a time.

The builders are ``join`` and ``boundary_simplex``, with the two errors
only they raise, and ``cpn_pair``.  The reference judge of a single move,
``is_applicable`` over ``link`` and ``has_face``, is not here: it stays in
``flipcert.moves`` and ``flipcert.complexes``, unexported, because the
benchmark's tracer wraps it there by module and name."""

import itertools
from typing import Optional

from flipcert import (
    CharacteristicPair,
    Complex,
    apply_move,
    enumerate_moves,
    is_boundary_of_simplex,
    simplex_polytope,
)
from flipcert.complexes import as_simplex, is_int
from flipcert.errors import InputError
from flipcert.polytopes import (
    BadDimension,
    DuplicateFacetName,
    DuplicateVertex,
    NoVertices,
    NotSimple,
    UnknownFacetIndex,
    UnusedFacet,
)
from flipcert.quasitoric import ShapeMismatch


class VertexClash(InputError):
    pass


class EmptySimplex(InputError):
    pass


def join(k, l):
    """Simplicial join: facet-wise unions of two complexes on disjoint vertex
    sets.  ``{∅}`` is a two-sided identity."""
    clash = k.support & l.support
    if clash:
        raise VertexClash(f"shared vertex ids {sorted(clash)}")
    facets = [kf + lf for kf in k.facets for lf in l.facets]
    return Complex(k.dim + l.dim + 1, facets)


def boundary_simplex(t):
    """The boundary complex of a single simplex: all its codimension-one
    subsets.  The boundary of a vertex is ``{∅}``."""
    t = as_simplex(t)
    if len(t) == 0:
        raise EmptySimplex("the empty simplex has no boundary complex")
    return Complex(len(t) - 2, itertools.combinations(t, len(t) - 1))


def cpn_pair(n):
    """The classical pair over the n-simplex whose kernel is the diagonal
    circle: facet 0 maps to -(e1+...+en), facet i to e_i."""
    rows = [[-1] + [1 if c == r else 0 for c in range(n)] for r in range(n)]
    return CharacteristicPair(simplex_polytope(n), rows)


def check_polytope(dim, facet_names, vertices):
    """``SimplePolytope``'s checks, index by index: the facet names and
    vertices it stores, or the first fault it raises."""
    try:
        names = tuple(facet_names)
    except TypeError:  # no name list
        raise InputError(f"{facet_names!r} is not a list of names") from None
    try:
        listed = list(vertices)
    except TypeError:  # no vertex list
        raise UnknownFacetIndex(f"{vertices!r} is not a set of facet indices") from None
    sets = []
    for v in listed:
        try:
            sets.append(frozenset(v))
        except TypeError:  # a vertex not iterable, or an index not hashable
            raise UnknownFacetIndex(f"{v!r} is not a set of facet indices") from None
    vertices = tuple(sets)
    n, m = dim, len(names)
    if not is_int(n):
        raise BadDimension(f"polytope dimension must be an int, got {n!r}")
    if n < 1:
        raise BadDimension(f"polytope dimension must be >= 1, got {n}")
    for name in names:
        if not isinstance(name, str):
            raise InputError(f"facet name {name!r} is not a string")
    if len(set(names)) != m:
        raise DuplicateFacetName("facet names must be distinct")
    used, seen = set(), set()
    for v in vertices:
        for fi in v:  # judged before any wording sorts them
            if not is_int(fi) or not 0 <= fi < m:
                raise UnknownFacetIndex(f"facet index {fi!r} out of range")
        if len(v) != n:
            raise NotSimple(
                f"vertex {sorted(v)} lies on {len(v)} facets, expected {n}"
            )
        if v in seen:
            raise DuplicateVertex(f"vertex {sorted(v)} listed twice")
        seen.add(v)
        used |= v
    if used != set(range(m)):
        raise UnusedFacet(
            f"facets {sorted(set(range(m)) - used)} appear in no vertex"
        )
    if not vertices:
        raise NoVertices("a polytope needs at least one vertex")
    return names, vertices


def check_pair(polytope, matrix):
    """``CharacteristicPair``'s checks, entry by entry: the matrix it
    stores, or the first fault it raises."""
    n = polytope.dim
    m = polytope.facet_count
    rows, seq = matrix, (tuple, list)  # judged before a wording takes len
    if not isinstance(rows, seq) or not all(isinstance(r, seq) for r in rows):
        raise ShapeMismatch("matrix must be a tuple or list of rows, each one too")
    if len(rows) != n:
        raise ShapeMismatch(f"matrix has {len(rows)} rows, expected {n}")
    for row in rows:
        if len(row) != m:
            raise ShapeMismatch(f"row of length {len(row)}, expected {m} columns")
        for entry in row:
            if not is_int(entry):
                raise ShapeMismatch(f"non-integer entry {entry!r}")
    return tuple(tuple(row) for row in rows)


def fits(value, kind):
    """The schema reader's kind test, one call per list element."""
    if isinstance(kind, list):
        return isinstance(value, list) and all(fits(v, kind[0]) for v in value)
    if isinstance(kind, tuple):
        return any(fits(value, k) for k in kind)
    if kind is None:
        return value is None
    return isinstance(value, kind) and not (kind is int and isinstance(value, bool))



def faces_of_dimension(k, d: int) -> list:
    """All ``d``-faces of ``k``, sorted.  ``d`` must lie in ``0..k.dim``."""
    out = set()
    for f in k.facets:
        out.update(itertools.combinations(f, d + 1))
    return sorted(out)


def canonical_form(k) -> tuple:
    """Relabeling-invariant key: the lexicographically smallest facet list
    over all bijections of the support onto ``0..v-1``.

    Factorial in the vertex count; meant for the small complexes the BFS
    oracle visits (<= 8 vertices or so).
    """
    support = sorted(k.support)
    positions = {v: i for i, v in enumerate(support)}
    best = None
    for perm in itertools.permutations(range(len(support))):
        relabeled = tuple(sorted(
            tuple(sorted(perm[positions[v]] for v in f)) for f in k.facets
        ))
        if best is None or relabeled < best:
            best = relabeled
    return best


def flip_distance_oracle(k, allowed_types, radius: int) -> Optional[int]:
    """Length of the shortest move sequence to a simplex boundary, by
    breadth-first search over the flip graph with states identified up to
    vertex relabeling.  ``None`` when no target lies within ``radius``.

    Independent of the annealing search: used as the test oracle for it.
    """
    if is_boundary_of_simplex(k):
        return 0
    frontier = [k]
    seen = {canonical_form(k)}
    for depth in range(1, radius + 1):
        next_frontier = []
        for state in frontier:
            for move in enumerate_moves(state, allowed_types):
                neighbor = apply_move(state, move)
                key = canonical_form(neighbor)
                if key in seen:
                    continue
                if is_boundary_of_simplex(neighbor):
                    return depth
                seen.add(key)
                next_frontier.append(neighbor)
        frontier = next_frontier
        if not frontier:
            return None
    return None
