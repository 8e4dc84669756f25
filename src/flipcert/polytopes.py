"""Combinatorial simple polytopes and their dual boundary complexes.

A polytope here is purely combinatorial: named facets plus the set of facets
incident to each vertex.  Simplicity (every vertex on exactly ``dim`` facets)
is enforced; convex realizability is not checked and is recorded as
unverified by the certificate layer.
"""

import itertools
import re
from dataclasses import dataclass, replace

from .complexes import BadDimension, Complex, is_int
from .errors import InputError


class NotSimple(InputError):
    pass


class UnknownFacetIndex(InputError):
    pass


class DuplicateVertex(InputError):
    pass


class DuplicateFacetName(InputError):
    pass


class UnusedFacet(InputError):
    pass


class NoVertices(InputError):
    pass


class UnknownName(InputError):
    pass


@dataclass(frozen=True)
class SimplePolytope:
    """Simple polytope: a tuple of distinct ``str`` facet names and a nonempty
    tuple of distinct vertices, each stored, however built, as the frozenset of
    ``dim`` facet indices it was checked as; together they use every index.
    An exact ``int`` index passes its type test inline; any other goes to ``is_int``."""

    dim: int
    facet_names: tuple
    vertices: tuple  # tuple of frozensets of facet indices

    def __post_init__(self):
        try:
            names, vertices, v = tuple(self.facet_names), [], self.vertices
        except TypeError:  # no iterable of names
            raise InputError(f"{self.facet_names!r} is not a list of names") from None
        try:
            for v in self.vertices:
                vertices.append(frozenset(v))
        except TypeError:  # v, a vertex or the vertex list, is no set of hashables
            raise UnknownFacetIndex(f"{v!r} is not a set of facet indices") from None
        n, m = self.dim, len(names)
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
                if not (type(fi) is int or is_int(fi)) or not 0 <= fi < m:
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
        object.__setattr__(self, "facet_names", names)
        object.__setattr__(self, "vertices", tuple(vertices))

    @property
    def facet_count(self) -> int:
        return len(self.facet_names)

    def __repr__(self):
        return (
            f"SimplePolytope(dim={self.dim}, facets={self.facet_count}, "
            f"vertices={len(self.vertices)})"
        )


def make_polytope(dim, facet_names, vertices) -> SimplePolytope:
    """Pack the arguments: ``SimplePolytope`` checks and stores them."""
    return SimplePolytope(dim, facet_names, vertices)


@dataclass(frozen=True)
class DualComplexMap:
    """A polytope together with its dual boundary complex, whose vertex
    ``i`` is the polytope's facet ``i``."""

    polytope: SimplePolytope
    complex: Complex


def dual_complex(p: SimplePolytope) -> DualComplexMap:
    """The boundary complex of the dual polytope.

    Facets of a simple polytope index the vertices of the dual complex; each
    polytope vertex (a set of ``dim`` mutually intersecting facets) becomes a
    maximal simplex.  Generating by these maximal simplices realizes the rule
    that a facet set spans a simplex exactly when its intersection is a
    nonempty face.
    """
    facets = [tuple(sorted(v)) for v in p.vertices]
    return DualComplexMap(polytope=p, complex=Complex._derived(p.dim - 1, facets))


def simplex_polytope(n: int) -> SimplePolytope:
    """The combinatorial n-simplex: n+1 facets, one vertex per n-subset."""
    if n < 1:
        raise BadDimension(f"simplex dimension must be >= 1, got {n}")
    names = [f"f{i}" for i in range(n + 1)]
    return make_polytope(n, names, itertools.combinations(range(n + 1), n))


def _fresh_name(name: str, taken: set) -> str:
    if name not in taken:
        return name
    k = 2
    while f"{name}#{k}" in taken:
        k += 1
    return f"{name}#{k}"


def product(p: SimplePolytope, q: SimplePolytope) -> SimplePolytope:
    """Combinatorial product: facet lists concatenate (q's indices shift by
    p.facet_count), vertices pair up.  Name clashes get a ``#k`` suffix."""
    names = list(p.facet_names)
    taken = set(names)
    for name in q.facet_names:
        fresh = _fresh_name(name, taken)
        names.append(fresh)
        taken.add(fresh)
    shift = p.facet_count
    vertices = [
        vp | frozenset(i + shift for i in vq)
        for vp in p.vertices
        for vq in q.vertices
    ]
    return make_polytope(p.dim + q.dim, names, vertices)


def cube_polytope(n: int) -> SimplePolytope:
    """The combinatorial n-cube with opposite facets paired as indices
    (2k, 2k+1)."""
    if n < 1:
        raise BadDimension(f"cube dimension must be >= 1, got {n}")
    names = []
    for k in range(n):
        names += [f"x{k}-", f"x{k}+"]
    vertices = [
        frozenset(2 * k + s for k, s in enumerate(signs))
        for signs in itertools.product((0, 1), repeat=n)
    ]
    return make_polytope(n, names, vertices)


# Icosahedron facet list on vertices 0..11; the dodecahedron below is its
# dual.  Checked in tests: f = (12, 30, 20), pseudomanifold, Euler 2.
_ICOSAHEDRON_FACETS = (
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
    (1, 6, 2), (2, 6, 7), (2, 7, 3), (3, 7, 8), (3, 8, 4),
    (4, 8, 9), (4, 9, 5), (5, 9, 10), (5, 10, 1), (1, 10, 6),
    (6, 11, 7), (7, 11, 8), (8, 11, 9), (9, 11, 10), (10, 11, 6),
)


def dodecahedron_polytope() -> SimplePolytope:
    """The combinatorial dodecahedron: 12 facets (one per icosahedron
    vertex), 20 vertices (one per icosahedron triangle)."""
    return make_polytope(3, [f"f{i}" for i in range(12)], _ICOSAHEDRON_FACETS)


_SIMPLEX_RE = re.compile(r"^simplex-([0-9]+)$")
_CUBE_RE = re.compile(r"^cube-([0-9]+)$")


def named_polytope(name: str) -> SimplePolytope:
    """Canonical corpus instances: ``simplex-n``, ``cube-n``, ``prism``,
    ``dodecahedron``."""
    m = _SIMPLEX_RE.match(name)
    if m:
        return simplex_polytope(int(m.group(1)))
    m = _CUBE_RE.match(name)
    if m:
        return cube_polytope(int(m.group(1)))
    if name == "prism":
        return replace(
            product(simplex_polytope(2), simplex_polytope(1)),
            facet_names=("side0", "side1", "side2", "top", "bottom"),
        )
    if name == "dodecahedron":
        return dodecahedron_polytope()
    raise UnknownName(f"no corpus polytope named {name!r}")


#: Names of the built-in corpus, in the order the CLI emits them.
CORPUS_NAMES = (
    "simplex-1", "simplex-2", "simplex-3", "simplex-4", "simplex-5",
    "cube-3", "cube-4", "prism", "dodecahedron",
)


def corpus() -> dict:
    return {name: named_polytope(name) for name in CORPUS_NAMES}
