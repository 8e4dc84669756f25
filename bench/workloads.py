"""Seeded inputs for the certify/verify benchmark.

Every generator draws from a ``random.Random`` passed in, so one seed gives
one batch; ``run.py`` turns the results into the JSON files the command line
reads.  Two families feed the workloads:

* relabelled products of simplices (the cube-4 family and larger
  high-dimensional duals with few vertices), which the annealing search has
  to work on;
* seeded vertex truncations of cube-3 with blow-up characteristic matrices
  (low-dimensional duals with many vertices), which greedy vertex removals
  reduce almost on their own.

Truncating a vertex of a simple polytope is the dual of a type-0 bistellar
move: the construction move that adds a circle factor in the flip-surgery
dictionary (Buchstaber-Panov, Construction 6.23).  Giving the new facet the
sum of the columns of the facets through the cut vertex keeps every vertex
minor unimodular, the equivariant blow-up, so every generated matrix passes
the freeness check.
"""

from flipcert.complexes import euler_characteristic, is_pseudomanifold
from flipcert.polytopes import (
    cube_polytope,
    dual_complex,
    make_polytope,
    named_polytope,
    product,
    simplex_polytope,
)
from flipcert.quasitoric import CharacteristicPair, check_freeness
from flipcert.serialize import complex_digest, polytope_from_doc, polytope_to_doc


class GeneratorError(AssertionError):
    """A generated input failed its own validity check."""


def permute_polytope(p, order):
    """The same polytope with facet ``i`` renumbered ``order[i]``; facet
    names travel with their facets."""
    names = [None] * p.facet_count
    for old, new in enumerate(order):
        names[new] = p.facet_names[old]
    vertices = [frozenset(order[i] for i in v) for v in p.vertices]
    return make_polytope(p.dim, names, vertices)


def _shuffled(count, rng):
    order = list(range(count))
    rng.shuffle(order)
    return order


def relabel(p, rng):
    """A random relabelling of ``p``: its dual is an isomorphic copy on
    shuffled vertex ids, which changes the order in which the search meets
    its candidates."""
    return permute_polytope(p, _shuffled(p.facet_count, rng))


def relabel_certificate(doc, rng):
    """A certificate document for a random relabelling of its polytope.

    Strict reductions never add vertices, so every vertex id in the moves
    and steps is a facet index of the polytope and is renumbered with it;
    the copy verifies exactly when the original does, with the same work.
    """
    p = polytope_from_doc(doc["polytope"])
    order = _shuffled(p.facet_count, rng)
    q = permute_polytope(p, order)

    def renumber(entry):
        return dict(entry, sigma=sorted(order[v] for v in entry["sigma"]),
                    tau=sorted(order[v] for v in entry["tau"]))

    return dict(
        doc,
        polytope=polytope_to_doc(q),
        dual_hash=complex_digest(dual_complex(q).complex),
        reduction_moves=[renumber(m) for m in doc["reduction_moves"]],
        steps=[renumber(s) for s in doc["steps"]],
    )


def prism_triangle():
    """prism x triangle: a 5-polytope with 8 facets and 18 vertices, the
    next step up in dimension from cube-4 at about twice its search cost."""
    return product(named_polytope("prism"), simplex_polytope(2))


def cube_pair(n):
    """cube-n with the standard characteristic matrix: both facets of the
    k-th opposite pair map to the k-th unit vector, so every vertex minor is
    the identity."""
    p = cube_polytope(n)
    rows = tuple(
        tuple(1 if c // 2 == r else 0 for c in range(2 * n)) for r in range(n)
    )
    return CharacteristicPair(p, rows)


def truncate_vertex(pair, index):
    """Cut off vertex ``index`` of ``pair.polytope`` by a new facet.

    The vertex on facets S becomes the ``dim`` vertices ``(S - {s}) | {F}``.
    The new facet F gets the sum of the columns of S; each new vertex minor
    then differs from the old minor at the cut vertex by one column
    operation and a transposition, so its determinant stays +-1.
    """
    p = pair.polytope
    new = p.facet_count
    cut = p.vertices[index]
    vertices = list(p.vertices[:index]) + list(p.vertices[index + 1:])
    vertices += [(cut - {s}) | {new} for s in sorted(cut)]
    names = p.facet_names + (f"t{new}",)
    matrix = tuple(row + (sum(row[s] for s in cut),) for row in pair.matrix)
    return CharacteristicPair(make_polytope(p.dim, names, vertices), matrix)


def truncated_cube(rng, cuts):
    """cube-3 after ``cuts`` truncations at seeded vertices, with its
    blow-up characteristic matrix."""
    pair = cube_pair(3)
    for _ in range(cuts):
        pair = truncate_vertex(pair, rng.randrange(len(pair.polytope.vertices)))
    return pair


def check_polytope(p):
    """Raise unless the dual of ``p`` is a pseudomanifold with the Euler
    characteristic of a (dim-1)-sphere."""
    k = dual_complex(p).complex
    if not is_pseudomanifold(k):
        raise GeneratorError(f"{p!r}: dual is not a pseudomanifold")
    expected = 1 + (-1) ** k.dim
    if euler_characteristic(k) != expected:
        raise GeneratorError(f"{p!r}: Euler characteristic is not {expected}")


def check_pair(pair):
    """Raise unless ``pair`` is a valid freeness-passing input: the polytope
    is accepted by ``make_polytope``, its dual is a sphere candidate and
    every vertex minor is unimodular."""
    p = pair.polytope
    make_polytope(p.dim, p.facet_names, p.vertices)
    check_polytope(p)
    if not check_freeness(pair).ok:
        raise GeneratorError(f"{p!r}: characteristic matrix is not free")
