import itertools

import pytest

import flipcert as fc
from flipcert.polytopes import (
    BadDimension,
    DuplicateFacetName,
    DuplicateVertex,
    NotSimple,
    NoVertices,
    SimplePolytope,
    UnknownFacetIndex,
    UnusedFacet,
    UnknownName,
    make_polytope,
)
from flipcert.serialize import polytope_from_doc

from conftest import B5_FACETS
from reference import canonical_form, join


def test_parse_simplex_document():
    doc = {
        "dim": 3,
        "facets": ["a", "b", "c", "d"],
        "vertices": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
    }
    p = polytope_from_doc(doc)
    assert p.dim == 3 and p.facet_count == 4 and len(p.vertices) == 4


def test_parse_not_simple():
    doc = {
        "dim": 3,
        "facets": ["a", "b", "c", "d"],
        "vertices": [[0, 1, 2, 3], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
    }
    with pytest.raises(NotSimple):
        polytope_from_doc(doc)


def test_parse_bad_index_and_duplicate():
    with pytest.raises(UnknownFacetIndex):
        make_polytope(2, ["a", "b", "c"], [[0, 1], [0, 2], [1, 9]])
    with pytest.raises(UnknownFacetIndex):
        make_polytope(1, ["a", "b"], [{False}, {True}])
    with pytest.raises(DuplicateVertex):
        make_polytope(2, ["a", "b", "c"], [[0, 1], [0, 1], [1, 2], [0, 2]])


def test_parse_no_vertices():
    # with no facets there is no unused facet to name: the polytope is empty
    with pytest.raises(NoVertices, match="at least one vertex"):
        polytope_from_doc({"dim": 2, "facets": [], "vertices": []})
    with pytest.raises(UnusedFacet, match=r"facets \[0, 1\] appear"):
        make_polytope(1, ["a", "b"], [])


#: (dim, facet names, vertices) and the refusal they meet, however the
#: polytope is built; the later cases fix the order of the checks.
REFUSALS = [
    ((0, ["a"], [[0]]), BadDimension, "polytope dimension must be >= 1, got 0"),
    # judged by is_int before it is compared: none of these is a dimension
    ((2.0, "abc", [[0, 1], [1, 2], [0, 2]]), BadDimension,
     "polytope dimension must be an int, got 2.0"),
    ((True, "ab", [[0], [1]]), BadDimension, "polytope dimension must be an int, got True"),
    (("2", "abc", [[0, 1], [1, 2], [0, 2]]), BadDimension,
     "polytope dimension must be an int, got '2'"),
    ((None, "abc", [[0, 1], [1, 2], [0, 2]]), BadDimension,
     "polytope dimension must be an int, got None"),
    ((1, ["a", "a"], [[0], [1]]), DuplicateFacetName, "facet names must be distinct"),
    ((2, ["a", "b", "c"], [[0, 1, 2], [0, 1]]), NotSimple,
     "vertex [0, 1, 2] lies on 3 facets, expected 2"),
    ((2, ["a", "b", "c"], [[0, 1], [0, 2], [1, 9]]), UnknownFacetIndex,
     "facet index 9 out of range"),
    ((1, ["a", "b"], [{False}, {True}]), UnknownFacetIndex,
     "facet index False out of range"),
    ((1, ["a", "b"], [[-1], [0]]), UnknownFacetIndex, "facet index -1 out of range"),
    ((1, ["a", "b"], [["0"], [1]]), UnknownFacetIndex, "facet index '0' out of range"),
    # equal to an index an earlier vertex holds: each index is judged itself
    ((2, "abc", [[0, 1], [True, 2], [0, 2]]), UnknownFacetIndex,
     "facet index True out of range"),
    ((2, "abc", [[0, 1], [0, 2], [1.0, 2]]), UnknownFacetIndex,
     "facet index 1.0 out of range"),
    ((2, ["a", "b", "c"], [[0, 1], [1, 0], [1, 2], [0, 2]]), DuplicateVertex,
     "vertex [0, 1] listed twice"),
    ((2, ["a", "b", "c", "d"], [[0, 1], [1, 2], [0, 2]]), UnusedFacet,
     "facets [3] appear in no vertex"),
    ((1, ["a", "b"], []), UnusedFacet, "facets [0, 1] appear in no vertex"),
    ((2, [], []), NoVertices, "a polytope needs at least one vertex"),
    ((0, ["a", "a"], [[0, 0, 0]]), BadDimension, "polytope dimension must be >= 1, got 0"),
    ((1, ["a", "a"], [[0, 1]]), DuplicateFacetName, "facet names must be distinct"),
    ((2, ["a", "b", "c"], [[0, 9], [0, 1, 2]]), UnknownFacetIndex,
     "facet index 9 out of range"),
    ((2, ["a", "b", "c"], [[0, 1], [0, 1], [1, 9]]), DuplicateVertex,
     "vertex [0, 1] listed twice"),
    ((2, ["a", "b", "c", "d"], [[0, 1], [0, 1, 2]]), NotSimple,
     "vertex [0, 1, 2] lies on 3 facets, expected 2"),
    # no simple vertex either, but NotSimple would sort it to word itself
    ((2, "abc", [[0, 1, "x"], [0, 2], [1, 2]]), UnknownFacetIndex,
     "facet index 'x' out of range"),
]


@pytest.mark.parametrize("build", [make_polytope, SimplePolytope])
@pytest.mark.parametrize("args, error, text", REFUSALS)
def test_each_refusal_keeps_its_type_and_text(build, args, error, text):
    with pytest.raises(error) as caught:
        build(*args)
    assert type(caught.value) is error and str(caught.value) == text


@pytest.mark.parametrize("build", [make_polytope, SimplePolytope])
def test_a_repeated_facet_index_is_not_a_vertex_however_built(build):
    # (0, 0) is the one facet {0}: checked as a set, not as the listed pair
    with pytest.raises(NotSimple) as caught:
        build(2, ("a", "b", "c"), ((0, 0), (1, 2), (0, 2), (0, 1)))
    assert str(caught.value) == "vertex [0] lies on 1 facets, expected 2"


@pytest.mark.parametrize("build", [make_polytope, SimplePolytope])
@pytest.mark.parametrize("vertices, text", [
    ([[[0], 1], [1, 2], [0, 2]], "[[0], 1] is not a set of facet indices"),
    ([5, [1, 2], [0, 2]], "5 is not a set of facet indices"),
    (7, "7 is not a set of facet indices"),
], ids=["unhashable-index", "int-vertex", "int-vertex-list"])
def test_a_vertex_that_is_no_set_of_indices_is_refused_by_name_however_built(
        build, vertices, text):
    # an unhashable index, a vertex or a vertex list that is not iterable:
    # each named in one line, not a bare TypeError from frozenset
    with pytest.raises(UnknownFacetIndex) as caught:
        build(2, ["a", "b", "c"], vertices)
    assert str(caught.value) == text


def test_a_polytope_built_directly_equals_make_polytope():
    for name, p in fc.corpus().items():
        names, vertices = list(p.facet_names), [sorted(v) for v in p.vertices]
        reference = make_polytope(p.dim, names, vertices)
        for built in (
            SimplePolytope(p.dim, names, vertices),
            SimplePolytope(p.dim, tuple(names), tuple(map(tuple, vertices))),
        ):
            assert built == reference == p, name
            assert hash(built) == hash(reference) == hash(p), name
            assert type(built.facet_names) is tuple, name
            assert type(built.vertices) is tuple, name
            assert all(type(v) is frozenset for v in built.vertices), name


def test_parse_prism_document():
    prism = fc.named_polytope("prism")
    assert prism.facet_count == 5 and len(prism.vertices) == 6
    from flipcert.serialize import polytope_to_doc
    assert polytope_from_doc(polytope_to_doc(prism)) == prism


def test_dual_of_simplices():
    for n in range(1, 6):
        dual = fc.dual_complex(fc.simplex_polytope(n)).complex
        assert dual.dim == n - 1
        assert fc.is_boundary_of_simplex(dual)
        assert len(dual.facets) == n + 1


def test_dual_of_cube_is_octahedron():
    dual = fc.dual_complex(fc.named_polytope("cube-3")).complex
    expected = {
        tuple(sorted((a, b, c)))
        for a in (0, 1) for b in (2, 3) for c in (4, 5)
    }
    assert set(dual.facets) == expected
    assert fc.f_vector(dual) == (6, 12, 8)


def test_dual_of_prism_is_bipyramid_up_to_relabeling():
    dual = fc.dual_complex(fc.named_polytope("prism")).complex
    b5 = fc.Complex(2, B5_FACETS)
    assert canonical_form(dual) == canonical_form(b5)


def test_simplex_polytope():
    seg = fc.simplex_polytope(1)
    assert seg.facet_count == 2 and len(seg.vertices) == 2
    assert fc.simplex_polytope(3).facet_count == 4
    with pytest.raises(BadDimension):
        fc.simplex_polytope(0)
    with pytest.raises(BadDimension, match=r"^cube dimension must be >= 1, got 0$"):
        fc.cube_polytope(0)


def test_products():
    square = fc.product(fc.simplex_polytope(1), fc.simplex_polytope(1))
    assert square.facet_count == 4 and len(square.vertices) == 4
    cube = fc.product(square, fc.simplex_polytope(1))
    assert cube.facet_count == 6 and len(cube.vertices) == 8
    prism = fc.product(fc.simplex_polytope(2), fc.simplex_polytope(1))
    assert prism.facet_count == 5 and len(prism.vertices) == 6


def test_dual_of_product_is_join_of_duals():
    pool = list(fc.corpus().values())
    for p, q in itertools.product(pool, repeat=2):
        if p.dim + q.dim > 5:
            continue
        dp = fc.dual_complex(p).complex
        dq = fc.dual_complex(q).complex
        shift = p.facet_count
        shifted = fc.Complex(
            dq.dim, [tuple(v + shift for v in f) for f in dq.facets]
        )
        assert fc.dual_complex(fc.product(p, q)).complex == join(dp, shifted)


def test_named_corpus():
    cube = fc.named_polytope("cube-3")
    assert cube.facet_count == 6 and len(cube.vertices) == 8
    dual = fc.dual_complex(fc.named_polytope("dodecahedron")).complex
    assert fc.f_vector(dual) == (12, 30, 20)
    assert fc.is_pseudomanifold(dual)
    assert fc.euler_characteristic(dual) == 2
    with pytest.raises(UnknownName):
        fc.named_polytope("torus")


def test_duality_counts():
    for name, p in fc.corpus().items():
        dual = fc.dual_complex(p).complex
        assert len(dual.facets) == len(p.vertices), name
        assert len(dual.support) == p.facet_count, name
        assert dual.dim == p.dim - 1, name
        if dual.dim >= 1:
            assert fc.is_pseudomanifold(dual), name
