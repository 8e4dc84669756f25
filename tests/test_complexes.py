import copy
import itertools
import pickle

import pytest

import flipcert as fc
from flipcert.complexes import (
    BadVertexId,
    DimensionTooLow,
    DuplicateVertexInFacet,
    EmptySimplex,
    NotAFace,
    VertexClash,
    WrongFacetSize,
)

from conftest import brute_f_vector, brute_faces
from reference import faces_of_dimension


def test_new_complex_simplex_boundary():
    k = fc.Complex(2, itertools.combinations(range(4), 3))
    assert len(k.facets) == 4
    assert k.dim == 2


def test_new_complex_triangle():
    k = fc.Complex(1, [[0, 1], [1, 2], [0, 2]])
    assert len(k.facets) == 3


def test_new_complex_wrong_facet_size():
    with pytest.raises(WrongFacetSize):
        fc.Complex(2, [[0, 1]])


def test_new_complex_duplicate_vertex():
    with pytest.raises(DuplicateVertexInFacet):
        fc.Complex(2, [[0, 1, 1]])


@pytest.mark.parametrize("bad", ["a", None, (0,)])
def test_new_complex_judges_each_id_before_it_sorts(bad):
    # beside int ids, an id that does not compare with them is refused by
    # name, not met by a sort
    with pytest.raises(BadVertexId) as info:
        fc.Complex(2, [[0, 1, 2], [0, 1, bad]])
    assert str(info.value) == f"vertex id {bad!r} is not a non-negative integer"


def test_new_complex_names_the_smallest_negative_id():
    with pytest.raises(BadVertexId, match=r"^vertex id -2 is not a non-negative"):
        fc.Complex(2, [[3, -1, -2]])


def test_has_face(delta3, b5):
    assert fc.has_face(delta3, (0, 1))
    assert not fc.has_face(delta3, (0, 1, 2, 3))
    # scan of all six facets of the bipyramid: no facet contains {4,5}
    assert (4, 5) not in brute_faces(b5)
    assert not fc.has_face(b5, (4, 5))
    assert fc.has_face(b5, ())  # empty simplex is a face of anything


def test_link_examples(delta3, b5):
    assert fc.link(b5, (0, 1)).facets == ((4,), (5,))
    assert fc.link(delta3, (0,)) == fc.Complex(1, [[1, 2], [1, 3], [2, 3]])
    assert fc.link(b5, (4,)) == fc.Complex(1, [[0, 1], [0, 2], [1, 2]])


def test_link_not_a_face(b5):
    with pytest.raises(NotAFace):
        fc.link(b5, (4, 5))


def test_link_of_facet_is_join_identity(delta3):
    assert fc.link(delta3, (0, 1, 2)) == fc.Complex(-1, [()])


def test_join_builds_bipyramid(b5):
    triangle = fc.Complex(1, [[0, 1], [1, 2], [0, 2]])
    two_points = fc.Complex(0, [[4], [5]])
    assert fc.join(triangle, two_points) == b5


def test_join_identity(b5):
    assert fc.join(b5, fc.Complex(-1, [()])) == b5
    assert fc.join(fc.Complex(-1, [()]), b5) == b5


def test_join_points():
    edge = fc.join(fc.Complex(0, [[0]]), fc.Complex(0, [[1]]))
    assert edge.facets == ((0, 1),)


def test_join_vertex_clash():
    with pytest.raises(VertexClash):
        fc.join(fc.Complex(0, [[0]]), fc.Complex(0, [[0]]))


def test_join_associative(b5):
    a = fc.Complex(0, [[0], [1]])
    b = fc.Complex(0, [[2], [3]])
    c = fc.Complex(1, [[4, 5], [5, 6], [4, 6]])
    assert fc.join(fc.join(a, b), c) == fc.join(a, fc.join(b, c))


def test_boundary_simplex():
    assert fc.boundary_simplex((4, 5)).facets == ((4,), (5,))
    assert fc.boundary_simplex((7,)) == fc.Complex(-1, [()])
    assert len(fc.boundary_simplex((0, 1, 2)).facets) == 3
    with pytest.raises(EmptySimplex):
        fc.boundary_simplex(())


def test_f_vector(delta3, b5, octahedron):
    assert fc.f_vector(delta3) == (4, 6, 4)
    assert fc.f_vector(b5) == brute_f_vector(b5) == (5, 9, 6)
    assert fc.f_vector(octahedron) == brute_f_vector(octahedron) == (6, 12, 8)


def test_f_vector_join_convolution(b5):
    # f_d(K*L) = sum over a+b=d-1 of f_a(K) f_b(L), with f_{-1} = 1
    cases = [
        (fc.Complex(1, [[0, 1], [1, 2], [0, 2]]), fc.Complex(0, [[4], [5]])),
        (fc.Complex(2, itertools.combinations(range(4), 3)),
         fc.Complex(0, [[7], [8]])),
        (fc.Complex(1, [[0, 1], [1, 2], [0, 2]]),
         fc.Complex(1, [[5, 6], [6, 7], [5, 7]])),
    ]
    for k, l in cases:
        joined = fc.join(k, l)
        fk = (1,) + fc.f_vector(k)
        fl = (1,) + fc.f_vector(l)
        fj = (1,) + fc.f_vector(joined)
        for d in range(joined.dim + 1):
            expected = sum(
                fk[a + 1] * fl[d - a]
                for a in range(-1, d + 1)
                if a + 1 < len(fk) and d - a < len(fl)
            )
            assert fj[d + 1] == expected


def test_euler_characteristic(delta3, b5):
    assert fc.euler_characteristic(delta3) == 2
    assert fc.euler_characteristic(fc.Complex(1, [[0, 1], [1, 2], [0, 2]])) == 0
    assert fc.euler_characteristic(b5) == 5 - 9 + 6 == 2


def test_euler_simplex_boundaries():
    for n in range(1, 9):
        boundary = fc.Complex(n - 1, itertools.combinations(range(n + 1), n))
        assert fc.euler_characteristic(boundary) == 1 + (-1) ** (n - 1)


def test_is_pseudomanifold(delta3):
    assert fc.is_pseudomanifold(delta3)
    disjoint = fc.Complex(1, [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]])
    assert not fc.is_pseudomanifold(disjoint)
    broken = fc.Complex(2, [[0, 1, 2], [0, 1, 3], [0, 2, 3]])
    assert not fc.is_pseudomanifold(broken)
    with pytest.raises(DimensionTooLow):
        fc.is_pseudomanifold(fc.Complex(0, [[0], [1]]))


def test_is_boundary_of_simplex(delta3, b5, octahedron):
    assert fc.is_boundary_of_simplex(delta3)
    assert not fc.is_boundary_of_simplex(b5)
    assert not fc.is_boundary_of_simplex(octahedron)


def test_links_are_pure_of_expected_dimension(b5, octahedron, icosahedron):
    for k in (b5, octahedron, icosahedron):
        for face in sorted(brute_faces(k)):
            lk = fc.link(k, face)
            assert lk.dim == k.dim - len(face)
            for facet in lk.facets:
                assert len(facet) == lk.dim + 1


def test_has_face_matches_enumeration(b5, octahedron):
    for k in (b5, octahedron):
        universe = sorted(k.support)
        enumerated = brute_faces(k)
        for size in range(1, k.dim + 3):
            for cand in itertools.combinations(universe, size):
                assert fc.has_face(k, cand) == (cand in enumerated)


def test_faces_of_dimension(b5):
    assert len(faces_of_dimension(b5, 0)) == 5
    assert len(faces_of_dimension(b5, 1)) == 9
    assert faces_of_dimension(b5, 2) == list(b5.facets)


@pytest.mark.parametrize("name", ["dim", "facets", "support"])
def test_complex_immutable(b5, name):
    with pytest.raises(AttributeError):
        setattr(b5, name, getattr(b5, name))


def value_samples():
    """One value of each kind a worker may receive: a validated complex, a
    trusted one built by ``link``, a search result and a dual map."""
    dual = fc.dual_complex(fc.named_polytope("cube-3"))
    return {
        "complex": fc.Complex(2, itertools.combinations(range(4), 3)),
        "link": fc.link(dual.complex, dual.complex.facets[0][:1]),
        "reduction": fc.reduce_to_simplex(dual.complex),
        "dual": dual,
    }


@pytest.mark.parametrize("kind", ["complex", "link", "reduction", "dual"])
def test_values_copy_and_pickle(kind):
    value = value_samples()[kind]
    for twin in (
        copy.copy(value),
        copy.deepcopy(value),
        pickle.loads(pickle.dumps(value)),
    ):
        assert twin == value and hash(twin) == hash(value)
