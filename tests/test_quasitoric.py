import random

import pytest

import flipcert as fc
from flipcert.polytopes import BadDimension
from flipcert.quasitoric import (
    CharacteristicPair,
    NotFree,
    ShapeMismatch,
    det_int,
    vertex_minor_determinant,
)

from conftest import leibniz_det
from reference import cpn_pair


CUBE_PAIRED_IDENTITY = (
    (1, 1, 0, 0, 0, 0),
    (0, 0, 1, 1, 0, 0),
    (0, 0, 0, 0, 1, 1),
)


def test_det_int_against_permutation_expansion():
    rng = random.Random(5)
    for _ in range(200):
        size = rng.randint(1, 4)
        matrix = [[rng.randint(-4, 4) for _ in range(size)] for _ in range(size)]
        assert det_int(matrix) == leibniz_det(matrix)
    assert det_int([]) == leibniz_det([]) == 1  # the empty product


def test_cpn_pair_two_has_the_expected_minors():
    pair = cpn_pair(2)
    assert pair.matrix == ((-1, 1, 0), (-1, 0, 1))
    dets = [vertex_minor_determinant(pair, v) for v in pair.polytope.vertices]
    assert dets == [1, -1, 1]
    assert fc.check_freeness(pair).ok


def test_cpn_pair_one():
    pair = cpn_pair(1)
    assert pair.matrix == ((-1, 1),)
    assert all(
        vertex_minor_determinant(pair, v) in (1, -1)
        for v in pair.polytope.vertices
    )


def test_cpn_pair_range():
    for n in range(1, 9):
        assert fc.check_freeness(cpn_pair(n)).ok
    with pytest.raises(BadDimension):
        cpn_pair(0)


def test_cube_paired_identity_is_free():
    pair = CharacteristicPair(fc.named_polytope("cube-3"), CUBE_PAIRED_IDENTITY)
    assert fc.check_freeness(pair).ok


def test_a_pair_stores_the_row_tuples_it_checked_however_built():
    p = fc.simplex_polytope(1)
    from_lists, from_tuples = CharacteristicPair(p, [[-1, 1]]), CharacteristicPair(p, ((-1, 1),))
    assert from_lists == from_tuples and hash(from_lists) == hash(from_tuples)
    assert type(from_lists.matrix) is tuple and type(from_lists.matrix[0]) is tuple
    # rows that are exact tuples are kept as the same objects
    cube = fc.named_polytope("cube-3")
    stored = CharacteristicPair(cube, list(CUBE_PAIRED_IDENTITY)).matrix
    assert all(a is b for a, b in zip(stored, CUBE_PAIRED_IDENTITY, strict=True))


def test_zero_column_fails_everywhere_it_appears():
    polytope = fc.simplex_polytope(2)
    pair = CharacteristicPair(polytope, ((0, 1, 0), (0, 0, 1)))
    report = fc.check_freeness(pair)
    assert not report.ok
    incident = {
        idx for idx, v in enumerate(polytope.vertices) if 0 in v
    }
    assert {v for v, _ in report.failing_vertices} == incident
    assert all(det == 0 for _, det in report.failing_vertices)


def test_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        fc.check_freeness(CharacteristicPair(fc.simplex_polytope(2), ((1, 0),)))
    with pytest.raises(ShapeMismatch):
        fc.check_freeness(
            CharacteristicPair(fc.simplex_polytope(2), ((1, 0, 0), (0, 1.5, 0)))
        )


def test_pair_checks_its_shape_when_built():
    simplex = fc.simplex_polytope(2)
    for matrix in (
        ((1, 0),),
        ((1, 0, 0),),
        ((1, 0, 0), (0, True, 1)),
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ):
        with pytest.raises(ShapeMismatch):
            CharacteristicPair(simplex, matrix)


@pytest.mark.parametrize("matrix", [5, (5, 6), None, ((1, 0, 0), 7)])
def test_pair_refuses_what_is_no_rows_before_taking_a_length(matrix):
    with pytest.raises(ShapeMismatch) as caught:
        CharacteristicPair(fc.simplex_polytope(2), matrix)
    assert str(caught.value) == (
        "matrix must be a tuple or list of rows, each one too")


NO_ROWS = "matrix must be a tuple or list of rows, each one too"

#: (matrix over the triangle, 2 rows of 3 columns, exact text of the
#: ShapeMismatch); the later rows fix the order in which faults are found.
REFUSALS = [
    (((1, 0, 0),), "matrix has 1 rows, expected 2"),
    (((1, 0, 0), (0, 1, 0), (0, 0, 1)), "matrix has 3 rows, expected 2"),
    (((1, 0), (0, 1, 0)), "row of length 2, expected 3 columns"),
    (((1, 0, 0), (0, 1, 0, 0)), "row of length 4, expected 3 columns"),
    (((1, 0, 0), (0, True, 1)), "non-integer entry True"),
    (((1, 0, 0), (0, 1.0, 1)), "non-integer entry 1.0"),
    ([[1, 0, 0], [0, 1, "1"]], "non-integer entry '1'"),
    (((1, 0, 0), range(3)), NO_ROWS),
    (((1, 0, 0), "010"), NO_ROWS),
    (5, NO_ROWS),
    (range(2), NO_ROWS),
    (((1, 0, True), (0, 1)), "non-integer entry True"),
    (((1, 0), (0, 1, 1.5)), "row of length 2, expected 3 columns"),
    (((1, 0, 1.5), (0, 1, 0), (0, 0, 1)), "matrix has 3 rows, expected 2"),
    (((1, 0, 1.5), 7), NO_ROWS),
]


@pytest.mark.parametrize("matrix, text", REFUSALS)
def test_each_pair_refusal_keeps_its_text(matrix, text):
    with pytest.raises(ShapeMismatch) as caught:
        CharacteristicPair(fc.simplex_polytope(2), matrix)
    assert type(caught.value) is ShapeMismatch and str(caught.value) == text


def test_quotient_descriptor():
    assert fc.quotient_descriptor(cpn_pair(2)) == {
        "manifold_dim": 4,
        "torus_action_rank": 2,
        "moment_angle_dim": 5,
        "quotient_torus_rank": 1,
    }
    cube_pair = CharacteristicPair(fc.named_polytope("cube-3"), CUBE_PAIRED_IDENTITY)
    assert fc.quotient_descriptor(cube_pair) == {
        "manifold_dim": 6,
        "torus_action_rank": 3,
        "moment_angle_dim": 9,
        "quotient_torus_rank": 3,
    }
    bad = CharacteristicPair(fc.simplex_polytope(2), ((0, 1, 0), (0, 0, 1)))
    with pytest.raises(NotFree):
        fc.quotient_descriptor(bad)


def _random_unimodular(rng, size):
    rows = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for _ in range(6):
        a, b = rng.sample(range(size), 2) if size > 1 else (0, 0)
        if a == b:
            continue
        scale = rng.randint(-2, 2)
        rows[a] = [x + scale * y for x, y in zip(rows[a], rows[b])]
    return rows


def test_freeness_invariant_under_unimodular_row_action():
    rng = random.Random(17)
    base_pairs = [
        cpn_pair(2),
        cpn_pair(3),
        CharacteristicPair(fc.named_polytope("cube-3"), CUBE_PAIRED_IDENTITY),
    ]
    for pair in base_pairs:
        n = pair.polytope.dim
        before = [
            abs(vertex_minor_determinant(pair, v)) for v in pair.polytope.vertices
        ]
        for _ in range(10):
            u = _random_unimodular(rng, n)
            assert abs(det_int(u)) == 1
            transformed = tuple(
                tuple(
                    sum(u[r][t] * pair.matrix[t][c] for t in range(n))
                    for c in range(pair.polytope.facet_count)
                )
                for r in range(n)
            )
            new_pair = CharacteristicPair(pair.polytope, transformed)
            after = [
                abs(vertex_minor_determinant(new_pair, v))
                for v in new_pair.polytope.vertices
            ]
            assert after == before
            assert fc.check_freeness(new_pair).ok == fc.check_freeness(pair).ok


def test_freeness_invariant_under_column_negation():
    pair = cpn_pair(3)
    m = pair.polytope.facet_count
    for col in range(m):
        negated = tuple(
            tuple(-x if c == col else x for c, x in enumerate(row))
            for row in pair.matrix
        )
        assert fc.check_freeness(CharacteristicPair(pair.polytope, negated)).ok
