import pytest

import flipcert as fc
from flipcert.moves import Move, NotApplicable, StaleTau, TauNotFresh, fresh_vertex

from conftest import walk_pairs


def test_is_applicable(delta3, b5):
    assert fc.is_applicable(b5, (0, 1)) == Move((0, 1), (4, 5), 1)
    assert fc.is_applicable(b5, (4,)) == Move((4,), (0, 1, 2), 2)
    # the candidate tau {1,2,3} is already a face of the simplex boundary
    assert fc.is_applicable(delta3, (0,)) is None


def test_apply_vertex_add(delta3):
    got = fc.apply_move(delta3, Move((0, 1, 2), (4,), 0))
    assert set(got.facets) == {
        (0, 1, 3), (0, 2, 3), (1, 2, 3), (0, 1, 4), (0, 2, 4), (1, 2, 4),
    }
    assert fc.f_vector(got) == (5, 9, 6)


def test_apply_vertex_remove(b5):
    got = fc.apply_move(b5, Move((4,), (0, 1, 2), 2))
    assert got == fc.Complex(2, [[0, 1, 2], [0, 1, 5], [0, 2, 5], [1, 2, 5]])
    assert got.support == {0, 1, 2, 5}


def test_apply_edge_flip(b5):
    got = fc.apply_move(b5, Move((0, 1), (4, 5), 1))
    assert set(got.facets) == {
        (1, 2, 4), (0, 2, 4), (1, 2, 5), (0, 2, 5), (0, 4, 5), (1, 4, 5),
    }
    assert fc.f_vector(got) == (5, 9, 6)


def test_apply_errors(b5):
    with pytest.raises(NotApplicable):
        fc.apply_move(b5, Move((0, 1, 2), (6,), 0))  # not a face
    with pytest.raises(StaleTau):
        fc.apply_move(b5, Move((0, 1), (4, 6), 1))
    with pytest.raises(TauNotFresh):
        fc.apply_move(b5, Move((0, 1, 4), (5,), 0))
    with pytest.raises(NotApplicable):
        fc.apply_move(b5, Move((0, 1), (4, 5), 2))  # declared type is wrong
    with pytest.raises(NotApplicable):  # {∅}: the empty face has type 0
        fc.apply_move(fc.Complex(-1, [()]), Move((), (0,), 1))


def test_empty_face_carries_no_move(delta3):
    # its link is the whole complex, which may look like a simplex boundary
    assert fc.is_applicable(delta3, ()) is None
    with pytest.raises(NotApplicable):
        fc.apply_move(delta3, Move((), (0, 1, 2, 3), 3))
    with pytest.raises(NotApplicable):
        fc.apply_move(fc.Complex(-1, [()]), Move((), (0,), 0))


def test_inverse_move():
    assert fc.inverse_move(Move((0, 1, 2), (4,), 0)) == Move((4,), (0, 1, 2), 2)
    assert fc.inverse_move(Move((0, 1), (4, 5), 1)) == Move((4, 5), (0, 1), 1)


def test_round_trip_on_bipyramid(b5):
    move = Move((0, 1), (4, 5), 1)
    assert fc.apply_move(fc.apply_move(b5, move), fc.inverse_move(move)) == b5


def test_enumerate_moves(delta3, b5):
    assert fc.enumerate_moves(delta3, {1, 2}) == []
    zero_moves = fc.enumerate_moves(delta3, {0})
    assert len(zero_moves) == 4
    assert all(m.tau == (fresh_vertex(delta3),) for m in zero_moves)
    assert fc.enumerate_moves(b5, {2}) == [
        Move((4,), (0, 1, 2), 2), Move((5,), (0, 1, 2), 2),
    ]


def test_enumerate_order_is_deterministic(b5):
    found = fc.enumerate_moves(b5, {0, 1, 2})
    assert found == sorted(found, key=lambda m: (m.move_type, m.sigma))
    assert found == fc.enumerate_moves(b5, {0, 1, 2})


def test_type_bookkeeping_on_walk():
    for k, move in walk_pairs(seed=7, count=200):
        assert len(move.sigma) + len(move.tau) == k.dim + 2


def test_euler_and_pseudomanifold_preserved_on_walk():
    for k, move in walk_pairs(seed=11, count=1000):
        after = fc.apply_move(k, move)
        assert fc.euler_characteristic(after) == fc.euler_characteristic(k)
        assert fc.is_pseudomanifold(after) == fc.is_pseudomanifold(k)


def test_involution_on_walk():
    for k, move in walk_pairs(seed=13, count=300):
        assert fc.apply_move(fc.apply_move(k, move), fc.inverse_move(move)) == k


def test_f_vector_deltas_in_dimension_two(b5, octahedron):
    for k in (b5, octahedron):
        v, e, f = fc.f_vector(k)
        for move in fc.enumerate_moves(k, {0, 1, 2}):
            after = fc.f_vector(fc.apply_move(k, move))
            if move.move_type == 0:
                assert after == (v + 1, e + 3, f + 2)
            elif move.move_type == 1:
                assert after == (v, e, f)
            else:
                assert after == (v - 1, e - 3, f - 2)
