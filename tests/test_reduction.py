import pytest

import flipcert as fc
from flipcert.moves import Move, ReplayFailure
from flipcert.reduction import (
    BadInput,
    ReductionOptions,
    canonical_form,
)

from conftest import count_f_vector_calls

# Shortest strict reduction length of the octahedral sphere, computed by the
# breadth-first oracle (see test_oracle_octahedron) and frozen here.
L_OCT = 3


def test_reduce_already_simplex_boundary(delta3):
    result = fc.reduce_to_simplex(delta3, ReductionOptions())
    assert result.succeeded and result.moves == ()
    assert result.final == delta3


def test_reduce_bipyramid_single_move(b5):
    result = fc.reduce_to_simplex(b5, ReductionOptions())
    assert result.succeeded
    assert len(result.moves) == 1
    assert result.moves[0].move_type == 2
    assert result.moves[0].sigma in ((4,), (5,))
    assert fc.is_boundary_of_simplex(result.final)


@pytest.mark.parametrize("name, mode", [
    ("cube-4", "strict"), ("cube-5", "strict"), ("dodecahedron", "strict"),
    ("cube-4", "free"),
])
def test_sweep_and_annealing_each_list_a_state_once(monkeypatch, name, mode):
    # each sweep (a restart starts with one) lists the top type once, on the
    # state it starts from, then rechecks only links; annealing lists the
    # lower types once per state a sweep leaves (a rejected uphill proposal
    # keeps the list), and such a state has no top-type move: the sweep owns
    # type dim
    from flipcert import reduction

    original_enumerate = reduction.enumerate_moves
    original_sweep = reduction._greedy_vertex_removals
    events = []

    def enumerate_logged(k, types, table=None):
        events.append(("list", k, frozenset(types)))
        return original_enumerate(k, types, table)

    def sweep_logged(k, *args):
        events.append(("sweep", k, None))
        swept, f = original_sweep(k, *args)
        events.append(("swept", swept, None))
        return swept, f

    monkeypatch.setattr(reduction, "enumerate_moves", enumerate_logged)
    monkeypatch.setattr(reduction, "_greedy_vertex_removals", sweep_logged)
    k = fc.dual_complex(fc.named_polytope(name)).complex
    result = fc.reduce_to_simplex(k, ReductionOptions(mode=mode, rng_seed=0))
    assert result.succeeded
    top = frozenset({k.dim})
    annealing = frozenset(range(1 if mode == "strict" else 0, k.dim))
    annealed = 0
    for previous, (event, state, types), following in zip(
        [None] + events, events, events[1:] + [None]
    ):
        if event == "sweep":
            assert following == ("list", state, top)
        elif event == "swept":
            assert previous[0] == "list" and previous[2] == top
        elif event == "list" and types == top:
            assert previous == ("sweep", state, None)
        elif event == "list":
            assert types == annealing
            assert previous == ("swept", state, None)
            assert original_enumerate(state, top) == []
            annealed += 1
    assert annealed > 1
    assert any(m.move_type == k.dim for m in result.moves)


def test_reduce_octahedron(octahedron):
    result = fc.reduce_to_simplex(octahedron, ReductionOptions())
    assert result.succeeded
    assert len(result.moves) <= 2 * L_OCT
    assert fc.replay(octahedron, result.moves) == result.final
    assert fc.is_boundary_of_simplex(result.final)


def test_reduce_is_deterministic(octahedron):
    opts = ReductionOptions(rng_seed=42)
    first = fc.reduce_to_simplex(octahedron, opts)
    second = fc.reduce_to_simplex(octahedron, opts)
    assert first == second
    other = fc.reduce_to_simplex(octahedron, ReductionOptions(rng_seed=43))
    assert fc.is_boundary_of_simplex(other.final)


def test_strict_mode_never_adds_vertices(icosahedron):
    result = fc.reduce_to_simplex(icosahedron, ReductionOptions())
    assert result.succeeded
    assert all(m.move_type >= 1 for m in result.moves)
    current = icosahedron
    support = set(current.support)
    for move in result.moves:
        current = fc.apply_move(current, move)
        assert current.support <= support
        support = set(current.support)


def test_free_mode_allows_type_zero(b5):
    result = fc.reduce_to_simplex(b5, ReductionOptions(mode="free"))
    assert result.succeeded  # free mode may still find the direct removal


def test_reduce_bad_input():
    broken = fc.Complex(2, [[0, 1, 2], [0, 1, 3], [0, 2, 3]])
    with pytest.raises(BadInput):
        fc.reduce_to_simplex(broken, ReductionOptions())
    with pytest.raises(BadInput):
        fc.reduce_to_simplex(fc.Complex(0, [[0], [1], [2]]), ReductionOptions())
    with pytest.raises(BadInput):
        fc.reduce_to_simplex(
            fc.Complex(1, [[0, 1], [1, 2], [0, 2]]),
            ReductionOptions(mode="mystery"),
        )


def test_reduce_exhaustion_is_honest(octahedron):
    result = fc.reduce_to_simplex(
        octahedron, ReductionOptions(max_steps=0, restarts=1)
    )
    assert not result.succeeded
    assert result.final == octahedron  # best found without steps is the input


def test_restarts_share_one_face_count(monkeypatch, octahedron):
    calls = count_f_vector_calls(monkeypatch)
    result = fc.reduce_to_simplex(
        octahedron, ReductionOptions(max_steps=0, restarts=3)
    )
    assert not result.succeeded
    assert calls == [octahedron]


def test_replay(delta3, b5):
    assert fc.replay(delta3, []) == delta3
    final = fc.replay(b5, [Move((4,), (0, 1, 2), 2)])
    assert final == fc.Complex(2, [[0, 1, 2], [0, 1, 5], [0, 2, 5], [1, 2, 5]])
    with pytest.raises(ReplayFailure) as info:
        fc.replay(b5, [Move((0, 1, 2), (7,), 0)])
    assert info.value.index == 0
    assert type(info.value.reason).__name__ == "NotApplicable"


def test_canonical_form_identifies_relabelings(b5):
    relabeled = fc.Complex(
        2, [tuple({0: 9, 1: 3, 2: 0, 4: 7, 5: 2}[v] for v in f) for f in b5.facets]
    )
    assert canonical_form(relabeled) == canonical_form(b5)
    assert canonical_form(b5) != canonical_form(
        fc.Complex(2, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
    )


def test_oracle_trivial_and_bipyramid(delta3, b5):
    assert fc.flip_distance_oracle(delta3, {1, 2}, 3) == 0
    assert fc.flip_distance_oracle(b5, {1, 2}, 3) == 1


def test_oracle_octahedron(octahedron):
    assert fc.flip_distance_oracle(octahedron, {1, 2}, 6) == L_OCT
    # absence within a too-small radius is a value, not an error
    assert fc.flip_distance_oracle(octahedron, {1, 2}, 1) is None


def test_reduction_beyond_the_corpus():
    import random

    # larger product spheres, and a flip-scrambled icosahedron
    bigger = [
        fc.dual_complex(fc.named_polytope("cube-5")).complex,
        fc.dual_complex(
            fc.product(fc.named_polytope("prism"), fc.simplex_polytope(1))
        ).complex,
        fc.dual_complex(
            fc.product(fc.simplex_polytope(2), fc.simplex_polytope(2))
        ).complex,
    ]
    rng = random.Random(0)
    scrambled = fc.dual_complex(fc.named_polytope("dodecahedron")).complex
    for _ in range(60):
        scrambled = fc.apply_move(
            scrambled, rng.choice(fc.enumerate_moves(scrambled, {1}))
        )
    bigger.append(scrambled)
    for k in bigger:
        result = fc.reduce_to_simplex(k, ReductionOptions())
        assert result.succeeded
        assert all(m.move_type >= 1 for m in result.moves)
        assert fc.is_boundary_of_simplex(fc.replay(k, result.moves))


def test_annealing_meets_oracle_bound(b5, octahedron):
    # corpus spheres small enough for the factorial canonical form
    candidates = [b5, octahedron]
    for name in ("simplex-2", "simplex-3", "simplex-4", "prism"):
        candidates.append(fc.dual_complex(fc.named_polytope(name)).complex)
    for k in candidates:
        if k.dim < 1:
            continue
        allowed = set(range(1, k.dim + 1))
        distance = fc.flip_distance_oracle(k, allowed, 6)
        result = fc.reduce_to_simplex(k, ReductionOptions())
        assert result.succeeded
        assert distance is not None
        assert distance <= len(result.moves)
