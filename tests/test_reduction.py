import pytest

import flipcert as fc
from flipcert.moves import Move, NotApplicable, ReplayFailure
from flipcert.reduction import BadInput, ReductionOptions

from conftest import count_calls, run_python
from reference import canonical_form, flip_distance_oracle

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
    # the sweep from the input, on vertex stars, lists nothing; each sweep
    # inside annealing (one after each accepted move) lists the top type
    # once, on the state it starts from, then rechecks only links;
    # annealing lists the lower types once per state a sweep leaves (a
    # rejected uphill proposal keeps the list), and such a state has no
    # top-type move: the sweep owns type dim
    from flipcert import reduction

    original_enumerate = reduction.enumerate_moves
    original_sweep = reduction._greedy_vertex_removals
    original_stars = reduction._star_sweep
    events = []

    # the search's face table mutates: a state is logged as its facets
    def enumerate_logged(table, types):
        events.append(("list", frozenset(table.facets), frozenset(types)))
        return original_enumerate(table, types)

    def sweep_logged(table, *args):
        events.append(("sweep", frozenset(table.facets), None))
        f = original_sweep(table, *args)
        events.append(("swept", frozenset(table.facets), None))
        return f

    def stars_logged(k):
        events.append(("stars", frozenset(k.facets), None))
        moves, swept = original_stars(k)
        events.append(("swept", frozenset(swept.facets), None))
        return moves, swept

    monkeypatch.setattr(reduction, "enumerate_moves", enumerate_logged)
    monkeypatch.setattr(reduction, "_greedy_vertex_removals", sweep_logged)
    monkeypatch.setattr(reduction, "_star_sweep", stars_logged)
    k = fc.dual_complex(fc.named_polytope(name)).complex
    result = fc.reduce_to_simplex(k, ReductionOptions(mode=mode, rng_seed=0))
    assert result.succeeded
    top = frozenset({k.dim})
    annealing = frozenset(range(1 if mode == "strict" else 0, k.dim))
    annealed = 0
    for previous, (event, state, types), following in zip(
        [None] + events, events, events[1:] + [None]
    ):
        if event == "stars":
            assert previous is None and following[0] == "swept"
        elif event == "sweep":
            assert following == ("list", state, top)
        elif event == "swept":
            assert previous[0] == "stars" or (
                previous[0] == "list" and previous[2] == top)
        elif event == "list" and types == top:
            assert previous == ("sweep", state, None)
        elif event == "list":
            assert types == annealing
            assert previous == ("swept", state, None)
            assert original_enumerate(fc.Complex(k.dim, state), top) == []
            annealed += 1
    assert annealed > 1
    assert any(m.move_type == k.dim for m in result.moves)


def test_the_search_builds_a_complex_only_for_a_better_state(monkeypatch):
    # a restart's only state is its face table: a Complex is built from it
    # when the best state improves, not after every move or sweep
    derived = fc.Complex._derived
    calls = []

    def counted(cls, dim, facets):
        calls.append(dim)
        return derived(dim, facets)

    monkeypatch.setattr(fc.Complex, "_derived", classmethod(counted))
    k = fc.dual_complex(fc.named_polytope("cube-6")).complex
    result = fc.reduce_to_simplex(k, ReductionOptions(rng_seed=0))
    assert result.succeeded
    assert len(calls) < len(result.moves) / 10


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


@pytest.mark.parametrize("options", [
    {"max_steps": 1.5}, {"restarts": 2.0}, {"max_steps": "9"},
    {"restarts": True}, {"rng_seed": "7"}, {"rng_seed": 1.5},
])
def test_reduce_refuses_search_options_that_are_not_ints(b5, options):
    with pytest.raises(BadInput, match=r"^invalid search options$"):
        fc.reduce_to_simplex(b5, ReductionOptions(**options))


def test_reduce_exhaustion_is_honest(octahedron):
    result = fc.reduce_to_simplex(
        octahedron, ReductionOptions(max_steps=0, restarts=1)
    )
    assert not result.succeeded
    assert result.final == octahedron  # best found without steps is the input


def test_restarts_share_one_face_count(monkeypatch, octahedron):
    calls = count_calls(monkeypatch, "f_vector")
    result = fc.reduce_to_simplex(
        octahedron, ReductionOptions(max_steps=0, restarts=3)
    )
    assert not result.succeeded
    assert calls == [octahedron]


def test_the_sweep_runs_from_the_input_once(monkeypatch, octahedron):
    # the octahedron with a facet stacked: the sweep removes the stacked
    # vertex and ends at the octahedron, where no step is allowed, so all
    # eight restarts exhaust, each from where that one sweep ended
    from flipcert import reduction

    k = fc.apply_move(octahedron, Move(octahedron.facets[0], (6,), 0))
    original = reduction._star_sweep
    starts = []

    def sweep_logged(state):
        starts.append(state)
        return original(state)

    def no_table(table):
        raise AssertionError("a sweep ran on a face table without a step")

    monkeypatch.setattr(reduction, "_star_sweep", sweep_logged)
    monkeypatch.setattr(reduction, "_greedy_vertex_removals", no_table)
    result = fc.reduce_to_simplex(k, ReductionOptions(max_steps=0, restarts=8))
    assert not result.succeeded
    assert starts == [k]
    assert result.moves == (Move((6,), octahedron.facets[0], 2),)
    assert result.final == octahedron
    assert result.steps_examined == 8  # the sweep's move, once per restart


def test_the_sweep_ends_at_dimension_0(monkeypatch):
    # type dim is type 0 on a point pair, which always applies, so a sweep
    # there would replace a point by a fresh one forever: run it in a child
    # held to a time limit, so that a sweep that never ends fails the test
    proc = run_python(["-c", (
        "import flipcert as fc\n"
        "from flipcert.reduction import _star_sweep\n"
        "k = fc.Complex(0, [[0], [1]])\n"
        "print(_star_sweep(k) == ([], k))"
    )], timeout=10)
    assert (proc.returncode, proc.stdout) == (0, "True\n"), proc.stderr
    # no table sweep runs below dimension 1: a point pair ends the search
    # at the sweep from the input, and the gates refuse any other
    # 0-dimensional input before a restart could sweep it
    from flipcert import reduction

    def table_sweep(table):
        raise AssertionError("a table sweep ran at dimension 0")

    monkeypatch.setattr(reduction, "_greedy_vertex_removals", table_sweep)
    k = fc.Complex(0, [[0], [1]])
    result = fc.reduce_to_simplex(k, ReductionOptions())
    assert (result.moves, result.final, result.succeeded) == ((), k, True)
    assert result.steps_examined == 0
    with pytest.raises(BadInput) as info:
        fc.reduce_to_simplex(fc.Complex(0, [[0], [1], [2]]), ReductionOptions())
    assert str(info.value) == "a 0-dimensional sphere must be exactly two points"


def test_replay(delta3, b5):
    assert fc.replay(delta3, []) == delta3
    final = fc.replay(b5, [Move((4,), (0, 1, 2), 2)])
    assert final == fc.Complex(2, [[0, 1, 2], [0, 1, 5], [0, 2, 5], [1, 2, 5]])
    with pytest.raises(ReplayFailure) as info:
        fc.replay(b5, [Move((0, 1, 2), (7,), 0)])
    assert info.value.index == 0
    assert type(info.value.reason).__name__ == "NotApplicable"


@pytest.mark.parametrize("bad", ["a", None, (0,)])
def test_replay_names_a_bad_id_beside_int_ids(b5, bad):
    with pytest.raises(ReplayFailure) as info:
        fc.replay(b5, [Move((4,), (0, 1, 2), 2), Move((0, bad), (1,), 1)])
    assert info.value.index == 1
    assert str(info.value) == (
        f"move 1 failed: BadVertexId: vertex id {bad!r} is not a non-negative integer")


def test_replay_on_the_empty_complex_names_the_move_refusal():
    # {∅}: the empty face carries no move, as apply_move says
    empty, move = fc.Complex(-1, [()]), Move((), (0,), 0)
    with pytest.raises(ReplayFailure) as info:
        fc.replay(empty, [move])
    assert info.value.index == 0
    assert str(info.value) == (
        "move 0 failed: NotApplicable: link of () is not a usable simplex boundary")
    with pytest.raises(NotApplicable, match=r"^link of \(\) is not a usable"):
        fc.apply_move(empty, move)


def test_canonical_form_identifies_relabelings(b5):
    relabeled = fc.Complex(
        2, [tuple({0: 9, 1: 3, 2: 0, 4: 7, 5: 2}[v] for v in f) for f in b5.facets]
    )
    assert canonical_form(relabeled) == canonical_form(b5)
    assert canonical_form(b5) != canonical_form(
        fc.Complex(2, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
    )


def test_oracle_trivial_and_bipyramid(delta3, b5):
    assert flip_distance_oracle(delta3, {1, 2}, 3) == 0
    assert flip_distance_oracle(b5, {1, 2}, 3) == 1


def test_oracle_octahedron(octahedron):
    assert flip_distance_oracle(octahedron, {1, 2}, 6) == L_OCT
    # absence within a too-small radius is a value, not an error
    assert flip_distance_oracle(octahedron, {1, 2}, 1) is None


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
        distance = flip_distance_oracle(k, allowed, 6)
        result = fc.reduce_to_simplex(k, ReductionOptions())
        assert result.succeeded
        assert distance is not None
        assert distance <= len(result.moves)
