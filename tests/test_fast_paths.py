"""Differential tests: each fast path of the search against the plain
reference path it replaces.

- ``enumerate_moves`` (a fresh ``FaceTable``) against ``is_applicable`` on
  every face from ``faces_of_dimension``;
- the search's ``FaceTable``, kept across the moves of a walk and the
  sweeps within it, against that reference and a fresh table after every
  move; and ``reduce_to_simplex`` against a search that lists, applies
  and counts every state anew on the reference paths;
- the search's closed-form f-vector update against ``f_vector`` of the
  rewritten complex;
- the greedy sweep, which owns vertex removal (type ``dim``), lists the
  removable vertices once and then takes each next one from its face
  table, which judges again only the vertices whose star changed, against
  the first top-type move of the reference enumeration applied by
  ``apply_move`` until none is left; and every state annealing lists,
  with the lower types alone, against that reference: it has no top-type
  move;
- the trusted constructor ``Complex._derived``, and the ``link``,
  ``apply_move`` and ``dual_complex`` built on it, against the validating
  ``Complex(...)`` fed the same facets computed from scratch, the duals on
  the corpus, on products, and on relabelled, truncated polytopes;
- the ledger's post f-vectors, stepped back from the simplex boundary the
  replay ends on, against ``f_vector`` of each complex the inverse moves
  reach, replayed backward from the final one by ``reference_apply_move``:
  the link-based body over ``is_applicable``, ``join_boundary`` and the
  validating ``Complex(...)``, kept here since ``apply_move`` is a replay
  step; and on the one-move certificates of simplex-(d-1) x segment, d =
  2..12, against ``f_vector`` of the dual;
- the vertex-star replay (``replay``) against sequential
  ``reference_apply_move``, on walks corrupted at one move, in dimensions
  1-5 and 6-8: the same endpoint, or the same ``ReplayFailure``; and the
  closed-form f-vector change (``moves.f_vector_change``) against
  ``f_vector`` before and after one move of every type in dimensions 1-8;
- ``apply_move``, one replay step on the vertex stars, against
  ``reference_apply_move`` on those walks, on each corruption of ``b5``
  (two of them a declared type equal to ``sigma``'s but no int), on
  ``{∅}``, on moves with two faults at once, which fix the order of the
  checks, and on arbitrary moves drawn from a walk state's support and
  one fresh id, of any declared type in -1..dim+2: the same complex, or
  the same error type and text, from ``apply_move`` and the replay alike;
- ``serialize.fields``, with its one-pass list check, against the
  recursive per-key ``require`` it replaced, on random JSON-like values:
  the same values back, or the first failing key's ``MalformedDocument``
  text;
- the two constructor gates, ``SimplePolytope`` and
  ``CharacteristicPair``, which pass an exact ``int`` without calling
  ``is_int``, against their loops with every index judged by ``is_int``
  (``tests/reference.py``), on relabelled truncations, each mostly with
  one fault put in, the polytope's dimension and a facet name among them:
  the same stored value, or the same error type and text.

States come from random walks, in dimensions 1-5 and in both search modes,
driven by the reference enumeration so the walk never trusts the code it
checks; in dimensions 6-8 the walks ask ``is_applicable`` of random faces
instead, as listing every face would take seconds per state.  The other
way round, with the reference judge (``apply_move``, ``is_applicable``,
``link`` and ``has_face``) refusing, the search must still succeed and the
checker must give the same reports and ``ReplayFailure`` texts.
"""

import ast
import functools
import itertools
import math
import pathlib
import random

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import flipcert as fc
from flipcert.complexes import BadVertexId, NotAFace, as_simplex, is_int, link
from flipcert.errors import FlipcertError
from flipcert.moves import (
    FaceTable,
    NotApplicable,
    ReplayFailure,
    StaleTau,
    TauNotFresh,
    f_vector_change,
    is_applicable,
    join_boundary,
)
from flipcert.polytopes import (
    CORPUS_NAMES,
    SimplePolytope,
    UnknownFacetIndex,
    make_polytope,
)
from flipcert.quasitoric import CharacteristicPair, ShapeMismatch
from flipcert.reduction import (
    BadInput,
    ReductionOptions,
    ReductionResult,
    _greedy_vertex_removals,
    f_vector_after,
)
from flipcert.serialize import MalformedDocument, _kind_name, fields
from flipcert.surgery import build_ledger, verify_certificate

from conftest import (
    CORRUPTIONS,
    EMPTY,
    brute_f_vector,
    checker_outcomes,
    count_calls,
    simplex_segment_reduction,
    star_replay,
)
import reference
from reference import faces_of_dimension


def reference_moves(k, allowed_types):
    out = []
    for i in sorted(set(allowed_types)):
        for sigma in faces_of_dimension(k, k.dim - i):
            m = is_applicable(k, sigma)
            if m is not None:
                out.append(m)
    return out


def reference_apply_move(k, m):
    """The link-based ``apply_move``: the move ``is_applicable`` finds on
    ``link`` and ``has_face`` at ``sigma``, checked against ``m`` in that
    order, then the rewrite by ``join_boundary`` through the validating
    ``Complex(...)``."""
    sigma, tau = as_simplex(m.sigma), as_simplex(m.tau)
    try:
        detected = is_applicable(k, sigma)
    except NotAFace:
        raise NotApplicable(f"sigma {sigma} is not a face")
    i = k.dim - (len(sigma) - 1)
    if not is_int(m.move_type) or m.move_type != i:
        raise NotApplicable(
            f"declared type {m.move_type} but sigma {sigma} has type {i}")
    if detected is None:
        raise NotApplicable(f"link of {sigma} is not a usable simplex boundary")
    if i == 0:
        if len(tau) != 1:
            raise NotApplicable(f"type-0 tau must be a single vertex, got {tau}")
        if tau[0] in k.support:
            raise TauNotFresh(f"vertex {tau[0]} already in the support")
    elif detected.tau != tau:
        raise StaleTau(f"expected tau {detected.tau}, got {tau}")
    kept = set(k.facets).difference(join_boundary(sigma, tau))
    return fc.Complex(k.dim, kept.union(join_boundary(tau, sigma)))


def relabel(k, seed):
    """The same complex on large, non-contiguous ids in shuffled order."""
    rng = random.Random(seed)
    support = sorted(k.support)
    labels = rng.sample(range(10**6, 10**6 + 50 * len(support)), len(support))
    mapping = dict(zip(support, labels))
    return fc.Complex(k.dim, [[mapping[v] for v in f] for f in k.facets])


@st.composite
def walk_states(draw):
    """(complex, allowed types): a short random walk from a simplex or cube
    dual, strict (types 1..dim) or free (types 0..dim), maybe relabelled."""
    dim = draw(st.integers(1, 5))
    shape = draw(st.sampled_from(("simplex", "cube")))
    mode = draw(st.sampled_from(("strict", "free")))
    k = fc.dual_complex(fc.named_polytope(f"{shape}-{dim + 1}")).complex
    types = set(range(1 if mode == "strict" else 0, dim + 1))
    for choice in draw(st.lists(st.integers(0, 2**16), max_size=8)):
        candidates = reference_moves(k, types)
        if not candidates:
            break
        k = fc.apply_move(k, candidates[choice % len(candidates)])
    if draw(st.booleans()):
        k = relabel(k, draw(st.integers(0, 2**16)))
    return k, types


FAST = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

NON_PSEUDOMANIFOLDS = {
    "tetrahedron boundary minus a facet": (2, [[0, 1, 2], [0, 1, 3], [0, 2, 3]]),
    "two disjoint triangles": (2, [[0, 1, 2], [3, 4, 5]]),
    "two triangles on an edge": (2, [[0, 1, 2], [0, 2, 3]]),
    "three triangles at a vertex": (2, [[0, 1, 2], [0, 3, 4], [0, 5, 6]]),
    "two disjoint triangle cycles": (
        1, [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]],
    ),
}


@FAST
@given(walk_states())
def test_enumeration_matches_reference(state):
    k, types = state
    assert fc.enumerate_moves(k, types) == reference_moves(k, types)
    # greedy vertex removal asks for the top type alone
    assert fc.enumerate_moves(k, {k.dim}) == reference_moves(k, {k.dim})


@pytest.mark.parametrize("name", sorted(NON_PSEUDOMANIFOLDS))
def test_enumeration_matches_reference_off_pseudomanifolds(name):
    dim, facets = NON_PSEUDOMANIFOLDS[name]
    for k in (fc.Complex(dim, facets),
              relabel(fc.Complex(dim, facets), 3)):
        for low in range(dim + 1):
            types = set(range(low, dim + 1))
            assert fc.enumerate_moves(k, types) == reference_moves(k, types)


def test_enumeration_matches_reference_on_large_ids():
    k = relabel(fc.dual_complex(fc.named_polytope("cube-4")).complex, 11)
    assert min(k.support) >= 10**6
    types = set(range(k.dim + 1))
    found = fc.enumerate_moves(k, types)
    assert found == reference_moves(k, types)
    assert any(m.move_type > 0 for m in found)


@FAST
@given(walk_states())
def test_closed_form_f_vector_matches_recount(state):
    k, _ = state
    f = fc.f_vector(k)
    for m in fc.enumerate_moves(k, set(range(k.dim + 1))):  # type 0 too
        assert f_vector_after(f, m) == fc.f_vector(fc.apply_move(k, m))


def assert_same_complex(fast, reference):
    assert fast.dim == reference.dim
    assert fast.facets == reference.facets
    assert fast.support == reference.support
    assert hash(fast) == hash(reference)
    assert fast == reference


def reference_sweep(k):
    """The first top-type move of the reference enumeration, applied by
    ``apply_move``, until there is none: the endpoint and the moves."""
    trail = []
    while True:
        candidates = reference_moves(k, {k.dim})
        if not candidates:
            return k, trail
        trail.append(candidates[0])
        k = fc.apply_move(k, candidates[0])


@st.composite
def stacked_states(draw):
    """A walk state after up to 12 type-0 moves on drawn facets (vertex
    truncations of the polytope): long sweeps, in which a removal can make
    a vertex removable again or turn another vertex's tau into a facet."""
    k, _ = draw(walk_states())
    for choice in draw(st.lists(st.integers(0, 2**16), min_size=1, max_size=12)):
        candidates = reference_moves(k, {0})
        k = fc.apply_move(k, candidates[choice % len(candidates)])
    return k


@FAST
@given(walk_states().map(lambda state: state[0]) | stacked_states())
def test_greedy_sweep_matches_reference(k):
    table = FaceTable(k)
    sweep = _greedy_vertex_removals(table)
    reference, reference_trail = reference_sweep(k)
    assert_same_complex(table.snapshot(), reference)
    # the search steps its f-vector over the moves the sweep returns
    f = functools.reduce(f_vector_after, sweep, fc.f_vector(k))
    assert f == fc.f_vector(reference)
    assert sweep == reference_trail


@FAST
@given(walk_states().map(lambda state: state[0]) | stacked_states())
def test_faces_are_counted_once_and_never_when_the_sweep_ends(k):
    # a sweep that ends at a simplex boundary proves the input a sphere, so
    # the reduction is the sweep, no face is counted and no pseudomanifold
    # test runs; any other reduction tests the input once and counts the
    # faces of the swept state once, whatever its restarts
    reference, trail = reference_sweep(k)
    ended = fc.is_boundary_of_simplex(reference)

    def count(state):
        assert not ended, "faces counted though the sweep ended the reduction"
        return brute_f_vector(state)

    with pytest.MonkeyPatch.context() as patch:
        calls = count_calls(patch, "f_vector", count)
        tested = count_calls(patch, "is_pseudomanifold")
        result = fc.reduce_to_simplex(k, ReductionOptions(max_steps=20, restarts=3))
    if ended:
        assert result == ReductionResult(tuple(trail), reference, True, len(trail))
    assert calls == ([] if ended else [reference])
    assert [state is k for state in tested] == ([] if ended else [True])


@pytest.mark.parametrize("k", [
    *(fc.dual_complex(p).complex for name, p in fc.corpus().items()
      if name.startswith("simplex")),
    *(simplex_segment_reduction(d)[0].complex for d in range(2, 22)),
], ids=repr)
def test_a_reduction_the_sweep_ends_counts_no_faces(monkeypatch, k):
    # the simplex duals and simplex-(d-1) x segment's, up to simplex-20 x
    # segment's 3 * 2**21 faces; the count refuses
    def refuse(state):
        raise AssertionError("faces counted though the sweep ended the reduction")

    count_calls(monkeypatch, "f_vector", refuse)
    tested = count_calls(monkeypatch, "is_pseudomanifold")
    result = fc.reduce_to_simplex(k, ReductionOptions())
    assert tested == []
    assert result.succeeded and fc.replay(k, result.moves) == result.final
    assert len(result.moves) == result.steps_examined == len(k.support) - k.dim - 2


@FAST
@given(walk_states().filter(lambda state: state[0].dim >= 2))
def test_annealing_never_lists_a_state_with_a_top_type_move(state):
    # every state annealing lists is one a sweep left, so the top type, which
    # the sweep owns, is missing from its allowed types at no cost: the list
    # rng.choice draws from, and with it every trajectory, is unchanged
    from flipcert import reduction

    k, types = state
    original = reduction.enumerate_moves
    annealed = []

    def enumerate_logged(table, allowed):
        # the table mutates, so the state listed is logged as its facets
        if set(allowed) != {table.dim}:
            annealed.append((frozenset(table.facets), set(allowed)))
        return original(table, allowed)

    mode = "strict" if min(types) else "free"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reduction, "enumerate_moves", enumerate_logged)
        fc.reduce_to_simplex(k, ReductionOptions(mode=mode, max_steps=20, restarts=1))
    for facets, allowed in annealed:
        assert allowed == types - {k.dim}
        listed = fc.Complex(k.dim, facets)
        assert original(listed, {k.dim}) == reference_moves(listed, {k.dim}) == []


@FAST
@given(walk_states(), st.lists(
    st.tuples(st.sampled_from(("move", "sweep")), st.integers(0, 2**16),
              st.sets(st.integers(0, 5))),
    max_size=12,
))
def test_kept_face_table_matches_reference_after_every_move(state, steps):
    # the search keeps one table for a restart; after each move or sweep it
    # lists a drawn subset of the types, so some face sizes go unlisted for
    # several moves and are judged again only later, from their marks
    k, types = state
    table = FaceTable(k)
    for kind, choice, listed in steps:
        if kind == "sweep":
            f = functools.reduce(f_vector_after, _greedy_vertex_removals(table),
                                 fc.f_vector(k))
            k = table.snapshot()
            assert f == fc.f_vector(k)
        else:
            candidates = reference_moves(k, types)
            if not candidates:
                break
            m = candidates[choice % len(candidates)]
            table.update(m)
            k = fc.apply_move(k, m)
        assert table.facets == set(k.facets)
        listed = listed & types
        assert (fc.enumerate_moves(table, listed) == reference_moves(k, listed)
                == fc.enumerate_moves(k, listed))
    assert fc.enumerate_moves(table, types) == reference_moves(k, types)


def recounted_cost(k):
    f = fc.f_vector(k)
    return (f[0],) + tuple(reversed(f))


def relisting_search(k, opts):
    """``reduce_to_simplex`` on the reference paths: every state listed by
    ``is_applicable``, reached by ``apply_move``, swept by the reference
    sweep and costed by ``f_vector``, with no state kept between steps."""
    if fc.is_boundary_of_simplex(k):
        return (), k, True, 0
    allowed = range(1 if opts.mode == "strict" else 0, k.dim)
    best, examined = None, 0
    for restart in range(opts.restarts):
        rng = random.Random(opts.rng_seed + restart)
        current, trail = reference_sweep(k)
        found, rejected = (recounted_cost(current), tuple(trail), current), 0
        for step in range(opts.max_steps):
            if fc.is_boundary_of_simplex(current):
                break
            candidates = reference_moves(current, allowed)
            if not candidates:
                break
            move = rng.choice(candidates)
            after = fc.apply_move(current, move)
            if recounted_cost(after) > recounted_cost(current):
                t = 0.99 ** (step // 50)
                if t <= 0 or rng.random() >= math.exp(-1.0 / t):
                    rejected += 1
                    continue
            current, swept = reference_sweep(after)
            trail += [move] + swept
            if recounted_cost(current) < found[0]:
                found = (recounted_cost(current), tuple(trail), current)
        examined += len(trail) + rejected
        if best is None or found[0] < best[0]:
            best = found
        if fc.is_boundary_of_simplex(best[2]):
            break
    _, moves, final = best
    return moves, final, fc.is_boundary_of_simplex(final), examined


@FAST
@given(walk_states(), st.integers(0, 3), st.integers(0, 30))
def test_search_matches_a_search_that_relists_every_state(state, seed, max_steps):
    k, types = state
    opts = ReductionOptions(mode="strict" if min(types) else "free",
                            max_steps=max_steps, rng_seed=seed, restarts=2)
    result = fc.reduce_to_simplex(k, opts)
    observed = (result.moves, result.final, result.succeeded, result.steps_examined)
    assert observed == relisting_search(k, opts)


@FAST
@given(walk_states(), st.integers(0, 2**16))
def test_derived_matches_validating_constructor(state, seed):
    k, _ = state
    rng = random.Random(seed)
    facets = list(k.facets) + rng.choices(k.facets, k=rng.randrange(4))
    rng.shuffle(facets)
    assert_same_complex(fc.Complex._derived(k.dim, facets), fc.Complex(k.dim, facets))


@FAST
@given(walk_states())
def test_link_matches_validating_build(state):
    k, _ = state
    faces = [()] + [s for d in range(k.dim + 1) for s in faces_of_dimension(k, d)]
    for s in faces:
        residues = [set(f) - set(s) for f in k.facets if set(s) <= set(f)]
        assert_same_complex(link(k, s), fc.Complex(k.dim - len(s), residues))


def assert_dual_matches_validating_build(p):
    reference = fc.Complex(p.dim - 1, [sorted(v) for v in p.vertices])
    assert_same_complex(fc.dual_complex(p).complex, reference)


def test_dual_matches_validating_build_on_the_corpus_and_products():
    pool = list(fc.corpus().values())
    for p in pool:
        assert_dual_matches_validating_build(p)
    for p, q in itertools.product(pool, repeat=2):
        if p.dim + q.dim <= 6:
            assert_dual_matches_validating_build(fc.product(p, q))


def truncate_vertex(p, index):
    """``p`` with vertex ``index`` cut off by a new facet: the vertex gives
    way to one vertex per facet through it, on that facet and the new one."""
    cut, new = p.vertices[index], p.facet_count
    vertices = [v for v in p.vertices if v != cut] + [cut - {f} | {new} for f in cut]
    return make_polytope(p.dim, p.facet_names + (f"cut{new}",), vertices)


@st.composite
def relabelled_truncations(draw):
    """A corpus polytope of dimension >= 2, maybe times a segment or a
    triangle, with vertices cut off, then built directly from lists with
    its facets relabelled and its vertices shuffled."""
    p = fc.named_polytope(draw(st.sampled_from(CORPUS_NAMES[1:])))
    if draw(st.booleans()):
        p = fc.product(p, fc.simplex_polytope(draw(st.integers(1, 2))))
    for index in draw(st.lists(st.integers(0, 2**16), max_size=6)):
        p = truncate_vertex(p, index % len(p.vertices))
    label = draw(st.permutations(range(p.facet_count)))
    names = [p.facet_names[label.index(i)] for i in range(p.facet_count)]
    vertices = draw(st.permutations([[label[f] for f in v] for v in p.vertices]))
    return fc.SimplePolytope(p.dim, names, vertices)


@FAST
@given(relabelled_truncations())
def test_dual_matches_validating_build_on_relabelled_truncations(p):
    assert_dual_matches_validating_build(p)


def rewritten(k, m):
    """The facets of ``k`` off the star of sigma, plus ``(sigma - v) ∪ tau``
    for each ``v`` in sigma, built through the validating constructor."""
    kept = [f for f in k.facets if not set(m.sigma) <= set(f)]
    added = [set(m.sigma) - {v} | set(m.tau) for v in m.sigma]
    return fc.Complex(k.dim, kept + added)


@FAST
@given(walk_states())
def test_rewrite_matches_apply_move(state):
    k, _ = state
    for m in fc.enumerate_moves(k, set(range(k.dim + 1))):  # type 0 too
        assert_same_complex(fc.apply_move(k, m), rewritten(k, m))


def test_only_link_apply_move_the_face_table_and_the_dual_use_the_trusted_constructor():
    callers = set()
    for path in pathlib.Path(fc.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if isinstance(function, ast.FunctionDef):
                for node in ast.walk(function):
                    if isinstance(node, ast.Attribute) and node.attr == "_derived":
                        callers.add((path.name, function.name))
    assert callers == {
        ("complexes.py", "link"), ("moves.py", "apply_move"), ("moves.py", "snapshot"),
        ("polytopes.py", "dual_complex"),
    }


def test_the_checker_never_imports_the_search():
    # a certificate is sound because verify replays every move on its own:
    # no module that surgery reaches through package-relative imports, at any
    # depth in the file, may import the search, not even for an annotation
    graph = {}
    for path in pathlib.Path(fc.__file__).parent.glob("*.py"):
        names = graph.setdefault(path.stem, set())
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    names.add(node.module.split(".")[0])
                else:  # from . import serialize
                    names.update(alias.name for alias in node.names)
    reached, frontier = set(), ["surgery"]
    while frontier:
        module = frontier.pop()
        if module not in reached:
            reached.add(module)
            frontier.extend(graph[module])
    assert "reduction" not in reached
    assert {"serialize", "moves", "polytopes", "quasitoric", "complexes"} < reached


def refuse_the_reference_judge(monkeypatch, who):
    """Make ``apply_move``, ``is_applicable`` and the facet scans ``link``
    and ``has_face`` raise, naming ``who``, in every flipcert namespace."""
    import sys

    from flipcert import complexes, moves

    for owner, name in ((moves, "apply_move"), (moves, "is_applicable"),
                        (complexes, "link"), (complexes, "has_face")):
        original = getattr(owner, name)

        def refuse(*args, name=name):
            raise AssertionError(f"{who} ran the reference {name}")

        for module_name, module in list(sys.modules.items()):
            if (module_name.startswith("flipcert")
                    and getattr(module, name, None) is original):
                monkeypatch.setattr(module, name, refuse)
        assert getattr(owner, name) is refuse


def test_the_search_never_runs_the_reference_path(monkeypatch):
    # the search lists, applies and sweeps moves on its own fast paths: with
    # the reference judge refusing in every namespace, every search succeeds
    refuse_the_reference_judge(monkeypatch, "the search")
    spheres = [fc.dual_complex(p).complex for p in fc.corpus().values()]
    spheres.append(relabel(fc.dual_complex(fc.named_polytope("cube-4")).complex, 5))
    for k in spheres:
        for mode in ("strict", "free"):
            assert fc.reduce_to_simplex(k, ReductionOptions(mode=mode)).succeeded


def test_the_checker_never_runs_the_reference_judge(monkeypatch, corpus_certs, b5):
    # the replay words its refusals from its own vertex stars: with the
    # reference judge refusing in every namespace, every report and every
    # ReplayFailure text is what it is with the judge in place
    expected = checker_outcomes(corpus_certs, b5)
    refuse_the_reference_judge(monkeypatch, "the checker")
    assert checker_outcomes(corpus_certs, b5) == expected


def backward_post_f_vectors(dual, result):
    """The recount the ledger's face-table replay replaces: replay the
    inverse moves backward from the final complex and count faces at every
    step."""
    current = result.final
    out = []
    for m in reversed(result.moves):
        current = reference_apply_move(current, fc.inverse_move(m))
        out.append(fc.f_vector(current))
    assert current == dual.complex
    return out


@functools.lru_cache(maxsize=None)
def reduced(name, mode):
    dual = fc.dual_complex(fc.named_polytope(name))
    return dual, fc.reduce_to_simplex(dual.complex, ReductionOptions(mode=mode))


@pytest.mark.parametrize("mode", ("strict", "free"))
@pytest.mark.parametrize("name", sorted(fc.corpus()))
def test_ledger_post_f_vectors_match_backward_recount(name, mode):
    dual, result = reduced(name, mode)
    cert = build_ledger(dual, result)
    posts = [step.post_f_vector for step in cert.steps]
    assert posts == backward_post_f_vectors(dual, result)


@FAST
@given(
    st.sampled_from(("simplex-3", "prism", "cube-3", "simplex-4", "cube-4")),
    st.lists(st.integers(0, 2**16), min_size=1, max_size=8),
)
def test_ledger_post_f_vectors_match_backward_recount_on_walks(name, choices):
    # a free-mode walk out, the same walk back, then a reduction: a valid
    # reduction whose intermediate states are random
    dual, result = reduced(name, "strict")
    k = dual.complex
    walk = []
    for choice in choices:
        candidates = reference_moves(k, range(k.dim + 1))
        move = candidates[choice % len(candidates)]
        walk.append(move)
        k = fc.apply_move(k, move)
    back = [fc.inverse_move(m) for m in reversed(walk)]
    moves = tuple(walk + back) + result.moves
    walked = ReductionResult(moves, result.final, True, 0)
    cert = build_ledger(dual, walked)
    posts = [step.post_f_vector for step in cert.steps]
    assert posts == backward_post_f_vectors(dual, walked)


@pytest.mark.parametrize("d", range(2, 13))
def test_one_move_post_f_vector_matches_a_count_up_to_dimension_12(d):
    # the one step undoes the removal of a segment vertex, so it ends on the
    # dual itself: its f-vector, counted here, is the one stepped back from
    # the boundary of the d-simplex
    dual, result = simplex_segment_reduction(d)
    cert = build_ledger(dual, result)
    assert [step.post_f_vector for step in cert.steps] == [fc.f_vector(dual.complex)]
    assert verify_certificate(cert).established


def reference_replay(k, moves):
    """Sequential ``reference_apply_move``: the endpoint, or the failing
    index and the ``ReplayFailure`` text."""
    for index, move in enumerate(moves):
        try:
            k = reference_apply_move(k, move)
        except FlipcertError as exc:
            return index, str(ReplayFailure(index, exc))
    return k


def corrupted(draw, k, move):
    """``move``, to be applied to ``k``, broken in one drawn way; the result
    may still apply by chance, which the comparison covers too."""
    kind = draw(st.sampled_from((
        "tau", "type", "sigma", "empty", "tau in support",
        "negative id", "repeated id",
    )))
    sigma, tau = list(move.sigma), list(move.tau)
    vertex = st.integers(0, max(k.support) + 2)
    if kind == "tau":
        tau[draw(st.integers(0, len(tau) - 1))] = draw(vertex)
    elif kind == "type":
        shift = draw(st.sampled_from((-1, 1, 2)))
        return fc.Move(move.sigma, move.tau, move.move_type + shift)
    elif kind == "sigma":
        sigma[draw(st.integers(0, len(sigma) - 1))] = draw(vertex)
    elif kind == "empty":
        draw(st.sampled_from((sigma, tau))).clear()
    elif kind == "tau in support":
        facet = draw(st.sampled_from(k.facets))
        return fc.Move(facet, (draw(st.sampled_from(sorted(k.support))),), 0)
    else:
        ids = draw(st.sampled_from((sigma, tau)))
        ids.append(-1 - ids[0] if kind == "negative id" else ids[0])
    return fc.Move(tuple(sigma), tuple(tau), move.move_type)


@st.composite
def corrupted_walks(draw):
    """(start, moves): a random walk in dimension 1-5, strict or free, maybe
    relabelled, often with one move corrupted; the moves after it stay."""
    dim = draw(st.integers(1, 5))
    shape = draw(st.sampled_from(("simplex", "cube")))
    k = fc.dual_complex(fc.named_polytope(f"{shape}-{dim + 1}")).complex
    if draw(st.booleans()):
        k = relabel(k, draw(st.integers(0, 2**16)))
    types = range(draw(st.sampled_from((0, 1))), dim + 1)
    choices = draw(st.lists(st.integers(0, 2**16), min_size=1, max_size=10))
    bad = draw(st.one_of(st.none(), st.integers(0, len(choices) - 1)))
    start, moves = k, []
    for index, choice in enumerate(choices):
        candidates = reference_moves(k, types)
        if not candidates:
            break
        move = candidates[choice % len(candidates)]
        moves.append(corrupted(draw, k, move) if index == bad else move)
        k = reference_apply_move(k, move)
    return start, moves


@FAST
@given(corrupted_walks())
def test_replay_matches_sequential_apply_move(walk):
    start, moves = walk
    assert star_replay(start, moves) == reference_replay(start, moves)


def apply_outcome(apply, k, move):
    """What ``apply`` returns, or its error's type and text."""
    try:
        return apply(k, move)
    except FlipcertError as exc:
        return type(exc), str(exc)


def assert_apply_matches_reference(k, move):
    """``apply_move`` against ``reference_apply_move``: the same complex,
    or the same error; returns the reference's outcome."""
    fast = apply_outcome(fc.apply_move, k, move)
    reference = apply_outcome(reference_apply_move, k, move)
    if isinstance(reference, fc.Complex):
        assert_same_complex(fast, reference)
    else:
        assert fast == reference
    return reference


@FAST
@given(corrupted_walks())
def test_apply_move_matches_reference_on_corrupted_walks(walk):
    # a refused move leaves the state as it was for the moves after it
    k, moves = walk
    for move in moves:
        after = assert_apply_matches_reference(k, move)
        if isinstance(after, fc.Complex):
            k = after


def drawn_move(rng, k, types):
    """A move of ``k``: for each type of ``types`` in random order, up to 40
    random faces of that type are judged by the reference ``is_applicable``,
    and the first move found is returned; ``None`` if there is none."""
    for i in rng.sample(types, len(types)):
        faces = faces_of_dimension(k, k.dim - i)
        for sigma in rng.sample(faces, min(len(faces), 40)):
            move = is_applicable(k, sigma)
            if move is not None:
                return move
    return None


@st.composite
def high_dimensional_walks(draw):
    """(start, moves): a walk asking for 4 to 12 moves in dimension 6-8
    from the dual of a simplex or of a product of two simplices, strict or
    free, maybe relabelled, often with one move corrupted; the moves after
    it stay."""
    dim = draw(st.integers(6, 8))
    a = draw(st.integers(0, dim))
    p = fc.simplex_polytope(dim + 1) if a == 0 else fc.product(
        fc.simplex_polytope(a), fc.simplex_polytope(dim + 1 - a))
    k = fc.dual_complex(p).complex
    if draw(st.booleans()):
        k = relabel(k, draw(st.integers(0, 2**16)))
    types = list(range(draw(st.sampled_from((0, 1))), dim + 1))
    rng = random.Random(draw(st.integers(0, 2**32)))
    length = draw(st.integers(4, 12))
    bad = draw(st.one_of(st.none(), st.integers(0, length - 1)))
    start, moves = k, []
    for index in range(length):
        move = drawn_move(rng, k, types)
        if move is None:
            break
        moves.append(corrupted(draw, k, move) if index == bad else move)
        k = reference_apply_move(k, move)
    return start, moves


@FAST
@given(high_dimensional_walks())
def test_star_replay_matches_sequential_apply_move_in_dimensions_6_to_8(walk):
    start, moves = walk
    assert star_replay(start, moves) == reference_replay(start, moves)


@pytest.mark.parametrize("dim", range(1, 9))
def test_f_vector_change_matches_recount_for_every_type(dim):
    # type 0 on a facet of the simplex boundary; type i >= 1 on the dual of
    # simplex(i) x simplex(dim + 1 - i), the join of the two boundaries,
    # where sigma is a facet of the second and tau all of the first
    moves = []
    for i in range(dim + 1):
        if i == 0:
            k = fc.dual_complex(fc.simplex_polytope(dim + 1)).complex
            sigma = k.facets[0]
        else:
            k = fc.dual_complex(fc.product(
                fc.simplex_polytope(i), fc.simplex_polytope(dim + 1 - i))).complex
            sigma = tuple(range(i + 2, dim + 3))
        move = is_applicable(k, sigma)
        assert move.move_type == i
        before, after = fc.f_vector(k), fc.f_vector(reference_apply_move(k, move))
        change = tuple(b - a for a, b in zip(before, after))
        assert f_vector_change(len(move.sigma), len(move.tau)) == change
        assert f_vector_after(before, move) == after
        moves.append(move)
    assert sorted(m.move_type for m in moves) == list(range(dim + 1))


def test_the_replay_enumerates_no_subsets(monkeypatch):
    # the replay counts no faces: with f_vector refused everywhere and
    # no itertools in moves, a move costs set operations on vertex stars
    from flipcert import moves

    class NoSubsets:
        def __getattr__(self, name):
            raise AssertionError(f"the replay called itertools.{name}")

    def refuse(k):
        raise AssertionError("the replay counted faces")

    dual, result = reduced("cube-4", "strict")
    assert len(result.moves) > 1
    monkeypatch.setattr(moves, "itertools", NoSubsets())
    count_calls(monkeypatch, "f_vector", refuse)
    assert moves.replay(dual.complex, result.moves) == result.final


@pytest.mark.parametrize("name, move", [
    *(("b5", move) for move in CORRUPTIONS),
    # the cases of test_moves.py::test_apply_errors
    ("b5", fc.Move((0, 1, 2), (6,), 0)),
    ("b5", fc.Move((0, 1), (4, 6), 1)),
    ("b5", fc.Move((0, 1, 4), (5,), 0)),
    ("b5", fc.Move((0, 1), (4, 5), 2)),
    ("empty", fc.Move((), (0,), 1)),
    ("empty", fc.Move((), (0,), 0)),
    # two faults at once, so that checking them in another order shows
    ("b5", fc.Move((-1,), (0, 0), 2)),  # both ids bad
    ("b5", fc.Move((4, 5), (0, 1), 2)),  # sigma no face, wrong type
    ("b5", fc.Move((0,), (1, 2, 4), 1)),  # wrong type, link a 4-cycle
    ("b5", fc.Move((0,), (1, 2, 4), 2)),  # link a 4-cycle, tau not its
    ("empty", fc.Move((), (0, 1), 0)),  # no move at (), type-0 tau long
    ("b5", fc.Move((0, 1, 4), (5, 6), 0)),  # type-0 tau long and not fresh
    ("b5", fc.Move((0, 1, 4), (5, 6), 1)),  # wrong type, type-0 tau long
    # one fault each, at a step of the ordered judge no row above reaches
    ("b5", fc.Move((1, 4), (0, 2), 1)),  # tau is rest, but rest is an edge
    ("b5", fc.Move((4, 6), (0, 1), 1)),  # sigma holds an id of no star
    ("b5", fc.Move((4,), (0, 1, 2), 3)),  # declared type above dim
    ("b5", fc.Move((0, 1, 4), (0,), 0)),  # type-0 tau a vertex of sigma
    ("b5", fc.Move((0, 1), (4, 5), True)),  # declared type equal, but no int
    ("b5", fc.Move((4,), (0, 1, 2), 2.0)),
])
def test_apply_move_matches_reference_on_each_corruption(b5, name, move):
    k = b5 if name == "b5" else EMPTY
    assert_apply_matches_reference(k, move)
    assert star_replay(k, [move]) == reference_replay(k, [move])


@st.composite
def arbitrary_moves(draw):
    """(complex, move): a walk state and a move drawn with no regard for
    validity, its ids unsorted.  ``sigma`` starts as a face and ``tau`` as
    ids beside it or one fresh id; each may then gain ids of the support or
    the fresh one, so either may be empty, overlap the other or repeat an
    id.  The declared type lies in -1..dim+2, most often the one that
    ``sigma``'s size gives."""
    k, _ = draw(walk_states())
    fresh = max(k.support) + 1
    any_id = st.sampled_from([*sorted(k.support), fresh])
    facet = draw(st.permutations(draw(st.sampled_from(k.facets))))
    sigma = facet[:draw(st.integers(0, len(facet)))]
    beside = set().union(*(f for f in k.facets if set(sigma) <= set(f))) - set(sigma)
    tau = draw(st.lists(st.sampled_from([*sorted(beside), fresh]), unique=True,
                        max_size=k.dim + 2))
    sigma += draw(st.lists(any_id, max_size=1))
    tau += draw(st.lists(any_id, max_size=1))
    size_type = min(max(k.dim + 1 - len(set(sigma)), -1), k.dim + 2)
    move_type = draw(st.just(size_type) | st.integers(-1, k.dim + 2))
    return k, fc.Move(tuple(sigma), tuple(tau), move_type)


@settings(FAST, max_examples=300)
@given(arbitrary_moves())
def test_apply_move_and_replay_match_reference_on_arbitrary_moves(state):
    k, move = state
    assert_apply_matches_reference(k, move)
    assert star_replay(k, [move]) == reference_replay(k, [move])


def reference_require(doc, key, kind, where):
    """The per-key reader that ``fields`` replaced."""
    if not isinstance(doc, dict) or key not in doc:
        raise MalformedDocument(f"{where}: missing key {key!r}")
    value = doc[key]
    if not reference.fits(value, kind):
        raise MalformedDocument(
            f"{where}: {key!r} must be {_kind_name(kind)}, got {type(value).__name__}"
        )
    return value


class Id(int):
    """An int subclass that is no bool: it counts as an int."""


#: The kinds the codecs ask ``fields`` for.
KINDS = [int, [int], [[int]], [str], (int, None), (str, None), list, dict, bool]

INTISH = st.integers(-3, 3) | st.booleans() | st.builds(Id, st.integers(0, 3))
SCALARS = INTISH | st.none() | st.floats(allow_nan=False) | st.text(max_size=2)
VALUES = (
    st.recursive(
        SCALARS,
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=2), inner, max_size=2),
        max_leaves=12,
    )
    | st.lists(INTISH, max_size=4)
    | st.lists(st.lists(INTISH, max_size=3), max_size=3)
)

#: Bools in int lists, wrong depths, floats, None elements, an int subclass.
EDGE_VALUES = [
    [], [[]], [0, 1], [0, True], [False], [[0, 1], [2]], [[0, True]], [True],
    [[[0]]], [0, [1]], [[0], 1], [0.0], [[1.5]], [None], [0, None], [[None]],
    [Id(4)], [[Id(4), 5]], ["a", "b"], ["a", 0], 0, True, None, "x", {},
]


def one_field(doc, key, kind, where):
    (value,) = fields(doc, where, **{key: kind})
    return value


def require_outcome(check, value, kind):
    """True when ``check`` hands ``value`` back, else its error text."""
    try:
        return check({"v": value}, "v", kind, "doc") is value
    except MalformedDocument as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(VALUES, st.sampled_from(KINDS))
def test_fields_matches_recursive_reference(value, kind):
    assert (require_outcome(one_field, value, kind)
            == require_outcome(reference_require, value, kind))


def test_fields_matches_recursive_reference_on_edge_cases():
    for value in EDGE_VALUES:
        for kind in KINDS:
            assert (require_outcome(one_field, value, kind)
                    == require_outcome(reference_require, value, kind)), (value, kind)


def int_gates(v, b5):
    """Every gate that judges an int of outside data, fed ``v``: each a
    call, the error it refuses ``v`` with and that error's text."""
    on_v = [[0, 1], [1, 2], [2, 3], [3, v], [v, 0]]  # a pentagon's vertices
    pentagon = make_polytope(2, list("abcde"), [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]])
    return [
        (lambda: fields({"v": v}, "doc", v=int), MalformedDocument,
         f"doc: 'v' must be int, got {type(v).__name__}"),
        (lambda: fields({"v": [0, v]}, "doc", v=[int]), MalformedDocument,
         "doc: 'v' must be list of int, got list"),
        (lambda: as_simplex([0, v]), BadVertexId,
         f"vertex id {v!r} is not a non-negative integer"),
        *[(functools.partial(build, 2, list("abcde"), on_v), UnknownFacetIndex,
           f"facet index {v!r} out of range") for build in (make_polytope, SimplePolytope)],
        (lambda: CharacteristicPair(pentagon, ((1, 0, v, 0, 1), (0, 1, 0, 1, 1))),
         ShapeMismatch, f"non-integer entry {v!r}"),
        *[(functools.partial(fc.reduce_to_simplex, b5, ReductionOptions(
            **{"max_steps": 20, "restarts": 1, count: v})), BadInput,
           "invalid search options") for count in ("max_steps", "restarts", "rng_seed")],
    ]


@pytest.mark.parametrize("v", [Id(4), True, 1.5, "1", None])
def test_every_gate_judges_ints_by_one_rule(b5, v):
    """An int subclass passes every gate; each gate refuses what is no int
    with its own error and text."""
    for gate, error, text in int_gates(v, b5):
        if type(v) is Id:
            gate()
            continue
        with pytest.raises(error) as info:
            gate()
        assert str(info.value) == text


def read_outcome(read):
    """The values ``read()`` returns, compared by identity, else its error
    text."""
    try:
        return [id(value) for value in read()]
    except MalformedDocument as exc:
        return str(exc)


#: ``doc`` and ``where`` name parameters of ``fields`` too.
KEYS = ["a", "doc", "where"]


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(st.sampled_from(KEYS), VALUES, max_size=3) | VALUES,
    st.lists(st.tuples(st.sampled_from(KEYS), st.sampled_from(KINDS)),
             min_size=1, max_size=3, unique_by=lambda pair: pair[0]),
)
def test_fields_reads_keys_in_order_like_the_reference(doc, kinds):
    assert read_outcome(lambda: fields(doc, "doc", **dict(kinds))) == read_outcome(
        lambda: [reference_require(doc, key, kind, "doc") for key, kind in kinds])


#: Faults put in one facet index, matrix entry or polytope dimension.  ``"m"``
#: stands for the facet count and ``Id`` for the same value as an ``int``
#: subclass, which every gate accepts.
FAULTS = [True, False, 1.0, Id, -1, "m", "0", None]


def faulty(draw, value, m):
    fault = draw(st.sampled_from(FAULTS))
    return Id(value) if fault is Id else m if fault == "m" else fault


@st.composite
def polytope_args(draw):
    """(dim, facet names, vertices) of a relabelled truncation, the vertices
    as lists, tuples or frozensets, mostly with one fault put in: the
    dimension, a facet name, an index, a vertex repeated, short, long or
    with an index listed twice, a facet no vertex uses, or no vertices at
    all."""
    p = draw(relabelled_truncations())
    dim, names, m = p.dim, list(p.facet_names), p.facet_count
    shape = draw(st.sampled_from((list, tuple, frozenset)))
    vertices = [sorted(v) for v in p.vertices]
    i = draw(st.integers(0, len(vertices) - 1))
    v = vertices[i]
    fault = draw(st.sampled_from((None, "dim", "name", "index", "repeated vertex",
                                  "short", "long", "repeated index", "unused",
                                  "empty")))
    if fault == "dim":
        dim = faulty(draw, dim, m)
    elif fault == "name":
        names[draw(st.integers(0, m - 1))] = draw(st.sampled_from((0, None, ["a"])))
    elif fault == "index":
        j = draw(st.integers(0, len(v) - 1))
        v[j] = faulty(draw, v[j], m)
    elif fault == "repeated vertex":
        vertices.insert(draw(st.integers(0, len(vertices))), list(v))
    elif fault == "short":
        del v[draw(st.integers(0, len(v) - 1))]
    elif fault == "long":
        v.append(draw(st.sampled_from(sorted(set(range(m)) - set(v)))))
    elif fault == "repeated index":
        v.append(draw(st.sampled_from(v)))
    elif fault == "unused":
        names.append("unused")
    elif fault == "empty":
        vertices = []
    return dim, names, [shape(v) for v in vertices]


def stored(build):
    """The facet names and the vertices, with each index's type, that
    ``build`` stores, or its error's type and text."""
    try:
        names, vertices = build()
    except FlipcertError as exc:
        return type(exc), str(exc)
    return names, [frozenset((type(x), x) for x in v) for v in vertices]


def stored_polytope(p):
    return p.facet_names, p.vertices


GATES = settings(max_examples=300, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


@GATES
@given(polytope_args())
# a bool or float equal to an index some earlier vertex holds: every index
# is judged, not only the first of equal keys in the vertices' union
@example((2, list("abc"), [[0, 1], [True, 2], [0, 2]]))
@example((2, list("abc"), [[0, 1], [0, 2], [1.0, 2]]))
def test_polytope_gate_matches_reference(args):
    assert stored(lambda: stored_polytope(SimplePolytope(*args))) == stored(
        lambda: reference.check_polytope(*args))


@st.composite
def pair_args(draw):
    """(polytope, matrix) with a random integer matrix of the right shape,
    as tuples or lists, mostly with one fault put in: an entry, a row too
    many or too few, a short or long row, a ``range``, ``str`` or ``int``
    row, or a bare ``int``, ``range`` or ``str`` for the matrix."""
    p = draw(relabelled_truncations())
    n, m = p.dim, p.facet_count
    rows = [draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
            for _ in range(n)]
    i = draw(st.integers(0, n - 1))
    fault = draw(st.sampled_from((None, "entry", "extra row", "missing row",
                                  "short", "long", "row", "matrix")))
    if fault == "entry":
        j = draw(st.integers(0, m - 1))
        rows[i][j] = faulty(draw, rows[i][j], m)
    elif fault == "extra row":
        rows.append(list(rows[i]))
    elif fault == "missing row":
        del rows[i]
    elif fault == "short":
        del rows[i][draw(st.integers(0, m - 1))]
    elif fault == "long":
        rows[i].append(0)
    shape = draw(st.sampled_from((list, tuple)))
    matrix = draw(st.sampled_from((list, tuple)))(shape(row) for row in rows)
    if fault == "row":
        matrix = list(matrix)
        matrix[i] = draw(st.sampled_from((range(m), "0" * m, 7)))
    elif fault == "matrix":
        matrix = draw(st.sampled_from((5, range(n), "0" * n)))
    return p, matrix


@GATES
@given(pair_args())
def test_pair_gate_matches_reference(args):
    # the matrix each stores, with each entry's type, or the same error
    def stored_matrix(check):
        try:
            matrix = check(*args)
        except FlipcertError as exc:
            return type(exc), str(exc)
        if isinstance(matrix, CharacteristicPair):
            matrix = matrix.matrix
        return matrix, [tuple(map(type, row)) for row in matrix]

    assert stored_matrix(CharacteristicPair) == stored_matrix(reference.check_pair)
