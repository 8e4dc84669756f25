"""Shared fixtures and independent oracles.

The oracles here deliberately re-derive quantities by brute force
(subset enumeration, permanent-style determinant expansion) so the tests
never trust the code paths they are checking.
"""

import itertools
import pathlib
import random
import resource
import subprocess
import sys

import pytest

import flipcert as fc
from flipcert.errors import InputError
from flipcert.moves import ReplayFailure
from flipcert.reduction import ReductionResult
from flipcert.surgery import (
    build_ledger,
    certificate_from_doc,
    certificate_to_doc,
    verify_certificate,
)

from reference import boundary_simplex


def brute_faces(k):
    """Every nonempty face of a complex, by raw subset enumeration."""
    faces = set()
    for facet in k.facets:
        for size in range(1, len(facet) + 1):
            faces.update(itertools.combinations(facet, size))
    return faces


def brute_f_vector(k):
    faces = brute_faces(k)
    counts = [0] * (k.dim + 1)
    for face in faces:
        counts[len(face) - 1] += 1
    return tuple(counts)


def leibniz_det(matrix):
    """Permutation-expansion determinant; exact and independent of Bareiss."""
    size = len(matrix)
    total = 0
    for perm in itertools.permutations(range(size)):
        sign = 1
        seen = list(perm)
        for i in range(size):
            for j in range(i + 1, size):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for row, col in enumerate(perm):
            term *= matrix[row][col]
        total += term
    return total


def count_calls(monkeypatch, function, count=None):
    """Route every module's ``function`` (``f_vector``, say) through a
    counter; returns the list of complexes it was called on.  ``count``
    stands in for the real function, say to refuse a count that would not
    finish."""
    from flipcert import complexes

    original = getattr(complexes, function)
    count = count or original
    calls = []

    def counted(k):
        calls.append(k)
        return count(k)

    for name, module in list(sys.modules.items()):
        if name.startswith("flipcert") and getattr(module, function, None) is original:
            monkeypatch.setattr(module, function, counted)
    return calls


B5_FACETS = [[0, 1, 4], [1, 2, 4], [0, 2, 4], [0, 1, 5], [1, 2, 5], [0, 2, 5]]

#: Moves on ``b5``: three that apply, then one of each corruption.
CORRUPTIONS = [
    fc.Move((4,), (0, 1, 2), 2),  # applies, as do the next two
    fc.Move((0, 1), (4, 5), 1),
    fc.Move((0, 1, 4), (3,), 0),
    fc.Move((4,), (0, 1, 5), 2),  # wrong tau
    fc.Move((4,), (0, 1, 2), 1),  # wrong declared type
    fc.Move((4, 5), (0, 1), 1),  # sigma not a face
    fc.Move((), (0, 1, 2), 2),  # empty sigma
    fc.Move((4,), (), 2),  # empty tau
    fc.Move((0, 1, 4), (2,), 0),  # type-0 tau in the support
    fc.Move((0, 1), (0, 4), 1),  # tau meets sigma
    fc.Move((-1,), (0, 1, 2), 2),  # negative id
    fc.Move((4, 4), (0, 1, 2), 2),  # repeated id
    fc.Move((), (0, 1, 2, 4), 3),  # empty sigma, of the declared type
]

#: ``{∅}``: its one face, the empty one, carries no move.
EMPTY = fc.Complex(-1, [()])

#: The octahedron (cube-3's dual) with vertex 6 stacked on facet (0, 2, 4):
#: the sweep removes 6 and ends at the octahedron.
STACKED_OCTAHEDRON = [
    [a, b, c] for a in (0, 1) for b in (2, 3) for c in (4, 5) if (a, b, c) != (0, 2, 4)
] + [[0, 2, 6], [0, 4, 6], [2, 4, 6]]

#: Inputs the sweep shrinks that are no pseudomanifolds: a facet hung on the
#: ridge (1, 3), away from vertex 6, and two disjoint copies.
SHRINKABLE_NON_PSEUDOMANIFOLDS = {
    "stacked-octahedron-with-a-fin": STACKED_OCTAHEDRON + [[1, 3, 7]],
    "two-disjoint-stacked-octahedra": STACKED_OCTAHEDRON + [
        [v + 7 for v in f] for f in STACKED_OCTAHEDRON],
}


def star_replay(k, moves):
    """``replay``'s endpoint, or the failing index and the
    ``ReplayFailure`` text."""
    try:
        return fc.replay(k, moves)
    except ReplayFailure as exc:
        return exc.index, str(exc)


def checker_outcomes(corpus_certs, b5):
    """The report of every corpus certificate and of every mutation site of
    it, then the replay of every corruption on ``b5`` and of the move on
    ``{∅}``, in the shape ``star_replay`` returns."""
    out = []
    for dual, result, cert in corpus_certs.values():
        out.append(verify_certificate(build_ledger(dual, result)))
        doc = certificate_to_doc(cert)
        for label, mutate in certificate_mutation_sites(doc):
            try:
                parsed = certificate_from_doc(mutate(doc))
            except InputError as exc:
                out.append((label, type(exc), str(exc)))
            else:
                out.append((label, verify_certificate(parsed)))
    out.extend(star_replay(b5, [move]) for move in CORRUPTIONS)
    out.append(star_replay(EMPTY, [fc.Move((), (0,), 0)]))
    return out


def simplex_segment_reduction(d):
    """The dual of simplex-(d-1) x segment and its one-move reduction, made
    by hand with no search: sigma is a segment facet, tau the d simplex
    facets and the type d - 1; the final is the boundary of the d-simplex
    on the other d + 1 facets."""
    dual = fc.dual_complex(
        fc.product(fc.simplex_polytope(d - 1), fc.simplex_polytope(1)))
    move = fc.Move((d,), tuple(range(d)), d - 1)
    final = boundary_simplex(tuple(range(d)) + (d + 1,))
    return dual, ReductionResult((move,), final, True, 0)


def cap_memory():
    """Hold a child to 1 GiB of address space, so that a count of faces
    that would fill memory fails in the child instead."""
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def run_python(args, hash_seed="0", timeout=None):
    """A fresh interpreter run with ``args``, importing the same flipcert
    package this test imported; given a ``timeout``, the child is also held
    to 1 GiB by ``cap_memory``."""
    package_root = str(pathlib.Path(fc.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, timeout=timeout,
        preexec_fn=cap_memory if timeout else None,
        env={"PYTHONHASHSEED": hash_seed, "PATH": "/usr/bin:/bin",
             "PYTHONPATH": package_root},
    )


@pytest.fixture
def delta3():
    return fc.Complex(2, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])


@pytest.fixture
def b5():
    return fc.Complex(2, B5_FACETS)


@pytest.fixture
def octahedron():
    return fc.dual_complex(fc.named_polytope("cube-3")).complex


@pytest.fixture
def icosahedron():
    return fc.dual_complex(fc.named_polytope("dodecahedron")).complex


@pytest.fixture(scope="session")
def corpus_certs():
    """(dual, reduction, certificate) for every corpus polytope, built once."""
    certs = {}
    for name, p in fc.corpus().items():
        dual = fc.dual_complex(p)
        result = fc.reduce_to_simplex(dual.complex, fc.ReductionOptions())
        certs[name] = (dual, result, build_ledger(dual, result))
    return certs


def certificate_mutation_sites(doc):
    """Single-field mutations of a certificate document, as (label, mutator)
    pairs over deep copies.  Facet display names are left alone: they are
    pure labels no verifier check can or should depend on."""
    import copy

    sites = []

    def setter(path, value):
        def mutate(base):
            base = copy.deepcopy(base)
            target = base
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
            return base
        label = "/".join(str(p) for p in path)
        sites.append((f"{label}={value!r}", mutate))

    setter(("polytope", "dim"), doc["polytope"]["dim"] + 1)
    for i, vertex in enumerate(doc["polytope"]["vertices"]):
        for j, entry in enumerate(vertex):
            bumped = (entry + 1) % len(doc["polytope"]["facets"])
            setter(("polytope", "vertices", i, j), bumped)
    setter(("dual_hash",), doc["dual_hash"][:-1] + ("0" if doc["dual_hash"][-1] != "0" else "1"))
    for i, move in enumerate(doc["reduction_moves"]):
        setter(("reduction_moves", i, "type"), move["type"] + 1)
        setter(("reduction_moves", i, "sigma"), [v + 1 for v in move["sigma"]])
        setter(("reduction_moves", i, "tau"), move["tau"] + [max(move["tau"]) + 1])

        def deleter(base, index=i):
            base = copy.deepcopy(base)
            del base["reduction_moves"][index]
            return base
        sites.append((f"delete reduction_moves[{i}]", deleter))
    for k, step in enumerate(doc["steps"]):
        setter(("steps", k, "index"), step["index"] + 1)
        setter(("steps", k, "construction_type"), step["construction_type"] + 1)
        setter(("steps", k, "sigma"), [v + 1 for v in step["sigma"]])
        setter(("steps", k, "tau"), [v + 1 for v in step["tau"]])
        setter(("steps", k, "codimension"), 2)
        setter(("steps", k, "torus_rank_delta"), step["torus_rank_delta"] + 1)
        setter(("steps", k, "post_f_vector"), [x + 1 for x in step["post_f_vector"]])
    setter(("base_stage", "sphere_dimension"),
           doc["base_stage"]["sphere_dimension"] + 2)
    setter(("base_stage", "extra_circles"),
           doc["base_stage"]["extra_circles"] + 1)
    setter(("min_codimension",),
           2 if doc["min_codimension"] is None else doc["min_codimension"] - 2)
    setter(("citations", 0), "tampered anchor")

    def drop_citation(base):
        import copy as _copy
        base = _copy.deepcopy(base)
        base["citations"].pop()
        return base
    sites.append(("drop last citation", drop_citation))
    setter(("verified",), not doc["verified"])
    return sites


def walk_pairs(seed, count, max_support=12):
    """Deterministic stream of (complex, applicable move) pairs reachable
    from the corpus duals by moves of any type."""
    rng = random.Random(seed)
    seeds = [
        fc.dual_complex(fc.named_polytope(name)).complex
        for name in ("simplex-2", "simplex-3", "prism", "cube-3")
    ]
    current = rng.choice(seeds)
    produced = 0
    while produced < count:
        if len(current.support) > max_support:
            current = rng.choice(seeds)
        candidates = fc.enumerate_moves(current, set(range(current.dim + 1)))
        if not candidates:
            current = rng.choice(seeds)
            continue
        move = rng.choice(candidates)
        yield current, move
        produced += 1
        current = fc.apply_move(current, move)
