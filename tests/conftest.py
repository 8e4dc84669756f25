"""Shared fixtures and independent oracles.

The oracles here deliberately re-derive quantities by brute force
(subset enumeration, permanent-style determinant expansion) so the tests
never trust the code paths they are checking.
"""

import itertools
import random

import pytest

import flipcert as fc


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


def count_f_vector_calls(monkeypatch, count=None):
    """Route every module's ``f_vector`` through a counter; returns the list
    of complexes it was called on.  ``count`` stands in for the real count,
    say to refuse one that would not finish."""
    import sys

    from flipcert import complexes

    original = complexes.f_vector
    count = count or original
    calls = []

    def counted(k):
        calls.append(k)
        return count(k)

    for name, module in list(sys.modules.items()):
        if name.startswith("flipcert") and getattr(module, "f_vector", None) is original:
            monkeypatch.setattr(module, "f_vector", counted)
    return calls


B5_FACETS = [[0, 1, 4], [1, 2, 4], [0, 2, 4], [0, 1, 5], [1, 2, 5], [0, 2, 5]]


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
    from flipcert.surgery import build_ledger

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
