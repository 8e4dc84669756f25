"""Reduces corpus spheres to simplex boundaries and replays the moves.

Strict mode forbids vertex additions, so every emitted move has type >= 1
and the vertex count never grows along the replay.  The same seed gives the
same move sequence.  The breadth-first flip-distance oracle that bounds the
search's lengths is a test support module, ``tests/reference.py``.
"""

import time

import flipcert as fc

for name in ("prism", "cube-3", "cube-4", "dodecahedron"):
    dual = fc.dual_complex(fc.named_polytope(name)).complex
    start = time.perf_counter()
    result = fc.reduce_to_simplex(dual, fc.ReductionOptions(rng_seed=0))
    elapsed = time.perf_counter() - start
    types = [m.move_type for m in result.moves]
    print(f"{name}: reduced {len(dual.support)} -> "
          f"{len(result.final.support)} vertices in {len(result.moves)} moves "
          f"({elapsed * 1000:.0f} ms, {result.steps_examined} steps examined)")
    print(f"  move types: {types}")
    print(f"  replay sound: {fc.replay(dual, result.moves) == result.final}, "
          f"endpoint is simplex boundary: "
          f"{fc.is_boundary_of_simplex(result.final)}")

# identical options reproduce identical sequences
ico = fc.dual_complex(fc.named_polytope("dodecahedron")).complex
a = fc.reduce_to_simplex(ico, fc.ReductionOptions(rng_seed=11))
b = fc.reduce_to_simplex(ico, fc.ReductionOptions(rng_seed=11))
print("\ndeterministic replay with the same seed:", a == b)
