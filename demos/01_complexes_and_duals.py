"""Builds the polytope corpus and inspects the dual boundary complexes.

Every simple polytope here is purely combinatorial: facet names plus the
facet set at each vertex.  Dualizing turns facets into vertices and vertices
into maximal simplices, producing a simplicial sphere one dimension down.
"""

import flipcert as fc

for name, polytope in fc.corpus().items():
    dual = fc.dual_complex(polytope).complex
    print(f"{name}: dim {polytope.dim}, {polytope.facet_count} facets, "
          f"{len(polytope.vertices)} vertices")
    print(f"  dual complex: dim {dual.dim}, f-vector {fc.f_vector(dual)}, "
          f"Euler characteristic {fc.euler_characteristic(dual)}")
    if dual.dim >= 1:
        print(f"  pseudomanifold: {fc.is_pseudomanifold(dual)}")

# the dual of a product is the join of the duals (after index shifting)
prism = fc.product(fc.simplex_polytope(2), fc.simplex_polytope(1))
triangle_dual = fc.dual_complex(fc.simplex_polytope(2)).complex
segment_dual = fc.dual_complex(fc.simplex_polytope(1)).complex
shifted = fc.Complex(0, [(v + 3,) for f in segment_dual.facets for v in f])
print("\nprism dual equals join of factor duals:",
      fc.dual_complex(prism).complex == fc.join(triangle_dual, shifted))
