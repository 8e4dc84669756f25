"""Characteristic matrices, the freeness test, and the final statement.

A quasitoric manifold over a simple polytope is the quotient of the
moment-angle manifold by a subtorus encoded as the kernel of an integer
matrix with one column per facet.  The action is free exactly when every
vertex minor has determinant +-1, checked here in exact integer arithmetic.
"""

import flipcert as fc
from flipcert.quasitoric import CharacteristicPair, vertex_minor_determinant
from flipcert.surgery import build_ledger, psc_statement


def diagonal_circle_pair(n):
    """The pair over the n-simplex whose kernel is the diagonal circle:
    facet 0 maps to -(e1+...+en), facet i to e_i."""
    rows = [[-1] + [1 if c == r else 0 for c in range(n)] for r in range(n)]
    return CharacteristicPair(fc.simplex_polytope(n), rows)


# the diagonal-circle pair over the simplex: quotient is complex projective space
for n in (1, 2, 3):
    pair = diagonal_circle_pair(n)
    dets = [vertex_minor_determinant(pair, v) for v in pair.polytope.vertices]
    print(f"simplex pair n={n}: matrix {pair.matrix}, vertex determinants {dets}")
print("quotient bookkeeping for n=2:",
      fc.quotient_descriptor(diagonal_circle_pair(2)))

# pairing opposite cube facets with identity columns is free too
cube_pair = CharacteristicPair(fc.named_polytope("cube-3"), (
    (1, 1, 0, 0, 0, 0),
    (0, 0, 1, 1, 0, 0),
    (0, 0, 0, 0, 1, 1),
))
print("\ncube-3 paired-identity matrix is free:", fc.check_freeness(cube_pair).ok)
print("cube-3 quotient bookkeeping:", fc.quotient_descriptor(cube_pair))

# a zero column kills every vertex that touches its facet
singular = CharacteristicPair(fc.simplex_polytope(2), ((0, 1, 0), (0, 0, 1)))
report = fc.check_freeness(singular)
print("\nzero-column failures (vertex, determinant):", report.failing_vertices)

# the full pipeline: certificate plus freeness yields the conclusion chain
pair = diagonal_circle_pair(2)
dual = fc.dual_complex(pair.polytope)
cert = build_ledger(dual, fc.reduce_to_simplex(dual.complex, fc.ReductionOptions()))
statement = psc_statement(cert, pair)
print(f"\nstatement for the n=2 simplex with the diagonal-circle pair:")
for claim, citation in statement.clauses:
    anchor = citation.split(":")[0]
    print(f"  - {claim}  [{anchor}]")
