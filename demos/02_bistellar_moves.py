"""Walks through the three kinds of bistellar move on a small 2-sphere.

The bipyramid over a triangle has facets {0,1,4},{1,2,4},{0,2,4} and the
mirror three through vertex 5.  A move at a face sigma applies whenever the
link of sigma is the boundary of a simplex tau that the complex does not
already contain; the rewrite swaps sigma * boundary(tau) for boundary(sigma)
* tau.
"""

import flipcert as fc
from flipcert.moves import Move

bipyramid = fc.Complex(2, [
    [0, 1, 4], [1, 2, 4], [0, 2, 4], [0, 1, 5], [1, 2, 5], [0, 2, 5],
])
print("start:", bipyramid.facets)

# an edge flip: link({0,1}) is the two points {4},{5} = boundary of {4,5}
flip = fc.is_applicable(bipyramid, (0, 1))
print("\ndetected at edge (0,1):", flip)
flipped = fc.apply_move(bipyramid, flip)
print("after flip:", flipped.facets)
print("flip undone exactly:",
      fc.apply_move(flipped, fc.inverse_move(flip)) == bipyramid)

# a vertex removal: link({4}) is the full triangle boundary on {0,1,2}
removal = fc.is_applicable(bipyramid, (4,))
print("\ndetected at vertex (4):", removal)
smaller = fc.apply_move(bipyramid, removal)
print("after removal:", smaller.facets,
      "| simplex boundary:", fc.is_boundary_of_simplex(smaller))

# a vertex addition is always available at any facet; inverse of a removal
grown = fc.apply_move(smaller, Move((0, 1, 2), (4,), 0))
print("\nafter re-adding a vertex over facet (0,1,2):", grown.facets)

# the full applicable-move frontier, by type
for types in ({0}, {1}, {2}):
    found = fc.enumerate_moves(bipyramid, types)
    print(f"moves of type {set(types)}: {len(found)}")
