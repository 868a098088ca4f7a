"""Three-direction closures are lattices Z + xZ.

With directions {0, phi, theta} the only new point is x, the apex over the
segment [0, 1]; everything constructed afterwards stays in the lattice it
spans with 1.  The apex, lattice equality and integer coordinates are all
exact operations.
"""

from fractions import Fraction

from origami_rings import (
    AngleSet,
    ConstructionConfig,
    Rational,
    UnitAngle,
    closure_to_depth,
    intersect,
    lattice_coordinates,
    root_of_unity,
    same_lattice,
)


def ua(order, k):
    return UnitAngle(root_of_unity(order, k))


# the line through 0 at pi/3 meets the line through 1 at 2pi/3 in the
# apex x = e^{i pi/3}
x = intersect(ua(6, 1), ua(3, 1), 0, 1)
print("x =", x, "=", f"{x.to_interval(64).midpoint():.6f}")

# every depth-2 point has integer coordinates (m, n) with point = m + n*x
angles = AngleSet([ua(1, 0), ua(6, 1), ua(3, 1)])
s2 = closure_to_depth(ConstructionConfig(angles, max_depth=2))[2]
coords = {}
for p in s2:
    mn = lattice_coordinates(x, p)
    assert mn is not None
    coords[mn] = p
print(f"all {len(s2)} depth-2 points lie in Z + xZ; coordinates found:")
print("  ", sorted(coords))

# lattice equality ignores integer translation and generator sign
assert same_lattice(x, x + 1)
assert same_lattice(x, -x + 7)
assert not same_lattice(x, x * 2)
print("Z + xZ = Z + (x+1)Z = Z + (-x+7)Z, but not Z + 2xZ")

# a half-integer translate generates a different lattice
y = x + Rational(Fraction(1, 2))
print("x vs x + 1/2 same lattice:", same_lattice(x, y))
