"""
The compass-and-ruler construction chain
========================================

Six vertices are pinned as a rectangle.  One angle parameter places l4 on
the radius-2 circle around l5; P4 is the midpoint of l4 and l5; each of
the six remaining vertices is one of the two intersection points of unit
circles around already-placed vertices.  The final constraint d(P1,l1)=1
is left over: its value as a function of the angle is the closure
residual, and embeddings are its zeros.
"""

from heawood_udg import ChainBroken, build_chain

branch = "011000"

print("closure residual along the angle for branch 011000:")
for theta in (2.50, 2.55, 2.59, 2.61, 2.616070438111156):
    try:
        cand = build_chain(theta, branch, precision=30)
        print(f"  theta={theta:<18} closure={float(cand.closure):+.6e}")
    except ChainBroken as exc:
        print(f"  theta={theta:<18} chain breaks at {exc.step}")

# the last angle above is a zero: a unit-distance embedding
cand = build_chain(2.616070438111156233404996722814660879937, branch, 60)
print("\nvertex positions at the zero (15 digits):")
ctx = cand.context()
for name in ("P1", "P3", "P4", "P6", "l1", "l2", "l4", "l6"):
    pt = cand.coords[name]
    print(f"  {name}: ({ctx.nstr(pt.x, 15)}, {ctx.nstr(pt.y, 15)})")

# not every angle admits a chain: near theta=0 the circles around l3 and
# l4 are too far apart to intersect
try:
    build_chain(0.0, branch, 30)
except ChainBroken as exc:
    print(f"\nat theta=0 the chain fails: {exc}")
