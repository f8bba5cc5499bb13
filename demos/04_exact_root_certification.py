"""
Exact real-root certification
=============================

The x-coordinate of l4 satisfies a degree-79 polynomial with integer
coefficients up to 47 digits.  A Sturm sequence over exact rational
arithmetic makes its real-root count a theorem rather than a floating-point
observation: exactly eleven real roots, one per embedding.  Bisection
tested by Descartes' rule of signs then isolates each root in a rational
interval without the Sturm sequence, and refinement narrows each one to any
number of digits: an Illinois estimate of the root names the final
interval of exact bisection, and exact signs confirm it.
"""

import time

from heawood_udg import charpoly_xl4, count_real_roots, isolate_real_roots, refine_root

poly = charpoly_xl4()
print(f"degree: {poly.degree}")
print(f"constant term:       {poly.coefficients[0]}")
print(f"leading coefficient: {poly.coefficients[79]}")

started = time.time()
total = count_real_roots(poly)
print(f"\nreal roots over (-inf, inf): {total}   ({time.time() - started:.1f}s, exact)")

# geometry bounds the roots a priori: x_l4 = 1 + 2cos(theta) lies in [-1, 3]
print(f"real roots outside [-1, 3]: {count_real_roots(poly, None, -1) + count_real_roots(poly, 3, None)}")

intervals = isolate_real_roots(poly)
print(f"\nisolating intervals and 20-digit refinements:")
for iv in intervals:
    root = refine_root(poly, iv, 20)
    print(f"  ({float(iv.lo):+.6f}, {float(iv.hi):+.6f}]  ->  {root}")
