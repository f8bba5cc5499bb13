"""
Exact real-root certification
=============================

The x-coordinate of l4 satisfies a degree-79 polynomial with integer
coefficients up to 47 digits.  Bisection tested by Descartes' rule of signs,
in exact integer arithmetic, finds each real root in a small power-of-two
interval, and the bisection of a wider rational interval places it in its
own printed interval, which makes the real-root count a theorem rather than
a floating-point observation: exactly eleven real roots, one per embedding.
Refinement narrows each interval to any number of digits: an Illinois
estimate of the root at 30 digits, finished by Newton's method at doubling
precision with the polynomial evaluated in fixed point, names the final
interval of exact bisection, and two exact signs confirm it.
"""

import time

from heawood_udg import charpoly_xl4, isolate_real_roots, refine_root

poly = charpoly_xl4()
print(f"degree: {poly.degree}")
print(f"constant term:       {poly.coefficients[0]}")
print(f"leading coefficient: {poly.coefficients[79]}")

started = time.time()
intervals = isolate_real_roots(poly)
print(f"\nreal roots over (-inf, inf): {len(intervals)}   ({time.time() - started:.1f}s, exact)")

# geometry bounds the roots a priori: x_l4 = 1 + 2cos(theta) lies in [-1, 3]
inside = sum(1 for iv in intervals if -1 <= iv.lo and iv.hi <= 3)
print(f"isolating intervals inside [-1, 3]: {inside} of {len(intervals)}")

print(f"\nisolating intervals and 20-digit refinements:")
for iv in intervals:
    root = refine_root(poly, iv, 20)
    print(f"  ({float(iv.lo):+.6f}, {float(iv.hi):+.6f}]  ->  {root}")
