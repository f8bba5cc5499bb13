"""
Finding all eleven embeddings
=============================

A dense angle sweep over all 64 branch vectors brackets every sign change
of the closure residual; candidate brackets are bisected at 30 digits,
filtered for degenerate configurations (coincident vertices are not
embeddings), and Newton-polished to 60 digits on the full 16-equation
system.
"""

import time

from heawood_udg import SolveConfig, solve_all, sweep

config = SolveConfig()  # grid 20000, bisection at 30 digits, Newton to 60

brackets = sweep(config)
print(f"raw sign-change brackets over 64 branch vectors: {len(brackets)}")

started = time.time()
embeddings = solve_all(config)
print(f"embeddings found: {len(embeddings)}  ({time.time() - started:.1f}s)\n")

print(f"{'':>3} {'branch':>8} {'theta':>20} {'x_l4':>22} {'y_l4':>21}")
for k, emb in enumerate(embeddings, start=1):
    ctx = emb.context()
    print(
        f"{k:>3} {emb.branch:>8} {ctx.nstr(emb.theta, 18):>20} "
        f"{ctx.nstr(emb.coords['l4'].x, 18):>22} {ctx.nstr(emb.coords['l4'].y, 18):>21}"
    )

worst = max(abs(float(e.closure)) for e in embeddings)
print(f"\nworst closure residual across the eleven: {worst:.2e}")
