"""Real-root counting by Sturm's theorem: the independent count that the
Descartes-rule isolation of ``heawood_udg.charpoly`` is checked against.

The degree-79 chain takes about two seconds to build, so every test shares
one build through the cache on :func:`sturm_chain`.
"""

from __future__ import annotations

from functools import lru_cache

from heawood_udg import charpoly
from heawood_udg.charpoly import NotSquarefree, sign_at

sturm_chain = lru_cache(maxsize=8)(charpoly.sturm_chain)


def _variations(signs) -> int:
    cleaned = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(cleaned, cleaned[1:]) if a * b < 0)


def _variations_at(chain, t, infinity_sign: int) -> int:
    """Sign variations of the chain at ``t``, or at infinity with the
    given sign when ``t`` is None."""
    if t is None:
        return _variations(q.leading_coefficient * infinity_sign ** q.degree for q in chain)
    return _variations(sign_at(q, t) for q in chain)


def count_real_roots(p, lo=None, hi=None) -> int:
    """Number of real roots of the squarefree ``p`` in (lo, hi]; a bound of
    None is the corresponding infinity, and neither bound may be a root."""
    chain = sturm_chain(p)
    if chain[-1].degree > 0:
        raise NotSquarefree(f"gcd(p, p') has degree {chain[-1].degree}")
    return _variations_at(chain, lo, -1) - _variations_at(chain, hi, 1)
