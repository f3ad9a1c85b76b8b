"""Wreath products Sigma_n acting on n copies of a finite group H.

Elements are pairs (sigma images, alpha indices); the product twists the
second alpha string by the first permutation:
(sigma, a) (sigma', a') = (sigma sigma', (a_i a'_{sigma(i)})_i).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .groups import FiniteGroupTable, check_group_order

__all__ = ["WreathTable", "wreath_group", "wreath_mul", "wreath_identity"]


def wreath_mul(H: FiniteGroupTable, x, y):
    (sig, alphas), (sig2, alphas2) = x, y
    n = len(alphas)
    # the permutation part composes left-to-right: (s s')(i) = s'(s(i)),
    # which is what makes the alpha twist below associative
    prod_sig = tuple(sig2[sig[i] - 1] for i in range(n))
    prod_alphas = tuple(H.mul(alphas[i], alphas2[sig[i] - 1])
                        for i in range(n))
    return (prod_sig, prod_alphas)


def wreath_identity(H: FiniteGroupTable, n: int):
    return (tuple(range(1, n + 1)), (H.identity_idx,) * n)


class WreathTable(FiniteGroupTable):
    """The table of Sigma_n wr H on the given elements; base is H, whose
    indices spell each element's alpha string."""

    def __init__(self, H: FiniteGroupTable, n: int, elements):
        super().__init__(f"Wreath({n},{H.name})", elements,
                         lambda a, b: wreath_mul(H, a, b), None,
                         wreath_identity(H, n))
        self.base = H


@lru_cache(maxsize=None)
def wreath_group(H: FiniteGroupTable, n: int) -> WreathTable:
    """Sigma_n wr H as an explicit WreathTable."""
    check_group_order(f"Wreath({n},{H.name})",
                      math.factorial(n) * H.order ** n)
    elements = []
    for sig in itertools.permutations(range(1, n + 1)):
        for alphas in itertools.product(range(H.order), repeat=n):
            elements.append((sig, alphas))
    return WreathTable(H, n, elements)
