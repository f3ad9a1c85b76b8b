"""The one class sum chars.numerical_invariant against the element-by-element
sums it replaced, copied here as oracles: the Kondo-Gauss sum, the Gauss
sum of a unit character, w_x over Sigma_n and the wreath invariant."""

import itertools

import pytest

from pshlab.chars import elementwise, numerical_invariant
from pshlab.combinat import partitions
from pshlab.cyclo import Cyclo, inverse, scalar, zeta
from pshlab.glfq import (build_field, gauss_sum, gl_group, kondo_measure,
                         psi_measure, unit_character)
from pshlab.invariants import (Poly, _counterexample_groups,
                               lambda_invariant, w_x_sym, wreath_invariant)
from pshlab.specht import specht_character
from pshlab.symgroup import Perm, cycles_of
from pshlab.wreath import wreath_group


def kondo_by_elements(G, sub_indices, chi):
    """(1/dim) sum over the subgroup of chi(X) Psi(X); chi maps each
    subgroup element index to its exact character value."""
    f = G.field
    dim = scalar(chi[G.identity_idx])
    if dim == 0:
        raise ValueError("character of dimension zero")
    total = Cyclo.rational(0)
    for i in sub_indices:
        total = total + chi[i] * psi_measure(f, G.elements[i])
    return total * inverse(dim)


def gauss_by_elements(f, lam):
    """tau(lam) = sum over units of lam(x) zeta_p^{trace(x)}; lam maps
    each nonzero field index to its value."""
    total = Cyclo.rational(0)
    for x in range(1, f.q):
        total = total + lam[x] * zeta(f.p, f.trace(x))
    return total


def w_x_by_elements(elements, value_fn):
    """(1/dim) sum over a subgroup of Sigma_n of chi(h) x^(cycles of h);
    value_fn maps a Perm to its exact character value."""
    total = Poly()
    dim = None
    for h in elements:
        v = value_fn(h)
        if h == Perm.identity(len(h.images)):
            dim = v
        total = total + Poly([0] * len(h.cycle_type()) + [1]).scale(v)
    if dim is None or dim == 0:
        raise AssertionError("no identity, or a character of degree 0")
    return total.scale(inverse(dim))


def wreath_by_elements(H, elements, chi):
    """(1/dim) sum of chi(X) x^(cycles of sigma) twist(X) over the listed
    wreath elements; chi maps an element to its exact value."""
    total = Poly()
    dim = None
    for x in elements:
        sig = x[0]
        if all(sig[i] == i + 1 for i in range(len(sig))) and all(
                a == H.identity_idx for a in x[1]):
            dim = chi(x)
        term = chi(x) * lambda_invariant(H, x)
        total = total + Poly([0] * len(cycles_of(sig)) + [1]).scale(term)
    if dim is None:
        raise AssertionError("the listed wreath elements miss the identity")
    return total.scale(inverse(dim))


def test_kondo_every_irreducible_of_gl23():
    G = gl_group(2, 3)
    on_classes = G.class_measure(kondo_measure(G))
    for chi in G.character_table():
        on_elements = {i: chi.values[G.class_of(i)] for i in range(G.order)}
        expected = kondo_by_elements(G, range(G.order), on_elements)
        assert numerical_invariant(chi, on_classes) == expected
        assert numerical_invariant(
            elementwise(G.name, on_elements, G.identity_idx),
            kondo_measure(G)) == expected


def test_kondo_every_cyclic_chain_character_of_gl22():
    G = gl_group(2, 2)
    cases = 0
    for _, chain, _, chi in G.cyclic_characters():
        assert numerical_invariant(
            elementwise(G.name, chi, G.identity_idx), kondo_measure(G)) \
            == kondo_by_elements(G, chain, chi)
        cases += 1
    assert cases == 10  # C1, three C2 and one C3: 1 + 3*2 + 3


def test_gauss_sum_every_unit_character():
    for p, d in ((2, 2), (3, 1), (3, 2), (5, 1), (7, 1)):
        f = build_field(p, d)
        for j in range(f.q - 1):
            lam = unit_character(f, j)
            assert gauss_sum(f, lam) == gauss_by_elements(f, lam.values)


def test_w_x_every_specht_character():
    for n in range(1, 6):
        perms = [Perm(images)
                 for images in itertools.permutations(range(1, n + 1))]
        for lam in partitions(n):
            chi = specht_character(lam)
            assert w_x_sym(chi) == w_x_by_elements(
                perms, lambda h: chi.values[h.cycle_type()])


def test_wreath_every_irreducible():
    H = gl_group(1, 3)
    J = wreath_group(H, 2)
    _, _, G = _counterexample_groups(3)
    for T in (J, G):
        for chi in T.character_table():
            assert wreath_invariant(H, T, chi) == wreath_by_elements(
                H, T.elements,
                lambda x: chi.values[T.class_of(T.index[x])])


def test_degree_zero_raises_value_error():
    G = gl_group(2, 3)
    linear = [chi for chi in G.character_table() if chi.degree() == 1]
    virtual = linear[0] - linear[1]
    with pytest.raises(ValueError):
        numerical_invariant(virtual, G.class_measure(kondo_measure(G)))
    with pytest.raises(ValueError):
        w_x_sym(specht_character((2,)) - specht_character((1, 1)))
