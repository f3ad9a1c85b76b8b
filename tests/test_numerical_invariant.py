"""The one class sum chars.numerical_invariant against the element-by-element
sums it replaced, copied here as oracles: the Kondo-Gauss sum, the Gauss
sum of a unit character, w_x over Sigma_n and the wreath invariant.  The
pairwise class sum it was before it became one cyclo.dot is kept as an
oracle too, with a planted defect in dot that the comparison catches."""

import itertools

import pytest

from pshlab import cyclo
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


# -- the pairwise class sum --------------------------------------------------

def pairwise_numerical_invariant(chi, measure):
    """numerical_invariant as one term and one running total at a time,
    each Cyclo operand lifted to the lcm conductor of the pair."""
    dim = scalar(chi.degree())
    if dim == 0:
        raise ValueError("a character of degree 0 has no numerical invariant")
    total = 0
    for label, size in chi.sizes.items():
        total = total + measure(label) * (size * chi.values[label])
    return total * inverse(dim)


def same_value(a, b):
    """Equal values of the same type; a Cyclo also at the same conductor.
    A Poly's coefficients are compared in the same way."""
    if isinstance(a, Poly):
        return (isinstance(b, Poly) and len(a.coeffs) == len(b.coeffs)
                and all(map(same_value, a.coeffs, b.coeffs)))
    if type(a) is not type(b) or a != b:
        return False
    return not isinstance(a, Cyclo) or a.n == b.n


def wreath_measure(H, G):
    """wreath_invariant's measure on the class labels of G."""
    return G.class_measure(lambda i: Poly.monomial(
        len(cycles_of(G.elements[i][0]))).scale(
            lambda_invariant(H, G.elements[i])))


def class_sum_cases():
    """(chi, measure) pairs: the Kondo measure on every irreducible and
    every cyclic chain character of GL(2,2) and GL(2,3), every unit
    character of F_q for q <= 9 with the Gauss measure, and every
    irreducible of Sigma_n wr GL(1,q) for n <= 3 and q in {3, 5} with the
    wreath measure."""
    for q in (2, 3):
        G = gl_group(2, q)
        psi = kondo_measure(G)
        for chi in G.character_table():
            yield chi, G.class_measure(psi)
        for _, _, _, chi in G.cyclic_characters():
            yield elementwise(G.name, chi, G.identity_idx), psi
    for p, d in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)):
        f = build_field(p, d)
        for j in range(f.q - 1):
            yield unit_character(f, j), lambda x, f=f: zeta(f.p, f.trace(x))
    for q in (3, 5):
        H = gl_group(1, q)
        for n in (1, 2, 3):
            J = wreath_group(H, n)
            for chi in J.character_table():
                yield chi, wreath_measure(H, J)


def class_sum_mismatches():
    cases, bad = 0, []
    for chi, measure in class_sum_cases():
        cases += 1
        got = numerical_invariant(chi, measure)
        if not same_value(got, pairwise_numerical_invariant(chi, measure)):
            bad.append((chi.group_id, got))
    return cases, bad


def test_class_sum_matches_the_pairwise_loop():
    cases, bad = class_sum_mismatches()
    assert cases > 150 and bad == []


def test_a_misplaced_lift_step_fails_the_pairwise_comparison(monkeypatch):
    spread = cyclo._spread

    def planted(v, n):
        terms, den = spread(v, n)
        if isinstance(v, Cyclo) and v.n < n:
            step = n // v.n
            terms = [(e // step * (step + 1) % n, c) for e, c in terms]
        return terms, den

    monkeypatch.setattr(cyclo, "_spread", planted)
    assert class_sum_mismatches()[1]
