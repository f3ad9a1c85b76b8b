import math

from hypothesis import given, settings
from hypothesis import strategies as st

from pshlab.groups import FiniteGroupTable
from pshlab.psh import _base_group
from pshlab.symgroup import Perm
from pshlab.wreath import wreath_group, wreath_identity, wreath_mul


def wreath_base_subgroup(G: FiniteGroupTable):
    """Indices of the normal subgroup H^n (trivial permutation part)."""
    ident = tuple(range(1, len(G.elements[0][0]) + 1))
    return [i for i, (sig, _) in enumerate(G.elements) if sig == ident]


def c2():
    return _base_group("C2")


def test_order():
    H = c2()
    G = wreath_group(H, 3)
    assert G.order == math.factorial(3) * 2 ** 3
    assert G.elements[G.identity_idx] == wreath_identity(H, 3)


def test_inverse_and_identity():
    H = c2()
    G = wreath_group(H, 3)
    e = G.identity_idx
    for x in range(G.order):
        assert G.mul(x, e) == x
        assert G.mul(e, x) == x
        assert G.mul(x, G.inv(x)) == e


def test_associativity_exhaustive_n2():
    H = c2()
    G = wreath_group(H, 2)
    for a in range(G.order):
        for b in range(G.order):
            for c in range(G.order):
                assert G.mul(G.mul(a, b), c) == G.mul(a, G.mul(b, c))


elem = st.tuples(st.permutations([1, 2, 3]),
                 st.tuples(st.integers(0, 1), st.integers(0, 1),
                           st.integers(0, 1)))


@settings(max_examples=60, deadline=None)
@given(elem, elem, elem)
def test_associativity_random(a, b, c):
    H = c2()
    x = (tuple(a[0]), a[1])
    y = (tuple(b[0]), b[1])
    z = (tuple(c[0]), c[1])
    lhs = wreath_mul(H, wreath_mul(H, x, y), z)
    rhs = wreath_mul(H, x, wreath_mul(H, y, z))
    assert lhs == rhs


def test_embed_sym_homomorphism():
    import itertools
    H = c2()
    for p1 in itertools.permutations([1, 2, 3]):
        for p2 in itertools.permutations([1, 2, 3]):
            a, b = Perm(p1), Perm(p2)
            trivial = (H.identity_idx,) * 3
            lhs = wreath_mul(H, (a.images, trivial), (b.images, trivial))
            # pairs compose left-to-right, so the embedded product flips
            assert lhs == ((b * a).images, trivial)


def test_base_subgroup_normal():
    H = c2()
    G = wreath_group(H, 2)
    base = set(wreath_base_subgroup(G))
    assert len(base) == H.order ** 2
    for x in base:
        for g in range(G.order):
            assert G.conj(x, g) in base
    assert G.closure(base) == frozenset(base)


def test_wreath_table_keeps_its_base_group():
    # alpha strings are indices into the base group; spelling an element
    # out independently of any element order reads them through it
    H = c2()
    assert wreath_group(H, 2).base is H


def test_wreath_cache_tells_equally_named_groups_apart():
    c2 = FiniteGroupTable("H", [0, 1], lambda a, b: (a + b) % 2, None, 0)
    c3 = FiniteGroupTable("H", [0, 1, 2], lambda a, b: (a + b) % 3, None, 0)
    assert wreath_group(c2, 2).order == 8
    assert wreath_group(c3, 2).order == 18
