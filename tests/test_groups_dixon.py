import itertools
import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from pshlab.combinat import partitions
from pshlab import dixon
from pshlab.cyclo import Cyclo, scalar, zeta
from pshlab.dixon import (_charpoly, _power, _power_map, _roots, _rref,
                          _verify_orthogonality, dixon_character_table)
from pshlab import glfq
from pshlab.glfq import (_nonsplit_torus, _torus_dlog, gl_group,
                         verify_bruhat_bijection, weil_theta_exponents)
from pshlab.groups import FiniteGroupTable
from pshlab.hyperhecke import (SubgroupChar, TripleError,
                               verify_apply_faithful, verify_associativity,
                               verify_normal_form)
from pshlab.invariants import _counterexample_groups
from pshlab.psh import _base_group
from pshlab.specht import specht_character
from pshlab.symgroup import Perm
from pshlab.wreath import wreath_group


def sym_table(n: int) -> FiniteGroupTable:
    elements = [Perm(p) for p in itertools.permutations(range(1, n + 1))]
    return FiniteGroupTable(f"S{n}", elements, lambda a, b: a * b, None,
                            Perm.identity(n))


def cyclic_table(n: int) -> FiniteGroupTable:
    return FiniteGroupTable(f"C{n}", list(range(n)),
                            lambda a, b: (a + b) % n, None, 0)


def test_table_bookkeeping():
    G = sym_table(3)
    assert G.order == 6
    assert G.classes()[0] == [G.identity_idx]
    assert sorted(G.class_sizes().values()) == [1, 2, 3]
    for x in range(G.order):
        assert G.mul(x, G.inv(x)) == G.identity_idx
    # one power map row per class: its length is the order of the class
    rows = _power_map(G)
    assert sorted(map(len, rows)) == [1, 2, 3]
    assert math.lcm(*map(len, rows)) == 6
    for rep, row in zip(G.class_reps(), rows):
        assert _power(row, -1) == G.class_of(G.inv(rep))
        x = G.identity_idx
        for j in range(7):
            assert _power(row, j) == G.class_of(x)
            x = G.mul(x, rep)


def test_cyclic_all_linear():
    G = cyclic_table(6)
    table = G.character_table()
    assert len(table) == 6
    assert all(chi.degree() == 1 for chi in table)
    for c1 in table:
        for c2 in table:
            assert c1.inner(c2) == (1 if c1 == c2 else 0)


def test_sym3_degrees():
    degrees = sorted(chi.degree() for chi in sym_table(3).character_table())
    assert degrees == [1, 1, 2]


def test_gl23_degrees():
    G = gl_group(2, 3)
    degrees = sorted(chi.degree() for chi in G.character_table())
    assert degrees == [1, 1, 2, 2, 2, 3, 3, 4]
    for c1 in G.character_table():
        for c2 in G.character_table():
            assert c1.inner(c2) == (1 if c1 == c2 else 0)


def _sub_conj(v):
    return v.conj() if isinstance(v, Cyclo) else v


def conjugate(G, x, g):
    """g x g^-1."""
    return G.mul(G.mul(g, x), G.inv(g))


def test_frobenius_reciprocity():
    G = sym_table(4)
    three_cycle = G.index[Perm.from_cycles(4, [(1, 2, 3)])]
    H = sorted(G.closure([three_cycle]))
    assert len(H) == 3
    phi = {h: 1 for h in H}
    ind = G.induced_character(H, phi)
    for chi in G.character_table():
        res = {h: chi.values[G.class_of(h)] for h in H}
        lhs = ind.inner(chi)
        total = Cyclo.rational(0)
        for h in H:
            total = total + phi[h] * _sub_conj(res[h])
        rhs = total * Fraction(1, len(H))
        assert lhs == rhs.rational_value()


def test_induced_degree():
    G = sym_table(4)
    H = sorted(G.closure([G.index[Perm.from_cycles(4, [(1, 2)])]]))
    ind = G.induced_character(H, {h: 1 for h in H})
    assert ind.degree() == G.order // len(H)


def test_double_cosets_partition():
    G = sym_table(4)
    H = sorted(G.closure([G.index[Perm.from_cycles(4, [(1, 2, 3)])]]))
    K = sorted(G.closure([G.index[Perm.from_cycles(4, [(1, 2), (3, 4)])]]))
    cosets = G.double_cosets(H, K)
    seen = set()
    for rep, members in cosets:
        assert rep == min(members)
        assert rep in members
        assert not (seen & members)
        seen |= members
        # closed under H on the left and K on the right
        for h in H:
            for x in members:
                assert G.mul(h, x) in members
    assert seen == set(range(G.order))


def test_double_coset_table():
    G = sym_table(4)
    H = tuple(sorted(G.closure([G.index[Perm.from_cycles(4, [(1, 2, 3)])]])))
    K = tuple(sorted(G.closure([G.index[Perm.from_cycles(4, [(1, 2)])]])))
    table = G.double_coset_table(G.subgroup(H), G.subgroup(K))
    rep, h, k = table
    for g in range(G.order):
        assert rep[g] == min(G.mul(G.mul(x, g), y) for x in H for y in K)
        assert h[g] in H and k[g] in K
        assert G.mul(G.mul(h[g], rep[g]), k[g]) == g
    # built once per pair; the trivial left group gives left cosets gK
    assert G.double_coset_table(G.subgroup(reversed(H)),
                                G.subgroup(frozenset(K))) is table
    left, h, k = G.double_coset_table(G.subgroup([G.identity_idx]),
                                      G.subgroup(K))
    for g in range(G.order):
        assert left[g] == min(G.mul(g, y) for y in K)
        assert h[g] == G.identity_idx and G.mul(left[g], k[g]) == g


def test_double_coset_factorizations_match_the_callback():
    # every pair of registered subgroups, {1} and the whole group
    for G in (fresh_table(gl_group(2, 3)), fresh_table(gl_group(3, 2))):
        subgroups = [frozenset({G.identity_idx}), frozenset(range(G.order))]
        subgroups += G.subgroups.values()
        for H, K in itertools.product(subgroups, repeat=2):
            H, K = tuple(sorted(H)), tuple(sorted(K))
            rep, h, k = G.double_coset_table(G.subgroup(H), G.subgroup(K))
            for least, members in G.double_cosets(H, K):
                assert least == min(members)
                for y in members:
                    assert rep[y] == least, (G.name, H, K, y)
                    assert h[y] in H and k[y] in K
                    assert product(G, product(G, h[y], least), k[y]) == y


def test_subgroup_registry():
    G = sym_table(3)
    G.subgroups["rot"] = G.closure(
        [G.index[Perm.from_cycles(3, [(1, 2, 3)])]])
    H = sorted(G.subgroups["rot"])
    assert len(H) == 3
    assert G.closure(H) == frozenset(H)
    # a three-cycle pair is not closed
    assert G.closure(H[:2]) != frozenset(H[:2])


def subgroup_mismatches(G, indices, sub):
    """Where the subgroup table sub on the sorted indices disagrees with
    its ambient G restricted to them: products, inverses, the identity,
    and the classes, which are the orbits of conjugation by the
    subgroup's own elements inside G."""
    indices = sorted(indices)
    bad = []
    if sub.elements != [G.elements[i] for i in indices]:
        bad.append(("elements",))
    if indices[sub.identity_idx] != G.identity_idx:
        bad.append(("identity",))
    for x in range(sub.order):
        if indices[sub.inv(x)] != G.inv(indices[x]):
            bad.append(("inv", x))
        if [indices[sub.mul(x, y)] for y in range(sub.order)] != [
                G.mul(indices[x], indices[y]) for y in range(sub.order)]:
            bad.append(("mul", x))
    classes = sorted({tuple(sorted({conjugate(G, x, g) for g in indices}))
                      for x in indices})
    if sorted(tuple(sorted(indices[x] for x in c))
              for c in sub.classes()) != classes:
        bad.append(("classes",))
    return bad


def test_subgroup_table_agrees_with_its_ambient():
    G = gl_group(2, 3)
    B = G.subgroups["B"]
    assert subgroup_mismatches(G, B, G.subgroup(B)) == []
    H = gl_group(1, 3)
    J = wreath_group(H, 3)
    sub = [i for i, (sig, al) in enumerate(J.elements)
           if sig[2] == 3 and al[2] == H.identity_idx]
    assert len(sub) == 8
    assert subgroup_mismatches(J, sub, _counterexample_groups(3)[2]) == []
    # negative control: the opposite product on B's elements, B being
    # nonabelian, fails the product check and nothing else
    opposite = FiniteGroupTable(
        "Bop", [G.elements[i] for i in sorted(B)],
        lambda a, b: G._mul_fn(b, a), None,
        G.elements[G.identity_idx])
    assert {m[0] for m in subgroup_mismatches(G, B, opposite)} == {"mul"}


def test_subgroup_object_is_built_once_per_index_set():
    G = fresh_table(gl_group(2, 3))
    B = sorted(G.subgroups["B"])
    sub = G.subgroup(B)
    assert G.subgroup(reversed(B)) is sub
    assert G.subgroup(frozenset(B)) is sub
    assert sub.amb is G and sub.indices == tuple(B)
    assert G.subgroup([G.identity_idx]).order == 1
    # every SubgroupChar on the index set holds the one object
    chars = [SubgroupChar(G, reversed(B), chi) for chi in sub.characters
             if chi[G.identity_idx] == 1]
    assert len(chars) > 1 and all(sc.sub is sub for sc in chars)
    # a set that holds the identity but is not closed is still refused
    x = next(x for x in range(G.order) if G.mul(x, x) != G.identity_idx)
    with pytest.raises(TripleError, match="not closed"):
        SubgroupChar(G, [G.identity_idx, x], {G.identity_idx: 1, x: 1})
    with pytest.raises(ValueError, match="misses the identity"):
        G.subgroup([x])


def test_a_rejected_index_set_is_not_kept():
    # the checks run before the lookup, so neither a set that is not
    # closed nor one under a non-homomorphism leaves a Subgroup behind
    G = fresh_table(gl_group(2, 3))
    one = G.identity_idx
    x = next(x for x in range(G.order) if G.mul(x, x) != one)
    with pytest.raises(TripleError, match="not closed"):
        SubgroupChar(G, [one, x], {one: 1, x: 1})
    B = G.subgroups["B"]
    with pytest.raises(TripleError, match="not a homomorphism"):
        SubgroupChar(G, B, {b: 1 if b == one else 2 for b in B})
    assert G._subgroup_tables == {}
    assert SubgroupChar(G, B, {b: 1 for b in B}).sub is G.subgroup(B)
    assert list(G._subgroup_tables) == [B]


def test_subgroup_refuses_a_set_that_is_not_closed():
    # the closure check runs before the set is kept, so the refused set
    # leaves no Subgroup whose classes would fail later
    G = fresh_table(gl_group(2, 3))
    one = G.identity_idx
    x = next(x for x in range(G.order) if G.mul(x, x) != one)
    with pytest.raises(ValueError, match="not closed"):
        G.subgroup([one, x])
    assert G._subgroup_tables == {}
    closed = G.closure([x])
    assert G.subgroup(closed).order == len(closed) > 2
    assert list(G._subgroup_tables) == [closed]


def test_small_generators_rejects_a_set_that_is_not_a_subgroup():
    # {0, 2, 5} in Z/6: 2 alone generates three elements, but not 5
    G = cyclic_table(6)
    with pytest.raises(ValueError):
        G.small_generators([0, 2, 5])


def test_small_generators_rejects_a_repeated_index():
    # a list as long as the group, but with one index twice and one
    # missing, is not the whole group, although its span is
    for G in (cyclic_table(6), gl_group(2, 3)):
        indices = [0] + list(range(G.order - 1))
        with pytest.raises(ValueError):
            G.small_generators(indices)


def test_orthogonality_check_survives_optimize():
    code = ("from pshlab.dixon import _verify_orthogonality\n"
            "from pshlab.glfq import gl_group\n"
            "G = gl_group(2, 2)\n"
            "chars = G.character_table()\n"
            "_verify_orthogonality(G, chars)\n"
            "try:\n"
            "    _verify_orthogonality(G, chars[:-1])\n"
            "except AssertionError:\n"
            "    pass\n"
            "else:\n"
            "    raise SystemExit(1)\n"
            # one value of a non-trivial character, off the identity
            "k = next(i for i, c in enumerate(chars)\n"
            "         if any(v != 1 for v in c.values.values()))\n"
            "values = dict(chars[k].values)\n"
            "values[1] = values[1] + 1\n"
            "wrong = chars[:k] + [G.class_function(values)] + chars[k + 1:]\n"
            "try:\n"
            "    _verify_orthogonality(G, wrong)\n"
            "except AssertionError as exc:\n"
            # the row check, which runs before the column check
            "    raise SystemExit(0 if 'orthogonality failure in GL(2,2)'\n"
            "                     in str(exc) else 1)\n"
            "raise SystemExit(1)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_dixon_agrees_with_specht():
    for n in range(1, 7):
        G = sym_table(n)
        cycle_type = {label: G.elements[rep].cycle_type()
                      for label, rep in enumerate(G.class_reps())}
        parts = partitions(n)
        dixon = set()
        for chi in G.character_table():
            by_type = {cycle_type[c]: v for c, v in chi.values.items()}
            dixon.add(tuple(by_type[lam] for lam in parts))
        specht = {tuple(specht_character(mu).values[lam] for lam in parts)
                  for mu in parts}
        assert dixon == specht, n


def test_eigen_scan_fails_loudly_under_optimize():
    code = ("from pshlab import dixon\n"
            "from pshlab.glfq import gl_group\n"
            "dixon._nullspace = lambda a, l: []\n"
            "try:\n"
            "    gl_group(2, 2).character_table()\n"
            "except AssertionError as exc:\n"
            "    raise SystemExit(0 if 'failed to split' in str(exc) "
            "else 1)\n"
            "raise SystemExit(1)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_dropped_root_fails_loudly_under_optimize():
    # the first root list comes back one root short
    code = ("from pshlab import dixon\n"
            "from pshlab.glfq import gl_group\n"
            "roots, calls = dixon._roots, []\n"
            "def drop_one(poly, l):\n"
            "    calls.append(poly)\n"
            "    found = roots(poly, l)\n"
            "    return found[1:] if len(calls) == 1 else found\n"
            "dixon._roots = drop_one\n"
            "try:\n"
            "    gl_group(2, 3).character_table()\n"
            "except AssertionError as exc:\n"
            "    raise SystemExit(0 if 'failed to split completely' in "
            "str(exc) else 1)\n"
            "raise SystemExit(1)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def cofactor_det(m, l):
    """det m over F_l by expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j]
               * cofactor_det([row[:j] + row[j + 1:] for row in m[1:]], l)
               for j in range(len(m))) % l


def charpoly_cases(l):
    yield [[0]]
    yield [[3]]
    yield [[1, 2], [0, 1]]                     # zero subdiagonal
    yield [[1, 0, 0], [0, 2, 0], [0, 0, 2]]    # diagonal, repeated root
    yield [[1, 2, 3], [0, 4, 5], [6, 0, 1]]    # pivot below: a row swap
    yield [[2, 1, 0, 0], [0, 0, 1, 0],         # the pivot is two rows
           [0, 0, 0, 1], [5, 0, 0, 3]]         # further down: a swap
    yield [[1, 1, 0, 0], [0, 1, 0, 0],         # no pivot in the first
           [0, 0, 2, 1], [0, 0, 3, 2]]         # two columns
    yield [[0, 0, 0, 1], [0, 0, 0, 0],
           [0, 0, 0, 0], [1, 0, 0, 0]]
    rng = random.Random(7)
    for d in range(1, 6):
        for _ in range(12):
            # mostly zeros, so pivots go missing and rows get swapped
            yield [[rng.randrange(l) if rng.random() < 0.4 else 0
                    for _ in range(d)] for _ in range(d)]


def test_charpoly_vanishes_exactly_where_the_rank_drops():
    l = 7
    for a in charpoly_cases(l):
        d = len(a)
        poly = _charpoly(a, l)
        assert len(poly) == d + 1 and poly[d] == 1, a
        drops = []
        for lam in range(l):
            shifted = [[(a[i][j] - (lam if i == j else 0)) % l
                        for j in range(d)] for i in range(d)]
            value = sum(c * lam ** k for k, c in enumerate(poly)) % l
            # det(lam I - a) = (-1)^d det(a - lam I)
            assert value == (-1) ** d * cofactor_det(shifted, l) % l, (a, lam)
            rank = len(_rref(shifted, l, d)[1])
            assert (value == 0) == (rank < d), (a, lam)
            if rank < d:
                drops.append(lam)
        assert _roots(poly, l) == drops, a


def exponent_lift(chi_mod, row, deg, z_pows, l):
    """The value lift over the group exponent e = len(z_pows): discrete
    Fourier inversion over all e powers of z, e^2 steps, at conductor e."""
    e = len(z_pows)
    inv_e = pow(e, l - 2, l)
    at_powers = [chi_mod[_power(row, j)] for j in range(e)]
    terms = {}
    for k in range(e):
        m_k = sum(x * z_pows[(-j * k) % e]
                  for j, x in enumerate(at_powers)) * inv_e % l
        assert m_k <= deg
        if m_k:
            terms[k] = m_k
    return scalar(Cyclo.from_terms(e, terms))


@pytest.mark.parametrize("name", ["GL(2,3)", "GL(3,2)", "GL(2,4)",
                                  "Wreath(2,GL(1,5))", "Wreath(4,C2)",
                                  "Sym(5)"])
def test_class_order_lift_matches_the_exponent_lift(name, monkeypatch):
    G = {"GL(2,3)": lambda: gl_group(2, 3),
         "GL(3,2)": lambda: gl_group(3, 2),
         "GL(2,4)": lambda: gl_group(2, 4),
         "Wreath(2,GL(1,5))": lambda: wreath_group(_base_group("GL(1,5)"), 2),
         "Wreath(4,C2)": lambda: wreath_group(_base_group("C2"), 4),
         "Sym(5)": lambda: sym_table(5)}[name]()
    rows = _power_map(G)
    # some class besides 1 has order below the exponent, so the two lifts
    # invert over different roots of unity there
    assert any(1 < len(row) < math.lcm(*map(len, rows)) for row in rows)
    table = dixon_character_table(G)
    calls = []

    def counted(*args):
        calls.append(args)
        return exponent_lift(*args)

    monkeypatch.setattr(dixon, "_lift", counted)
    oracle = dixon_character_table(G)
    assert len(calls) == len(rows) ** 2
    assert len(table) == len(oracle) == len(rows)
    for chi, psi in zip(table, oracle):
        assert chi.values == psi.values
        assert ([str(v) for v in chi.values.values()]
                == [str(v) for v in psi.values.values()])


def induced_by_definition(G, chi_on_elements):
    """(1/|H|) sum over y in G of chi°(y g y^-1), chi° being chi on H and
    0 off it, at each class representative g."""
    values = {}
    for label, members in enumerate(G.classes()):
        total = 0
        for y in range(G.order):
            total = total + chi_on_elements.get(
                conjugate(G, members[0], y), 0)
        values[label] = total * Fraction(1, len(chi_on_elements))
    return G.class_function(values)


def test_induced_character_gl23_subgroups():
    G = gl_group(2, 3)
    for name in ("Z", "D", "B", "Sigma"):
        for chi in G.subgroup(G.subgroups[name]).characters:
            assert G.induced_character(chi.keys(), chi) \
                == induced_by_definition(G, chi), name


def test_induced_character_weil_torus():
    G = gl_group(2, 3)
    torus = _nonsplit_torus(G)
    dlog = _torus_dlog(G, torus)
    for j in weil_theta_exponents(3):
        theta = {i: zeta(8, j * dlog[i]) for i in torus}
        assert G.induced_character(torus, theta) \
            == induced_by_definition(G, theta)


def test_induced_character_wreath_base():
    G = wreath_group(gl_group(1, 3), 2)
    base = [i for i, (sig, _) in enumerate(G.elements) if sig == (1, 2)]
    for chi in G.subgroup(base).characters:
        assert G.induced_character(chi.keys(), chi) \
            == induced_by_definition(G, chi)


def test_cyclic_characters_sym4():
    G = sym_table(4)
    subgroups = set()
    for g, chain, j, chi in G.cyclic_characters():
        assert chain[-1] == G.identity_idx and len(set(chain)) == len(chain)
        assert frozenset(chain) == G.closure([g])
        assert g == min(x for x in chain
                        if G.closure([x]) == frozenset(chain))
        subgroups.add(frozenset(chain))
        assert chi[g] == zeta(len(chain), j)
        assert G.induced_character(chain, chi) \
            == induced_by_definition(G, chi)
    # the trivial group, six transpositions, three double transpositions,
    # four 3-cycle and three 4-cycle subgroups
    assert len(subgroups) == 17


# -- the Schreier-tree kernel, against the callbacks --------------------------

def product(G, x, y):
    """x y straight from the multiplication callback, with no cache."""
    return G.index[G._mul_fn(G.elements[x], G.elements[y])]


def kernel_mismatches(G):
    """Every element whose left or right action array, or whose products
    by mul, disagree with the multiplication callback."""
    bad = []
    for g in range(G.order):
        if G.left(g) != [product(G, g, x) for x in range(G.order)]:
            bad.append(("left", g))
        if [G.mul(g, x) for x in range(G.order)] != [
                product(G, g, x) for x in range(G.order)]:
            bad.append(("mul", g))
        if G.right(g) != [product(G, x, g) for x in range(G.order)]:
            bad.append(("right", g))
    return bad


def callback_inverse(G, g):
    """The y with g y the identity, found by the multiplication
    callback."""
    return next(y for y in range(G.order)
                if product(G, g, y) == G.identity_idx)


def callback_orbit(start, moves):
    """The orbit of start under the callables in moves, by a
    breadth-first walk."""
    orbit, frontier = {start}, [start]
    while frontier:
        nxt = []
        for x in frontier:
            for move in moves:
                y = move(x)
                if y not in orbit:
                    orbit.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(orbit)


def callback_orbits(G, moves):
    """(least member, orbit) for every orbit of the callables in moves,
    scanning start points in ascending order: the oracle the arrays must
    match."""
    orbits, seen = [], set()
    for start in range(G.order):
        if start not in seen:
            orbit = callback_orbit(start, moves)
            seen |= orbit
            orbits.append((start, orbit))
    return orbits


def callback_closure(G, gens):
    return callback_orbit(G.identity_idx,
                          [lambda x, g=g: product(G, x, g) for g in gens])


def callback_generators(G, indices):
    """Greedy generators by callback closures."""
    gens, current = [], frozenset({G.identity_idx})
    for i in sorted(indices):
        if i not in current:
            gens.append(i)
            current = callback_closure(G, gens)
    assert current == frozenset(indices)
    return gens


def orbit_mismatches(G):
    """closure, classes and double_cosets against callback orbits, over
    every pair of registered subgroups and the whole group."""
    subgroups = dict(G.subgroups, G=frozenset(range(G.order)))
    gens = {name: callback_generators(G, H) for name, H in subgroups.items()}
    bad = []
    for name, H in subgroups.items():
        if G.small_generators(H) != gens[name]:
            bad.append(("generators", name))
    # classes in ascending order of least member, the identity's first
    classes = [sorted(orbit) for _, orbit in callback_orbits(
        G, [lambda x, g=g, gi=callback_inverse(G, g):
            product(G, product(G, g, x), gi) for g in gens["G"]])]
    ident = next(i for i, c in enumerate(classes) if G.identity_idx in c)
    classes[0], classes[ident] = classes[ident], classes[0]
    if G.classes() != classes:
        bad.append(("classes",))
    for a, b in itertools.product(subgroups, repeat=2):
        if G.closure(gens[a] + gens[b]) != callback_closure(
                G, gens[a] + gens[b]):
            bad.append(("closure", a, b))
        moves = ([lambda x, h=h: product(G, h, x) for h in gens[a]]
                 + [lambda x, k=k: product(G, x, k) for k in gens[b]])
        if G.double_cosets(subgroups[a], subgroups[b]) != callback_orbits(
                G, moves):
            bad.append(("double cosets", a, b))
    return bad


def fresh_table(G):
    """A new table of G's elements and callbacks, with G's subgroups."""
    H = FiniteGroupTable(G.name, G.elements, G._mul_fn, None,
                         G.elements[G.identity_idx])
    H.subgroups = dict(G.subgroups)
    return H


def test_kernel_arrays_match_the_callbacks():
    # GL(2,4) reads its row maps over F_4, a field with d = 2
    for G in (sym_table(4), gl_group(2, 3), gl_group(3, 2), gl_group(2, 4),
              wreath_group(gl_group(1, 3), 2)):
        assert kernel_mismatches(G) == [], G.name


def tree_mismatches(G):
    """The parts of G's Schreier tree (right actions, members, parents,
    generator positions) that differ from the tree a fresh table builds
    by callback."""
    return [name for name, ours, theirs in zip(
        ("rights", "members", "parent", "via"), G._schreier_tree(),
        fresh_table(G)._schreier_tree()) if ours != theirs]


def test_gl_row_map_tree_matches_the_callback_tree():
    G = gl_group(3, 3)
    assert isinstance(G, glfq.GLTable)
    assert type(fresh_table(G)) is FiniteGroupTable
    assert tree_mismatches(G) == []


def test_a_swapped_row_map_entry_fails_the_tree_comparison(monkeypatch):
    # swap the images of the rows v and -v in the first generator's row
    # map: every right action stays a permutation of GL(3,3), but a wrong
    # one
    G = gl_group(3, 3)
    first = G.elements[G._schreier_tree()[0][0][G.identity_idx]]
    swap = {(1, 0, 0): (2, 0, 0), (2, 0, 0): (1, 0, 0)}
    mat_mul = glfq.mat_mul

    def swapped(f, a, b):
        if len(a) == 1 and b == first:
            a = (swap.get(a[0], a[0]),)
        return mat_mul(f, a, b)

    monkeypatch.setattr(glfq, "mat_mul", swapped)
    assert "rights" in tree_mismatches(gl_group.__wrapped__(3, 3))


def test_gl_tree_makes_no_product_per_element(monkeypatch):
    # at most one product per row of F_q^n and tree generator, against
    # |G| = 11,232 products per generator by callback
    calls = [0]
    mat_mul = glfq.mat_mul

    def counted(f, a, b):
        calls[0] += 1
        return mat_mul(f, a, b)

    monkeypatch.setattr(glfq, "mat_mul", counted)
    G = gl_group.__wrapped__(3, 3)
    assert G._tree is not None
    assert 0 < calls[0] <= 3 ** 3 * len(G._tree[0])


def test_orbit_algorithms_match_callback_orbits():
    for G in (gl_group(2, 3), gl_group(3, 2)):
        assert orbit_mismatches(G) == [], G.name


def test_no_callback_products_after_the_tree_is_built(monkeypatch):
    # a Bruhat check and one hecke sweep make no call of the
    # multiplication callback once the two groups' trees are built: the
    # sweep's subgroup tables build theirs from the groups' arrays
    calls, built = [0], []
    build = FiniteGroupTable._schreier_tree

    def counted_build(self):
        if self._tree is None:
            built.append(self.order * len(build(self)[0]))
        return self._tree

    def counted(fn):
        def mul(x, y):
            calls[0] += 1
            return fn(x, y)
        return mul

    gl33, gl23 = fresh_table(gl_group(3, 3)), fresh_table(gl_group(2, 3))
    gl33.field = gl_group(3, 3).field
    trees = [G._schreier_tree() for G in (gl33, gl23)]
    for G in (gl33, gl23):
        G._mul_fn = counted(G._mul_fn)
    monkeypatch.setattr(FiniteGroupTable, "_schreier_tree", counted_build)
    monkeypatch.setattr(glfq, "gl_group", lambda m, q: gl33)
    assert glfq.verify_bruhat_bijection(1, 0, 3, 3)["pass"]
    assert calls == [0] and built == []
    assert verify_normal_form(gl23)["pass"]
    assert verify_associativity(gl23)["pass"]
    assert verify_apply_faithful(gl23)["pass"]
    assert built and calls == [0]
    assert [G._tree for G in (gl33, gl23)] == trees


@pytest.mark.parametrize("part", ["parent", "via"])
def test_a_wrong_tree_step_fails_the_kernel_checks(part):
    # the last member reached gets the identity as parent, or another
    # generator's position: one wrong entry of one flat list
    G = fresh_table(gl_group(2, 3))
    rights, members, parent, via = G._schreier_tree()
    y = members[-1]
    assert parent[y] != G.identity_idx and len(rights) > 1
    if part == "parent":
        parent[y] = G.identity_idx
    else:
        via[y] = (via[y] + 1) % len(rights)
    assert {kind for kind, _ in kernel_mismatches(G)} & {"mul", "left"}


def test_a_swapped_generator_entry_fails_the_kernel_checks():
    G = fresh_table(gl_group(2, 3))
    right = G._schreier_tree()[0][0]  # the first generator's array
    right[0], right[1] = right[1], right[0]
    assert kernel_mismatches(G)
    try:
        found = orbit_mismatches(G)
    except ValueError:  # a registered subgroup no longer closes
        found = True
    assert found
    assert inverse_mismatches(G, matrix_inverse(G, gl_group(2, 3).field))
    # some powers now cycle without the identity: powers says so, not loops
    with pytest.raises(AssertionError, match="miss the identity"):
        for x in range(G.order):
            G.powers(x)


# -- inverses from powers, against independent oracles ------------------------

GL_TABLES = [(1, q) for q in (2, 3, 4, 5)] + [(2, q) for q in (2, 3, 4, 5)]
GL_TABLES += [(3, 2), (3, 3)]


def inverse_mismatches(G, oracle):
    """The element indices x whose G.inv(x) is not oracle(x), or whose
    powers never reach the identity."""
    bad = []
    for x in range(G.order):
        try:
            if G.inv(x) != oracle(x):
                bad.append(x)
        except AssertionError:
            bad.append(x)
    return bad


def matrix_inverse(G, f):
    """x -> x^-1 on a table of invertible matrices over the field f, by
    glfq.mat_inv."""
    return lambda x: G.index[glfq.mat_inv(f, G.elements[x])]


def wreath_inverse(G):
    """x -> x^-1 on a wreath table by (sigma, a)^-1 = (sigma^-1,
    (a_{sigma^-1(i)}^-1)_i), each base inverse found by the base group's
    multiplication callback."""
    H = G.base

    def inverse(x):
        sig, alphas = G.elements[x]
        inv_sig = [0] * len(sig)
        for i, v in enumerate(sig, start=1):
            inv_sig[v - 1] = i
        return G.index[(tuple(inv_sig),
                        tuple(callback_inverse(H, alphas[v - 1])
                              for v in inv_sig))]
    return inverse


def test_gl_inverses_match_mat_inv():
    for n, q in GL_TABLES:
        G = gl_group(n, q)
        assert inverse_mismatches(G, matrix_inverse(G, G.field)) == [], (
            G.name)


def test_sym_inverses_match_perm_inv():
    for n in (1, 3, 4, 5):
        G = sym_table(n)
        assert inverse_mismatches(
            G, lambda x: G.index[G.elements[x].inv()]) == [], G.name


def test_wreath_inverses_match_the_explicit_formula():
    for G in (wreath_group(gl_group(1, 3), 3),
              wreath_group(_base_group("C2"), 4)):
        assert inverse_mismatches(G, wreath_inverse(G)) == [], G.name


def test_cyclic_inverses_are_negatives():
    for n in (1, 2, 6, 7):
        G = cyclic_table(n)
        assert inverse_mismatches(G, lambda x: (-x) % n) == [], G.name


def class_matrices_by_definition(G, inverse):
    """(B_i)[k][j]: the x in class i with x^-1 z in class j, z the
    representative of class k, x^-1 from the oracle and the product from
    the multiplication callback."""
    r = len(G.classes())
    mats = [[[0] * r for _ in range(r)] for _ in range(r)]
    for k, z in enumerate(G.class_reps()):
        for x in range(G.order):
            mats[G.class_of(x)][k][G.class_of(
                product(G, inverse(x), z))] += 1
    return mats


def test_class_matrices_match_their_definition():
    gl23, wreath = gl_group(2, 3), wreath_group(gl_group(1, 3), 3)
    for G, inverse in ((gl23, matrix_inverse(gl23, gl23.field)),
                       (wreath, wreath_inverse(wreath))):
        assert dixon._class_matrices(G, _power_map(G)) == (
            class_matrices_by_definition(G, inverse)), G.name


def gl_class_number(n, q):
    """The coefficient of t^n in prod_{k >= 1} (1 - t^k) / (1 - q t^k)."""
    series = [1] + [0] * n
    for k in range(1, n + 1):
        geometric = [q ** (j // k) if j % k == 0 else 0
                     for j in range(n + 1)]
        series = [sum(series[i] * geometric[j - i] for i in range(j + 1))
                  for j in range(n + 1)]
        series = [series[j] - (series[j - k] if j >= k else 0)
                  for j in range(n + 1)]
    return series[n]


def test_gl_class_numbers_match_the_generating_function():
    for n, q in GL_TABLES:
        assert len(gl_group(n, q).classes()) == gl_class_number(n, q), (n, q)
    assert gl_class_number(3, 2) == 6 and gl_class_number(3, 3) == 24


def test_orthogonality_catches_a_wrong_cyclotomic_value_in_any_row():
    # the row check sums row (i, j) only for j >= i; a wrong value in the
    # first or the last character still fails it
    G = gl_group(2, 3)
    chars = G.character_table()
    _verify_orthogonality(G, chars)
    for k in (0, len(chars) - 1):
        values = dict(chars[k].values)
        values[2] = values[2] + zeta(3)
        wrong = chars[:k] + [G.class_function(values)] + chars[k + 1:]
        with pytest.raises(AssertionError, match="orthogonality failure"):
            _verify_orthogonality(G, wrong)
