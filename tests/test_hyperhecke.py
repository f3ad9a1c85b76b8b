import subprocess
import sys
import time
from collections import Counter

import pytest

from pshlab.cyclo import Cyclo, inverse, scalar
from pshlab import glfq, hyperhecke
from pshlab.glfq import block_diagonal, gl_group
from pshlab.groups import FiniteGroupTable, Subgroup
from pshlab.hyperhecke import (CharacterMismatchError, ContainmentError,
                               HeckeElement, HeckeTriple, SubgroupChar,
                               TripleError, _check_character,
                               _coproduct_component, _meet,
                               _left_cosets, _product_table,
                               _sampled_triples, apply_triple,
                               coproduct, coproduct_well_defined,
                               enumerate_subgroup_chars,
                               enumerate_triples, graded_product,
                               hecke_product,
                               module_basis, normalize, pair_triple,
                               verify_apply_faithful, verify_associativity,
                               verify_hopflike, verify_normal_form)


def borel_char(q=2):
    G = gl_group(2, q)
    B = sorted(G.subgroups["B"])
    return G, SubgroupChar(G, B, {b: 1 for b in B})


def linear_characters(G, indices):
    """The degree-one characters of G's Subgroup on the indices, as maps
    from G's element indices to values."""
    return [chi for chi in G.subgroup(indices).characters
            if chi[G.identity_idx] == 1]


def test_subgroup_table_and_linear_characters():
    G = gl_group(2, 2)
    B = sorted(G.subgroups["B"])
    sub = G.subgroup(B)
    assert sub.order == len(B)
    chars = linear_characters(G, B)
    assert chars and all(set(c) == set(B) for c in chars)
    # the whole group's characters are read from its own table
    whole = G.subgroup(range(G.order)).characters
    assert len(whole) == len(G.character_table())


def test_invalid_characters_rejected():
    from pshlab.cyclo import zeta
    G = gl_group(2, 3)
    Z = sorted(G.subgroups["Z"])
    assert len(Z) == 2
    # a cube root of unity on an order-two element is not a homomorphism
    chi = {z: (1 if z == G.identity_idx else zeta(3)) for z in Z}
    with pytest.raises(ValueError):
        SubgroupChar(G, Z, chi)


def test_triple_error_kinds():
    G, bchar = borel_char()
    # a Weyl representative does not normalize the Borel subgroup
    w = next(i for i in range(G.order)
             if i not in bchar.indices and G.mul(i, i) == G.identity_idx)
    with pytest.raises(ContainmentError):
        HeckeTriple(bchar, w, bchar)
    # same subgroup, mismatched characters on a conjugating element
    G3 = gl_group(2, 3)
    B3 = sorted(G3.subgroups["B"])
    chars = linear_characters(G3, B3)
    distinct = [c for c in chars if any(v != 1 for v in c.values())][0]
    s1 = SubgroupChar(G3, B3, {b: 1 for b in B3})
    s2 = SubgroupChar(G3, B3, distinct)
    with pytest.raises(CharacterMismatchError):
        HeckeTriple(s1, G3.identity_idx, s2)


def test_triples_and_subgroup_characters_stay_immutable():
    G, bchar = borel_char()
    assert bchar.indices == tuple(sorted(G.subgroups["B"]))
    t = HeckeTriple(bchar, G.identity_idx, bchar)
    assert (t.source, t.g, t.target) == (bchar, G.identity_idx, bchar)
    for obj, attr in ((bchar, "sub"), (bchar, "amb"), (bchar, "indices"),
                      (bchar, "chi"), (t, "source"), (t, "g"), (t, "target"),
                      (t, "extra")):
        with pytest.raises(AttributeError):
            setattr(obj, attr, None)
    w = next(i for i in range(G.order)
             if i not in bchar.indices and G.mul(i, i) == G.identity_idx)
    with pytest.raises(ContainmentError):
        HeckeTriple(bchar, w, bchar, check=True)
    HeckeTriple(bchar, w, bchar, check=False)


def element_product(e1, e2):
    """The product of two sums of triples, term by term through
    hecke_product."""
    terms = []
    for t1, c1 in e1.terms.items():
        for t2, c2 in e2.terms.items():
            prod = hecke_product(t1, t2)
            if prod is not None:
                c, t = prod
                terms.append((t, c1 * c2 * c))
    return HeckeElement(terms)


def test_identity_triple_is_unit():
    G, bchar = borel_char()
    e = HeckeTriple(bchar, G.identity_idx, bchar, check=False)
    assert hecke_product(e, e) == (1, e)
    one = HeckeElement([(e, 1)])
    assert element_product(one, one) == one


def test_normalize_idempotent():
    G = gl_group(2, 2)
    for t in enumerate_triples(G):
        c, t0 = normalize(1, t)
        c2, t1 = normalize(c, t0)
        assert (c2, t1) == (c, t0)


def test_product_zero_unless_composable():
    G = gl_group(2, 2)
    triples = enumerate_triples(G)
    composable = 0
    for t1 in triples:
        for t2 in triples:
            prod = hecke_product(t1, t2)
            if t2.target != t1.source:
                assert prod is None
                continue
            composable += 1
            raw = HeckeTriple(t2.source, G.mul(t1.g, t2.g), t1.target,
                              check=False)
            c, t = prod
            assert (c, t) == normalize(1, raw)
            assert type(c) is type(scalar(c))
    assert composable == 188


def test_reports_gl22():
    G = gl_group(2, 2)
    assert verify_normal_form(G)["pass"]
    assert verify_associativity(G, sample=8)["pass"]
    assert verify_apply_faithful(G)["pass"]


def test_reports_gl23_sampled():
    G = gl_group(2, 3)
    assert verify_normal_form(G, sample=40)["pass"]
    assert verify_associativity(G, sample=6)["pass"]
    assert verify_apply_faithful(G, sample=30)["pass"]


def test_classical_hecke_operator():
    # K = H = Borel of GL_2(F_2) with trivial characters and g a Weyl
    # element gives the adjacency operator of the three cosets
    G, bchar = borel_char()
    w = next(i for i in range(G.order)
             if i not in bchar.indices and G.mul(i, i) == G.identity_idx)
    t = HeckeTriple(bchar, w, bchar, check=False)
    basis = module_basis(bchar)
    mat = []
    for rep in basis:
        image = apply_triple(t, {rep: 1})
        mat.append([image.get(col, 0) for col in basis])
    assert mat == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


def test_graded_product_valid():
    # graded_product builds the inflated characters with check=False:
    # validate both, and rebuild the triple with its checks on
    for q in (2, 3):
        gens = gl1_generators(q)
        for t1 in gens:
            for t2 in gens:
                t = graded_product(t1, t2, q)
                assert t.amb is gl_group(2, q)
                _check_character(t.amb, t.source.chi)
                _check_character(t.amb, t.target.chi)
                assert HeckeTriple(t.source, t.g, t.target) == t


def test_coproduct_components():
    q = 2
    G = gl_group(2, q)
    for t in enumerate_triples(G)[:6]:
        for a in (0, 1, 2):
            e = coproduct(t, a)
            if a in (0, 2):
                assert not e.is_zero()
            report = coproduct_well_defined(t, a)
            assert report["pass"], report


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (2, 1)])
def test_pair_ambient_lists_block_diagonal_products(q, a, b):
    # pair triples and coproduct components live on GL(a+b,q)'s Levi
    # subgroup L(a,b): exactly the block-diagonal products
    G, Ga, Gb = gl_group(a + b, q), gl_group(a, q), gl_group(b, q)
    assert G.subgroups[f"L({a},{b})"] == {
        G.index[block_diagonal(x, y)] for x in Ga.elements
        for y in Gb.elements}


def test_pair_ambient_respects_group_order_cap(monkeypatch):
    # two GL(1,5) triples pair inside GL(2,5), |GL(2,5)| = 480; uncached
    # calls check the cap even if GL(2,5) is already built
    t = enumerate_triples(gl_group(1, 5))[0]
    monkeypatch.setenv("PSHLAB_MAX_GROUP_ORDER", "10")
    monkeypatch.setattr(glfq, "gl_group", gl_group.__wrapped__)
    with pytest.raises(ResourceWarning):
        pair_triple(t, t, 5)


def test_hopflike_runs_and_reports():
    report = verify_hopflike(2, 2)
    assert report["pass"]
    assert report["generator_pairs"] >= 1
    assert report["equal_pairs"] == report["generator_pairs"]
    for finding in report["findings"]:
        assert "equal" in finding


def test_enumerate_subgroup_chars_center():
    G = gl_group(2, 3)
    Z = set(G.subgroups["Z"])
    for sc in enumerate_subgroup_chars(G):
        assert Z <= set(sc.indices)


def test_triple_serialization():
    G = gl_group(2, 2)
    t = enumerate_triples(G)[0]
    blob = t.to_json(coeff=1)
    assert set(blob) == {"source", "g", "target", "coeff"}
    assert blob["source"].keys() == {"subgroup", "chi"}


def test_equal_triples_at_different_conductors_collapse():
    # GL(1,4) character values are cube roots of unity; lifted to
    # conductor 6 they are the same values written differently
    G = gl_group(1, 4)
    whole = range(G.order)
    chi = next(c for c in linear_characters(G, whole)
               if any(isinstance(v, Cyclo) for v in c.values()))
    lifted = {i: v.lift(6) if isinstance(v, Cyclo) else v
              for i, v in chi.items()}
    s3, s6 = SubgroupChar(G, whole, chi), SubgroupChar(G, whole, lifted)
    t3 = HeckeTriple(s3, G.identity_idx, s3, check=False)
    t6 = HeckeTriple(s6, G.identity_idx, s6, check=False)
    assert t3 == t6 and hash(t3) == hash(t6)
    both = HeckeElement([(t3, 1), (t6, 1)])
    assert len(both.terms) == 1
    assert both == HeckeElement([(t3, 2)])


# -- brute-force oracles for the table-driven normal forms --------------------

def brute_normalize(coeff, t):
    """normalize by enumerating the whole H g K double coset."""
    amb = t.amb
    k_set = set(t.source.indices)
    g0 = min(amb.mul(amb.mul(h, t.g), k)
             for h in t.target.indices for k in t.source.indices)
    if g0 == t.g:
        return coeff, t
    for h in t.target.indices:
        k = amb.mul(amb.inv(amb.mul(h, g0)), t.g)
        if k in k_set:
            factor = inverse(t.target.chi[h]) * inverse(t.source.chi[k])
            return coeff * factor, HeckeTriple(t.source, g0, t.target,
                                               check=False)
    raise AssertionError("double coset member without a factorization")


def rewrite_scalars(t, g0):
    """phi(h)^-1 psi(k)^-1 for every factorization t.g = h g0 k."""
    amb = t.amb
    return [inverse(t.target.chi[h]) * inverse(t.source.chi[k])
            for h in t.target.indices for k in t.source.indices
            if amb.mul(amb.mul(h, g0), k) == t.g]


def brute_module_basis(sc):
    amb = sc.amb
    return sorted({min(amb.mul(g, k) for k in sc.indices)
                   for g in range(amb.order)})


def brute_reduce(sc, g):
    amb = sc.amb
    members = {amb.mul(g, k): k for k in sc.indices}
    rep = min(members)
    return rep, inverse(sc.chi[members[rep]])


def test_normalize_matches_brute_force_gl22_with_rewrites():
    G = gl_group(2, 2)
    cases = 0
    for t in enumerate_triples(G):
        assert normalize(1, t) == brute_normalize(1, t)
        for h in t.target.indices:
            for k in t.source.indices:
                raw = HeckeTriple(t.source, G.mul(G.mul(h, t.g), k),
                                  t.target, check=False)
                assert normalize(1, raw) == brute_normalize(1, raw)
                cases += 1
    assert cases > 0
    # raw triples whose g breaks containment or the character match
    chars = enumerate_subgroup_chars(G)
    agreeing, mismatched = 0, 0
    for target in chars:
        for source in chars:
            for g in range(G.order):
                raw = HeckeTriple(source, g, target, check=False)
                got, want = normalize(5, raw), brute_normalize(5, raw)
                try:
                    _meet(source, g, target)
                except CharacterMismatchError:
                    # the relations fix no scalar, so any factorization's
                    # scalar is a right answer
                    assert got[1] == want[1]
                    assert any(got[0] == 5 * c
                               for c in rewrite_scalars(raw, want[1].g))
                    mismatched += 1
                else:
                    assert got == want
                    agreeing += 1
    assert (agreeing, mismatched) == (218, 76)


def test_normalize_matches_brute_force_gl23():
    G = gl_group(2, 3)
    triples = enumerate_triples(G)
    assert triples
    for t in triples:
        assert normalize(1, t) == brute_normalize(1, t)


def test_enumerate_triples_matches_double_cosets():
    G = gl_group(2, 3)
    expected = []
    chars = enumerate_subgroup_chars(G)
    for target in chars:
        for source in chars:
            for g, _ in G.double_cosets(target.indices, source.indices):
                try:
                    expected.append(HeckeTriple(source, g, target))
                except TripleError:
                    continue
    assert list(enumerate_triples(G)) == expected


def test_coset_reductions_match_brute_force_gl23():
    G = gl_group(2, 3)
    for sc in enumerate_subgroup_chars(G):
        assert module_basis(sc) == brute_module_basis(sc)
        least, _, k = _left_cosets(sc.sub)
        for g in range(G.order):
            assert (least[g], sc.chi[k[g]]) == brute_reduce(sc, g)


# -- oracles for the characters carried along maps ---------------------------
# the loop-per-case versions that _pullback, _image, _meet and _pair replaced

def outcome(fn, *args):
    """fn(*args), or the type of the error it raised."""
    try:
        return fn(*args)
    except (TripleError, AssertionError) as exc:
        return type(exc)


def brute_blocks(G, n, a):
    from pshlab.glfq import block_diagonal, diagonal_blocks
    if a == 0 or a == n:
        return list(range(G.order)), [G.identity_idx], lambda mat: mat
    p_indices = sorted(G.subgroups[f"P({a},{n - a})"])
    u_indices = sorted(G.subgroups[f"U({a},{n - a})"])

    def project(mat):
        return block_diagonal(*diagonal_blocks(mat, a))

    return p_indices, u_indices, project


def brute_coproduct_component(t, a, z):
    G = t.amb
    n = len(G.elements[0])
    p_indices, u_indices, project = brute_blocks(G, n, a)
    w = G.mul(z, G.inv(t.g))
    winv = G.inv(w)
    zinv = G.inv(z)
    h_set = set(t.target.indices)
    k_set = set(t.source.indices)
    hbar = []
    phibar = {}
    for p in p_indices:
        h = G.mul(G.mul(winv, p), w)
        if h in h_set:
            hbar.append(p)
            phibar[p] = t.target.chi[h]
    for u in u_indices:
        if u in phibar and phibar[u] != 1:
            return None
    kbar = []
    psibar = {}
    for p in hbar:
        k = G.mul(G.mul(zinv, p), z)
        if k in k_set:
            kbar.append(p)
            psibar[p] = t.source.chi[k]
    for u in u_indices:
        if u in psibar and psibar[u] != 1:
            raise AssertionError("source character nontrivial on U")

    def quotient(indices, chi):
        q_indices = []
        q_chi = {}
        for p in indices:
            idx = G.index[project(G.elements[p])]
            if idx in q_chi:
                if q_chi[idx] != chi[p]:
                    raise AssertionError("character not constant on U-fibres")
            else:
                q_indices.append(idx)
                q_chi[idx] = chi[p]
        return SubgroupChar(G, q_indices, q_chi, check=False)

    source = quotient(kbar, psibar)
    target = quotient(hbar, phibar)
    return HeckeTriple(source, G.identity_idx, target)


def brute_pair_triple(t1, t2, q):
    from pshlab.glfq import block_diagonal
    G1, G2 = t1.amb, t2.amb
    amb = gl_group(len(G1.elements[0]) + len(G2.elements[0]), q)

    def embed_sc(s1, s2):
        indices = []
        chi = {}
        for i in s1.indices:
            for j in s2.indices:
                idx = amb.index[block_diagonal(G1.elements[i],
                                               G2.elements[j])]
                indices.append(idx)
                chi[idx] = s1.chi[i] * s2.chi[j]
        return SubgroupChar(amb, indices, chi, check=False)

    g = amb.index[block_diagonal(G1.elements[t1.g], G2.elements[t2.g])]
    return HeckeTriple(embed_sc(t1.source, t2.source), g,
                       embed_sc(t1.target, t2.target))


def brute_graded_product(t1, t2, q):
    from pshlab.glfq import block_diagonal, diagonal_blocks
    G1, G2 = t1.amb, t2.amb
    n = len(G1.elements[0])
    m = len(G2.elements[0])
    G = gl_group(n + m, q)
    p_indices = sorted(G.subgroups[f"P({n},{m})"])

    def inflate_sc(s1, s2):
        k1 = {G1.elements[i] for i in s1.indices}
        k2 = {G2.elements[i] for i in s2.indices}
        indices = []
        chi = {}
        for p in p_indices:
            x, y = diagonal_blocks(G.elements[p], n)
            if x in k1 and y in k2:
                indices.append(p)
                chi[p] = (s1.chi[G1.index[x]] * s2.chi[G2.index[y]])
        return SubgroupChar(amb=G, indices=indices, chi=chi, check=False)

    g = G.index[block_diagonal(G1.elements[t1.g], G2.elements[t2.g])]
    return HeckeTriple(inflate_sc(t1.source, t2.source), g,
                       inflate_sc(t1.target, t2.target))


def brute_apply_triple(t, vec):
    amb = t.amb
    ginv = amb.inv(t.g)
    h_set = set(t.target.indices)
    meet = []
    for k in t.source.indices:
        h = amb.mul(amb.mul(t.g, k), ginv)
        if h in h_set:
            if t.source.chi[k] != t.target.chi[h]:
                raise CharacterMismatchError("characters disagree")
            meet.append(k)
    coset_reps = []
    seen: set = set()
    for x in t.source.indices:
        if x in seen:
            continue
        coset_reps.append(x)
        for d in meet:
            seen.add(amb.mul(x, d))
    out: dict = {}
    for rep, c in vec.items():
        for x in coset_reps:
            rep2, twist = brute_reduce(t.target,
                                       amb.mul(amb.mul(rep, x), ginv))
            out[rep2] = out.get(rep2, 0) + c * inverse(t.source.chi[x]) * twist
    return {k: v for k, v in out.items() if v != 0}


def fibre_breaking_triple():
    """A raw GL(2,3) triple on the Borel subgroup whose character is 1 on
    U but not constant on one U-coset, so only the fibre check stops it."""
    G = gl_group(2, 3)
    B = sorted(G.subgroups["B"])
    b0 = next(b for b in B if b not in G.subgroups["U(1,1)"])
    sc = SubgroupChar(G, B, {b: -1 if b == b0 else 1 for b in B},
                      check=False)
    return HeckeTriple(sc, G.identity_idx, sc, check=False)


def test_coproduct_components_match_oracle():
    cases = 0
    for q in (2, 3):
        G = gl_group(2, q)
        triples = list(enumerate_triples(G))
        if q == 3:
            triples.append(fibre_breaking_triple())
        for t in triples:
            for a in (0, 1, 2):
                p_indices = brute_blocks(G, 2, a)[0]
                for _, members in G.double_cosets(p_indices,
                                                  t.source.indices):
                    for z in members:
                        assert outcome(_coproduct_component, t, a, z) \
                            == outcome(brute_coproduct_component, t, a, z)
                        cases += 1
    assert cases == 612 + 10656 + 3 * 48


def test_fibre_check_rejects_a_character_not_constant_on_fibres():
    t = fibre_breaking_triple()
    with pytest.raises(AssertionError):
        _coproduct_component(t, 1, t.g)


def gl1_generators(q):
    """The generator triples of GL(1,q), and every triple g on one linear
    character of the whole (abelian) group."""
    G = gl_group(1, q)
    out = list(enumerate_triples(G))
    for chi in linear_characters(G, range(G.order)):
        sc = SubgroupChar(G, range(G.order), chi)
        out += [HeckeTriple(sc, g, sc) for g in range(G.order)]
    return out


def test_block_products_match_oracle():
    for q in (2, 3, 4, 5):
        gens = gl1_generators(q)
        for t1 in gens:
            for t2 in gens:
                assert graded_product(t1, t2, q) \
                    == brute_graded_product(t1, t2, q)
                assert pair_triple(t1, t2, q) == brute_pair_triple(t1, t2, q)


def test_apply_triple_matches_oracle_gl22():
    G = gl_group(2, 2)
    for t in enumerate_triples(G):
        for rep in module_basis(t.source):
            assert apply_triple(t, {rep: 1}) \
                == brute_apply_triple(t, {rep: 1})
    # raw triples: every g, valid or not, between every pair of
    # subgroup characters
    chars = enumerate_subgroup_chars(G)
    for target in chars:
        for source in chars:
            vec = {rep: 2 for rep in module_basis(source)}
            for g in range(G.order):
                raw = HeckeTriple(source, g, target, check=False)
                assert outcome(apply_triple, raw, vec) \
                    == outcome(brute_apply_triple, raw, vec)


# -- the table of basis products the verifiers read ---------------------------

@pytest.mark.parametrize("q,composable", [(2, 188), (3, 1568)])
def test_product_table_matches_element_product(q, composable):
    G = gl_group(2, q)
    triples = enumerate_triples(G)
    index, table = _product_table(triples)
    # every composable product lands on an enumerated triple
    assert len(index) == len(triples)
    pairs, basis_vectors = 0, 0
    for i, t1 in enumerate(triples):
        for j, t2 in enumerate(triples):
            entry = table[i][j]
            got = (HeckeElement() if entry is None
                   else HeckeElement([(index[entry[0]], entry[1])]))
            assert got == element_product(HeckeElement([(t1, 1)]),
                                          HeckeElement([(t2, 1)]))
            if t2.target == t1.source:
                assert entry is not None
                pairs += 1
                basis_vectors += len(module_basis(t2.source))
            else:
                assert entry is None
    assert pairs == composable
    report = verify_apply_faithful(G)
    assert report["pass"] and report["cases"] == basis_vectors
    report = verify_associativity(G)
    assert report["pass"] and report["cases"] == len(triples) ** 3


def test_product_table_appends_products_outside_a_sample():
    G = gl_group(2, 3)
    triples = _sampled_triples(G, 12)
    n = len(triples)
    index, table = _product_table(triples)
    assert tuple(index[:n]) == triples and len(index) > n
    everything = enumerate_triples(G)
    assert all(t in everything for t in index[n:])
    # a product of two listed triples, multiplied by a listed triple on
    # either side, is in the table
    products = {table[i][j][0] for i in range(n) for j in range(n)
                if table[i][j] is not None}
    assert products - set(range(n))
    for m in products:
        assert all(k in table[m] and m in table[k] for k in range(n))
    # the appended products are read, not checked
    assert verify_associativity(G, sample=12)["cases"] == n ** 3


# -- negative controls: a planted table defect must fail its verifier ---------

def fresh_gl(n, q):
    """A new table of GL(n,q) with its subgroups, so that a planted
    defect stays off the cached group."""
    G = gl_group(n, q)
    H = FiniteGroupTable(G.name, G.elements, G._mul_fn, None,
                         G.elements[G.identity_idx])
    H.subgroups = dict(G.subgroups)
    return H


def nontrivial(sc):
    return any(v != 1 for v in sc.chi.values())


def plant_wrong_h(G, target, source, y):
    """Replace the h of y in the double-coset table of target and source
    by another member of target whose character value differs, so the
    entry no longer factors y."""
    h = G.double_coset_table(target.sub, source.sub)[1]
    h[y] = next(x for x in target.indices
                if target.chi[x] != target.chi[h[y]])


def test_wrong_factor_fails_normal_form(monkeypatch):
    # each verifier call enumerates afresh, so that the planted least
    # member below reaches the enumeration as well
    monkeypatch.setattr(hyperhecke, "enumerate_triples",
                        enumerate_triples.__wrapped__)
    G = fresh_gl(2, 2)
    assert verify_normal_form(G)["pass"]
    t = next(t for t in enumerate_triples(G) if nontrivial(t.target))
    rep = G.double_coset_table(t.target.sub, t.source.sub)[0]
    y = next(y for y in range(G.order) if rep[y] == t.g and y != t.g)
    plant_wrong_h(G, t.target, t.source, y)
    report = verify_normal_form(G)
    assert {f["kind"] for f in report["failures"]} == {"orbit"}
    # a wrong least member breaks idempotence
    rep[t.g] = y
    report = verify_normal_form(G)
    assert "idempotence" in {f["kind"] for f in report["failures"]}


def normal_form_by_products(G, sample=None):
    """verify_normal_form with each rewrite h g k formed by two products
    and built as its own factor phi(h)^-1 psi(k)^-1: the report the
    right-action arrays must reproduce."""
    triples = _sampled_triples(G, sample)
    cases = 0
    failures = []
    for t in triples:
        s0, t0 = normalize(1, t)
        s1, t1 = normalize(s0, t0)
        cases += 1
        if (s1, t1) != (s0, t0):
            failures.append({"triple": repr(t), "kind": "idempotence"})
        for h in t.target.indices:
            for k in t.source.indices:
                g2 = G.mul(G.mul(h, t.g), k)
                factor = inverse(t.target.chi[h]) * inverse(t.source.chi[k])
                s2, t2 = normalize(1, HeckeTriple(t.source, g2, t.target,
                                                  check=False))
                cases += 1
                if t2 != t0 or s2 != factor * s0:
                    failures.append({"triple": repr(t), "kind": "orbit",
                                     "h": h, "k": k})
    return {"check": "normal-form", "group": G.name, "cases": cases,
            "failures": failures, "pass": not failures}


@pytest.mark.parametrize("q, cases", [(2, 228), (3, 7434)])
def test_normal_form_matches_the_product_oracle(q, cases, monkeypatch):
    monkeypatch.setattr(hyperhecke, "enumerate_triples",
                        enumerate_triples.__wrapped__)  # as above
    G = fresh_gl(2, q)

    def full_report():
        assert (verify_normal_form(G, sample=12)
                == normal_form_by_products(G, sample=12))
        report = verify_normal_form(G)
        assert report == normal_form_by_products(G)
        return report

    report = full_report()
    assert report["pass"] and report["cases"] == cases
    t = next(t for t in enumerate_triples(G) if nontrivial(t.target))
    rep = G.double_coset_table(t.target.sub, t.source.sub)[0]
    y = next(y for y in range(G.order) if rep[y] == t.g and y != t.g)
    plant_wrong_h(G, t.target, t.source, y)
    assert {f["kind"] for f in full_report()["failures"]} == {"orbit"}
    # a wrong least member breaks idempotence, and changes the triples
    rep[t.g] = y
    assert "idempotence" in {f["kind"] for f in full_report()["failures"]}


def test_normal_form_gl32():
    # GL(3,2) is the only degree-3 group the hyperHecke verifiers run on
    report = verify_normal_form(gl_group(3, 2))
    assert report["pass"] and report["cases"] == 55732


def test_apply_faithful_gl32():
    # the whole sweep, injectivity included: about 5 s of CPU time on a
    # 2-vCPU host, bounded at 10 s of this process's CPU time
    start = time.process_time()
    report = verify_apply_faithful(gl_group(3, 2))
    assert time.process_time() - start < 10
    assert report["cases"] == 23_014_881
    assert report["pass"] and report["failures"] == []


def test_hecke_sweep_spans_each_subgroup_and_group_once(monkeypatch):
    # the verifier calls of one hecke-sweep pass, on fresh GL(2,2) and
    # GL(2,3) tables: each Subgroup is spanned by its closure check only,
    # and each group's triples are enumerated once
    spans, built, enumerated = Counter(), Counter(), Counter()
    real_span, real_init = FiniteGroupTable.small_generators, Subgroup.__init__
    real_chars = hyperhecke.enumerate_subgroup_chars

    def counted_span(self, indices):
        spans[id(self), frozenset(indices)] += 1
        return real_span(self, indices)

    def counted_init(self, amb, indices):
        built[id(amb), frozenset(indices)] += 1
        real_init(self, amb, indices)

    def counted_chars(G):
        enumerated[id(G)] += 1
        return real_chars(G)

    monkeypatch.setattr(FiniteGroupTable, "small_generators", counted_span)
    monkeypatch.setattr(Subgroup, "__init__", counted_init)
    monkeypatch.setattr(hyperhecke, "enumerate_subgroup_chars", counted_chars)
    for G, sample in ((fresh_gl(2, 2), None), (fresh_gl(2, 3), 12)):
        assert verify_normal_form(G)["pass"]
        assert verify_associativity(G, sample=sample)["pass"]
        assert verify_apply_faithful(G)["pass"]
    for q in (2, 3, 4, 5):
        verify_hopflike(2, q)
    assert built and spans == built
    assert enumerated and set(enumerated.values()) == {1}


def test_verifiers_build_one_character_table_per_subgroup(monkeypatch):
    from pshlab import dixon
    G = fresh_gl(2, 3)
    built = []
    real = dixon.dixon_character_table

    def counted(T):
        built.append(sorted(G.index[e] for e in T.elements))
        return real(T)

    monkeypatch.setattr(dixon, "dixon_character_table", counted)
    verify_normal_form(G, sample=12)
    verify_associativity(G, sample=12)
    verify_apply_faithful(G, sample=12)
    center = G.subgroups["Z"]
    subgroups = {frozenset(range(G.order))} | {
        frozenset(s) for s in G.subgroups.values() if center <= s}
    assert sorted(built) == sorted(sorted(s) for s in subgroups)


def plant_wrong_twist(G):
    """Replace the k of one element in the left-coset table of a subgroup
    with a nontrivial character by a member whose value differs."""
    sc = next(sc for sc in enumerate_subgroup_chars(G) if nontrivial(sc))
    _, _, k = G.double_coset_table(G.subgroup([G.identity_idx]), sc.sub)
    y = next(y for y in range(G.order) if k[y] != G.identity_idx)
    k[y] = next(x for x in sc.indices if sc.chi[x] != sc.chi[k[y]])


def test_wrong_twist_fails_apply_faithful():
    G = fresh_gl(2, 2)
    assert verify_apply_faithful(G)["pass"]
    plant_wrong_twist(G)
    report = verify_apply_faithful(G)
    assert not report["pass"]
    assert {f["kind"] for f in report["failures"]} == {"faithfulness"}


def test_wrong_twist_fails_apply_faithful_gl23():
    # each column is computed once and read by many cases, so a defect in
    # one column must still show
    G = fresh_gl(2, 3)
    assert verify_apply_faithful(G)["pass"]
    plant_wrong_twist(G)
    report = verify_apply_faithful(G)
    assert not report["pass"]
    assert {f["kind"] for f in report["failures"]} == {"faithfulness"}


def test_shared_support_fails_apply_faithful(monkeypatch):
    # two triples of one (source, target) pair, source != target, so that
    # neither composes with the other: only the injectivity check reads
    # them when they are the whole sweep
    G = gl_group(2, 2)
    triples = enumerate_triples(G)
    ta, tb = next((a, b) for a in triples for b in triples
                  if a != b and a.source == b.source != a.target == b.target)
    monkeypatch.setattr(hyperhecke, "enumerate_triples", lambda G: [ta, tb])
    report = verify_apply_faithful(G)
    assert report["pass"] and report["cases"] == 0
    real = hyperhecke._columns
    monkeypatch.setattr(hyperhecke, "_columns",
                        lambda t: real(ta if t == tb else t))
    report = verify_apply_faithful(G)
    assert not report["pass"]
    assert {f["kind"] for f in report["failures"]} == {"overlap"}
    assert {tuple(f["triples"]) for f in report["failures"]} == {(0, 1)}


@pytest.mark.parametrize("terms", [0, 2])
def test_column_not_one_term_fails_apply_faithful(monkeypatch, terms):
    # a column with no term or two terms is reported as such; the
    # compositions that read it are counted but not compared
    G = gl_group(2, 2)
    victim = enumerate_triples(G)[0]
    real = hyperhecke._columns

    def planted(t):
        columns = real(t)
        if t == victim:
            rep = min(columns)
            image = next(iter(columns[rep]))
            others = [y for y in module_basis(t.target) if y != image]
            columns[rep] = {y: 1 for y in [image, *others][:terms]}
        return columns

    monkeypatch.setattr(hyperhecke, "_columns", planted)
    report = verify_apply_faithful(G)
    assert not report["pass"] and report["cases"] == 1034
    assert {f["kind"] for f in report["failures"]} == {"column"}
    assert [f["triple"] for f in report["failures"]] == [0]


def plant_wrong_product_scalar(G, triples):
    """Plant a wrong h for one composable product t1 t2 of the triples
    whose g = g1 g2 is not the least of its double coset, so normalize
    reads that h."""
    for t1 in triples:
        for t2 in triples:
            g = G.mul(t1.g, t2.g)
            rep = G.double_coset_table(t1.target.sub, t2.source.sub)[0]
            if (t2.target == t1.source and rep[g] != g
                    and nontrivial(t1.target)):
                plant_wrong_h(G, t1.target, t2.source, g)
                return
    raise AssertionError("no composable product to plant a scalar in")


def test_wrong_product_scalar_fails_associativity():
    G = fresh_gl(2, 2)
    assert verify_associativity(G, sample=8)["pass"]
    plant_wrong_product_scalar(G, _sampled_triples(G, 8))
    report = verify_associativity(G, sample=8)
    assert not report["pass"]
    assert {f["kind"] for f in report["failures"]} == {"associativity"}


def test_wrong_product_scalar_fails_full_associativity():
    G = fresh_gl(2, 2)
    assert verify_associativity(G)["pass"]
    plant_wrong_product_scalar(G, enumerate_triples(G))
    report = verify_associativity(G)
    assert not report["pass"]
    assert {f["kind"] for f in report["failures"]} == {"associativity"}
    report = verify_apply_faithful(G)
    assert not report["pass"]
    assert {f["kind"] for f in report["failures"]} == {"faithfulness"}


def test_wrong_scalar_in_a_returned_pair_fails_both_verifiers(monkeypatch):
    # hecke_product's pair, its scalar doubled for one composable pair
    G = gl_group(2, 2)
    triples = enumerate_triples(G)
    t1, t2 = next((a, b) for a in triples for b in triples
                  if b.target == a.source and a != b)
    real = hyperhecke.hecke_product

    def planted(a, b):
        prod = real(a, b)
        if a == t1 and b == t2:
            return 2 * prod[0], prod[1]
        return prod

    monkeypatch.setattr(hyperhecke, "hecke_product", planted)
    report = verify_associativity(G)
    assert not report["pass"]
    assert {f["kind"] for f in report["failures"]} == {"associativity"}
    report = verify_apply_faithful(G)
    assert not report["pass"]
    assert {f["kind"] for f in report["failures"]} == {"faithfulness"}


def test_nonzero_product_of_a_noncomposable_pair_fails_associativity(
        monkeypatch):
    # the zero cases are compared too, not assumed
    G = gl_group(2, 2)
    triples = enumerate_triples(G)
    t1, t2 = next((a, b) for a in triples for b in triples
                  if b.target != a.source)
    real = hyperhecke.hecke_product

    def planted(a, b):
        if a == t1 and b == t2:
            return normalize(1, HeckeTriple(b.source, G.mul(a.g, b.g),
                                            a.target, check=False))
        return real(a, b)

    monkeypatch.setattr(hyperhecke, "hecke_product", planted)
    report = verify_associativity(G)
    assert not report["pass"]
    assert {f["kind"] for f in report["failures"]} == {"associativity"}


def test_coproduct_check_survives_optimize():
    code = ("from pshlab import hyperhecke\n"
            "from pshlab.glfq import gl_group\n"
            "t = hyperhecke.enumerate_triples(gl_group(2, 2))[0]\n"
            "hyperhecke._coproduct_component = lambda *args: None\n"
            "try:\n"
            "    hyperhecke.coproduct(t, 0)\n"
            "except AssertionError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
