"""An algebra of triples [(K, psi), g, (H, phi)] over a finite matrix
group: K and H are subgroups carrying linear characters, g is a group
element with K inside g^-1 H g and psi = phi after conjugation.

Triples act on induced modules by g' (x)_K v -> g' g^-1 (x)_H v, compose
by matching the middle pair, and normalize by moving g to the least
element g0 of its H-g-K double coset while the scalar absorbs character
values.  Both read the group's double-coset tables, which factor every
element as g = h g0 k: normal forms the (H, K) table, and the twist of a
module vector the ({1}, K) table.  The module also provides the block
product into a larger general linear group, the parabolic-restriction
coproduct, and an exploratory check of their compatibility.  The pair of
two triples and each coproduct component are triples of GL_{a+b} itself,
on its block-diagonal Levi subgroup GL_a x GL_b.

The associativity and faithfulness verifiers read one table of basis
products, each pair of triples multiplied once through hecke_product.
The faithfulness verifier reads each triple's operator once as a
monomial map, each basis vector to one scalar times one basis vector,
and composes two operators by lookups.
"""

from __future__ import annotations

from .cyclo import inverse, scalar, scalar_json
from .groups import FiniteGroupTable
from .symgroup import kmatrix_solutions

__all__ = ["SubgroupChar", "HeckeTriple", "HeckeElement", "TripleError",
           "ContainmentError", "CharacterMismatchError", "normalize",
           "hecke_product", "element_product", "apply_triple",
           "module_basis", "graded_product", "pair_triple",
           "coproduct", "coproduct_well_defined", "subgroup_characters",
           "linear_characters", "enumerate_subgroup_chars",
           "enumerate_triples", "verify_normal_form", "verify_associativity",
           "verify_apply_faithful", "verify_hopflike"]


class TripleError(ValueError):
    pass


class ContainmentError(TripleError):
    pass


class CharacterMismatchError(TripleError):
    pass


def subgroup_characters(G: FiniteGroupTable, indices):
    """Every irreducible character of the subgroup, in the order of its
    character table, as a map from ambient element index to value; the
    whole group reads G's own table."""
    indices = sorted(indices)
    sub = (G if indices == list(range(G.order))
           else G.subgroup(indices, f"{G.name}|sub{len(indices)}"))
    return [{indices[i]: chi.values[sub.class_of(i)]
             for i in range(sub.order)} for chi in sub.character_table()]


def linear_characters(G: FiniteGroupTable, indices):
    """Degree-one characters of the subgroup, as maps from ambient
    element index to value."""
    return [chi for chi in subgroup_characters(G, indices)
            if chi[G.identity_idx] == 1]


class SubgroupChar:
    """A subgroup of the ambient group together with a linear character,
    the character stored as value per ambient element index (exactly
    the subgroup's indices are keys)."""

    __slots__ = ("amb", "indices", "chi")

    def __init__(self, amb: FiniteGroupTable, indices, chi: dict,
                 check: bool = True):
        object.__setattr__(self, "amb", amb)
        object.__setattr__(self, "indices", tuple(sorted(indices)))
        object.__setattr__(self, "chi",
                           {i: scalar(chi[i]) for i in self.indices})
        if check:
            self.validate()

    def __setattr__(self, *a):
        raise AttributeError("SubgroupChar is immutable")

    def validate(self):
        amb = self.amb
        members = set(self.indices)
        if amb.identity_idx not in members:
            raise TripleError("subgroup misses the identity")
        if self.chi[amb.identity_idx] != 1:
            raise TripleError("character must be 1 at the identity")
        for x in self.indices:
            for y in self.indices:
                z = amb.mul(x, y)
                if z not in members:
                    raise TripleError("index set not closed")
                if self.chi[z] != self.chi[x] * self.chi[y]:
                    raise TripleError("character is not a homomorphism")

    def _key(self):
        """Sort key for serialization; not a hash, because the text of a
        value depends on its conductor."""
        return (self.amb.name, self.indices,
                tuple(str(self.chi[i]) for i in self.indices))

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, SubgroupChar)
                and self.amb is other.amb
                and self.indices == other.indices
                and all(self.chi[i] == other.chi[i] for i in self.indices))

    def __hash__(self):
        return hash((self.amb, self.indices))

    def __repr__(self):
        return f"SubgroupChar({self.amb.name}, |H|={len(self.indices)})"

    def to_json(self):
        return {"subgroup": [self.amb.elements[i] for i in self.indices],
                "chi": [scalar_json(self.chi[i]) for i in self.indices]}


class HeckeTriple:
    """[(K, psi), g, (H, phi)] with K <= g^-1 H g and psi = phi after
    conjugation by g."""

    __slots__ = ("source", "g", "target")

    def __init__(self, source: SubgroupChar, g: int, target: SubgroupChar,
                 check: bool = True):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "target", target)
        if check and len(_meet(source, g, target)) < len(source.indices):
            raise ContainmentError("source is not inside g^-1 target g")

    def __setattr__(self, *a):
        raise AttributeError("HeckeTriple is immutable")

    @property
    def amb(self):
        return self.source.amb

    def _key(self):
        return (self.source._key(), self.g, self.target._key())

    def __eq__(self, other):
        return (isinstance(other, HeckeTriple)
                and self.source == other.source and self.g == other.g
                and self.target == other.target)

    def __hash__(self):
        return hash((self.source, self.g, self.target))

    def __repr__(self):
        return (f"HeckeTriple(|K|={len(self.source.indices)}, g={self.g}, "
                f"|H|={len(self.target.indices)})")

    def to_json(self, coeff=1):
        return {"source": self.source.to_json(),
                "g": self.amb.elements[self.g],
                "target": self.target.to_json(),
                "coeff": scalar_json(coeff)}


# -- carrying subgroup characters along maps ---------------------------------

def _pullback(domain, f, chi) -> dict:
    """chi carried back along the index map f: the value chi[f(i)] at each
    i of domain with f(i) in the support of chi."""
    out = {}
    for i in domain:
        j = f(i)
        if j in chi:
            out[i] = chi[j]
    return out


def _image(amb: FiniteGroupTable, chi: dict, f) -> SubgroupChar:
    """chi carried forward along the index map f into amb; the values on
    each fibre of f must agree."""
    out: dict = {}
    for i, v in chi.items():
        if out.setdefault(f(i), v) != v:
            raise AssertionError("character not constant on the fibres")
    return SubgroupChar(amb, out, out, check=False)


def _meet(source: SubgroupChar, g: int, target: SubgroupChar) -> list:
    """The elements k of the source subgroup with g k g^-1 in the target,
    ascending; the two characters must agree there."""
    amb = source.amb
    ginv = amb.inv(g)
    out = []
    for k in source.indices:
        h = amb.mul(amb.mul(g, k), ginv)
        if h in target.chi:
            if source.chi[k] != target.chi[h]:
                raise CharacterMismatchError(
                    f"character values disagree at element {k}")
            out.append(k)
    return out


def normalize(coeff, t: HeckeTriple):
    """Move g to the least element g0 of its target-g-source double coset;
    with g = h g0 k read from the group's double-coset table, the
    coefficient picks up phi(h)^-1 psi(k)^-1 from the rewriting
    relations.  Idempotent, and constant on the rewrite orbit of the triple."""
    rep, h, k = t.amb.double_coset_table(t.target.indices, t.source.indices)
    g0 = rep[t.g]
    if g0 == t.g:
        return coeff, t
    factor = inverse(t.target.chi[h[t.g]]) * inverse(t.source.chi[k[t.g]])
    return coeff * factor, HeckeTriple(t.source, g0, t.target, check=False)


class HeckeElement:
    """Finitely supported combination of normalized triples."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        collected: dict = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for t, c in items:
            c, t = normalize(c, t)
            prev = collected.get(t, 0)
            collected[t] = prev + c
        clean = {}
        for t, c in collected.items():
            c = scalar(c)
            if c != 0:
                clean[t] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("HeckeElement is immutable")

    @staticmethod
    def of(t: HeckeTriple, coeff=1) -> "HeckeElement":
        return HeckeElement([(t, coeff)])

    def __add__(self, other):
        return HeckeElement(list(self.terms.items())
                            + list(other.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, HeckeElement):
            return NotImplemented
        if set(self.terms) != set(other.terms):
            return False
        return all(self.terms[t] == other.terms[t] for t in self.terms)

    def __hash__(self):
        return hash(frozenset(self.terms))

    def __repr__(self):
        return f"HeckeElement({len(self.terms)} terms)"

    def to_json(self):
        return [t.to_json(c) for t, c in sorted(
            self.terms.items(), key=lambda item: item[0]._key())]


def hecke_product(t1: HeckeTriple, t2: HeckeTriple) -> HeckeElement:
    """t1 composed after t2: nonzero only when t2's target pair equals
    t1's source pair exactly."""
    if t2.target != t1.source:
        return HeckeElement()
    amb = t1.amb
    out = HeckeTriple(t2.source, amb.mul(t1.g, t2.g), t1.target,
                      check=False)
    return HeckeElement.of(out)


def element_product(e1: HeckeElement, e2: HeckeElement) -> HeckeElement:
    terms = []
    for t1, c1 in e1.terms.items():
        for t2, c2 in e2.terms.items():
            prod = hecke_product(t1, t2)
            for t, c in prod.terms.items():
                terms.append((t, c1 * c2 * c))
    return HeckeElement(terms)


# -- induced modules ---------------------------------------------------------

def _left_cosets(sc: SubgroupChar):
    """The double-coset table of {1} and K: the least element rep[g] of
    each left coset gK, and k[g] in K with g = rep[g] k[g]."""
    amb = sc.amb
    return amb.double_coset_table((amb.identity_idx,), sc.indices)


def module_basis(sc: SubgroupChar):
    """Canonical (least-element) representatives of the left cosets of
    the subgroup."""
    return sorted(set(_left_cosets(sc)[0]))


def apply_triple(t: HeckeTriple, vec: dict) -> dict:
    """Map between induced modules; vec maps canonical source-coset
    representatives to coefficients.

    On a valid triple this is g' (x) v -> g' g^-1 (x) v.  The same
    formula extends to raw triples (built with check=False) as the
    double-coset operator: a psi-weighted sum over K / (K meet g^-1 H g),
    which collapses to the single term above when the triple is valid and
    recovers the classical Hecke operator for (B, w, B)."""
    columns = _columns(t)
    out: dict = {}
    for x, a in vec.items():
        for key, v in columns[x].items():
            out[key] = out.get(key, 0) + a * v
    return {k: v for k, v in out.items() if v != 0}


def _columns(t: HeckeTriple) -> dict:
    """The matrix of apply_triple(t, -): the image of each source basis
    vector rep, a sum of psi(x)^-1 rep x g^-1 (x) v over the least
    representatives x of the left cosets of K meet g^-1 H g in K.  Each
    image g' = least h, with least the least element of g' H and h in H,
    so g' (x) v = least (x) phi(h) v for phi the target's character."""
    amb = t.amb
    least_meet = amb.double_coset_table((amb.identity_idx,),
                                        _meet(t.source, t.g, t.target))[0]
    coset_reps = sorted({least_meet[x] for x in t.source.indices})
    ginv = amb.inv(t.g)
    pairs = [(amb.right(amb.mul(x, ginv)), inverse(t.source.chi[x]))
             for x in coset_reps]
    least, _, h_of = _left_cosets(t.target)
    chi = t.target.chi
    columns = {}
    for rep in module_basis(t.source):
        out: dict = {}
        for move, psi_inv in pairs:
            g = move[rep]
            out[least[g]] = out.get(least[g], 0) + psi_inv * chi[h_of[g]]
        columns[rep] = {k: v for k, v in out.items() if v != 0}
    return columns


# -- graded product and coproduct --------------------------------------------

def _pair(amb: FiniteGroupTable, s1: SubgroupChar,
          s2: SubgroupChar) -> SubgroupChar:
    """The product character of s1 and s2 on their block-diagonal product
    inside amb, a general linear group of the summed degree."""
    from .glfq import block_diagonal
    G1, G2 = s1.amb, s2.amb
    chi = {amb.index[block_diagonal(G1.elements[i], G2.elements[j])]:
           s1.chi[i] * s2.chi[j] for i in s1.indices for j in s2.indices}
    return SubgroupChar(amb, chi, chi, check=False)


def pair_triple(t1: HeckeTriple, t2: HeckeTriple, q: int) -> HeckeTriple:
    """Direct-product triple of two triples, on the block-diagonal Levi
    subgroup GL_n x GL_m of GL_{n+m} (no unipotent inflation)."""
    from .glfq import block_diagonal, gl_group
    G1, G2 = t1.amb, t2.amb
    amb = gl_group(len(G1.elements[0]) + len(G2.elements[0]), q)
    g = amb.index[block_diagonal(G1.elements[t1.g], G2.elements[t2.g])]
    return HeckeTriple(_pair(amb, t1.source, t2.source), g,
                       _pair(amb, t1.target, t2.target))


def graded_product(t1: HeckeTriple, t2: HeckeTriple, q: int) -> HeckeTriple:
    """Block product landing in GL_{n+m}: subgroups are extended by the
    unipotent radical, characters by inflation, g embeds block
    diagonally.  Validity of the result is asserted."""
    from .glfq import block_diagonal, gl_group
    G1, G2 = t1.amb, t2.amb
    n = len(G1.elements[0])
    m = len(G2.elements[0])
    G = gl_group(n + m, q)
    p_indices, _, project = _blocks(G, n + m, n)

    def inflate(s1, s2):
        chi = _pullback(p_indices, project, _pair(G, s1, s2).chi)
        return SubgroupChar(G, chi, chi, check=False)

    g = G.index[block_diagonal(G1.elements[t1.g], G2.elements[t2.g])]
    return HeckeTriple(inflate(t1.source, t2.source), g,
                       inflate(t1.target, t2.target))


def _blocks(G, n, a):
    """(P indices, U indices, and the index map sending each p in P to
    its block-diagonal part, in the Levi subgroup L(a, n-a) of G) for the
    (a, n-a) block structure; a in {0, n} degenerates to the whole group
    and the identity map."""
    from .glfq import block_diagonal, diagonal_blocks
    if a == 0 or a == n:
        p_indices, u_indices = list(range(G.order)), [G.identity_idx]
    else:
        p_indices = sorted(G.subgroups[f"P({a},{n - a})"])
        u_indices = sorted(G.subgroups[f"U({a},{n - a})"])

    def project(p):
        return G.index[block_diagonal(*diagonal_blocks(G.elements[p], a))]

    return p_indices, u_indices, project


def _coproduct_component(t: HeckeTriple, a: int, z: int):
    """The component of the coproduct contributed by one double-coset
    representative z, or None if the unipotent-triviality filter rejects
    it."""
    G = t.amb
    n = len(G.elements[0])
    p_indices, u_indices, project = _blocks(G, n, a)
    w = G.mul(z, G.inv(t.g))
    winv = G.inv(w)
    zinv = G.inv(z)
    # target side: P meet w H w^-1 with the transported character
    phibar = _pullback(p_indices, lambda p: G.mul(G.mul(winv, p), w),
                       t.target.chi)
    # the filter: transported character trivial on U meet w H w^-1
    if any(phibar.get(u, 1) != 1 for u in u_indices):
        return None
    psibar = _pullback(phibar, lambda p: G.mul(G.mul(zinv, p), z),
                       t.source.chi)
    # guaranteed by the target-side filter and triple validity
    if any(psibar.get(u, 1) != 1 for u in u_indices):
        raise AssertionError("source character nontrivial on U")
    # both characters are trivial on U, so they pass to the Levi quotient
    source = _image(G, psibar, project)
    target = _image(G, phibar, project)
    return HeckeTriple(source, G.identity_idx, target)


def coproduct(t: HeckeTriple, a: int) -> HeckeElement:
    """Sum of quotient triples over the parabolic double cosets of the
    source subgroup that pass the unipotent-triviality filter; the
    extreme components a = 0 and a = n always contribute."""
    G = t.amb
    n = len(G.elements[0])
    p_indices = _blocks(G, n, a)[0]
    terms = []
    for z, _ in G.double_cosets(p_indices, list(t.source.indices)):
        comp = _coproduct_component(t, a, z)
        if comp is not None:
            terms.append((comp, 1))
    elem = HeckeElement(terms)
    if a in (0, n) and elem.is_zero():
        raise AssertionError("extreme component vanished")
    return elem


def coproduct_well_defined(t: HeckeTriple, a: int) -> dict:
    """Every member z' of a parabolic double coset yields the canonical
    component transported by conjugation with the block-diagonal part of
    the P-factor in z' = u z k; checks the transport equality for all
    members."""
    G = t.amb
    n = len(G.elements[0])
    p_indices, _, project = _blocks(G, n, a)
    cases = 0
    failures = []
    u_of = G.double_coset_table(p_indices, t.source.indices)[1]
    for z, members in G.double_cosets(p_indices, t.source.indices):
        base = _coproduct_component(t, a, z)
        for z2 in sorted(members):
            alt = _coproduct_component(t, a, z2)
            cases += 1
            if (base is None) != (alt is None):
                failures.append({"z": z, "z2": z2, "kind": "filter"})
                continue
            if base is None:
                continue
            # z2 = u z k with u in P
            ubar = project(u_of[z2])
            ubar_inv = G.inv(ubar)

            # the z' data is the z data conjugated by ubar, so undoing
            # that conjugation must recover the canonical component
            def transport(sc):
                return _image(G, sc.chi,
                              lambda i: G.mul(G.mul(ubar_inv, i), ubar))

            moved = HeckeTriple(transport(alt.source), G.identity_idx,
                                transport(alt.target), check=False)
            if moved != base:
                failures.append({"z": z, "z2": z2, "kind": "transport"})
    return {"check": "coproduct-well-defined", "a": a, "cases": cases,
            "failures": failures, "pass": not failures}


# -- enumeration and verification sweeps -------------------------------------

def enumerate_subgroup_chars(G: FiniteGroupTable):
    """All (subgroup, linear character) pairs over the registered
    subgroups (plus the whole group) that contain the center and restrict
    trivially to it."""
    center = G.subgroups.get("Z", frozenset({G.identity_idx}))
    candidates = {frozenset(range(G.order))}
    for indices in G.subgroups.values():
        candidates.add(frozenset(indices))
    out = []
    for indices in sorted(candidates, key=lambda s: (len(s), sorted(s))):
        if not center <= indices:
            continue
        for chi in linear_characters(G, indices):
            if all(chi[z] == 1 for z in center):
                out.append(SubgroupChar(G, indices, chi, check=False))
    return out


def enumerate_triples(G: FiniteGroupTable):
    """All normalized triples over the enumerated subgroup characters."""
    chars = enumerate_subgroup_chars(G)
    out = []
    for target in chars:
        for source in chars:
            reps = G.double_coset_table(target.indices, source.indices)[0]
            for g in sorted(set(reps)):
                try:
                    out.append(HeckeTriple(source, g, target))
                except TripleError:
                    continue
    return out


def _sampled_triples(G: FiniteGroupTable, sample):
    """enumerate_triples, or about sample of them evenly spaced."""
    triples = enumerate_triples(G)
    if sample is not None:
        triples = triples[::max(1, len(triples) // sample)]
    return triples


def verify_normal_form(G: FiniteGroupTable, sample=None) -> dict:
    """normalize is idempotent, and every rewrite h g k of a triple's g
    normalizes to the same scalar multiple of the same representative."""
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
                # [g2] = phi(h^-1) psi(k^-1) [g]
                factor = inverse(t.target.chi[h]) * inverse(t.source.chi[k])
                s2, t2 = normalize(1, HeckeTriple(t.source, g2, t.target,
                                                  check=False))
                cases += 1
                if t2 != t0 or s2 != factor * s0:
                    failures.append({"triple": repr(t), "kind": "orbit",
                                     "h": h, "k": k})
    return {"check": "normal-form", "group": G.name, "cases": cases,
            "failures": failures, "pass": not failures}


def _product_table(triples):
    """(index, table): index lists the triples, then every product that
    falls outside them, and table[i][j] = (p, c) for t_i t_j = c index[p],
    or None for a zero product, one hecke_product call per entry.  The
    products of a listed triple with an appended one, on either side, are
    filled too: all that either bracketing of three listed triples reads."""
    index = list(triples)
    position = {t: p for p, t in enumerate(index)}
    table = [{} for _ in index]

    def fill(i, j):
        entry = None
        prod = hecke_product(index[i], index[j])
        if not prod.is_zero():
            (t3, c), = prod.terms.items()
            if t3 not in position:
                position[t3] = len(index)
                index.append(t3)
                table.append({})
            entry = (position[t3], c)
        table[i][j] = entry

    n = len(index)
    for i in range(n):
        for j in range(n):
            fill(i, j)
    for m in range(n, len(index)):  # the products appended so far
        for k in range(n):
            fill(m, k)
            fill(k, m)
    return index, table


def _times(c, entry):
    """c times the table entry (p, c'), or None for a zero product."""
    return None if entry is None else (entry[0], c * entry[1])


def verify_associativity(G: FiniteGroupTable, sample=None) -> dict:
    """(t1 t2) t3 = t1 (t2 t3) for every three checked triples, zero
    products included, both bracketings read from the product table."""
    triples = _sampled_triples(G, sample)
    _, table = _product_table(triples)
    n = len(triples)
    cases = 0
    failures = []
    for i in range(n):
        row = table[i]
        for j in range(n):
            ij = row[j]
            for k in range(n):
                jk = table[j][k]
                left = ij and _times(ij[1], table[ij[0]][k])
                right = jk and _times(jk[1], row[jk[0]])
                cases += 1
                if left != right:
                    failures.append({"kind": "associativity"})
    return {"check": "associativity", "group": G.name, "cases": cases,
            "failures": failures, "pass": not failures}


def verify_apply_faithful(G: FiniteGroupTable, sample=None) -> dict:
    """Composition of module maps agrees with the triple product on
    every basis vector of the relevant induced module, each operator read
    once as a monomial map rep -> (image, scalar).  Failure kinds:
    "column", a column with other than one term; "overlap", two triples
    of one (source, target) pair whose supports {(rep, image)} meet;
    "faithfulness", a composition that differs from the product.  cases
    counts the compositions, one per basis vector of a composable pair."""
    triples = _sampled_triples(G, sample)
    index, table = _product_table(triples)
    failures, owner = [], {}
    maps = [{} for _ in index]  # None at a column that is not one term
    for p, t in enumerate(index):
        for rep, column in _columns(t).items():
            if len(column) != 1:
                maps[p][rep] = None
                failures.append({"kind": "column", "triple": p, "rep": rep})
                continue
            (maps[p][rep],) = column.items()
            key = (t.source, t.target, rep, maps[p][rep][0])
            if owner.setdefault(key, p) != p:
                failures.append({"kind": "overlap", "rep": rep,
                                 "triples": [owner[key], p]})
    cases = 0
    for i, t1 in enumerate(triples):
        for j, t2 in enumerate(triples):
            if t2.target != t1.source:
                continue
            p3, c3 = table[i][j] or (None, 0)
            for rep, first in maps[j].items():
                cases += 1
                then = first and maps[i][first[0]]
                direct = (None, 0) if p3 is None else maps[p3][rep]
                if then is None or direct is None:
                    continue  # a column failure, reported above
                if (then[0] != direct[0]
                        or then[1] * first[1] != c3 * direct[1]):
                    failures.append({"kind": "faithfulness", "rep": rep})
    return {"check": "apply-faithful", "group": G.name, "cases": cases,
            "failures": failures, "pass": not failures}


def verify_hopflike(n: int = 2, q: int = 2) -> dict:
    """Exploratory comparison of coproduct-after-product against the
    four-factor reroute, over all generator pairs in degree (1, 1);
    verdicts are findings, equality is conjectural and never asserted."""
    from .glfq import gl_group
    if n != 2:
        raise ValueError("the compatibility sweep is implemented for the "
                         "length-two case n = 2 only")
    G1 = gl_group(1, q)
    gens = enumerate_triples(G1)
    solutions = [k.as_tuple() for k in kmatrix_solutions(1, 1, n)]
    findings = []
    for t1 in gens:
        for t2 in gens:
            big = graded_product(t1, t2, q)
            route1 = coproduct(big, 1)

            route2 = None
            for (x11, x12, x21, x22) in solutions:
                c1 = coproduct(t1, x11)
                c2 = coproduct(t2, x21)
                # after the middle swap, the first output factor is the
                # product of the x11 part of t1 and the x21 part of t2,
                # the second of the x12 and x22 parts; at n = 2 exactly
                # one of x11 and x21 is 1
                part = None
                for u1, cu1 in c1.terms.items():
                    for u2, cu2 in c2.terms.items():
                        first, second = (u1, u2) if x11 else (u2, u1)
                        combined = HeckeElement.of(
                            pair_triple(first, second, q), cu1 * cu2)
                        part = combined if part is None else part + combined
                route2 = part if route2 is None else route2 + part
            findings.append({
                "t1": t1.to_json(), "t2": t2.to_json(),
                "route1": route1.to_json(), "route2": route2.to_json(),
                "equal": route1 == route2})
    return {"check": "hopflike", "n": n, "q": q, "a": 1, "b": 1,
            "kmatrix_solutions": [list(s) for s in solutions],
            "generator_pairs": len(findings), "findings": findings,
            "equal_pairs": sum(1 for f in findings if f["equal"]),
            "pass": True}
