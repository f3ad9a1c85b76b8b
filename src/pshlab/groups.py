"""A uniform carrier for small finite groups given by explicit elements.

FiniteGroupTable wraps an element list plus a multiplication callback,
and lazily computes conjugacy classes, subgroup closures,
double cosets, double-coset factorization tables and induced
characters.  Class labels are integer class indices; the identity's class
is always label 0.

The orbit algorithms run on permutation arrays: lists sending each
element index to an element index.  They are all read from one Schreier
tree, built the first time one is needed by a breadth-first walk from the
identity under right multiplication by the group's greedy generators
(each index, in ascending order, that the earlier generators do not
reach).  The walk takes each generator's right action R_s: x -> x s as a
whole array from `_right_array`, which by default calls the
multiplication callback once per element (a subclass may read it from a
cheaper description of the product, as GL(n, q) does from its row maps
and a wreath table from its base group's right actions),
and records each element's tree step y = parent(y) s.  One pass down the
tree then gives the left action L_g of any element (g y = (g parent(y))
s); the right action of g composes the R_s along g's tree path, and a
product x y moves y along x's path by the generators' L_s (x y =
parent(x) (s y)), so no product is formed once the tree is built.
Closures, greedy generators, conjugacy classes and double cosets are
orbits of these arrays, scanned in ascending order of least member; the
whole group's greedy generators are the tree's own, and the double-coset
walk also factors each member as h rep k.  `inv` reads an inverse from the
element's powers, the one before the identity: no callback inverts.
An induced character sums chi over the subgroup's elements in each class
as one cyclo.dot, scaled by |C_G(g)|/|H|.

`subgroup` keeps one table per index set and name on the group, on the
ambient's elements in ascending index order and with its multiplication
callback, so a subgroup table is never built by hand.
"""

from __future__ import annotations

import os
from fractions import Fraction

from .chars import ClassFunction, elementwise, numerical_invariant
from .cyclo import dot, scalar, zeta

__all__ = ["FiniteGroupTable", "check_group_order"]


def check_group_order(name: str, order: int) -> None:
    """Raise ResourceWarning if a group of this order exceeds the one cap
    on every group built, PSHLAB_MAX_GROUP_ORDER (default 100000).
    Constructors call it before they enumerate any element."""
    cap = int(os.environ.get("PSHLAB_MAX_GROUP_ORDER", "100000"))
    if order > cap:
        raise ResourceWarning(
            f"|{name}| = {order} exceeds the group-order bound {cap}")


class FiniteGroupTable:

    def __init__(self, name: str, elements, mul, unused, identity):
        """The fourth argument, once an inverse callback, is not read:
        inverses come from powers.  It stays for the five-argument C2 of
        perfbench/workloads.py; every other caller passes None."""
        self.name = name
        self.elements = list(elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise ValueError("duplicate elements")
        self._mul_fn = mul
        self.identity_idx = self.index[identity]
        self._classes = None
        self._class_of = None
        self.subgroups: dict = {}
        self._char_table = None
        self._coset_tables: dict = {}
        self._subgroup_tables: dict = {}
        self._tree = None
        self._lefts = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, i: int, j: int) -> int:
        """i j, by the left actions L_s of the generators on i's tree
        path: i j = parent(i) (s j) for i = parent(i) s."""
        steps = self._schreier_tree()[2]
        if self._lefts is None:
            self._lefts = [self.left(r[self.identity_idx])
                           for r in self._tree[0]]
        lefts = self._lefts
        while steps[i] is not None:
            i, k = steps[i]
            j = lefts[k][j]
        return j

    def inv(self, i: int) -> int:
        """i^-1, the power of i just before the identity."""
        chain = self.powers(i)
        return chain[-2] if len(chain) > 1 else i

    def powers(self, g: int) -> list[int]:
        """[g, g^2, ..., 1]: the powers of g up to the identity, so the
        list's length is the order of g."""
        move = self._right_move(g)
        chain = [g]
        while chain[-1] != self.identity_idx:
            if len(chain) == self.order:
                raise AssertionError(f"the powers of {g} miss the identity")
            chain.append(move(chain[-1]))
        return chain

    # -- the Schreier tree and permutation arrays -----------------------

    def _span(self, candidates, image):
        """Greedy generators and a breadth-first tree of the subgroup they
        generate.  Each candidate, in order, that the generators so far do
        not reach joins them; image(s) is the map x -> x s.  Every
        generator moves every member exactly once.  Returns the
        generators, the members in the order reached, and each member's
        tree step (parent, generator position), None at the identity."""
        members = [self.identity_idx]
        steps = {self.identity_idx: None}
        gens, moves = [], []
        done = 1  # members[:done] are moved by every generator so far
        for c in candidates:
            if c in steps:
                continue
            k, move = len(moves), image(c)
            gens.append(c)
            moves.append(move)
            for x in members[:done]:
                y = move(x)
                if y not in steps:
                    steps[y] = (x, k)
                    members.append(y)
            while done < len(members):
                x = members[done]
                done += 1
                for k, move in enumerate(moves):
                    y = move(x)
                    if y not in steps:
                        steps[y] = (x, k)
                        members.append(y)
        return gens, members, steps

    def _right_array(self, s: int) -> list[int]:
        """The right action x -> x s as a list, by one multiplication
        callback per element."""
        els, index, fn = self.elements, self.index, self._mul_fn
        t = els[s]
        return [index[fn(x, t)] for x in els]

    def _schreier_tree(self):
        """(rights, members, steps), built once: the right action rights[k]
        of each greedy generator s_k of the group, from `_right_array`;
        the members in breadth-first order, parents first; and the tree
        step steps[y] = (parent(y), k) with y = parent(y) s_k.  Each s_k
        is its array's image of the identity."""
        if self._tree is None:
            rights = []

            def image(s):
                rights.append(self._right_array(s))
                return rights[-1].__getitem__

            _, members, steps = self._span(range(self.order), image)
            self._tree = (rights, members, steps)
        return self._tree

    def _path(self, g: int) -> list[list[int]]:
        """The right actions of the generators along g's tree path, the
        identity's end first: x g = x s_1 ... s_k."""
        rights, _, steps = self._schreier_tree()
        path = []
        while steps[g] is not None:
            g, k = steps[g]
            path.append(rights[k])
        path.reverse()
        return path

    def _right_move(self, g: int):
        """x -> x g, composing the generators' right actions along g's
        tree path."""
        path = self._path(g)

        def move(x):
            for r in path:
                x = r[x]
            return x
        return move

    def right(self, g: int) -> list[int]:
        """The right action x -> x g as a list, composed one generator's
        array at a time along g's tree path."""
        out = list(range(self.order))
        for r in self._path(g):
            out = [r[x] for x in out]
        return out

    def left(self, g: int) -> list[int]:
        """The left action x -> g x as a list, one pass down the tree:
        g y = (g parent(y)) s."""
        rights, members, steps = self._schreier_tree()
        out = [0] * self.order
        out[self.identity_idx] = g
        for y in members[1:]:
            x, k = steps[y]
            out[y] = rights[k][out[x]]
        return out

    def _orbits(self, moves):
        """The orbits of the index lists in moves on all element indices,
        by an ascending scan: a list of (least member, members in the order
        reached) in order of least member, and the list parent with
        y = move[parent[y]] for one of the moves, except at a least member
        y, where parent[y] = y."""
        parent = [-1] * self.order
        orbits = []
        for start in range(self.order):
            if parent[start] < 0:
                parent[start] = start
                orbit = [start]
                for x in orbit:
                    for move in moves:
                        y = move[x]
                        if parent[y] < 0:
                            parent[y] = x
                            orbit.append(y)
                orbits.append((start, orbit))
        return orbits, parent

    # -- subgroups ------------------------------------------------------

    def closure(self, gens) -> frozenset:
        return frozenset(self._span(gens, self._right_move)[1])

    def small_generators(self, indices) -> list[int]:
        """The greedy generators of the subgroup given by its indices:
        each index, in ascending order, that the earlier ones do not
        generate.  For the whole group they are the Schreier tree's."""
        indices = sorted(indices)
        if indices == list(range(self.order)):
            return [r[self.identity_idx] for r in self._schreier_tree()[0]]
        gens, members, _ = self._span(indices, self._right_move)
        if sorted(members) != indices:
            raise ValueError("index set is not closed under multiplication")
        return gens

    def subgroup(self, indices, name: str) -> FiniteGroupTable:
        """The subgroup's table on the sorted indices, with this group's
        callback and identity; one per index set and name, kept here."""
        key = (tuple(sorted(indices)), name)
        sub = self._subgroup_tables.get(key)
        if sub is None:
            sub = self._subgroup_tables[key] = FiniteGroupTable(
                name, [self.elements[i] for i in key[0]], self._mul_fn,
                None, self.elements[self.identity_idx])
        return sub

    # -- conjugacy ------------------------------------------------------

    def _compute_classes(self):
        # conjugation x -> s^-1 x s by each generator s: L_{s^-1}, then R_s
        rights = self._schreier_tree()[0]
        orbits = self._orbits(
            [[r[y] for y in self.left(r.index(self.identity_idx))]
             for r in rights])[0]
        classes = [sorted(orbit) for _, orbit in orbits]
        # swap the identity's class, {1}, into label 0
        ident = [least for least, _ in orbits].index(self.identity_idx)
        classes[0], classes[ident] = classes[ident], classes[0]
        class_of = [0] * self.order
        for label, members in enumerate(classes):
            for x in members:
                class_of[x] = label
        self._classes = classes
        self._class_of = class_of

    def classes(self) -> list[list[int]]:
        if self._classes is None:
            self._compute_classes()
        return self._classes

    def class_of(self, i: int) -> int:
        if self._class_of is None:
            self._compute_classes()
        return self._class_of[i]

    def class_reps(self) -> list[int]:
        return [members[0] for members in self.classes()]

    def class_sizes(self) -> dict:
        return {label: len(members)
                for label, members in enumerate(self.classes())}

    # -- class functions ------------------------------------------------

    def class_function(self, values_by_class: dict) -> ClassFunction:
        return ClassFunction(self.name, values_by_class, self.class_sizes(),
                             0)

    def class_measure(self, fn):
        """A conjugation-invariant fn of element indices as a measure on
        class labels: its value at each class representative."""
        reps = self.class_reps()
        return lambda label: fn(reps[label])

    def induced_character(self, sub_indices, chi_on_elements) -> ClassFunction:
        """Induce to the whole group from the subgroup H with the given
        index set; chi_on_elements maps each subgroup element index to its
        character value.  By class sums: Ind chi(g) = |C_G(g)|/|H| times the
        sum of chi over the elements of H in the class of g, one dot per
        class."""
        sub = set(sub_indices)
        meets: dict = {}
        for h in sub:
            meets.setdefault(self.class_of(h), []).append(chi_on_elements[h])
        classes = self.classes()
        out = dict.fromkeys(range(len(classes)), 0)
        for label, values in meets.items():
            scale = scalar(Fraction(self.order,
                                    len(classes[label]) * len(sub)))
            out[label] = scalar(dot(values, [scale] * len(values)))
        return self.class_function(out)

    def cyclic_characters(self):
        """Yield (g, chain, j, chi) for every cyclic subgroup, taken at its
        least generator g, and every j in 0..order-1: chain is
        [g, g^2, ..., 1] and chi maps g^k to zeta_order^(j k)."""
        seen = set()
        for g in range(self.order):
            chain = self.powers(g)
            sub = frozenset(chain)
            if sub in seen:
                continue
            seen.add(sub)
            order = len(chain)
            for j in range(order):
                yield g, chain, j, {chain[k]: zeta(order, j * (k + 1) % order)
                                    for k in range(order)}

    def cyclic_induction_check(self, fn):
        """W(chi) for the element measure fn against W(Ind chi) for fn read
        at class representatives, W being numerical_invariant, over every
        chi of cyclic_characters: (cases, the (g, j) where they differ).
        By Frobenius reciprocity the two agree for any class-function
        measure, so this tests induced_character and class_measure, not
        fn."""
        on_classes = self.class_measure(fn)
        cases, failures = 0, []
        for g, chain, j, chi in self.cyclic_characters():
            cases += 1
            lhs = numerical_invariant(
                elementwise(self.name, chi, self.identity_idx), fn)
            rhs = numerical_invariant(self.induced_character(chain, chi),
                                      on_classes)
            if lhs != rhs:
                failures.append((g, j))
        return cases, failures

    def _coset_moves(self, left_indices, right_indices):
        """The left actions of the greedy generators of left, and the
        right actions of those of right."""
        return ([self.left(h) for h in self.small_generators(left_indices)],
                [self.right(k) for k in self.small_generators(right_indices)])

    def double_cosets(self, left_indices, right_indices):
        """Partition of the group into H g K double cosets; returns a list
        of (representative, frozenset of members) with the representative
        the least element index in the coset."""
        lefts, rights = self._coset_moves(left_indices, right_indices)
        return [(rep, frozenset(orbit))
                for rep, orbit in self._orbits(lefts + rights)[0]]

    def double_coset_table(self, left_indices, right_indices):
        """Lists (rep, h, k) with y = h[y] rep[y] k[y] for every element
        index y: rep[y] is the least element of the left-y-right double
        coset, h[y] lies in left and k[y] in right.  The double_cosets
        walk fills them from each member's step, with no product: reached
        from x by the left action of s, h = s h[x]; by the right action of
        s, k = k[x] s.  Built once per pair and kept on the group."""
        key = (tuple(left_indices), tuple(right_indices))
        table = self._coset_tables.get(key)
        if table is None:
            lefts, rights = self._coset_moves(*key)
            moves = lefts + rights
            orbits, parent = self._orbits(moves)
            rep, h = [0] * self.order, [self.identity_idx] * self.order
            k = h[:]
            for least, orbit in orbits:
                rep[least] = least
                for y in orbit[1:]:
                    x, rep[y] = parent[y], least
                    m = [move[x] for move in moves].index(y)
                    h[y], k[y] = ((moves[m][h[x]], k[x]) if m < len(lefts)
                                  else (h[x], moves[m][k[x]]))
            table = self._coset_tables[key] = (rep, h, k)
        return table

    def character_table(self):
        """Exact irreducible characters via the class-algebra method."""
        if self._char_table is None:
            from .dixon import dixon_character_table
            self._char_table = dixon_character_table(self)
        return self._char_table

    def __repr__(self):
        return f"FiniteGroupTable({self.name}, order {self.order})"
