"""A uniform carrier for small finite groups given by explicit elements.

FiniteGroupTable wraps an element list plus multiplication and inverse
callbacks, and lazily computes conjugacy classes, subgroup closures,
double cosets, least double-coset representatives and induced
characters.  Class labels are integer class indices; the identity's class
is always label 0.
"""

from __future__ import annotations

import os
from fractions import Fraction

from .chars import ClassFunction
from .cyclo import scalar, zeta

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

    def __init__(self, name: str, elements, mul, inv, identity):
        self.name = name
        self.elements = list(elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise ValueError("duplicate elements")
        self._mul_fn = mul
        self._inv_fn = inv
        self.identity_idx = self.index[identity]
        self._mul_cache: dict = {}
        self._inv_cache: dict = {}
        self._classes = None
        self._class_of = None
        self.subgroups: dict = {}
        self._char_table = None
        self._least_reps: dict = {}

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, i: int, j: int) -> int:
        key = (i, j)
        out = self._mul_cache.get(key)
        if out is None:
            out = self.index[self._mul_fn(self.elements[i], self.elements[j])]
            self._mul_cache[key] = out
        return out

    def inv(self, i: int) -> int:
        out = self._inv_cache.get(i)
        if out is None:
            out = self.index[self._inv_fn(self.elements[i])]
            self._inv_cache[i] = out
        return out

    def conj(self, x: int, g: int) -> int:
        """g x g^-1."""
        return self.mul(self.mul(g, x), self.inv(g))

    def powers(self, g: int) -> list[int]:
        """[g, g^2, ..., 1]: the powers of g up to the identity, so the
        list's length is the order of g."""
        chain = [g]
        while chain[-1] != self.identity_idx:
            chain.append(self.mul(chain[-1], g))
        return chain

    # -- subgroups ------------------------------------------------------

    def _orbit(self, start: int, moves) -> set:
        """The orbit of start under the moves (maps index -> index), found
        by a breadth-first walk."""
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for x in frontier:
                for move in moves:
                    y = move(x)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return seen

    def _orbit_partition(self, moves):
        """The orbits of the moves on all element indices, by an ascending
        scan: a list of (least member, orbit) in order of least member,
        and the list sending each index to the position of its orbit."""
        label = [-1] * self.order
        orbits = []
        for start in range(self.order):
            if label[start] < 0:
                orbit = self._orbit(start, moves)
                for x in orbit:
                    label[x] = len(orbits)
                orbits.append((start, orbit))
        return orbits, label

    def closure(self, gens) -> frozenset:
        return frozenset(self._orbit(
            self.identity_idx, [lambda x, g=g: self.mul(x, g) for g in gens]))

    def small_generators(self, indices) -> list[int]:
        """A short generator list for the subgroup given by its indices."""
        indices = sorted(indices)
        target = len(indices)
        gens: list[int] = []
        current = frozenset({self.identity_idx})
        for i in indices:
            if i not in current:
                gens.append(i)
                current = self.closure(gens)
                if len(current) == target:
                    break
        if len(current) != target:
            raise ValueError("index set is not closed under multiplication")
        return gens

    def register_subgroup(self, name: str, indices):
        indices = frozenset(indices)
        gens = self.small_generators(indices)
        self.subgroups[name] = indices
        return indices, gens

    def is_subgroup(self, indices) -> bool:
        indices = set(indices)
        return (self.identity_idx in indices
                and all(self.mul(a, b) in indices
                        for a in indices for b in indices))

    # -- conjugacy ------------------------------------------------------

    def _compute_classes(self):
        gens = self.small_generators(range(self.order))
        orbits, class_of = self._orbit_partition(
            [lambda x, g=g: self.conj(x, g) for g in gens])
        classes = [sorted(orbit) for _, orbit in orbits]
        # swap the identity's class into label 0
        ident = class_of[self.identity_idx]
        if ident != 0:
            classes[0], classes[ident] = classes[ident], classes[0]
            for label in (0, ident):
                for x in classes[label]:
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

    def function_to_class_function(self, fn) -> ClassFunction:
        """Build a ClassFunction from a map element-index -> value,
        checking constancy on classes."""
        values = {}
        for label, members in enumerate(self.classes()):
            first = fn(members[0])
            if any(fn(x) != first for x in members[1:]):
                raise AssertionError(
                    f"not a class function on class {label} of {self.name}")
            values[label] = first
        return self.class_function(values)

    def class_measure(self, fn):
        """A conjugation-invariant fn of element indices as a measure on
        class labels: its value at each class representative."""
        reps = self.class_reps()
        return lambda label: fn(reps[label])

    def induced_character(self, sub_indices, chi_on_elements) -> ClassFunction:
        """Induce to the whole group from the subgroup H with the given
        index set; chi_on_elements maps each subgroup element index to its
        character value.  By class sums: Ind chi(g) = |C_G(g)|/|H| times the
        sum of chi over the elements of H in the class of g."""
        sub = set(sub_indices)
        sums: dict = {}
        for h in sub:
            label = self.class_of(h)
            sums[label] = sums.get(label, 0) + chi_on_elements[h]
        return self.class_function(
            {label: scalar(sums.get(label, 0)
                           * Fraction(self.order, len(members) * len(sub)))
             for label, members in enumerate(self.classes())})

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

    def restrict_character(self, chi: ClassFunction, sub_indices) -> dict:
        """Restriction as a map subgroup-element-index -> value."""
        return {x: chi.values[self.class_of(x)] for x in sorted(sub_indices)}

    def double_cosets(self, left_indices, right_indices):
        """Partition of the group into H g K double cosets; returns a list
        of (representative, frozenset of members) with the representative
        the least element index in the coset."""
        hgens = self.small_generators(left_indices)
        kgens = self.small_generators(right_indices)
        moves = ([lambda x, h=h: self.mul(h, x) for h in hgens]
                 + [lambda x, k=k: self.mul(x, k) for k in kgens])
        return [(rep, frozenset(orbit))
                for rep, orbit in self._orbit_partition(moves)[0]]

    def least_double_coset_reps(self, left_indices, right_indices):
        """A list mapping every element index to the least element index
        of its left-g-right double coset.  Built once per pair of index
        collections from the double_cosets walk and kept on the group."""
        key = (tuple(left_indices), tuple(right_indices))
        table = self._least_reps.get(key)
        if table is None:
            table = [0] * self.order
            for rep, members in self.double_cosets(*key):
                for x in members:
                    table[x] = rep
            self._least_reps[key] = table
        return table

    def character_table(self):
        """Exact irreducible characters via the class-algebra method."""
        if self._char_table is None:
            from .dixon import dixon_character_table
            self._char_table = dixon_character_table(self)
        return self._char_table

    def __repr__(self):
        return f"FiniteGroupTable({self.name}, order {self.order})"
