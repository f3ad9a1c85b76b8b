"""Class functions on finite groups with exact values.

A ClassFunction stores one value per conjugacy class, keyed by an arbitrary
hashable label, together with the class sizes needed for inner products.
Values are exact scalars (see pshlab.cyclo); the inner product conjugates
the second argument and returns the scalar normal form.  A character known
element by element on a subgroup is the ClassFunction whose classes are its
single elements (elementwise).  numerical_invariant is the one class sum
behind every Gauss, Kondo-Gauss, w_x and wreath invariant; it is one
cyclo.dot, or one per power of x for a polynomial measure.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclo import Cyclo, conj, dot, inverse, scalar

__all__ = ["ClassFunction", "elementwise", "numerical_invariant"]


class ClassFunction:
    """values: class label -> exact value; sizes: label -> class size;
    identity: label of the class of the identity element."""

    __slots__ = ("group_id", "values", "sizes", "identity")

    def __init__(self, group_id: str, values: dict, sizes: dict, identity):
        if set(values) != set(sizes):
            raise ValueError("values must cover exactly the classes")
        object.__setattr__(self, "group_id", group_id)
        object.__setattr__(self, "values", dict(values))
        object.__setattr__(self, "sizes", dict(sizes))
        object.__setattr__(self, "identity", identity)

    def __setattr__(self, *a):
        raise AttributeError("ClassFunction is immutable")

    @property
    def order(self) -> int:
        return sum(self.sizes.values())

    def degree(self):
        return self.values[self.identity]

    def __call__(self, label):
        return self.values[label]

    def _check_same_group(self, other):
        if self.group_id != other.group_id:
            raise ValueError(
                f"class functions on {self.group_id} vs {other.group_id}")

    def inner(self, other: "ClassFunction"):
        """(1/|G|) sum over classes of size * self * conj(other)."""
        self._check_same_group(other)
        total = 0
        for label, size in self.sizes.items():
            total = total + (size * self.values[label]
                             * conj(other.values[label]))
        return scalar(total * Fraction(1, self.order))

    def __add__(self, other):
        self._check_same_group(other)
        return ClassFunction(self.group_id,
                             {k: self.values[k] + other.values[k]
                              for k in self.values},
                             self.sizes, self.identity)

    def __sub__(self, other):
        self._check_same_group(other)
        return ClassFunction(self.group_id,
                             {k: self.values[k] - other.values[k]
                              for k in self.values},
                             self.sizes, self.identity)

    def __mul__(self, other):
        if isinstance(other, ClassFunction):
            self._check_same_group(other)
            return ClassFunction(self.group_id,
                                 {k: self.values[k] * other.values[k]
                                  for k in self.values},
                                 self.sizes, self.identity)
        return ClassFunction(self.group_id,
                             {k: v * other for k, v in self.values.items()},
                             self.sizes, self.identity)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, ClassFunction)
                and self.group_id == other.group_id
                and all(self.values[k] == other.values[k]
                        for k in self.values)
                and set(self.values) == set(other.values))

    def __hash__(self):
        return hash((self.group_id, frozenset(self.values)))

    def __repr__(self):
        return f"ClassFunction({self.group_id}, {self.values})"


def elementwise(group_id: str, values: dict, identity) -> ClassFunction:
    """A character known element by element on a subgroup, as the class
    function whose classes are its single elements, each of size 1."""
    return ClassFunction(group_id, values, dict.fromkeys(values, 1), identity)


def numerical_invariant(chi: ClassFunction, measure):
    """chi(1)^-1 times the sum over the classes c of chi of
    |c| chi(c) measure(c), for a conjugation-invariant measure given on
    class labels.  The sum is one cyclo.dot when the measure's values are
    exact scalars; when they are polynomials (invariants.Poly: a coeffs
    tuple of exact scalars, built from a coefficient list) it is one dot
    per power of x, over the classes where that coefficient is nonzero."""
    dim = scalar(chi.degree())
    if dim == 0:
        raise ValueError("a character of degree 0 has no numerical invariant")
    weights = [size * chi.values[label] for label, size in chi.sizes.items()]
    values = [measure(label) for label in chi.sizes]
    if isinstance(values[0], (int, Fraction, Cyclo)):
        return dot(values, weights) * inverse(dim)
    by_power: dict = {}
    for v, w in zip(values, weights):
        for k, c in enumerate(v.coeffs):
            if c != 0:
                cs, ws = by_power.setdefault(k, ([], []))
                cs.append(c)
                ws.append(w)
    total = [dot(*by_power[k]) if k in by_power else 0
             for k in range(max(by_power, default=-1) + 1)]
    return type(values[0])(total) * inverse(dim)
