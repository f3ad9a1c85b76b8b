import bisect
import itertools
import json
import math
import operator
import os
import pathlib
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache

import pytest

import pshlab
from pshlab import specht
from pshlab.chars import ClassFunction
from pshlab.combinat import (Tableau, Tabloid, _mover, all_tableaux,
                             conjugate, partitions, standard_tableaux)
from pshlab.cyclo import scalar, zeta
from pshlab.groups import FiniteGroupTable
from pshlab.invariants import verify_mezzadri
from pshlab.linalg import rank_exact
from pshlab.specht import (induce_young, kappa_multiple_check,
                           restrict_character,
                           sign_character, specht_action, specht_character,
                           specht_dim, standard_basis,
                           submodule_theorem_check, sym_character_table,
                           tabloid_adjacency_check, verify_branching)
from pshlab.symgroup import Perm, centralizer_order, sign_of


def test_dims_small():
    assert specht_dim((3,)) == 1
    assert specht_dim((1, 1, 1)) == 1
    assert specht_dim((2, 1)) == 2
    assert specht_dim((3, 2)) == 5
    assert specht_dim((2, 2, 1)) == 5


def test_dim_equals_rank_of_polytabloid_span():
    for n in range(1, 6):
        for mu in partitions(n):
            std, _, basis, _ = standard_basis(mu)
            keys = sorted({k for e in basis for k in e})
            rows = [[e.get(k, 0) for k in keys] for e in basis]
            assert rank_exact(rows) == len(std)
            assert len(std) == len(standard_tableaux(mu))


def test_sum_of_squares():
    for n in range(1, 7):
        assert sum(specht_dim(mu) ** 2 for mu in partitions(n)) \
            == math.factorial(n)


def test_polytabloid_example():
    t = Tableau(((1, 2), (3,)))
    std, heads, basis, below = standard_basis((2, 1))
    i = std.index(t)
    # signed column sum over swapping 1 and 3: {12|3} - {23|1}
    assert heads[i] == (0, 0, 1)
    assert basis[i] == {(0, 0, 1): 1, (1, 0, 0): -1}
    # neither polytabloid meets the other's head
    assert below == [[], []]


def test_action_is_representation():
    mu = (2, 2)
    perms = [Perm(p) for p in
             __import__("itertools").permutations(range(1, 5))]
    for a in perms[:8]:
        for b in perms[:8]:
            ma = specht_action(a, mu)
            mb = specht_action(b, mu)
            mab = specht_action(a * b, mu)
            d = len(ma)
            prod = [[sum(ma[i][k] * mb[k][j] for k in range(d))
                     for j in range(d)] for i in range(d)]
            assert prod == mab


def test_character_table_sym3():
    assert sym_character_table(3) == [[1, 1, 1], [-1, 0, 2], [1, -1, 1]]


def test_orthonormality():
    for n in range(1, 6):
        chars = {mu: specht_character(mu) for mu in partitions(n)}
        for lam, c1 in chars.items():
            for mu, c2 in chars.items():
                assert c1.inner(c2) == (1 if lam == mu else 0)


def test_sign_conjugate():
    for n in range(1, 6):
        sgn = sign_character(n)
        for mu in partitions(n):
            assert specht_character(conjugate(mu)) \
                == specht_character(mu) * sgn


def test_branching():
    for n in range(1, 5):
        for mu in partitions(n):
            assert verify_branching(mu)["pass"]


def test_induce_restrict_adjoint():
    # Frobenius reciprocity across one level
    for mu in partitions(3):
        for lam in partitions(4):
            up = induce_young(specht_character(mu), specht_character((1,)))
            down = restrict_character(specht_character(lam), 4)
            assert up.inner(specht_character(lam)) \
                == specht_character(mu).inner(down)


def test_structure_checks():
    for n in range(1, 5):
        for mu in partitions(n):
            assert kappa_multiple_check(mu)
            assert tabloid_adjacency_check(mu)
            report = submodule_theorem_check(mu)
            assert report["pass"]
            assert report["gram_det"] != 0


def test_gram_det_positive():
    from pshlab.specht import gram_matrix
    from pshlab.linalg import det_exact
    for mu in partitions(4):
        assert det_exact(gram_matrix(mu)) > 0


def table_induction_mismatches():
    """(lam, mu, cycle type) wherever the Young-subgroup formula differs
    from class-sum induction from Sym(k) x Sym(n-k) on a Sym(n) group
    table, for n = 2..5."""
    out = []
    for n in range(2, 6):
        perms = [Perm(p) for p in itertools.permutations(range(1, n + 1))]
        G = FiniteGroupTable(f"S{n}", perms, lambda a, b: a * b, None,
                             Perm.identity(n))
        for k in range(1, n):
            young = [i for i, s in enumerate(G.elements)
                     if all(s(x) <= k for x in range(1, k + 1))]
            assert len(young) == math.factorial(k) * math.factorial(n - k)
            for lam in partitions(k):
                for mu in partitions(n - k):
                    chi1, chi2 = specht_character(lam), specht_character(mu)
                    on_young = {}
                    for i in young:
                        images = G.elements[i].images
                        top = Perm(images[:k]).cycle_type()
                        bottom = Perm(tuple(x - k for x in images[k:]))
                        on_young[i] = (chi1.values[top]
                                       * chi2.values[bottom.cycle_type()])
                    by_table = G.induced_character(young, on_young)
                    by_formula = induce_young(chi1, chi2)
                    for label, members in enumerate(G.classes()):
                        ctype = G.elements[members[0]].cycle_type()
                        if by_formula.values[ctype] \
                                != by_table.values[label]:
                            out.append((lam, mu, ctype))
    return out


def test_induce_young_matches_table_induction():
    assert table_induction_mismatches() == []


@lru_cache(maxsize=None)
def rim_hook_character(lam, rho):
    """Murnaghan-Nakayama: chi^lam at cycle type rho, removing a rim hook
    of length rho[0] and recursing on the rest of rho.  On beta-numbers
    (lam_i + k - i for k parts) a rim hook of length r moves one bead b
    down to a free b - r, with sign -1 per bead jumped."""
    if not rho:
        return 1
    r, k = rho[0], len(lam)
    beta = [p + k - 1 - i for i, p in enumerate(lam)]
    total = 0
    for b in beta:
        if b - r < 0 or b - r in beta:
            continue
        jumped = sum(1 for c in beta if b - r < c < b)
        moved = sorted([c for c in beta if c != b] + [b - r], reverse=True)
        mu = tuple(c - (k - 1 - i) for i, c in enumerate(moved))
        total += (-1) ** jumped * rim_hook_character(
            tuple(p for p in mu if p), rho[1:])
    return total


def test_specht_characters_match_murnaghan_nakayama():
    assert rim_hook_character((2, 1), (3,)) == -1
    assert rim_hook_character((3, 1, 1), (5,)) == 1
    for n in range(1, 8):
        for mu in partitions(n):
            chi = specht_character(mu)
            for rho in partitions(n):
                assert chi.values[rho] == rim_hook_character(mu, rho), \
                    (mu, rho)


def sorted_rows(rows):
    return tuple(tuple(sorted(r)) for r in rows)


@pytest.mark.parametrize("shape", [(2, 2, 1), (3, 1, 1)])
def test_tabloid_apply_matches_sorted_rows(shape):
    # reference: relabel every row, then sort it; the mover takes the
    # inverse images on 0-based points
    fillings = {sorted_rows(t.rows) for t in all_tableaux(shape)}
    for rows in fillings:
        tab = Tableau(rows).tabloid()
        assert tab.rows == rows and tab.shape == shape
        for images in itertools.permutations(range(1, 6)):
            moved = sorted_rows([[images[x - 1] for x in r] for r in rows])
            inverse = [images.index(y) for y in range(1, 6)]
            assert _mover(inverse)(tab.key) == Tableau(moved).tabloid().key
            assert tab.apply(images) == Tableau(moved).tabloid()


@pytest.mark.parametrize("shape", [(2, 2, 1), (3, 1, 1)])
def test_tabloids_of_permuted_rows_are_equal(shape):
    by_rows = {}
    for t in all_tableaux(shape):
        by_rows.setdefault(sorted_rows(t.rows), []).append(t.tabloid())
    assert len(by_rows) == math.factorial(5) // math.prod(
        math.factorial(p) for p in shape)
    heads = set()
    for tabs in by_rows.values():
        assert all(tab == tabs[0] for tab in tabs)
        assert len({hash(tab) for tab in tabs}) == 1
        heads.add(tabs[0])
    assert len(heads) == len(by_rows)
    with pytest.raises(ValueError):
        Tabloid((1, 1, 0))


def planted_defect_outcomes():
    """Plant one defect at a time in the Specht kernel and report what
    the kernel does: "raised" if it raised AssertionError, else what the
    check returned.  Runs in and out of pytest (see the -O test)."""
    out = {}
    real_kappa = specht.apply_kappa
    top = Tableau(((1, 2), (3,))).tabloid().key

    def lifted_kappa(stabilizer, vec):
        # one more unit on the dominance-top standard tabloid of (2,1)
        e = real_kappa(stabilizer, vec)
        e[top] = e.get(top, 0) + 1
        return e

    real_basis = specht.standard_basis

    def skewed_basis(mu):
        # e_{[[1,3],[2]]} loses its -{23|1}; {23|1} is not a standard
        # tabloid, so only the span check can see it
        std, heads, basis, below = real_basis(mu)
        basis = [dict(e) for e in basis]
        del basis[0][Tableau(((2, 3), (1,))).tabloid().key]
        return std, heads, basis, below

    real_stabilizer = specht._column_stabilizer

    def flipped_stabilizer(t):
        pairs = real_stabilizer(t)
        move, sign = pairs[-1]
        return pairs[:-1] + [(move, -sign)]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(specht, "apply_kappa", lifted_kappa)
        specht.standard_basis.cache_clear()
        try:
            specht.standard_basis((2, 1))
            out["unitriangular"] = "passed"
        except AssertionError:
            out["unitriangular"] = "raised"
        finally:
            specht.standard_basis.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(specht, "standard_basis", skewed_basis)
        try:
            specht.specht_action(Perm((2, 1, 3)), (2, 1))
            out["span"] = "passed"
        except AssertionError:
            out["span"] = "raised"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(specht, "_column_stabilizer", flipped_stabilizer)
        out["kappa_multiple"] = specht.kappa_multiple_check((2, 1))
    return out


PLANTED = {"unitriangular": "raised", "span": "raised",
           "kappa_multiple": False}


def test_planted_defects_fail():
    assert planted_defect_outcomes() == PLANTED
    # the same calls pass on the real kernel
    assert specht.standard_basis((2, 1))[0]
    assert specht.specht_action(Perm((2, 1, 3)), (2, 1))
    assert specht.kappa_multiple_check((2, 1))


def test_planted_defects_fail_under_optimize():
    here = pathlib.Path(__file__).resolve().parent
    src = pathlib.Path(pshlab.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(here), str(src), os.environ.get("PYTHONPATH", "")]))
    code = ("import json, sys, test_specht; print(json.dumps("
            "[sys.flags.optimize, test_specht.planted_defect_outcomes()]))")
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [1, PLANTED]


@lru_cache(maxsize=None)
def position_sign(positions):
    return sign_of(positions)


def signed_by_sign_of(t):
    """The column stabilizer with every column arrangement signed by
    sign_of of the positions it permutes, as (images of the identity key,
    sign) pairs."""
    per_col = []
    for col in t.columns():
        rank = {c: i + 1 for i, c in enumerate(col)}
        per_col.append([
            (tuple(zip(col, arr)),
             position_sign(tuple(map(rank.__getitem__, arr))))
            for arr in itertools.permutations(col)])
    out = []
    for combo in itertools.product(*per_col):
        inverse = list(range(t.n))
        sign = 1
        for pairs, s in combo:
            sign *= s
            for c, a in pairs:  # the arrangement sends c to a
                inverse[a - 1] = c - 1
        out.append((tuple(inverse), sign))
    return out


def test_column_stabilizer_signs_match_sign_of():
    for n in range(7):
        key = tuple(range(n))
        for mu in partitions(n):
            for t in all_tableaux(mu):
                assert [(move(key), sign) for move, sign
                        in specht._column_stabilizer(t)] \
                    == signed_by_sign_of(t), t


def kappa_multiple_oracle(mu):
    """The per-(t, u) statement read literally: kappa_t is rebuilt for
    every tableau t and applied to every tabloid u, and each nonzero
    image must be a multiple of e_t."""
    keys = [tab.key for tab in specht.all_tabloids(mu)]
    for t in all_tableaux(mu):
        stabilizer = specht._column_stabilizer(t)
        e = specht.apply_kappa(stabilizer, {t.tabloid().key: 1})
        k0, e0 = next(iter(e.items()))
        for u in keys:
            image = specht.apply_kappa(stabilizer, {u: 1})
            if not image:
                continue
            if image.keys() != e.keys() or (
                    {k: v * e0 for k, v in image.items()}
                    != {k: image[k0] * c for k, c in e.items()}):
                return False
    return True


def column_sets(t):
    return frozenset(map(frozenset, t.columns()))


def test_kappa_check_agrees_with_per_tableau_oracle():
    for n in range(1, 6):
        for mu in partitions(n):
            assert kappa_multiple_check(mu) is True
            assert kappa_multiple_oracle(mu) is True, mu


def test_kappa_check_sees_a_flip_in_one_late_column_class():
    mu = (2, 2, 1)
    # the column classes in the order the check visits them
    visited = list(dict.fromkeys(map(column_sets, all_tableaux(mu))))
    target = visited[-1]
    assert len(visited) == 10 and target != visited[0]
    real_stabilizer = specht._column_stabilizer

    def flipped_in_target(t):
        pairs = real_stabilizer(t)
        if column_sets(t) != target:
            return pairs
        move, sign = pairs[-1]
        return pairs[:-1] + [(move, -sign)]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(specht, "_column_stabilizer", flipped_in_target)
        assert kappa_multiple_check(mu) is False
        assert kappa_multiple_oracle(mu) is False
    assert kappa_multiple_check(mu) is True


def test_kappa_check_rejects_a_vanishing_polytabloid():
    # each element cancelled by its negative: every image, e_t included,
    # is zero, though e_t has coefficient 1 at {t}
    real_stabilizer = specht._column_stabilizer

    def cancelled(t):
        pairs = real_stabilizer(t)
        return pairs + [(move, -sign) for move, sign in pairs]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(specht, "_column_stabilizer", cancelled)
        assert kappa_multiple_check((2, 1)) is False


def test_column_stabilizer_depends_only_on_column_sets():
    for n in range(1, 6):
        key = tuple(range(n))
        for mu in partitions(n):
            by_class = {}
            for t in all_tableaux(mu):
                pairs = {(move(key), sign)
                         for move, sign in specht._column_stabilizer(t)}
                assert by_class.setdefault(column_sets(t), pairs) == pairs, t


def counted_kappa_calls(mu, monkeypatch):
    calls = {"_column_stabilizer": 0, "apply_kappa": 0}
    for name in calls:
        real = getattr(specht, name)

        def counting(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(specht, name, counting)
    assert kappa_multiple_check(mu)
    monkeypatch.undo()
    return calls


def test_kappa_check_builds_one_stabilizer_for_a_single_column(monkeypatch):
    assert counted_kappa_calls((1, 1, 1, 1, 1), monkeypatch) \
        == {"_column_stabilizer": 1, "apply_kappa": 120}


def test_kappa_check_builds_one_stabilizer_per_column_class(monkeypatch):
    for n in range(1, 6):
        for mu in partitions(n):
            # set partitions of 1..n into blocks of the column lengths;
            # columns of equal length are unordered
            lengths = conjugate(mu)
            classes = math.factorial(n) // math.prod(
                map(math.factorial, lengths)) // math.prod(
                math.factorial(lengths.count(c)) for c in set(lengths))
            tabloids = math.factorial(n) // math.prod(
                map(math.factorial, mu))
            assert counted_kappa_calls(mu, monkeypatch) \
                == {"_column_stabilizer": classes,
                    "apply_kappa": classes * tabloids}, mu


def test_tabloid_adjacency_exits_on_planted_defects(monkeypatch):
    mu = (2, 1)
    keys = [tab.key for tab in specht.all_tabloids(mu)]
    real_counts = specht.tabloid_m_counts
    top = Tableau(((1, 2), (3,))).tabloid().key
    assert tabloid_adjacency_check(mu)
    # negated m-counts reverse dominance: the first swap leads down, so
    # the check stops where the swapped tabloid is not above
    monkeypatch.setattr(specht, "tabloid_m_counts",
                        lambda tab: tuple(-c for c in real_counts(tab)))
    assert tabloid_adjacency_check(mu) is False
    monkeypatch.undo()
    # every swap lands on the dominance-top tabloid, strictly above each
    # tabloid with a descent, so only the betweenness exit can fire: the
    # middle tabloid {13|2} lies between {23|1} and the top {12|3}
    top_counts = real_counts(Tabloid(top))
    assert all(all(map(operator.le, real_counts(Tabloid(k)), top_counts))
               for k in keys)
    monkeypatch.setattr(specht, "_mover", lambda inverse: lambda key: top)
    assert tabloid_adjacency_check(mu) is False
    monkeypatch.undo()
    assert tabloid_adjacency_check(mu)


# -- the enumerating routes the closed forms replaced, kept as oracles -------

def test_hook_length_formula_counts_standard_tableaux():
    for n in range(10):
        for mu in partitions(n):
            assert specht_dim(mu) == len(standard_tableaux(mu)), mu


def induce_young_by_masks(chi1, chi2):
    """Young induction by its definition: one term per distinct
    subsequence nu1 of nu among all 2^len(nu) masks, weighted by the
    Fraction z(nu) / (z(nu1) z(nu2)).  Returns each value in normal form,
    integral or not."""
    k = len(chi1.identity)
    n = k + len(chi2.identity)
    values = {}
    for nu in partitions(n):
        total = 0
        seen = set()
        for mask in range(1 << len(nu)):
            nu1 = tuple(p for i, p in enumerate(nu) if mask >> i & 1)
            if sum(nu1) != k or nu1 in seen:
                continue
            seen.add(nu1)
            nu2 = tuple(p for i, p in enumerate(nu) if not mask >> i & 1)
            total += (Fraction(centralizer_order(nu),
                               centralizer_order(nu1)
                               * centralizer_order(nu2))
                      * chi1.values[nu1] * chi2.values[nu2])
        values[nu] = scalar(total)
    return values


def induction_outcome(chi1, chi2):
    """induce_young's values, or "raised" if a value is not an integer."""
    try:
        return induce_young(chi1, chi2).values
    except AssertionError:
        return "raised"


def masks_outcome(chi1, chi2):
    values = induce_young_by_masks(chi1, chi2)
    return (values if all(type(v) is int for v in values.values())
            else "raised")


def scaled(chi, factor):
    return ClassFunction(chi.group_id,
                         {lam: factor * v for lam, v in chi.values.items()},
                         chi.sizes, chi.identity)


def test_binomial_induction_matches_the_mask_loop():
    for n in range(2, 9):
        for k in range(1, n):
            for lam in partitions(k):
                for mu in partitions(n - k):
                    chi1, chi2 = specht_character(lam), specht_character(mu)
                    assert induce_young(chi1, chi2).values \
                        == induce_young_by_masks(chi1, chi2), (lam, mu)


def test_binomial_induction_matches_the_mask_loop_off_the_integers():
    i = zeta(4)
    cases = [
        # Gaussian-integer values whose products are integers
        (scaled(specht_character((2, 1)), i),
         scaled(specht_character((2, 1, 1)), -i)),
        # half-integer values: some inductions integral, some not
        (scaled(specht_character((2,)), Fraction(1, 2)),
         specht_character((1, 1))),
        (scaled(specht_character((2, 1)), Fraction(1, 2)),
         scaled(specht_character((1, 1)), Fraction(1, 2))),
        (scaled(specht_character((3, 1)), Fraction(1, 3)),
         specht_character((2,))),
    ]
    outcomes = []
    for chi1, chi2 in cases:
        outcome = induction_outcome(chi1, chi2)
        assert outcome == masks_outcome(chi1, chi2)
        outcomes.append(outcome == "raised")
    assert outcomes == [False, False, True, True]


def adjacency_by_full_scan(mu):
    """The adjacency lemma with every tabloid of the shape tried as mid,
    reading the same module names as tabloid_adjacency_check, so a
    defect planted there reaches both."""
    n = sum(mu)
    counts = {tab.key: specht.tabloid_m_counts(tab)
              for tab in specht.all_tabloids(mu)}
    swaps = [specht._mover([*range(x - 1), x, x - 1, *range(x + 1, n)])
             for x in range(1, n)]

    def below(a, b):
        return a != b and all(map(operator.le, a, b))

    for key, lower in counts.items():
        for x in range(1, n):
            if key[x - 1] <= key[x]:
                continue
            upper = counts[swaps[x - 1](key)]
            if not below(lower, upper):
                return False
            if any(below(lower, mid) and below(mid, upper)
                   for mid in counts.values()):
                return False
    return True


def top_key(mu):
    """The key of the dominance-top tabloid: 1..n filled row by row."""
    return tuple(r for r, p in enumerate(mu) for _ in range(p))


def adjacency_verdicts(monkeypatch, plant):
    """(shape, window verdict, full-scan verdict) for every shape with
    n <= 6, under one of the planted defects of
    test_tabloid_adjacency_exits_on_planted_defects, or none."""
    real_counts = specht.tabloid_m_counts
    out = []
    for n in range(1, 7):
        for mu in partitions(n):
            if plant == "negated":
                monkeypatch.setattr(
                    specht, "tabloid_m_counts",
                    lambda tab: tuple(-c for c in real_counts(tab)))
            elif plant == "to_top":
                top = top_key(mu)
                monkeypatch.setattr(specht, "_mover",
                                    lambda inverse: lambda key: top)
            out.append((mu, tabloid_adjacency_check(mu),
                        adjacency_by_full_scan(mu)))
            monkeypatch.undo()
    return out


@pytest.mark.parametrize("plant", [None, "negated", "to_top"])
def test_adjacency_window_agrees_with_the_full_scan(monkeypatch, plant):
    verdicts = adjacency_verdicts(monkeypatch, plant)
    assert all(window == full for _, window, full in verdicts), verdicts
    # the real counts pass everywhere; each plant fails somewhere
    assert {window for _, window, _ in verdicts} \
        == ({True} if plant is None else {True, False})


# -- negative controls for the closed forms -----------------------------------

def test_unit_weights_fail_branching_and_table_induction(monkeypatch):
    monkeypatch.setattr(math, "comb", lambda m, p: 1)
    assert table_induction_mismatches()
    assert not all(verify_branching(mu)["pass"]
                   for n in range(1, 5) for mu in partitions(n))


def test_a_hook_off_by_one_fails_mezzadri(monkeypatch):
    real = specht.conjugate
    # every hook of the last column one too long
    monkeypatch.setattr(specht, "conjugate",
                        lambda mu: real(mu)[:-1] + (real(mu)[-1] + 1,))
    assert not verify_mezzadri(4)["pass"]
    monkeypatch.undo()
    assert verify_mezzadri(4)["pass"]


def test_a_window_short_of_its_last_tabloid_misses_a_plant(monkeypatch):
    mu = (2, 1)
    top = top_key(mu)
    monkeypatch.setattr(specht, "_mover", lambda inverse: lambda key: top)
    assert tabloid_adjacency_check(mu) is adjacency_by_full_scan(mu) is False
    monkeypatch.setattr(
        specht, "bisect_left",
        lambda a, x: bisect.bisect_left(a, x) - 1)
    assert tabloid_adjacency_check(mu) is True
    assert adjacency_by_full_scan(mu) is False
