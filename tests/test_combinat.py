import pytest

from pshlab.combinat import (PartitionParseError, Tableau, add_node,
                             addable_nodes, all_tableaux, all_tabloids,
                             combinatorial_lemma_check, conjugate, dominates,
                             format_partition, parse_partition, partitions,
                             remove_node, removable_nodes, standard_tableaux)


def test_partition_counts():
    expected = [1, 1, 2, 3, 5, 7, 11, 15]
    for n, count in enumerate(expected):
        assert len(partitions(n)) == count


def test_partitions_lex_descending():
    for n in range(1, 8):
        parts = partitions(n)
        assert all(sum(p) == n for p in parts)
        assert list(parts) == sorted(parts, reverse=True)


def test_parse_and_format():
    assert parse_partition("(3,2,1)") == (3, 2, 1)
    assert parse_partition("(3,1^2)") == (3, 1, 1)
    assert parse_partition("(2^2,1)") == (2, 2, 1)
    assert format_partition((3, 1, 1)) == "(3,1^2)"
    assert format_partition((5,)) == "(5)"
    for n in range(7):
        for mu in partitions(n):
            assert parse_partition(format_partition(mu)) == mu
    with pytest.raises(PartitionParseError):
        parse_partition("(1,2)")


def test_conjugate():
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    for mu in partitions(6):
        assert conjugate(conjugate(mu)) == mu


def test_dominance():
    assert dominates((4, 2), (3, 3))
    assert not dominates((3, 3), (4, 2))
    assert not dominates((3, 1, 1, 1), (2, 2, 2))
    assert not dominates((2, 2, 2), (3, 1, 1, 1))
    # conjugation reverses dominance
    for lam in partitions(6):
        for mu in partitions(6):
            if dominates(lam, mu):
                assert dominates(conjugate(mu), conjugate(lam))


def test_nodes():
    assert addable_nodes((2, 1)) == {(1, 3), (2, 2), (3, 1)}
    assert removable_nodes((2, 1)) == {(1, 2), (2, 1)}
    for mu in partitions(5):
        for node in addable_nodes(mu):
            lam = add_node(mu, node)
            assert sum(lam) == 6
            assert remove_node(lam, node) == mu


def test_tableaux_counts():
    assert len(standard_tableaux((2, 1))) == 2
    assert len(standard_tableaux((2, 2))) == 2
    assert len(standard_tableaux((3, 2))) == 5
    assert len(all_tableaux((2, 1))) == 6
    assert len(all_tabloids((2, 1))) == 3


def test_standard_tableaux_are_standard():
    for t in standard_tableaux((3, 2)):
        for row in t.rows:
            assert list(row) == sorted(row)
        cols = t.column_of()
        rows = {x: i for i, r in enumerate(t.rows) for x in r}
        for x in range(1, 6):
            for y in range(1, 6):
                if cols[x] == cols[y] and rows[x] < rows[y]:
                    assert x < y


def test_column_distinct_rows_force_dominance():
    for n in range(1, 5):
        for lam in partitions(n):
            for mu in partitions(n):
                for t1 in all_tableaux(lam):
                    column_of = t1.column_of()
                    for t2 in all_tableaux(mu):
                        if combinatorial_lemma_check(column_of, t2):
                            assert dominates(lam, mu)
                            break


def test_tableau_row_column_maps():
    t = Tableau(((1, 2, 4), (3, 5)))
    assert 4 in t.rows[0]
    assert t.column_of()[5] == 2
