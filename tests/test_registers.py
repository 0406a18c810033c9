import itertools

import numpy as np
import pytest

import qcrkit as q
from qcrkit.registers import (
    Subsystem, SystemLayout, is_integer_in, labeled_layout, standard_parties,
)


def test_index_set_even_parity_triples():
    s = q.index_set(3, 0, 2)
    assert s.members == ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))


def test_index_set_ternary_pairs():
    s = q.index_set(2, 1, 3)
    assert s.members == ((0, 1), (1, 0), (2, 2))


@pytest.mark.parametrize("k, d", [
    (k, d) for k in range(1, 13) for d in (2, 3, 4, 5) if d**k <= 4096
])
def test_index_set_against_enumeration(k, d):
    # independent oracle: filter the full product by digit sum
    for t in range(d):
        s = q.index_set(k, t, d)
        expected = [x for x in itertools.product(range(d), repeat=k) if sum(x) % d == t]
        assert list(s.members) == expected
        assert s.size == d ** (k - 1)
        assert list(s.members) == sorted(set(s.members))
        assert all(type(x) is int for m in s.members for x in m)


@pytest.mark.parametrize("d", [2, 3])
def test_index_sets_partition_all_strings(d):
    k = 3
    union = []
    for t in range(d):
        union.extend(q.index_set(k, t, d).members)
    assert sorted(union) == sorted(itertools.product(range(d), repeat=k))
    assert len(union) == len(set(union))


def test_index_set_membership():
    s = q.index_set(3, 0, 2)
    assert (0, 1, 1) in s
    assert [0, 1, 1] in s
    assert (0, 0, 1) not in s
    assert [0, 1] not in s


def test_index_set_membership_answers_like_a_set():
    odd = [(), (0.5,), ("0",), (None,), (-1,), (1.0,), (True,), (np.float64(0.0),), (0j,)]
    for k, d in itertools.product(range(1, 5), range(2, 4)):
        strings = list(itertools.product(range(d), repeat=k))
        probes = strings + [s + (0,) for s in strings] + [s[:-1] for s in strings]
        probes += [s[:-1] + (d,) for s in strings] + [s[:-1] + (-1,) for s in strings]
        probes += [tuple(np.int64(x) for x in s) for s in strings]
        probes += [tuple(np.uint8(x) for x in s) for s in strings[:5]]
        probes += [s[:-1] + x for s in strings[:4] for x in odd]
        for t in range(d):
            members = q.index_set(k, t, d)
            as_set = set(members.members)
            for probe in probes:
                assert (probe in members) == (tuple(probe) in as_set), (k, d, t, probe)
                assert (list(probe) in members) == (tuple(probe) in as_set)


def test_index_set_validation():
    for digits, target, modulus, match in [
        (0, 0, 2, "at least one digit"),
        (2, 0, 1, "modulus must be >= 2"),
        (2, 2, 2, "target 2 outside Z_2"),
    ]:
        with pytest.raises(ValueError, match=match):
            q.index_set(digits, target, modulus)
        with pytest.raises(ValueError, match=match):
            q.IndexSet(digits=digits, modulus=modulus, target=target, members=())
    for members, match in [
        (((0, 0), (1,)), r"member \(1,\) does not have 2 digits"),
        (((0, 0), (1, 1, 0)), r"member \(1, 1, 0\) does not have 2 digits"),
        (((0, 0), (2, 0)), r"member \(2, 0\) has digits outside Z_2"),
        (((0, 0), (-1, 1)), r"member \(-1, 1\) has digits outside Z_2"),
        (((0, 1),), r"member \(0, 1\) sums to 1, not 0"),
        (((1, 1), (0, 0)), "sorted and unique"),
        (((0, 0), (0, 0)), "sorted and unique"),
        # the first bad member decides, whatever the later ones break
        (((0, 0), (0, 1), (1,)), r"member \(0, 1\) sums to 1, not 0"),
        (((0, 0), (1,), (0, 1)), r"member \(1,\) does not have 2 digits"),
        (((0, 2), (0, 1)), r"member \(0, 2\) has digits outside Z_2"),
        # digits must be integers: no huge ints, strings or floats (0.5 + 1.5 sums to 0 mod 2)
        (((0, 0), (2**63, 0)), r"has digits outside Z_2"),
        ((("0", "0"),), r"has digits outside Z_2"),
        (((0.5, 1.5),), r"has digits outside Z_2"),
    ]:
        with pytest.raises(ValueError, match=match):
            q.IndexSet(digits=2, modulus=2, target=0, members=members)
    with pytest.raises(ValueError, match="sorted and unique"):
        q.IndexSet(digits=3, modulus=2, target=0, members=((1, 0, 1), (1, 1, 0), (1, 0, 1)))


@pytest.mark.parametrize("bad", [2.5, 2.0, np.float64(2), "2", True], ids=repr)
def test_index_parameters_must_be_integers(bad):
    # 2.5 as a modulus once gave index_set(3, 1, 2.5) four members and digit_sum a float
    for digits, target, modulus, what in [
        (bad, 0, 3, "digit count"),
        (2, 0, bad, "digit modulus"),
        (2, bad, 3, "target"),
    ]:
        match = f"^{what} must be an integer, got "
        with pytest.raises(ValueError, match=match):
            q.index_set(digits, target, modulus)
        with pytest.raises(ValueError, match=match):
            q.IndexSet(digits=digits, modulus=modulus, target=target, members=())
    with pytest.raises(ValueError, match="^digit modulus must be an integer, got "):
        q.digit_sum([1, 1], bad)


def test_digit_sum():
    assert q.digit_sum((0, 1, 1), 2) == 0
    assert q.digit_sum((2, 2), 3) == 1
    assert q.digit_sum((), 5) == 0
    with pytest.raises(ValueError):
        q.digit_sum((0, 2), 2)
    with pytest.raises(ValueError):
        q.digit_sum((0, 1), 1)
    with pytest.raises(ValueError):
        q.digit_sum((0.5, 1.5), 2)
    # bool is an Integral, but True is not the digit 1
    with pytest.raises(ValueError, match=r"^digit True outside Z_2$"):
        q.digit_sum([True], 2)


@pytest.mark.parametrize("d,k", [(2, 3), (3, 2), (3, 4)])
def test_digit_sum_on_index_set_members(d, k):
    for t in range(d):
        for m in q.index_set(k, t, d).members:
            assert q.digit_sum(m, d) == t


def test_standard_layout_example_shape():
    layout = q.standard_layout(2, 2, (2, 2, 2))
    assert layout.labels == (
        "D.info", "D.shield", "A1.info", "A1.shield", "A2.info", "A2.shield",
    )
    assert layout.dims == (2, 2, 2, 2, 2, 2)
    assert layout.total_dim == 64
    assert layout.parties == ("D", "A1", "A2")
    assert layout.players == ("A1", "A2")
    assert layout.qudit_dim == 2


def test_standard_layout_defaults_to_trivial_shields():
    layout = q.standard_layout(2, 1)
    assert layout.dims == (2, 1, 2, 1)
    assert layout.shield_labels == ("D.shield", "A1.shield")
    assert layout.info_labels == ("D.info", "A1.info")


def test_standard_layout_trivial_player_shields():
    layout = q.standard_layout(3, 3, (3, 1, 1, 1))
    assert len(layout) == 8
    assert layout.total_dim == 3 * 3 * 3 * 3 * 3
    assert layout.subsystem("D.shield").dim == 3
    assert layout.subsystem("A2.shield").dim == 1


def test_standard_layout_validation():
    with pytest.raises(ValueError):
        q.standard_layout(1, 2)
    with pytest.raises(ValueError):
        q.standard_layout(2, 0)
    with pytest.raises(ValueError):
        q.standard_layout(2, 2, (1, 1))


def test_layout_position_bijection():
    layout = q.standard_layout(3, 2, (3, 2, 1))
    for i, label in enumerate(layout.labels):
        assert layout.position(label) == i
        assert layout.subsystem(label).label == label
    assert layout.positions(["A1.info", "D.shield"]) == [2, 1]
    with pytest.raises(KeyError):
        layout.position("nope")
    with pytest.raises(ValueError):
        layout.positions(["D.info", "D.info"])


def test_layout_rejects_duplicate_labels():
    sub = Subsystem("X", "D", "info", 2)
    with pytest.raises(ValueError):
        SystemLayout((sub, sub))


def test_party_label_queries():
    layout = q.standard_layout(2, 2, (2, 1, 2))
    assert layout.party_labels("A2") == ("A2.info", "A2.shield")
    assert layout.info_label("D") == "D.info"
    with pytest.raises(KeyError):
        layout.party_labels("A9")


def test_layout_without_and_relabeled():
    layout = q.standard_layout(2, 2)
    smaller = layout.without(["A2.info", "A2.shield"])
    assert smaller.labels == ("D.info", "D.shield", "A1.info", "A1.shield")
    renamed = layout.relabeled({"A1.info": "B.info"})
    assert "B.info" in renamed.labels
    with pytest.raises(KeyError):
        layout.without(["missing"])


def test_layout_unique_label():
    layout = q.standard_layout(2, 1)
    assert layout.unique_label("E") == "E"
    sub = Subsystem("E", "E", "env", 2)
    bigger = SystemLayout(layout.subsystems + (sub,))
    assert bigger.unique_label("E") == "E2"


def test_layout_dict_round_trip():
    layout = q.standard_layout(3, 2, (3, 1, 2))
    doc = layout.to_dict()
    back = SystemLayout.from_dict(doc)
    assert back == layout
    assert back.dims == layout.dims


def test_require_crypto_form():
    q.standard_layout(2, 2).require_crypto_form()
    dealer_only = SystemLayout((Subsystem("D.info", "D", "info", 2),))
    with pytest.raises(ValueError):
        dealer_only.require_crypto_form()
    mixed = SystemLayout((
        Subsystem("D.info", "D", "info", 2),
        Subsystem("A1.info", "A1", "info", 3),
    ))
    with pytest.raises(ValueError):
        mixed.require_crypto_form()


def test_subsystem_validation():
    with pytest.raises(ValueError):
        Subsystem("", "D", "info", 2)
    with pytest.raises(ValueError):
        Subsystem("X", "D", "weird", 2)
    with pytest.raises(ValueError):
        Subsystem("X", "D", "info", 0)


# -- one integer test for digits and dimensions ----------------------------


def test_is_integer_in():
    assert is_integer_in(3) and is_integer_in(np.int64(-4)) and is_integer_in(2**70)
    assert is_integer_in(0, 0, 1) and not is_integer_in(1, 0, 1) and not is_integer_in(-1, 0)
    for x in (1.0, 2.5, np.float64(1), "1", None, (1,), True, False, np.bool_(True)):
        assert not is_integer_in(x)


@pytest.mark.parametrize("build", [
    lambda: Subsystem("x", "D", "info", 2.5),
    lambda: Subsystem("x", "D", "info", 2.0),
    lambda: Subsystem("x", "D", "info", np.float64(2)),
    lambda: Subsystem("x", "D", "info", "2"),
    lambda: q.standard_layout(2, 1, (1.7, 1)),
    lambda: q.standard_layout(2, 1, (1, 2.0)),
    lambda: q.standard_layout(2.0, 1),
    lambda: q.standard_layout(2.5, 1),
    lambda: Subsystem("x", "D", "info", True),
    lambda: q.standard_layout(True, 1),
], ids=["2.5", "2.0", "float64", "str", "shield-1.7", "shield-2.0", "d-2.0", "d-2.5", "bool",
        "d-True"])
def test_non_integer_dimensions_are_rejected(build):
    with pytest.raises(ValueError, match="need an integer >= 1"):
        build()


@pytest.mark.parametrize("n", [0, -1, 1.5, 2.0, "2", True])
def test_player_count_must_be_an_integer(n):
    with pytest.raises(ValueError, match="is not an integer >= 1"):
        q.standard_layout(2, n)
    with pytest.raises(ValueError, match="is not an integer >= 1"):
        q.build_ghz_qcr(2, n)


def test_integer_dimensions_are_stored_as_python_ints():
    sub = Subsystem("x", "D", "info", np.int64(3))
    assert type(sub.dim) is int and sub == Subsystem("x", "D", "info", 3)
    layout = q.standard_layout(np.int64(2), 1, (np.int32(2), np.uint8(1)))
    assert all(type(d) is int for d in layout.dims)
    assert type(layout.total_dim) is int and layout.total_dim == 8
    # from_dict still wants an exact int: that is input from outside the program
    with pytest.raises(TypeError):
        Subsystem.from_dict({"label": "x", "party": "D", "kind": "info", "dim": 2.0})


# -- one naming rule ---------------------------------------------------------


def test_labeled_layout_numbers_repeated_names():
    layout = labeled_layout([
        ("D", "info", 2), ("D", "shield", 2), ("D", "shield", 3), ("A1", "info", 2),
        ("A1", "shield", 1), ("A1", "shield", 2), ("A1", "shield", 2),
        ("E", "env", 4), ("E", "env", 1),
    ])
    assert layout.labels == (
        "D.info", "D.shield", "D.shield2", "A1.info",
        "A1.shield", "A1.shield2", "A1.shield3", "E", "E2",
    )
    assert layout.dims == (2, 2, 3, 2, 1, 2, 2, 4, 1)


def test_standard_layout_is_labeled_by_the_rule():
    assert standard_parties(3) == ("D", "A1", "A2", "A3")
    layout = q.standard_layout(3, 2, (2, 1, 4))
    assert layout.labels == (
        "D.info", "D.shield", "A1.info", "A1.shield", "A2.info", "A2.shield",
    )
    assert layout == labeled_layout(
        (s.party, s.kind, s.dim) for s in layout.subsystems
    )


def test_purify_numbers_environments_by_the_rule():
    rho = q.random_private_state(2, (1, 2), np.random.default_rng(1202))
    once = q.purify(rho)
    twice = q.purify(once)
    assert once.layout.env_labels == ("E",)
    assert twice.layout.env_labels == ("E", "E2")
    assert twice.layout.labels == once.layout.labels + ("E2",)
