"""Finite groups, the word DSL, and the word-counting oracle."""

import copy
import itertools
import json
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hopfcomm import group as group_mod
from hopfcomm.errors import (ClosureCapExceeded, EnumerationCapExceeded, HopfcommError,
                             NotAssociative, NotLatinSquare, WordSyntaxError)
from hopfcomm.group import (Commutator, Concat, Inverse, Letter, Power, _eval, arity,
                            count_word, cyclic_group, from_cayley, from_perm_generators,
                            load_group, parse_word, power_map, word_to_str)

S3_GENS = [[[1, 2]], [[1, 2, 3]]]
S4_GENS = [[[1, 2]], [[1, 2, 3, 4]]]
D4_GENS = [[[1, 2, 3, 4]], [[1, 3]]]
A4_GENS = [[[1, 2, 3]], [[1, 2], [3, 4]]]


def s3():
    return from_perm_generators("S3", S3_GENS)


def quaternion_group():
    spec = Path(__file__).resolve().parent / "golden" / "specs" / "Q8.json"
    return load_group(json.loads(spec.read_text(encoding="utf-8")))


def test_perm_closure_orders():
    assert s3().order == 6
    assert from_perm_generators("D4", D4_GENS).order == 8
    assert from_perm_generators("S4", S4_GENS).order == 24
    assert from_perm_generators("A4", A4_GENS).order == 12
    assert from_perm_generators("triv", []).order == 1


def test_permutations_are_sized_by_the_points_that_occur(monkeypatch):
    # The spy stops the build at the first permutation, so nothing of the
    # size of the largest point is allocated on the way.
    sizes = []

    class Stop(Exception):
        pass

    def spy(cycles, npoints, *rest):
        sizes.append(npoints)
        raise Stop

    with monkeypatch.context() as m:
        m.setattr(group_mod, "_perm_from_cycles", spy)
        with pytest.raises(Stop):
            from_perm_generators("C2", [[[1, 300000]]])
    assert sizes == [2]
    G = from_perm_generators("C2", [[[1, 300000]]])
    assert G.order == 2 and G.labels == ("()", "(1 300000)")
    # gaps between the points change neither the table nor, up to the
    # points' names, the labels
    H = from_perm_generators("S3", [[[5, 9]], [[5, 9, 12]]])
    assert H.table == s3().table
    rename = str.maketrans({"1": "5", "2": "9", "3": "12"})
    assert H.labels == tuple(lab.translate(rename) for lab in s3().labels)


def test_closure_cap(monkeypatch):
    monkeypatch.setenv("HOPFCOMM_CAP", "dim=10")
    with pytest.raises(ClosureCapExceeded):
        from_perm_generators("S4", S4_GENS)


def test_cayley_validation():
    with pytest.raises(NotLatinSquare):
        from_cayley("bad", [[0, 0], [1, 1]])
    # Identity may sit at any index: this is C2 with identity at index 1.
    g = from_cayley("C2", [[1, 0], [0, 1]])
    assert g.identity == 1
    # Latin square without any two-sided identity element.
    with pytest.raises(NotAssociative):
        from_cayley("bad", [[0, 1, 2], [2, 0, 1], [1, 2, 0]])
    # Latin square with identity but broken associativity: the 5-element
    # quasigroup below has row 0 as identity.
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(NotAssociative):
        from_cayley("bad", table)


@pytest.mark.parametrize("n", [20, 260])
def test_intercalate_swap_is_not_associative(n):
    # Z_n with one intercalate (a 2x2 Latin subsquare) swapped stays a
    # Latin square with identity 0, but is no longer associative.
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    assert from_cayley(f"C{n}", table).order == n
    h = n // 2
    for row in (1, 1 + h):
        table[row][1], table[row][1 + h] = table[row][1 + h], table[row][1]
    with pytest.raises(NotAssociative):
        from_cayley("bad", table)


def test_load_group():
    g = load_group({"name": "C2", "cayley": [[0, 1], [1, 0]]})
    assert g.order == 2 and g.identity == 0
    g = load_group({"name": "S3", "perm_generators": S3_GENS})
    assert g.order == 6
    with pytest.raises(ValueError):
        load_group({"name": "nothing"})


_SPEC_SWAPS = [None, True, 0, -1, 1, 2, 3, 1.5, "x", [], {}, [1], [[1]], [[[1]]]]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_load_group_refuses_mutated_specs_with_typed_errors(data):
    # An S3 spec, and a C3 table with labels, with a value swapped for one
    # of another type, an entry dropped or repeated, a few times over; the
    # loader either builds a group or raises ValueError or a HopfcommError.
    # Points stay small, so no closure is large.
    spec = data.draw(st.sampled_from([
        {"name": "S3", "perm_generators": [[[1, 2]], [[1, 2, 3]]]},
        {"name": "C3", "cayley": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
         "labels": ["e", "a", "b"]},
    ]))
    spec = copy.deepcopy(spec)
    for _ in range(data.draw(st.integers(1, 3))):
        places = _places(spec, [])
        if not places:  # every entry dropped; the empty spec is loaded below
            break
        node, key = places[data.draw(st.integers(0, len(places) - 1))]
        op = data.draw(st.sampled_from(["swap", "drop", "repeat"]))
        if op == "swap":
            node[key] = copy.deepcopy(data.draw(st.sampled_from(_SPEC_SWAPS)))
        elif op == "drop":
            del node[key]
        elif isinstance(node, list):
            node.insert(key, copy.deepcopy(node[key]))
    try:
        load_group(spec)
    except (ValueError, HopfcommError):
        pass


def _places(node, out):
    """Every (container, key) inside a JSON document, depth first."""
    keys = range(len(node)) if isinstance(node, list) else node.keys()
    for key in list(keys):
        out.append((node, key))
        if isinstance(node[key], (list, dict)):
            _places(node[key], out)
    return out


@pytest.mark.parametrize("spec", [
    {"name": 7, "cayley": [[0]]},
    {"cayley": [[0, 1], [1, 0]], "labels": 7},
    {"cayley": [[0, 1], [1, 0]], "labels": ["e", 1]},
    {"cayley": [[0, True], [True, 0]]},
    {"perm_generators": [[[True, 2]]]},  # read as (1 2)
    {"perm_generators": [[["1", "2"]]]},
])
def test_load_group_refuses_other_json_types(spec):
    with pytest.raises(ValueError):
        load_group(spec)


def test_quaternion_group():
    q8 = quaternion_group()
    assert q8.order == 8
    assert q8.exponent() == 4
    i, j = q8.labels.index("i"), q8.labels.index("j")
    assert q8.labels[q8.mul(i, j)] == "k"
    assert q8.labels[q8.mul(j, i)] == "-k"
    assert q8.labels[q8.mul(i, i)] == "-1"
    cl = q8.conjugacy_data()
    assert sorted(cl.sizes) == [1, 1, 2, 2, 2]


def test_conjugacy_s3():
    G = s3()
    cl = G.conjugacy_data()
    assert cl.n_classes == 3
    assert cl.sizes == (1, 2, 3)  # identity, 3-cycles, transpositions
    assert cl.class_of[G.identity] == 0
    # orbit-stabilizer, with each centralizer counted off the group table
    for size, rep in zip(cl.sizes, cl.reps):
        assert size * len(G.centralizer(rep)) == G.order == 6


def test_conjugacy_abelian():
    c6 = cyclic_group(6)
    assert c6.conjugacy_data().n_classes == 6
    assert c6.exponent() == 6


def test_exponent_s3():
    assert s3().exponent() == 6


def test_power_map():
    G = s3()
    cl = G.conjugacy_data()
    transp = next(i for i, s in enumerate(cl.sizes) if s == 3)
    threecyc = next(i for i, s in enumerate(cl.sizes) if s == 2)
    assert power_map(G, transp, 2) == 0
    assert power_map(G, threecyc, 3) == 0
    assert power_map(G, threecyc, 2) == threecyc


def test_parse_trivials():
    assert parse_word("x1") == Letter(1)
    assert parse_word("[x1,x2]") == Commutator(Letter(1), Letter(2))
    assert parse_word("[[x1,x2],x3]") == Commutator(
        Commutator(Letter(1), Letter(2)), Letter(3))
    assert parse_word("x1^-1") == Inverse(Letter(1))
    assert parse_word("x1^2") == Power(Letter(1), 2)
    assert parse_word("(x1x2)^-3") == Power(Concat((Letter(1), Letter(2))), -3)
    assert parse_word("(x1 x2)^-1") == Inverse(Concat((Letter(1), Letter(2))))
    assert parse_word("[x1,x2][x3,x4]") == Concat((
        Commutator(Letter(1), Letter(2)), Commutator(Letter(3), Letter(4))))


def test_exponents_print_as_written():
    # an exponent is one node, not |k| copies of its base
    assert word_to_str(parse_word("x1^1000000")) == "x1^1000000"
    for src in ("x1^5", "(x1x2)^-3", "[x1,x2]^2", "((x1^2)^3)^-1", "x1^-2x2^3"):
        assert word_to_str(parse_word(src)) == src


def test_nested_exponents_evaluate_as_the_flat_power():
    G = s3()
    nested = parse_word("((x1^99)^99)^-99")
    assert word_to_str(nested) == "((x1^99)^99)^-99"
    flat = parse_word("x1^-970299")
    for g in G.elements():
        assert _eval(nested, (g,), G) == _eval(flat, (g,), G) == G.power(g, -970299)
    assert count_word(G, parse_word("x1^99999999999999")) == count_word(G, parse_word("x1^3"))


def test_power_is_square_and_multiply():
    G = s3()
    for g in G.elements():
        acc = G.identity
        for k in range(13):
            assert G.power(g, k) == acc
            assert G.power(g, -k) == G.inverse(acc)
            acc = G.mul(acc, g)


def test_power_reduces_huge_and_negative_exponents():
    # against (k mod ord g) products of g, or of g^-1 for k < 0, on S5
    G = from_perm_generators("S5", [[[1, 2]], [[1, 2, 3, 4, 5]]])
    ks = (-10**50 - 3, -7, -1, 0, 1, 2, 59, 60, 61, 119, 120, 121, 10**50 + 3)
    for g in G.elements():
        o = G.element_order(g)
        for k in ks:
            base, reps = (g, k % o) if k >= 0 else (G.inverse(g), -k % o)
            acc = G.identity
            for _ in range(reps):
                acc = G.mul(acc, base)
            assert G.power(g, k) == acc


def test_bracket_nesting_is_bounded():
    # deep nesting is a syntax error, not a RecursionError
    assert parse_word("(" * 100 + "x1" + ")" * 100) == Letter(1)
    with pytest.raises(WordSyntaxError) as exc:
        parse_word("[x1," * 101 + "x1" + "]" * 101)
    assert exc.value.offset == 400


def test_parse_errors_carry_offset():
    # x0 is refused at its digits; '²' passes str.isdigit() but not int()
    for src, offset in [("", 0), ("y1", 0), ("[x1x2]", 5), ("x1^", 3), ("x1)", 2),
                        ("x0", 1), ("[x1, x00]", 6), ("x1^2 x0^-1", 6),
                        ("x²", 1), ("x1^²", 3)]:
        with pytest.raises(WordSyntaxError) as exc:
            parse_word(src)
        assert exc.value.offset == offset


def test_eval_word_trivials():
    G = s3()
    w = parse_word("[x1,x1]")
    for g in G.elements():
        assert _eval(w, (g,), G) == G.identity
    w = parse_word("x1x1^-1")
    for g in G.elements():
        assert _eval(w, (g,), G) == G.identity
    # x1^2 applied to a 3-cycle gives the other 3-cycle
    rot = next(g for g in G.elements() if G.element_order(g) == 3)
    sq = _eval(parse_word("x1^2"), (rot,), G)
    assert sq != rot and G.element_order(sq) == 3


def test_count_word_identity_word():
    G = s3()
    assert count_word(G, parse_word("x1")) == (1,) * 6


def test_count_commutator_s3():
    G = s3()
    n = count_word(G, parse_word("[x1,x2]"))
    assert n[G.identity] == 18
    cl = G.conjugacy_data()
    by_class = [n[cl.reps[i]] for i in range(3)]
    assert by_class == [18, 9, 0]  # identity, 3-cycles, transpositions
    assert sum(n) == 36


def test_count_commutator_q8():
    q8 = quaternion_group()
    n = count_word(q8, parse_word("[x1,x2]"))
    minus_one = q8.labels.index("-1")
    assert n[minus_one] == 24
    assert n[q8.identity] == 40


def test_count_word_cap(monkeypatch):
    monkeypatch.setenv("HOPFCOMM_CAP", "enum=10")
    with pytest.raises(EnumerationCapExceeded):
        count_word(s3(), parse_word("[x1,x2]"))


def test_count_word_holds_only_the_letters_it_uses():
    # C1 passes the cap at any arity; the enumeration of [x_r, x_r] holds
    # one letter, not a list as long as r (80 MB at r = 10^7)
    tracemalloc.start()
    try:
        assert count_word(cyclic_group(1), parse_word("[x10000000,x10000000]")) == (1,)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_square_roots_match_direct_count():
    for G in (s3(), quaternion_group()):
        n = count_word(G, parse_word("x1^2"))
        for g in G.elements():
            direct = sum(1 for x in G.elements() if G.power(x, 2) == g)
            assert n[g] == direct


# Bounded by leaf count: an unbounded recursive strategy spends seconds
# drawing words, and deep nesting has its own test above.
_words = st.recursive(
    st.integers(1, 3).map(Letter),
    lambda sub: st.one_of(
        sub.map(Inverse),
        st.lists(sub, min_size=2, max_size=3).map(lambda ps: Concat(tuple(ps))),
        st.tuples(sub, sub).map(lambda ab: Commutator(*ab)),
        st.tuples(sub, st.integers(2, 12) | st.integers(-12, -2)).map(lambda wk: Power(*wk))),
    max_leaves=8)


@settings(max_examples=120, deadline=None)
@given(_words)
def test_parser_round_trip(w):
    assert parse_word(word_to_str(w)) == w


def _count_by_enumeration(G, w):
    """Reference N_w: evaluate w on every tuple of G^r, one by one."""
    r = arity(w)
    counts = [0] * G.order
    for t in itertools.product(G.elements(), repeat=r):
        counts[_eval(w, t, G)] += 1
    return tuple(counts)


_SMALL_GROUPS = {"S3": s3(), "Q8": quaternion_group(),
                 "A4": from_perm_generators("A4", A4_GENS)}


@pytest.mark.parametrize("src", [
    "x1", "x3", "[x2,x4]", "x4^-1", "[x1,x1]", "x1x2x1", "[x1,x1x2]", "[x1,x1x2]x3",
    "[x1,x2][x3,x4]", "[[x1,x2],x3]", "((x2^2)^-3)^2", "([x1,x3]^2)^-1x4",
    "[x1^2,(x2x1)^-1]x4", "[x1,x2]^3[x2,x3]", "(x1x2)^2x3^-2"])
@pytest.mark.parametrize("name", sorted(_SMALL_GROUPS))
def test_count_word_matches_enumeration(name, src):
    G, w = _SMALL_GROUPS[name], parse_word(src)
    assert count_word(G, w) == _count_by_enumeration(G, w)


_words_x4 = st.recursive(
    st.integers(1, 4).map(Letter),
    lambda sub: st.one_of(
        sub.map(Inverse),
        st.lists(sub, min_size=2, max_size=3).map(lambda ps: Concat(tuple(ps))),
        st.tuples(sub, sub).map(lambda ab: Commutator(*ab)),
        st.tuples(sub, st.integers(2, 7) | st.integers(-7, -2)).map(lambda wk: Power(*wk))),
    max_leaves=5)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_SMALL_GROUPS)), _words_x4)
def test_count_word_matches_enumeration_on_random_words(name, w):
    # Shared letters, unused lower letters and nested powers all occur.
    G = _SMALL_GROUPS[name]
    assert count_word(G, w) == _count_by_enumeration(G, w)


@settings(max_examples=25, deadline=None)
@given(_words)
def test_count_word_invariants(w):
    G = s3()
    r = arity(w)
    if G.order ** r > 10 ** 5:
        return
    n = count_word(G, w)
    assert sum(n) == G.order ** r
    cl = G.conjugacy_data()
    for idx in range(cl.n_classes):
        vals = {n[g] for g in cl.elements[idx]}
        assert len(vals) == 1  # N_w is a class function


# Tokens of the word DSL, letters x0-x12 (x0 is not a letter), exponents of
# at most two digits, and junk, including digits that str.isdigit() takes
# and int() refuses.
_word_tokens = st.one_of(
    st.integers(0, 12).map(lambda i: f"x{i}"),
    st.from_regex(r"\^-?[0-9]{0,2}", fullmatch=True),
    st.sampled_from(["[", "]", ",", "(", ")", " ", "x", "-", "²", "٣"]),
    st.characters(),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_word_tokens, max_size=8).map("".join))
def test_word_fuzz_ends_in_typed_errors(src):
    # Any string either counts on S3 or raises one of the two word errors.
    # A function-scoped monkeypatch fixture would trip Hypothesis's health check.
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("HOPFCOMM_CAP", "enum=10000")
        try:
            count_word(s3(), parse_word(src))
        except (WordSyntaxError, EnumerationCapExceeded):
            pass
