"""Finite groups as multiplication tables, a free-group word DSL, and the
word-counting oracle N_w: exact counts of tuples over G^r, computed from the
group table alone, by convolving letter-disjoint subwords and enumerating
the letters of subwords whose parts share one."""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence

from . import caps
from .errors import (ClosureCapExceeded, EnumerationCapExceeded, NotAssociative,
                     NotLatinSquare, WordSyntaxError)


class FiniteGroup:
    """A finite group given by its 0-based multiplication table."""

    def __init__(self, name: str, table: Sequence[Sequence[int]],
                 labels: Sequence[str] | None = None, *, _trusted: bool = False):
        self.name = str(name)
        self.table = tuple(tuple(int(x) for x in row) for row in table)
        self.order = len(self.table)
        n = self.order
        if labels is None:
            labels = [f"g{i}" for i in range(n)]
        if len(labels) != n:
            raise ValueError("labels length does not match group order")
        self.labels = tuple(str(s) for s in labels)
        if not _trusted:
            self._validate_latin()
        self.identity = self._find_identity()
        self.inv = self._build_inverses()
        if not _trusted:
            self._validate_associative()
        self._classes: ClassPartition | None = None

    # --- validation ---

    def _validate_latin(self):
        n = self.order
        if n == 0:
            raise NotLatinSquare("empty table")
        full = frozenset(range(n))
        for i, row in enumerate(self.table):
            if len(row) != n:
                raise NotLatinSquare(f"row {i} has length {len(row)}, expected {n}")
            if frozenset(row) != full:
                raise NotLatinSquare(f"row {i} is not a permutation")
        for j in range(n):
            if frozenset(row[j] for row in self.table) != full:
                raise NotLatinSquare(f"column {j} is not a permutation")

    def _find_identity(self) -> int:
        n = self.order
        ident = tuple(range(n))
        for e in range(n):
            if self.table[e] == ident and tuple(self.table[a][e] for a in range(n)) == ident:
                return e
        raise NotAssociative("no two-sided identity element")

    def _build_inverses(self) -> tuple[int, ...]:
        e = self.identity
        return tuple(self.table[a].index(e) for a in range(self.order))

    def _validate_associative(self):
        """Light's associativity test.

        The elements b with (a*b)*c = a*(b*c) for all a and c form a set
        closed under products, so it suffices to test b on a generating set.
        Generators are chosen greedily: each element outside the closure of
        the earlier ones becomes one, so together they generate the table.
        """
        n = self.order
        t = self.table
        members = [self.identity]
        closure = {self.identity}
        gens = []
        for g in range(n):
            if g in closure:
                continue
            gens.append(g)
            closure.add(g)
            members.append(g)
            queue = [g]
            while queue:
                x = queue.pop()
                for y in members:
                    for z in (t[x][y], t[y][x]):
                        if z not in closure:
                            closure.add(z)
                            members.append(z)
                            queue.append(z)
        for b in gens:
            tb = t[b]
            for a in range(n):
                ta = t[a]
                tab = t[ta[b]]
                if list(tab) != [ta[x] for x in tb]:
                    c = next(c for c in range(n) if tab[c] != ta[tb[c]])
                    raise NotAssociative(
                        f"(a*b)*c != a*(b*c) at a={a}, b={b}, c={c}")

    # --- basic operations ---

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inverse(self, a: int) -> int:
        return self.inv[a]

    def conj(self, a: int, g: int) -> int:
        # g a g^-1
        return self.table[self.table[g][a]][self.inv[g]]

    def elements(self) -> range:
        return range(self.order)

    def power(self, a: int, k: int) -> int:
        """a^k by square-and-multiply, in O(log |k|) products."""
        if k < 0:
            a, k = self.inv[a], -k
        acc = self.identity
        while k:
            if k & 1:
                acc = self.table[acc][a]
            a = self.table[a][a]
            k >>= 1
        return acc

    def element_order(self, a: int) -> int:
        k, acc = 1, a
        while acc != self.identity:
            acc = self.table[acc][a]
            k += 1
        return k

    def exponent(self) -> int:
        out = 1
        for a in self.elements():
            out = math.lcm(out, self.element_order(a))
        return out

    def centralizer(self, a: int) -> list[int]:
        t = self.table
        return [g for g in self.elements() if t[g][a] == t[a][g]]

    def subgroup(self, members: Iterable[int]) -> tuple["FiniteGroup", list[int]]:
        """The subgroup on the given (closed) element set, plus the map from
        subgroup indices back to parent indices."""
        members = sorted(set(members))
        pos = {g: i for i, g in enumerate(members)}
        try:
            table = [[pos[self.table[a][b]] for b in members] for a in members]
        except KeyError:
            raise ValueError("element set is not closed under multiplication")
        sub = FiniteGroup(f"{self.name}-sub{len(members)}", table,
                          [self.labels[g] for g in members], _trusted=True)
        return sub, members

    # --- conjugacy data ---

    def conjugacy_data(self) -> "ClassPartition":
        if self._classes is None:
            self._classes = _conjugacy_partition(self)
        return self._classes

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


class ClassPartition:
    """Conjugacy classes; class 0 is the class of the identity."""

    __slots__ = ("class_of", "reps", "sizes", "elements", "centralizer_orders",
                 "inverse_class")

    def __init__(self, class_of: tuple[int, ...], reps: tuple[int, ...],
                 sizes: tuple[int, ...], elements: tuple[tuple[int, ...], ...],
                 centralizer_orders: tuple[int, ...], inverse_class: tuple[int, ...]):
        self.class_of = class_of
        self.reps = reps
        self.sizes = sizes
        self.elements = elements
        self.centralizer_orders = centralizer_orders
        self.inverse_class = inverse_class

    @property
    def n_classes(self) -> int:
        return len(self.reps)


def _conjugacy_partition(G: FiniteGroup) -> ClassPartition:
    seen = [False] * G.order
    raw = []
    for a in G.elements():
        if seen[a]:
            continue
        orbit = sorted({G.conj(a, g) for g in G.elements()})
        for x in orbit:
            seen[x] = True
        raw.append(orbit)
    # Identity class first, then by (size, smallest member).
    raw.sort(key=lambda orb: (orb[0] != G.identity, len(orb), orb[0]))
    class_of = [0] * G.order
    for idx, orb in enumerate(raw):
        for x in orb:
            class_of[x] = idx
    reps = tuple(orb[0] for orb in raw)
    sizes = tuple(len(orb) for orb in raw)
    cents = tuple(G.order // s for s in sizes)
    inv_class = tuple(class_of[G.inv[r]] for r in reps)
    assert sum(sizes) == G.order
    return ClassPartition(tuple(class_of), reps, sizes,
                          tuple(tuple(orb) for orb in raw), cents, inv_class)


def power_map(G: FiniteGroup, class_index: int, t: int) -> int:
    """The class containing g^t for g in the given class."""
    cl = G.conjugacy_data()
    return cl.class_of[G.power(cl.reps[class_index], t)]


# --- construction ---

def _perm_from_cycles(cycles: Sequence[Sequence[int]], npoints: int,
                      position: dict) -> tuple[int, ...]:
    """The permutation of range(npoints) that ``cycles`` make, each point p
    at index position[p]."""
    perm = list(range(npoints))
    used: set = set()
    for cycle in cycles:
        if any(int(p) < 1 for p in cycle):
            raise ValueError(f"cycle points are 1-based, got {list(cycle)}")
        pts = [position[int(p)] for p in cycle]
        if len(set(pts)) != len(pts) or used & set(pts):
            raise ValueError(f"cycles of one generator must be disjoint: {list(cycle)}")
        used.update(pts)
        for i, p in enumerate(pts):
            perm[p] = pts[(i + 1) % len(pts)]
    return tuple(perm)


def _cycle_notation(perm: tuple[int, ...], points: Sequence[int]) -> str:
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        parts.append("(" + " ".join(str(points[p]) for p in cyc) + ")")
    return "".join(parts) if parts else "()"


def from_perm_generators(name: str,
                         generators: Sequence[Sequence[Sequence[int]]]) -> FiniteGroup:
    """Closure of permutation generators (cycles, 1-based points).

    Only the points that occur are permuted, at their indices in sorted
    order, so the size of a permutation is the number of those points, not
    the largest of them; the labels print the points themselves.  The order
    is bounded by the dim cap, whatever the command."""
    cap = caps.dim_cap()
    points = sorted({int(p) for gen in generators for cycle in gen for p in cycle})
    position = {p: i for i, p in enumerate(points)}
    npoints = len(points)
    gens = [_perm_from_cycles(g, npoints, position) for g in generators]
    ident = tuple(range(npoints))
    index = {ident: 0}
    elems = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(p[g[i]] for i in range(npoints))  # p . g
                if q not in index:
                    if len(elems) >= cap:
                        raise ClosureCapExceeded(
                            f"closure of {name} reached {len(elems) + 1} elements, "
                            f"which exceeds dim cap {cap}")
                    index[q] = len(elems)
                    elems.append(q)
                    nxt.append(q)
        frontier = nxt
    table = []
    for p in elems:
        row = []
        for q in elems:
            pq = tuple(p[q[i]] for i in range(npoints))  # (p.q)(x) = p(q(x))
            row.append(index[pq])
        table.append(row)
    return FiniteGroup(name, table, [_cycle_notation(p, points) for p in elems], _trusted=True)


def from_cayley(name: str, table: Sequence[Sequence[int]],
                labels: Sequence[str] | None = None) -> FiniteGroup:
    return FiniteGroup(name, table, labels)


def _json_lists(x, depth: int, leaf=int) -> bool:
    """Whether x is a list nested ``depth`` deep of ``leaf`` (not bool) leaves."""
    if depth == 0:
        return type(x) is leaf
    return type(x) is list and all(_json_lists(y, depth - 1, leaf) for y in x)


def load_group(spec: dict) -> FiniteGroup:
    """Build a group from a GroupSpec mapping: a string name and a ``cayley``
    table of integers with optional string labels, or ``perm_generators``,
    cycles of integer points >= 1.  Other JSON types raise ValueError."""
    if not isinstance(spec, dict):
        raise ValueError("group spec must be a JSON object")
    name, labels = spec.get("name", "G"), spec.get("labels")
    if not _json_lists(name, 0, str) or not (labels is None or _json_lists(labels, 1, str)):
        raise ValueError("group spec name and labels must be strings")
    if "cayley" in spec:
        if not _json_lists(spec["cayley"], 2):
            raise ValueError("'cayley' must be a list of rows of integers")
        return from_cayley(name, spec["cayley"], labels)
    if "perm_generators" in spec:
        if not _json_lists(spec["perm_generators"], 3):
            raise ValueError("'perm_generators' must be lists of cycles of integer points")
        return from_perm_generators(name, spec["perm_generators"])
    raise ValueError("group spec needs a 'cayley' table or 'perm_generators'")


def cyclic_group(n: int) -> FiniteGroup:
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(f"C{n}", table, [f"r{i}" if i else "e" for i in range(n)],
                       _trusted=True)


# --- word DSL ---

class _Node:
    """A word node, equal to a node of its type with equal fields."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash((type(self), self._fields()))

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, self._fields()))})"


class Letter(_Node):
    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index  # 1-based


class Inverse(_Node):
    __slots__ = ("word",)

    def __init__(self, word: Word):
        self.word = word


class Concat(_Node):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple[Word, ...]):
        self.parts = parts


class Commutator(_Node):
    __slots__ = ("left", "right")

    def __init__(self, left: Word, right: Word):
        self.left = left
        self.right = right


class Power(_Node):
    __slots__ = ("word", "k")

    def __init__(self, word: Word, k: int):
        self.word = word
        self.k = k  # |k| >= 2; x^1 is x itself and x^-1 is an Inverse


Word = Letter | Inverse | Concat | Commutator | Power


def _letter_sets(w: Word) -> dict[int, frozenset[int]]:
    """The letters under each node of w, keyed by id(node), in one
    bottom-up walk: each set is built once from its children's."""
    sets: dict[int, frozenset[int]] = {}

    def walk(v: Word) -> frozenset[int]:
        if isinstance(v, Letter):
            s = frozenset((v.index,))
        elif isinstance(v, (Inverse, Power)):
            s = walk(v.word)
        elif isinstance(v, Concat):
            s = frozenset().union(*map(walk, v.parts))
        else:
            s = walk(v.left) | walk(v.right)
        sets[id(v)] = s
        return s

    walk(w)
    return sets


def arity(w: Word) -> int:
    return max(_letter_sets(w)[id(w)])


def word_to_str(w: Word) -> str:
    if isinstance(w, Letter):
        return f"x{w.index}"
    if isinstance(w, (Inverse, Power)):
        inner = word_to_str(w.word)
        if not isinstance(w.word, (Letter, Commutator)):
            inner = f"({inner})"
        return f"{inner}^{w.k if isinstance(w, Power) else -1}"
    if isinstance(w, Concat):
        # Nested concatenations keep parentheses so parsing is exact.
        return "".join(
            f"({word_to_str(p)})" if isinstance(p, Concat) else word_to_str(p)
            for p in w.parts)
    return f"[{word_to_str(w.left)},{word_to_str(w.right)}]"


class _Parser:
    MAX_NESTING = 100  # brackets deep; keeps parsing and evaluation off the stack limit

    def __init__(self, src: str):
        self.src = src
        self.pos = 0
        self.depth = 0

    def error(self, message: str):
        raise WordSyntaxError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def parse_word(self, stop: str = "") -> Word:
        parts = [self.parse_term()]
        while True:
            c = self.peek()
            if not c or c in stop:
                break
            parts.append(self.parse_term())
        return parts[0] if len(parts) == 1 else Concat(tuple(parts))

    def parse_term(self) -> Word:
        atom = self.parse_atom()
        if self.peek() == "^":
            self.pos += 1
            k = self.parse_int()
            if k == 0:
                self.error("zero exponent is not a word")
            return _power(atom, k)
        return atom

    def parse_int(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.src) and self.src[self.pos] == "-":
            self.pos += 1
        self.skip_digits()
        if self.pos == start or self.src[start:self.pos] == "-":
            self.error("expected an integer exponent")
        return int(self.src[start:self.pos])

    def skip_digits(self):
        # ASCII only: str.isdigit() also takes digits int() refuses, like '²'
        while self.pos < len(self.src) and self.src[self.pos] in "0123456789":
            self.pos += 1

    def parse_atom(self) -> Word:
        c = self.peek()
        if c == "x":
            self.pos += 1
            start = self.pos
            self.skip_digits()
            if self.pos == start:
                self.error("expected digits after 'x'")
            index = int(self.src[start:self.pos])
            if index == 0:
                self.pos = start
                self.error("letters are numbered from x1")
            return Letter(index)
        if not c or c not in "[(":
            self.error("expected 'x<digits>', '[' or '('")
        if self.depth == self.MAX_NESTING:
            self.error(f"brackets nested deeper than {self.MAX_NESTING}")
        self.pos += 1
        self.depth += 1
        if c == "[":
            left = self.parse_word(stop=",")
            self.expect(",")
            right = self.parse_word(stop="]")
            self.expect("]")
            atom = Commutator(left, right)
        else:
            atom = self.parse_word(stop=")")
            self.expect(")")
        self.depth -= 1
        return atom


def _power(atom: Word, k: int) -> Word:
    if k == 1:
        return atom
    if k == -1:
        return Inverse(atom)
    return Power(atom, k)


def parse_word(src: str) -> Word:
    parser = _Parser(src)
    word = parser.parse_word()
    parser.skip_ws()
    if parser.pos != len(src):
        parser.error("trailing input")
    return word


def _eval(w: Word, t: Sequence[int], G: FiniteGroup) -> int:
    # Letter and Commutator first: the enumeration runs this once per tuple
    if isinstance(w, Letter):
        return t[w.index - 1]
    if isinstance(w, Commutator):
        a = _eval(w.left, t, G)
        b = _eval(w.right, t, G)
        # [a, b] = a b a^-1 b^-1
        return G.table[G.table[G.table[a][b]][G.inv[a]]][G.inv[b]]
    if isinstance(w, Inverse):
        return G.inv[_eval(w.word, t, G)]
    if isinstance(w, Concat):
        acc = G.identity
        for p in w.parts:
            acc = G.table[acc][_eval(p, t, G)]
        return acc
    return G.power(_eval(w.word, t, G), w.k)


def count_word(G: FiniteGroup, w: Word) -> tuple[int, ...]:
    """N_w: for each group element, the number of tuples in G^r, r = arity(w),
    that w maps to it.

    The counts are exact and come from the group table alone, in one
    bottom-up pass over the word: each node counts the tuples of its own
    letters.  Where the children of a product or commutator share no letter,
    their coordinates are independent, so the node's counts are the
    convolution of theirs (Parzanchevski and Schul, Bull. LMS 46, 2014);
    where they share one, the node's own letters are enumerated.  Letters
    below r that w does not use multiply every count by |G|.  The cap
    bounds the |G|^r tuples counted, whatever the route.
    """
    cap = caps.enum_cap()
    letters = _letter_sets(w)
    r = max(letters[id(w)])
    total = G.order ** r
    if total > cap:
        raise EnumerationCapExceeded(f"{total} tuples exceeds cap {cap}")
    free = G.order ** (r - len(letters[id(w)]))
    return tuple(c * free for c in _count(w, letters, G))


def _count(w: Word, letters: dict[int, frozenset[int]], G: FiniteGroup) -> list[int]:
    """For each element, the number of tuples of w's own letters mapping to it."""
    n = G.order
    if isinstance(w, Letter):
        return [1] * n
    if isinstance(w, (Inverse, Power)):
        image = G.inv if isinstance(w, Inverse) else [G.power(g, w.k) for g in range(n)]
        out = [0] * n
        for g, c in enumerate(_count(w.word, letters, G)):
            out[image[g]] += c
        return out
    parts = w.parts if isinstance(w, Concat) else (w.left, w.right)
    if sum(len(letters[id(p)]) for p in parts) > len(letters[id(w)]):
        return _enumerate(w, sorted(letters[id(w)]), G)
    acc = _count(parts[0], letters, G)
    for p in parts[1:]:
        acc = _convolve(G, acc, _count(p, letters, G), isinstance(w, Commutator))
    return acc


def _convolve(G: FiniteGroup, x: list[int], y: list[int], commutator: bool) -> list[int]:
    """Counts of ab, or of [a, b] = a b a^-1 b^-1, for independent a and b
    counted by x and y."""
    t, inv = G.table, G.inv
    out = [0] * G.order
    for a, ca in enumerate(x):
        ta, ia = t[a], inv[a]
        for b, cb in enumerate(y):
            ab = ta[b]
            out[t[t[ab][ia]][inv[b]] if commutator else ab] += ca * cb
    return out


def _enumerate(w: Word, idx: list[int], G: FiniteGroup) -> list[int]:
    """Counts of w over every assignment of the letters idx, one by one."""
    t = [G.identity] * idx[-1]
    out = [0] * G.order
    for vals in itertools.product(G.elements(), repeat=len(idx)):
        for i, v in zip(idx, vals):
            t[i - 1] = v
        out[_eval(w, t, G)] += 1
    return out
