"""Finite groups as explicit multiplication tables.

A group of order n is a table T with T[a][b] = index of a*b, identity at
index 0.  Construction validates the table (identity, Latin square, and
associativity via Light's test on a generating set), so everything built on
top may assume it really is a group.

Every entry point that turns outside input into a table refuses a group
over its cap (check_order) before building it.  No group is kept beyond
its caller, and what is derived from one lives in its memo.
"""

import re
from itertools import permutations
from math import factorial, lcm
from operator import itemgetter

from .errors import MAX_DIGITS, MAX_TABLE_ORDER, UserError, parse_int

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(r"(%s)(?:\^(-?\d+))?$" % _NAME_RE.pattern)


def _closure_under(table, gens):
    seen = [False] * len(table)
    seen[0] = True
    stack = [0]
    while stack:
        x = stack.pop()
        row = table[x]
        for g in gens:
            y = row[g]
            if not seen[y]:
                seen[y] = True
                stack.append(y)
    return seen


def _greedy_generators(table):
    n = len(table)
    gens = []
    seen = _closure_under(table, gens)
    for m in range(1, n):
        if not seen[m]:
            gens.append(m)
            seen = _closure_under(table, gens)
    return gens


def _validate_table(table):
    n = len(table)
    if n == 0:
        raise UserError("empty multiplication table")
    full = frozenset(range(n))
    for i, row in enumerate(table):
        if len(row) != n:
            raise UserError("row %d of the table has length %d, expected %d"
                            % (i, len(row), n))
        for v in row:
            if not isinstance(v, int) or not 0 <= v < n:
                raise UserError("table entry %r is not an index in 0..%d" % (v, n - 1))
        if set(row) != full:
            raise UserError("row %d is not a permutation of 0..%d" % (i, n - 1))
    for j in range(n):
        if {table[i][j] for i in range(n)} != full:
            raise UserError("column %d is not a permutation of 0..%d" % (j, n - 1))
    if any(table[0][j] != j for j in range(n)) or any(table[i][0] != i for i in range(n)):
        raise UserError("index 0 is not a two-sided identity")
    # Light's associativity test: checking (x*a)*y == x*(a*y) for a running
    # over a generating set is equivalent to full associativity.
    for a in _greedy_generators(table):
        arow = table[a]
        for x in range(n):
            xrow = table[x]
            if table[xrow[a]] != tuple(xrow[v] for v in arow):
                raise UserError("multiplication table is not associative")


class FiniteGroup:
    """Immutable finite group given by its multiplication table.

    With check, the table is validated; its size is the caller's to bound
    (check_order).  The slots hold what the constructor is given or sets
    once; _memo keeps everything derived from the table alone, here and in
    other modules (README, "Derived state"), and __slots__ refuses any
    other attribute.
    """

    __slots__ = ("table", "n", "label", "names", "inv", "catalog",
                 "permutations", "_memo")

    def __init__(self, table, names=None, label=None, check=True):
        self.table = tuple(tuple(row) for row in table)
        self.n = len(self.table)
        if check:
            _validate_table(self.table)
        self.label = label if label is not None else "order-%d group" % self.n
        self.names = dict(names) if names else {}
        inv = [0] * self.n
        for a in range(self.n):
            row = self.table[a]
            inv[a] = row.index(0)
            if self.table[inv[a]][a] != 0:
                raise UserError("element %d has no two-sided inverse" % a)
        self.inv = tuple(inv)
        self.catalog = None  # set by catalog constructors, e.g. ("cyclic", 3)
        self.permutations = None  # set when built from permutations
        self._memo = {}

    # -- basic operations ---------------------------------------------------

    def op(self, a, b):
        return self.table[a][b]

    def power(self, a, k):
        if k < 0:
            a, k = self.inv[a], -k
        r = 0
        while k:
            if k & 1:
                r = self.table[r][a]
            a = self.table[a][a]
            k >>= 1
        return r

    def conj(self, h, x):
        """h * x * h^-1."""
        return self.table[self.table[h][x]][self.inv[h]]

    def prod(self, elems):
        r = 0
        for e in elems:
            r = self.table[r][e]
        return r

    def order_of(self, a):
        orders = self._memo.get("orders")
        if orders is None:
            orders = [1] * self.n
            for x in range(1, self.n):
                o, y = 1, x
                while y != 0:
                    y = self.table[y][x]
                    o += 1
                orders[x] = o
            orders = self._memo["orders"] = tuple(orders)
        return orders[a]

    def exponent(self):
        return lcm(*(self.order_of(r) for r in self.class_reps()))

    def is_abelian(self):
        t = self.table
        return all(t[a][b] == t[b][a] for a in range(self.n) for b in range(a))

    # -- conjugacy ------------------------------------------------------------

    def _classes(self):
        """Classes sorted by (size, smallest member); identity class is first.

        Also records, for every element x, the first conjugator w (smallest
        index) with w * rep * w^-1 = x, where rep is x's class minimum.
        """
        cached = self._memo.get("classes")
        if cached is not None:
            return cached
        n = self.n
        class_of = [-1] * n
        witness = [0] * n
        raw = []
        for m in range(n):
            if class_of[m] != -1:
                continue
            members = []
            for w in range(n):
                y = self.conj(w, m)
                if class_of[y] == -1:
                    class_of[y] = -2  # mark; real index assigned after sorting
                    witness[y] = w
                    members.append(y)
            raw.append((m, sorted(members)))
        raw.sort(key=lambda pair: (len(pair[1]), pair[0]))
        classes = tuple(tuple(members) for _, members in raw)
        for idx, members in enumerate(classes):
            for y in members:
                class_of[y] = idx
        cached = self._memo["classes"] = (classes, tuple(class_of),
                                          tuple(witness))
        return cached

    def conjugacy_classes(self):
        return self._classes()[0]

    def class_of(self, x):
        return self._classes()[1][x]

    def class_reps(self):
        return tuple(members[0] for members in self.conjugacy_classes())

    def witness(self, x):
        """w with w * rep * w^-1 = x, rep the smallest member of x's class."""
        return self._classes()[2][x]

    def inverse_class(self, c):
        return self.class_of(self.inv[self.conjugacy_classes()[c][0]])

    # -- subgroups --------------------------------------------------------------

    def subgroup(self, elements):
        """The subgroup on elements, kept in the memo by its sorted elements."""
        key = ("subgroup", tuple(sorted(set(elements))))
        sub = self._memo.get(key)
        if sub is None:
            sub = self._memo[key] = Subgroup(self, key[1])
        return sub

    def generated(self, gens):
        """The subgroup generated by gens, kept in the memo by the sorted
        generator tuple."""
        key = ("generated", tuple(sorted(set(gens))))
        sub = self._memo.get(key)
        if sub is None:
            seen = _closure_under(self.table, key[1])
            sub = self._memo[key] = self.subgroup(
                x for x in range(self.n) if seen[x])
        return sub

    def centralizer(self, *elems):
        t = self.table
        members = [x for x in range(self.n)
                   if all(t[x][m] == t[m][x] for m in elems)]
        return self.subgroup(members)

    # -- element naming ----------------------------------------------------------

    def element_from_string(self, token):
        """Resolve an element token: an index, a name, or a *-product of powers.

        Examples: "3", "g", "r^2*s", "a*b^-1".
        """
        token = token.strip()
        if not token:
            raise UserError("empty element token")
        if len(token) > MAX_DIGITS:
            raise UserError("element token of %d characters exceeds the "
                            "limit of %d" % (len(token), MAX_DIGITS))
        if re.fullmatch(r"-?\d+", token):
            idx = parse_int(token, "element index")
            if not 0 <= idx < self.n:
                raise UserError("element index %d out of range 0..%d"
                                % (idx, self.n - 1))
            return idx
        result = 0
        for factor in token.split("*"):
            m = _TOKEN_RE.fullmatch(factor.strip())
            if not m:
                raise UserError("cannot parse element token %r" % token)
            name, exp = m.group(1), parse_int(m.group(2) or "1",
                                                  "element exponent")
            if name not in self.names:
                raise UserError(
                    "unknown element name %r for %s (known: %s)"
                    % (name, self.label, ", ".join(sorted(self.names)) or "none")
                )
            result = self.table[result][self.power(self.names[name], exp)]
        return result

    def _label_words(self):
        """Shortest generator words for every element the names can reach,
        found by breadth-first search; deterministic via sorted name order."""
        cached = self._memo.get("word_labels")
        if cached is not None:
            return cached
        words = {0: "e" if self.names.get("e") == 0 else "0"}
        gens = sorted(
            (name, idx) for name, idx in self.names.items()
            if name != "e" and idx != 0
        )
        queue = [0]
        while queue:
            fresh = []
            for x in queue:
                base = words[x]
                for name, g in gens:
                    y = self.table[x][g]
                    if y not in words:
                        words[y] = name if x == 0 else base + "*" + name
                        fresh.append(y)
            queue = fresh
        for x, word in words.items():
            if "*" not in word:
                continue
            parts = []
            for name in word.split("*"):
                if parts and parts[-1][0] == name:
                    parts[-1][1] += 1
                else:
                    parts.append([name, 1])
            words[x] = "*".join(
                name if k == 1 else "%s^%d" % (name, k) for name, k in parts
            )
        self._memo["word_labels"] = words
        return words

    def element_label(self, x):
        """A token accepted back by element_from_string: a generator word
        when the named elements generate far enough, else the plain index."""
        label = self._label_words().get(x)
        return label if label is not None else str(x)

    def __repr__(self):
        return "FiniteGroup(%s)" % self.label


class Subgroup:
    """A subgroup of a parent group, with its own re-indexed FiniteGroup.

    Elements are the sorted parent indices; since the identity is parent
    index 0 it stays at index 0 inside the subgroup.
    """

    def __init__(self, parent, elements):
        self.parent = parent
        self.elements = tuple(elements)
        if not self.elements or self.elements[0] != 0:
            raise UserError("a subgroup must contain the identity")
        to_sub = {e: i for i, e in enumerate(self.elements)}
        self.from_parent = to_sub
        if len(self.elements) == parent.n:
            # the whole group: reuse the parent so class functions on it
            # compare identical to class functions on the parent
            self.group = parent
            return
        try:
            table = [
                tuple(to_sub[parent.table[a][b]] for b in self.elements)
                for a in self.elements
            ]
        except KeyError:
            raise UserError("element set is not closed under multiplication")
        names = {n: to_sub[i] for n, i in parent.names.items() if i in to_sub}
        self.group = FiniteGroup(
            table,
            names=names,
            label="subgroup of order %d in %s" % (len(self.elements), parent.label),
            check=False,
        )

    @property
    def order(self):
        return len(self.elements)

    def to_parent(self, i):
        return self.elements[i]

    def __repr__(self):
        return "Subgroup(order %d of %s)" % (self.order, self.parent.label)


# -- permutation input ------------------------------------------------------


def _composition_table(elems, index):
    """table[a][b] = index[p * q] for p = elems[a], q = elems[b], where
    (p * q)(x) = p(q(x)): itemgetter(*q)(p) is that tuple, one getter per q.
    On fewer than two points itemgetter would return a bare item, not a
    tuple, and the only permutation is the identity."""
    if len(elems[0]) < 2:
        return [(0,)]
    getters = [itemgetter(*q) for q in elems]
    return [tuple([index[g(p)] for g in getters]) for p in elems]


def group_from_permutations(gens, names=None, label=None,
                            max_order=MAX_TABLE_ORDER):
    """Close a set of permutations (tuples over 0..m-1) into a FiniteGroup.

    Composition is (p*q)(x) = p(q(x)).  Elements are sorted lexicographically,
    which puts the identity permutation at index 0.  The closure is refused
    as soon as it grows past max_order elements, before its full order is
    known, so generators of a huge group are refused promptly.
    """
    if not gens:
        raise UserError("need at least one permutation")
    m = len(gens[0])
    for p in gens:
        if sorted(p) != list(range(m)):
            raise UserError("%r is not a permutation of 0..%d" % (p, m - 1))
    ident = tuple(range(m))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for q in gens:
                r = tuple(map(p.__getitem__, q))
                if r not in seen:
                    seen.add(r)
                    if len(seen) > max_order:
                        raise UserError("permutation group order exceeds the "
                                        "supported maximum %d" % max_order)
                    nxt.append(r)
        frontier = nxt
    return _permutation_group(sorted(seen), names, label or "permutation group")


def _permutation_group(elems, names, label, check=True):
    """The group on the sorted permutations elems (identity first), with
    names mapping each name to a permutation of the group."""
    index = {p: i for i, p in enumerate(elems)}
    table = _composition_table(elems, index)
    name_map = {}
    for name, p in (names or {}).items():
        if tuple(p) not in index:
            raise UserError("named permutation %r is not in the group" % (p,))
        name_map[name] = index[tuple(p)]
    name_map.setdefault("e", 0)
    g = FiniteGroup(table, names=name_map, label=label, check=check)
    g.permutations = tuple(elems)
    return g


# -- catalog ------------------------------------------------------------------


def _cyclic(n):
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    names = {"e": 0, "g": 1 % n}
    g = FiniteGroup(table, names=names, label="cyclic(%d)" % n)
    g.catalog = ("cyclic", n)
    return g


def _ab_table(m, mul):
    """The table of the words a^k b^e (0 <= k < m, e = 0, 1) at index
    k + m*e, where mul(k, e, l, f) is the word (k', e') of a^k b^e a^l b^f."""
    words = [(k, e) for e in range(2) for k in range(m)]
    return [[k2 + m * e2 for k2, e2 in (mul(k, e, l, f) for l, f in words)]
            for k, e in words]


def _dihedral(n):
    # elements r^k s^e  ->  index k + n*e
    def mul(k, e, l, f):
        if e == 0:
            return (k + l) % n, f
        return (k - l) % n, (e + f) % 2

    names = {"e": 0, "r": 1 % n, "s": n}
    g = FiniteGroup(_ab_table(n, mul), names=names, label="dihedral(%d)" % n)
    g.catalog = ("dihedral", n)
    return g


def _binary_dihedral(n, label=None):
    # order 4n: elements a^k b^e with a^(2n) = 1, b^2 = a^n, b a b^-1 = a^-1;
    # index k + 2n*e
    m = 2 * n

    def mul(k, e, l, f):
        if e == 0:
            return (k + l) % m, f
        k2 = (k - l + (n if f == 1 else 0)) % m
        return k2, (e + f) % 2

    names = {"e": 0, "a": 1, "b": m}
    g = FiniteGroup(_ab_table(m, mul), names=names,
                    label=label or "binary_dihedral(%d)" % n)
    g.catalog = ("binary_dihedral", n)
    return g


def _quaternion8():
    g = _binary_dihedral(2, label="quaternion8")
    # classical names: i = a, j = b, k = a*b
    g.names["i"] = g.names["a"]
    g.names["j"] = g.names["b"]
    g.names["k"] = g.op(g.names["a"], g.names["b"])
    return g


def _klein4():
    table = [[i ^ j for j in range(4)] for i in range(4)]
    names = {"e": 0, "a": 1, "b": 2}
    g = FiniteGroup(table, names=names, label="klein4")
    g.catalog = ("klein4", None)
    return g


def _permutation_catalog(kind, n):
    """symmetric(n) on every permutation of n points, named by s_i =
    (i-1 i); alternating(n) on the even ones, named by c_i = (i-1 i i+1).
    Sorted, so the identity is at index 0, and not re-validated."""
    even = kind == "alternating"
    elems = sorted(permutations(range(n)))
    if even:
        # a permutation is even when its inversions are
        elems = [p for p in elems if sum(a > b for i, a in enumerate(p)
                                         for b in p[i + 1:]) % 2 == 0]
    names = {}
    for i in range(1, n - even):
        # the identity with its window i-1 .. i+even rotated left by one
        p = list(range(n))
        p[i - 1:i + 1 + even] = p[i:i + 1 + even] + [i - 1]
        names["%s%d" % ("c" if even else "s", i)] = p
    g = _permutation_group(elems, names, "%s(%d)" % (kind, n), check=False)
    g.catalog = (kind, n)
    return g


_CATALOG_RE = re.compile(r"([a-z_0-9]+?)(?:\((\d+)\))?$")

# kind -> (builder, the group's order: a function of n for the families,
# None past the n <= 6 that symmetric and alternating are built for, so n!
# is never computed for an n of thousands of digits; a number for a kind
# that takes no n)
_CATALOG = {
    "cyclic": (_cyclic, lambda n: n),
    "dihedral": (_dihedral, lambda n: 2 * n),
    "symmetric": (lambda n: _permutation_catalog("symmetric", n),
                  lambda n: factorial(n) if n <= 6 else None),
    "alternating": (lambda n: _permutation_catalog("alternating", n),
                    lambda n: (factorial(n) + 1) // 2 if n <= 6 else None),
    "binary_dihedral": (_binary_dihedral, lambda n: 4 * n),
    "quaternion8": (_quaternion8, 8),
    "klein4": (_klein4, 4),
}


def catalog_group(spec, max_order=MAX_TABLE_ORDER):
    """Build a named group: "cyclic(6)", "symmetric(3)", "quaternion8", ...

    A group larger than max_order is refused before its table is built.
    Every call builds a new group.
    """
    spec = spec.strip().lower()
    if len(spec) > MAX_DIGITS:
        raise UserError("catalog group name of %d characters exceeds the "
                        "limit of %d" % (len(spec), MAX_DIGITS))
    m = _CATALOG_RE.fullmatch(spec)
    if not m:
        raise UserError("cannot parse catalog group name %r" % spec)
    kind, n = m.group(1), m.group(2)
    if kind not in _CATALOG:
        raise UserError(
            "unknown catalog group %r (available: cyclic(n), dihedral(n), "
            "symmetric(n<=6), alternating(n<=6), quaternion8, "
            "binary_dihedral(n), klein4)" % kind
        )
    build, order = _CATALOG[kind]
    if not callable(order):
        if n is not None:
            raise UserError("%s takes no parameter" % kind)
        check_order(order, max_order)
        return build()
    n = parse_int(n or "0", "catalog group parameter")
    if n < 1:
        raise UserError("%s(n) needs n >= 1" % kind)
    size = order(n)
    if size is None:
        raise UserError("%s(n) is supported for n <= 6" % kind)
    check_order(size, max_order)
    return build(n)


def check_order(order, max_order):
    """Refuse a group of more than max_order elements."""
    if order > max_order:
        raise UserError(
            "group order %d exceeds the supported maximum %d"
            % (order, max_order)
        )
