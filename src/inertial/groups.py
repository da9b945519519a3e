"""Finite groups as explicit multiplication tables.

A group of order n is a table T with T[a][b] = index of a*b, identity at
index 0.  Construction validates the table (identity, Latin square, and
associativity via Light's test on a generating set), so everything built on
top may assume it really is a group.
"""

import re
from functools import lru_cache
from itertools import permutations
from math import lcm

from .errors import UserError

MAX_TABLE_ORDER = 512

_TOKEN_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?\d+))?$")


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


def _validate_table(table, max_order):
    n = len(table)
    if n == 0:
        raise UserError("empty multiplication table")
    if max_order is not None and n > max_order:
        raise UserError(
            "group order %d exceeds the supported maximum %d" % (n, max_order)
        )
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

    With check, the table is validated and its order capped at max_order
    (None: no cap).
    """

    def __init__(self, table, names=None, label=None, check=True,
                 max_order=MAX_TABLE_ORDER):
        self.table = tuple(tuple(row) for row in table)
        self.n = len(self.table)
        if check:
            _validate_table(self.table, max_order)
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
        self._class_data = None
        self._subgroups = {}
        self._orders = None

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
        if self._orders is None:
            orders = [1] * self.n
            for x in range(1, self.n):
                o, y = 1, x
                while y != 0:
                    y = self.table[y][x]
                    o += 1
                orders[x] = o
            self._orders = tuple(orders)
        return self._orders[a]

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
        if self._class_data is not None:
            return self._class_data
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
        self._class_data = (classes, tuple(class_of), tuple(witness))
        return self._class_data

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

    def power_class(self, c, j):
        return self.class_of(self.power(self.conjugacy_classes()[c][0], j))

    # -- subgroups --------------------------------------------------------------

    def subgroup(self, elements):
        key = tuple(sorted(set(elements)))
        sub = self._subgroups.get(key)
        if sub is None:
            sub = Subgroup(self, key)
            self._subgroups[key] = sub
        return sub

    def whole(self):
        return self.subgroup(range(self.n))

    def generated(self, gens):
        seen = _closure_under(self.table, list(gens))
        return self.subgroup(x for x in range(self.n) if seen[x])

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
        if re.fullmatch(r"-?\d+", token):
            idx = int(token)
            if not 0 <= idx < self.n:
                raise UserError("element index %d out of range 0..%d"
                                % (idx, self.n - 1))
            return idx
        result = 0
        for factor in token.split("*"):
            m = _TOKEN_RE.fullmatch(factor.strip())
            if not m:
                raise UserError("cannot parse element token %r" % token)
            name, exp = m.group(1), int(m.group(2) or 1)
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
        cached = getattr(self, "_word_labels", None)
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
        self._word_labels = words
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


def group_from_permutations(gens, names=None, label=None,
                            max_order=MAX_TABLE_ORDER):
    """Close a set of permutations (tuples over 0..m-1) into a FiniteGroup.

    Composition is (p*q)(x) = p(q(x)).  Elements are sorted lexicographically,
    which puts the identity permutation at index 0.  A closure larger than
    max_order is refused (None: no cap).
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
                r = tuple(p[q[x]] for x in range(m))
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    elems = sorted(seen)
    if max_order is not None and len(elems) > max_order:
        raise UserError(
            "permutation group has order %d, exceeding the maximum %d"
            % (len(elems), max_order)
        )
    index = {p: i for i, p in enumerate(elems)}
    table = [
        tuple(index[tuple(p[q[x]] for x in range(m))] for q in elems) for p in elems
    ]
    name_map = {}
    if names:
        for name, p in names.items():
            if tuple(p) not in index:
                raise UserError("named permutation %r is not in the group"
                                % (p,))
            name_map[name] = index[tuple(p)]
    name_map.setdefault("e", 0)
    g = FiniteGroup(table, names=name_map, label=label or "permutation group",
                    max_order=max_order)
    g.permutations = tuple(elems)
    return g


# -- catalog ------------------------------------------------------------------


def _cyclic(n):
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    names = {"e": 0, "g": 1 % n}
    g = FiniteGroup(table, names=names, label="cyclic(%d)" % n,
                    max_order=None)
    g.catalog = ("cyclic", n)
    return g


def _dihedral(n):
    # elements r^k s^e  ->  index k + n*e
    def mul(k, e, l, f):
        if e == 0:
            return (k + l) % n, f
        return (k - l) % n, (e + f) % 2

    order = 2 * n
    table = [[0] * order for _ in range(order)]
    for k in range(n):
        for e in range(2):
            for l in range(n):
                for f in range(2):
                    k2, e2 = mul(k, e, l, f)
                    table[k + n * e][l + n * f] = k2 + n * e2
    names = {"e": 0, "r": 1 % n, "s": n}
    g = FiniteGroup(table, names=names, label="dihedral(%d)" % n,
                    max_order=None)
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

    order = 4 * n
    table = [[0] * order for _ in range(order)]
    for k in range(m):
        for e in range(2):
            for l in range(m):
                for f in range(2):
                    k2, e2 = mul(k, e, l, f)
                    table[k + m * e][l + m * f] = k2 + m * e2
    names = {"e": 0, "a": 1, "b": m}
    g = FiniteGroup(table, names=names, label=label or "binary_dihedral(%d)" % n,
                    max_order=None)
    g.catalog = ("binary_dihedral", n)
    return g


def _quaternion8():
    g = _binary_dihedral(2, label="quaternion8")
    # classical names: i = a, j = b, k = a*b
    g.names["i"] = g.names["a"]
    g.names["j"] = g.names["b"]
    g.names["k"] = g.op(g.names["a"], g.names["b"])
    g.catalog = ("binary_dihedral", 2)
    return g


def _klein4():
    table = [[i ^ j for j in range(4)] for i in range(4)]
    names = {"e": 0, "a": 1, "b": 2}
    g = FiniteGroup(table, names=names, label="klein4")
    g.catalog = ("klein4", None)
    return g


def _symmetric(n):
    if n > 6:
        raise UserError("symmetric(n) is supported for n <= 6")
    elems = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(elems)}
    table = [
        tuple(index[tuple(p[q[x]] for x in range(n))] for q in elems) for p in elems
    ]
    names = {"e": 0}
    for i in range(1, n):
        p = list(range(n))
        p[i - 1], p[i] = p[i], p[i - 1]
        names["s%d" % i] = index[tuple(p)]
    g = FiniteGroup(table, names=names, label="symmetric(%d)" % n, check=False)
    g.catalog = ("symmetric", n)
    g.permutations = tuple(elems)
    return g


def _alternating(n):
    if n > 6:
        raise UserError("alternating(n) is supported for n <= 6")
    gens = {}
    for i in range(1, n - 1):
        p = list(range(n))
        p[i - 1], p[i], p[i + 1] = p[i], p[i + 1], p[i - 1]
        gens["c%d" % i] = tuple(p)
    if not gens:
        g = FiniteGroup([[0]], names={"e": 0}, label="alternating(%d)" % n)
    else:
        g = group_from_permutations(
            list(gens.values()), names=gens, label="alternating(%d)" % n,
            max_order=None,
        )
    g.catalog = ("alternating", n)
    return g


# group order per unit of n for the families whose table grows with n
_FAMILY_ORDER = {"cyclic": 1, "dihedral": 2, "binary_dihedral": 4}

_CATALOG_RE = re.compile(r"([a-z_0-9]+?)(?:\((\d+)\))?$")


@lru_cache(maxsize=None)
def _catalog_cached(kind, n):
    if kind == "cyclic":
        if n is None or n < 1:
            raise UserError("cyclic(n) needs n >= 1")
        return _cyclic(n)
    if kind == "dihedral":
        if n is None or n < 1:
            raise UserError("dihedral(n) needs n >= 1")
        return _dihedral(n)
    if kind == "symmetric":
        if n is None or n < 1:
            raise UserError("symmetric(n) needs n >= 1")
        return _symmetric(n)
    if kind == "alternating":
        if n is None or n < 1:
            raise UserError("alternating(n) needs n >= 1")
        return _alternating(n)
    if kind == "binary_dihedral":
        if n is None or n < 1:
            raise UserError("binary_dihedral(n) needs n >= 1")
        return _binary_dihedral(n)
    if kind == "quaternion8":
        if n is not None:
            raise UserError("quaternion8 takes no parameter")
        return _quaternion8()
    if kind == "klein4":
        if n is not None:
            raise UserError("klein4 takes no parameter")
        return _klein4()
    raise UserError(
        "unknown catalog group %r (available: cyclic(n), dihedral(n), "
        "symmetric(n<=6), alternating(n<=6), quaternion8, binary_dihedral(n), "
        "klein4)" % kind
    )


def catalog_group(spec, max_order=MAX_TABLE_ORDER):
    """Build a named group: "cyclic(6)", "symmetric(3)", "quaternion8", ...

    A group larger than max_order is refused.
    """
    m = _CATALOG_RE.fullmatch(spec.strip().lower())
    if not m:
        raise UserError("cannot parse catalog group name %r" % spec)
    kind, n = m.group(1), m.group(2)
    n = int(n) if n is not None else None
    # refuse an oversized family member before its table is built
    if kind in _FAMILY_ORDER and n is not None:
        _check_order(_FAMILY_ORDER[kind] * n, max_order)
    g = _catalog_cached(kind, n)
    # the cap is checked outside the cache, so every call honors its own
    _check_order(g.n, max_order)
    return g


def _check_order(order, max_order):
    if order > max_order:
        raise UserError(
            "group order %d exceeds the supported maximum %d"
            % (order, max_order)
        )
