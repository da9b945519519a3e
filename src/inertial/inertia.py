"""Sector bookkeeping for the inertial constructions.

Single sectors are the conjugacy classes of G in canonical order.  Double
and triple sectors are orbits of G acting by simultaneous conjugation on
pairs/triples, enumerated eagerly up to a size cap, with alignment
conjugators recorded for every evaluation and multiplication map.  A stored
conjugator h for a map always satisfies h * (image of the representative) *
h^-1 = the stored representative of the target class; consumers must treat
the choice as arbitrary and move class functions only through transport.
"""

from .errors import TheoremViolation, UserError

DOUBLE_SECTOR_CAP = 200
TRIPLE_TUPLE_CAP = 2_000_000


class Sector:
    __slots__ = ("index", "rep", "centralizer")

    def __init__(self, index, rep, centralizer):
        self.index = index
        self.rep = rep
        self.centralizer = centralizer


class SectorIndex:
    """One sector per conjugacy class, plus the inversion involution."""

    def __init__(self, group):
        self.group = group
        self.sectors = [
            Sector(i, members[0], group.centralizer(members[0]))
            for i, members in enumerate(group.conjugacy_classes())
        ]
        self.sigma = tuple(
            group.inverse_class(i) for i in range(len(self.sectors))
        )
        for i, j in enumerate(self.sigma):
            if self.sigma[j] != i:
                raise TheoremViolation(
                    "inversion involution is not an involution")

    def __len__(self):
        return len(self.sectors)

    def sector_of(self, x):
        return self.group.class_of(x)

    def to_json(self):
        g = self.group
        out = []
        for s in self.sectors:
            entry = {
                "index": s.index,
                "representative": s.rep,
                "class_size": len(g.conjugacy_classes()[s.index]),
                "centralizer_order": s.centralizer.order,
                "inverse_sector": self.sigma[s.index],
            }
            word = g.element_label(s.rep)
            if word != str(s.rep):
                entry["word"] = word
            out.append(entry)
        return out


def build_sectors(group):
    cached = group._memo.get("sectors")
    if cached is None:
        cached = group._memo["sectors"] = SectorIndex(group)
    return cached


class DiagClass:
    """An orbit of simultaneous conjugation on l-tuples.

    maps: dict of map name -> (target index, conjugator); targets of "e1"/
    "e2"/"e3"/"mu"/"mu_full" are single-sector indices, of "e12"/"e23"/
    "mu_12_3"/"mu_1_23"/"swap"/"cycle" double-sector indices.
    """

    __slots__ = ("index", "rep", "length", "centralizer", "members", "maps")

    def __init__(self, index, rep, centralizer, members):
        self.index = index
        self.rep = rep
        self.length = len(rep)
        self.centralizer = centralizer
        self.members = members
        self.maps = {}

    @property
    def orbit_size(self):
        return len(self.members)


def _enumerate_diag_classes(group, length):
    """Lex scan of all l-tuples; orbits found in order of their lex-least member."""
    n = group.n
    assigned = {}
    witness = {}
    classes = []
    conj = group.conj

    def tuples_lex():
        idx = [0] * length
        while True:
            yield tuple(idx)
            pos = length - 1
            while pos >= 0:
                idx[pos] += 1
                if idx[pos] < n:
                    break
                idx[pos] = 0
                pos -= 1
            if pos < 0:
                return

    for t in tuples_lex():
        if t in assigned:
            continue
        index = len(classes)
        members = []
        for x in range(n):
            img = tuple(conj(x, m) for m in t)
            if img not in assigned:
                assigned[img] = index
                witness[img] = x
                members.append(img)
        classes.append(DiagClass(index, t, group.centralizer(*t), members))
    return classes, assigned, witness


class DoubleSectorIndex:
    """All pair classes with alignment data for e1, e2, mu, swap and cycle."""

    def __init__(self, group):
        self.group = group
        self.sectors = build_sectors(group)
        classes, assigned, witness = _enumerate_diag_classes(group, 2)
        self.classes = classes
        self._class_of = assigned
        self._witness = witness
        inv, op = group.inv, group.op
        for cls in classes:
            a, b = cls.rep
            ab = op(a, b)
            cls.maps["e1"] = (group.class_of(a), inv[group.witness(a)])
            cls.maps["e2"] = (group.class_of(b), inv[group.witness(b)])
            cls.maps["mu"] = (group.class_of(ab), inv[group.witness(ab)])
            cls.maps["swap"] = self.locate((b, a))
            cls.maps["cycle"] = self.locate((b, inv[ab]))

    def __len__(self):
        return len(self.classes)

    def locate(self, pair):
        """(class index, h) with h * pair * h^-1 = that class's representative."""
        idx = self._class_of[pair]
        return idx, self.group.inv[self._witness[pair]]

    def to_json(self):
        out = []
        for cls in self.classes:
            out.append({
                "index": cls.index,
                "representative": list(cls.rep),
                "orbit_size": cls.orbit_size,
                "centralizer_order": cls.centralizer.order,
                "e1_sector": cls.maps["e1"][0],
                "e2_sector": cls.maps["e2"][0],
                "mu_sector": cls.maps["mu"][0],
                "swap_class": cls.maps["swap"][0],
                "cycle_class": cls.maps["cycle"][0],
            })
        return out


def build_double_sectors(group, cap=DOUBLE_SECTOR_CAP):
    """The group's pair classes, enumerated once and kept on the group.

    cap bounds |G| for this call, whether or not the index is built yet;
    None applies none (the ring builders, after their caller's bound)."""
    if cap is not None and group.n > cap:
        raise UserError(
            "eager double-sector enumeration is capped at |G| <= %d "
            "(got %d); raise the cap explicitly to proceed" % (cap, group.n)
        )
    cached = group._memo.get("doubles")
    if cached is None:
        cached = group._memo["doubles"] = DoubleSectorIndex(group)
    return cached


class TripleSectorIndex:
    """All triple classes with the maps the associativity verifier needs."""

    def __init__(self, group):
        self.group = group
        doubles = build_double_sectors(group, None)
        classes, assigned, witness = _enumerate_diag_classes(group, 3)
        self.classes = classes
        self._class_of = assigned
        self._witness = witness
        inv, op = group.inv, group.op
        for cls in classes:
            a, b, c = cls.rep
            ab, bc = op(a, b), op(b, c)
            abc = op(ab, c)
            cls.maps["e1"] = (group.class_of(a), inv[group.witness(a)])
            cls.maps["e2"] = (group.class_of(b), inv[group.witness(b)])
            cls.maps["e3"] = (group.class_of(c), inv[group.witness(c)])
            cls.maps["e12"] = doubles.locate((a, b))
            cls.maps["e23"] = doubles.locate((b, c))
            cls.maps["mu_12_3"] = doubles.locate((ab, c))
            cls.maps["mu_1_23"] = doubles.locate((a, bc))
            cls.maps["mu_full"] = (group.class_of(abc), inv[group.witness(abc)])

    def __len__(self):
        return len(self.classes)

    def locate(self, triple):
        idx = self._class_of[triple]
        return idx, self.group.inv[self._witness[triple]]


def triple_sectors(group, cap=TRIPLE_TUPLE_CAP):
    """The group's triple classes, enumerated once and kept on the group;
    cap bounds |G|^3 for this call, whether or not the index is built yet."""
    if group.n ** 3 > cap:
        raise UserError(
            "eager triple-sector enumeration needs |G|^3 <= %d (got %d); "
            "so the multiproduct check cannot run on this group"
            % (cap, group.n ** 3)
        )
    cached = group._memo.get("triples")
    if cached is None:
        cached = group._memo["triples"] = TripleSectorIndex(group)
    return cached

