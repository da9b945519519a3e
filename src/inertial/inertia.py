"""Sector bookkeeping for the inertial constructions.

Single sectors are the conjugacy classes of G in canonical order.  Double
and triple sectors are the classes of pairs and triples under simultaneous
conjugation, enumerated eagerly: the triples only while |G|^3 is under a
cap, the pairs for any group the caller loaded (the CLI caps |G| at load,
lower for the commands that build them).  Each is built from the
classes one entry shorter: for a class with lex-least representative t and
centralizer Z, the tuples of the class that start with t are (t, z x z^-1)
for z in Z, so every Z-orbit of G gives one longer class, represented by
t followed by the orbit's least member, with the orbit's stabilizer as its
centralizer.  No member of a class has a prefix below t, so that tuple is
the lex-least of its class, and extending the classes in ascending order
of t, the orbits in ascending order of their least member, lists the
longer classes in ascending order of representative, as a lex scan of all
tuples would.
"""

from .errors import TheoremViolation, UserError

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
    """A class of l-tuples under simultaneous conjugation: its lex-least
    representative and that tuple's centralizer."""

    __slots__ = ("rep", "centralizer")

    def __init__(self, rep, centralizer):
        self.rep = rep
        self.centralizer = centralizer


def _extend(group, classes):
    """The classes of (l+1)-tuples from (rep, centralizer) of the l-tuple
    classes, taken in ascending representative order."""
    out = []
    for rep, Z in classes:
        seen = [False] * group.n
        for x in range(group.n):
            if seen[x]:
                continue
            stabilizer = []
            for z in Z.elements:
                y = group.conj(z, x)
                seen[y] = True
                if y == x:
                    stabilizer.append(z)
            out.append(DiagClass(rep + (x,), group.subgroup(stabilizer)))
    return tuple(out)


def build_double_sectors(group):
    """The group's pair classes, enumerated once and kept on the group."""
    cached = group._memo.get("doubles")
    if cached is None:
        cached = group._memo["doubles"] = _extend(group, sorted(
            ((s.rep,), s.centralizer) for s in build_sectors(group).sectors))
    return cached


def triple_sectors(group):
    """The group's triple classes, enumerated once and kept on the group;
    TRIPLE_TUPLE_CAP, read at each call, bounds |G|^3 whether or not they
    are built yet."""
    if group.n ** 3 > TRIPLE_TUPLE_CAP:
        raise UserError(
            "eager triple-sector enumeration needs |G|^3 <= %d (got %d); "
            "so neither the multiproduct check nor the identity family "
            "(--v-identities) can run on this group"
            % (TRIPLE_TUPLE_CAP, group.n ** 3)
        )
    cached = group._memo.get("triples")
    if cached is None:
        cached = group._memo["triples"] = _extend(group, (
            (cls.rep, cls.centralizer)
            for cls in build_double_sectors(group)))
    return cached
