"""JSON input specs: groups given as tables, permutations or catalog objects,
characters given by their values, and the character tables that
`chartable --chartable-file` checks.

The command line imports this module only when a --group or --rep spec is
JSON (inline, or a path to a file) or a --chartable-file is given, so a
command on catalog names never compiles it.
"""

from math import lcm

from .cli import _read_json_spec
from .errors import UserError, parse_rational
from .groups import (_NAME_RE, FiniteGroup, catalog_group, check_order,
                     group_from_permutations)


def _int_list(obj):
    return isinstance(obj, list) and all(
        isinstance(x, int) and not isinstance(x, bool) for x in obj)


def _int_rows(obj):
    """Whether obj is a non-empty list of lists of integers."""
    return isinstance(obj, list) and bool(obj) and all(map(_int_list, obj))


def _spec_names(data, valid, what):
    """The optional "names" object of a JSON group spec, each value checked,
    and each name one that an element token reads back."""
    names = data.get("names")
    if names is not None and not (
            isinstance(names, dict) and all(map(valid, names.values()))):
        raise UserError('group "names" must map each name to %s' % what)
    for name in names or ():
        if not _NAME_RE.fullmatch(name):
            raise UserError("group name %.40r does not match %s"
                            % (name, _NAME_RE.pattern))
    return names


def _spec_label(data):
    """The optional "label" of a JSON group spec, which the artifacts echo."""
    label = data.get("label")
    if label is not None and not isinstance(label, str):
        raise UserError('group "label" must be a string')
    return label


def group_from_json(spec, max_order):
    """The group a JSON --group spec describes, refused above max_order
    elements."""
    data = _read_json_spec(spec, "group")
    kind = data.get("kind")
    if kind == "catalog":
        if not isinstance(data.get("name"), str):
            raise UserError('group kind "catalog" needs a "name" string')
        return catalog_group(data["name"], max_order)
    if kind == "table":
        table = data.get("table")
        if not _int_rows(table):
            raise UserError('group kind "table" needs a "table" list of '
                            "integer rows")
        n = len(table)
        names = _spec_names(data, lambda x: _int_list([x]) and 0 <= x < n,
                            "an element index below %d" % n)
        check_order(n, max_order)
        return FiniteGroup(table, names=names, label=_spec_label(data))
    if kind == "perm":
        gens = data.get("generators")
        if not _int_rows(gens):
            raise UserError('group kind "perm" needs a "generators" list of '
                            "integer permutations")
        names = _spec_names(data, _int_list, "a permutation")
        return group_from_permutations(
            [tuple(p) for p in gens], names=names, label=_spec_label(data),
            max_order=max_order,
        )
    raise UserError(
        'group spec must be "catalog:NAME" or JSON with kind table/perm/catalog'
    )


def _parse_value(obj, group):
    """A character value of group from JSON input."""
    from .cyclotomic import Cyclotomic, cyc

    if isinstance(obj, bool):
        raise UserError("character values must be numbers, not booleans")
    if isinstance(obj, int):
        return cyc(obj)
    if isinstance(obj, str):
        try:
            return cyc(parse_rational(obj))
        except (ValueError, ZeroDivisionError):
            raise UserError("cannot parse %.40r as a rational number" % obj)
    if isinstance(obj, dict):
        # a character value lies in Q(zeta_e), e the exponent; refuse any
        # other conductor before field work that grows with it
        n, e = obj.get("conductor"), group.exponent()
        if isinstance(n, int) and n > 0 and lcm(2, e) % n:
            raise UserError("conductor %d does not divide the group exponent "
                            "%d (or twice it, when it is odd)" % (n, e))
        try:
            return Cyclotomic.from_json(obj)
        except (KeyError, TypeError, ValueError) as exc:
            raise UserError("bad cyclotomic value %r: %s" % (obj, exc))
    raise UserError("cannot interpret %r as a character value" % (obj,))


def rep_from_json(spec, group):
    """The character of group a JSON --rep spec describes, checked to be
    genuine."""
    from .characters import (
        ClassFunction, assert_genuine_character, catalog_character)

    data = _read_json_spec(spec, "representation")
    kind = data.get("kind")
    if kind == "catalog_rep":
        if not isinstance(data.get("name"), str):
            raise UserError('rep kind "catalog_rep" needs a "name" string')
        return catalog_character(group, data["name"])
    if kind == "character":
        values = data.get("values_by_class")
        if not isinstance(values, list):
            raise UserError('rep kind "character" needs "values_by_class"')
        r = len(group.conjugacy_classes())
        if len(values) != r:
            raise UserError(
                "expected one value per conjugacy class (%d classes in the "
                "emitted order, got %d values)" % (r, len(values))
            )
        v = ClassFunction(group, [_parse_value(x, group) for x in values])
        assert_genuine_character(v, "the supplied character")
        return v
    raise UserError(
        'rep spec must be "zero", "catalog:NAME", or JSON with kind '
        "character/catalog_rep"
    )


def check_chartable(group, path):
    """Refuse a user-supplied character table unless its rows are the
    irreducible characters of the group, in any order."""
    from .characters import ClassFunction, character_table

    data = _read_json_spec(path, "character table")
    rows = data.get("table")
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise UserError("character table must be a list of rows")
    chars = [ClassFunction(group, [_parse_value(x, group) for x in row])
             for row in rows]
    table = character_table(group)
    if len(chars) != len(table) or set(chars) != set(table):
        raise UserError("supplied table is not the character table of %s"
                        % group.label)
