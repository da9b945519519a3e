"""Exception hierarchy shared across the library and the CLI, the bounds on
outside input, and the bounded parsers of outside numbers.

Each class maps to a process exit code so scripted callers can tell bad
input apart from a failed verification or a broken mathematical invariant.
"""

# Python's default limit on the digits int(str) accepts.  Fixed here, so the
# bound on outside input does not change with how the interpreter is started
# (PYTHONINTMAXSTRDIGITS=0 or -X int_max_str_digits=0 lift Python's own).
MAX_DIGITS = 4300

# The default cap on the order of a group whose table is built.
MAX_TABLE_ORDER = 512


class InertialError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class UserError(InertialError):
    """Invalid input: malformed group/representation data, bad CLI args."""

    exit_code = 1


class TheoremViolation(InertialError):
    """An identity that must hold for valid input failed.

    Either the input was not what it claimed to be (e.g. a character that is
    not actually a character) or there is a bug; both deserve a loud stop.
    """

    exit_code = 3


def parse_int(literal, what):
    """A decimal integer literal from outside input as an int, in bounded
    time: one of more than MAX_DIGITS digits, or of more than the
    interpreter's own limit on int(str), is refused with UserError."""
    digits = len(literal.lstrip("+-"))
    if digits > MAX_DIGITS:
        raise UserError("%s of %d digits exceeds the limit of %d"
                        % (what, digits, MAX_DIGITS))
    try:
        return int(literal)
    except ValueError as exc:
        raise UserError("%s: %s" % (what, exc))


def parse_rational(value):
    """A number from outside input as a Fraction, in bounded time.

    Strings are read as Fraction reads them, but a string longer than
    MAX_DIGITS characters, or with a decimal exponent above MAX_DIGITS, is
    refused with ValueError: Fraction("1e10000000") would build 10**10000000.
    Ints are taken as they are; anything else (a bool, a float) is refused
    with ValueError.
    """
    from fractions import Fraction  # not loaded by commands that parse none

    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ValueError("%.40r is neither a string nor an integer" % (value,))
    if isinstance(value, str):
        if len(value) > MAX_DIGITS:
            raise ValueError("number of %d characters exceeds %d"
                             % (len(value), MAX_DIGITS))
        _, e, exponent = value.lower().rpartition("e")
        digits = exponent.strip().lstrip("+-").replace("_", "")
        if e and digits.isdigit() and int(digits) > MAX_DIGITS:
            raise ValueError("decimal exponent of %.40r exceeds %d"
                             % (value, MAX_DIGITS))
    return Fraction(value)
