"""Exception hierarchy shared across the library and the CLI, and the bound
on outside input.

Each class maps to a process exit code so scripted callers can tell bad
input apart from a failed verification or a broken mathematical invariant.
"""

# Python's default limit on the digits int(str) accepts.  Fixed here, so the
# bound on outside input does not change with how the interpreter is started
# (PYTHONINTMAXSTRDIGITS=0 or -X int_max_str_digits=0 lift Python's own).
MAX_DIGITS = 4300


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
