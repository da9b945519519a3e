"""The front end's parser against argparse, on seeded random command lines.

cli._Parser reads argv by hand; oracles.reference_parser builds the argparse
parser it replaced from the same option table (cli.COMMANDS), without
abbreviations.  Each line is a command followed by 0 to 6 tokens drawn from
that command's options (and --help), --opt=value forms and VALUE_SHAPES.
Both parsers must accept or refuse a line alike, read the same values when
both accept it, and refuse it with the same message, apart from the
deliberate differences listed in differences().
"""

import io
import random
from contextlib import redirect_stdout

from inertial.cli import COMMANDS, _Parser
from inertial.errors import UserError

from oracles import reference_parser

SEEDS = (11, 23, 37, 41, 53)
LINES_PER_SEED = 4000

# values as a user might type them: empty, blank, negative, option-like,
# with a space or an "=", numbers in Python's other int spellings, choices
VALUE_SHAPES = ("", " ", "-1", "-.5", "--", "-1 2", "a b", "1e3", "5_0",
                " 3", "7", "0", "1.5", "x", "-x", "-", "-h", "--help",
                "=", "a=b", "--nope", "--nope=a b", "catalog:cyclic(2)",
                "chow", "k")


def outcome(parse, argv, options):
    """("ok", the option values), ("help", exit code) or ("error", message)."""
    try:
        with redirect_stdout(io.StringIO()):
            args = parse(argv)
    except SystemExit as exc:
        return "help", exc.code
    except UserError as exc:
        return "error", str(exc)
    return "ok", {name: getattr(args, name.replace("-", "_"))
                  for name in options}


def line(rng, command, options):
    """The command and 0 to 6 tokens: an option alone, an option and a
    value, an option with =value, or a value alone."""
    names = [*options, "help"]
    count = rng.randint(0, 6)
    tokens = []
    while len(tokens) < count:
        r = rng.random()
        option = "--" + rng.choice(names)
        if r < 0.15:
            tokens.append(option)
        elif r < 0.6:
            tokens += [option, rng.choice(VALUE_SHAPES)]
        elif r < 0.9:
            tokens.append("%s=%s" % (option, rng.choice(VALUE_SHAPES)))
        else:
            tokens.append(rng.choice(VALUE_SHAPES))
    return [command, *tokens[:count]]


def differences(argv, options):
    """Why the two parsers may differ on argv, or None if they may not."""
    for token in argv[1:]:
        name, eq, value = token.partition("=")
        # argparse (3.11) drops an explicit "--": it reads --opt=-- as the
        # value [] and checks it against no type or choice; _Parser reads
        # the text after "=", "--"
        if eq and value == "--" and name[2:] in options:
            return "explicit --"
        # argparse refuses --help=x at once ("ignored explicit argument");
        # _Parser reads only a bare -h or --help as help, so --help=x is
        # one of the unrecognized arguments, which it reports after
        # reading the whole line: it reports an error found later in
        # argv first, or prints help for a later --help
        if eq and name == "--help":
            return "help with a value"
    return None


def test_parser_agrees_with_argparse():
    reference = reference_parser()
    compared = accepted = 0
    for seed in SEEDS:
        rng = random.Random(seed)
        for _ in range(LINES_PER_SEED):
            command = rng.choice(list(COMMANDS))
            options = _Parser().options(command)
            argv = line(rng, command, options)
            ours = outcome(_Parser().parse_args, argv, options)
            theirs = outcome(reference.parse_args, argv, options)
            why = differences(argv, options)
            if why is None:
                # help text is a deliberate difference: only the exit
                # through help is compared, outcome() drops the text
                assert ours == theirs, (argv, ours, theirs)
                compared += 1
            elif why == "help with a value":
                assert "ok" not in (ours[0], theirs[0]), (argv, ours, theirs)
            accepted += ours[0] == "ok"
    # most lines are compared in full, and enough are accepted that the
    # values are compared too
    assert compared > 0.8 * len(SEEDS) * LINES_PER_SEED, compared
    assert accepted > 500, accepted
