"""Command-line front end: family dumps, verification suites, count
campaigns, and height scans, with machine-readable reports.

Exit codes: 0 all checks pass; 2 mismatch or failed check; 3 inapplicable
gates only (nothing asserted); 4 budget exceeded; 5 invalid input (a
command line the parser rejects included) or unwritable output.

A canonical command line (a subcommand, then exact `--flag value` pairs)
is read straight from the flag table `COMMANDS`.  Any other goes to the
argparse parser built from the same table, which gives help, --version,
abbreviations and error messages; building that parser costs 2.6-4 ms on
a 2-core host, a third of a quick heights run.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .count import (
    DEFAULT_BUDGET,
    count_family,
    count_custom,
    count_y0_structure,
)
from .domains import QQ, field_create, prime_power
from .families import (
    FAMILY_BUILDERS,
    build_char_two_maps,
    build_ideal,
    build_line_pencil,
    build_x,
    build_x_d_delta,
)
from .heights import height_scan
from .mpoly import MPoly, VarContext
from .reporting import BudgetExceeded, to_csv, to_json
from .verify import CHECKS, run_all_checks

IDEAL_LABELS = ("Hpm", "Z", "Zpm", "Y", "T", "U")
# the largest --n, --d and --delta accepted: the families' symbolic
# expansions grow quadratically in the degree, and building X at n = 1,
# d = 1000 takes about 3 s on a 2-core host
PARAM_MAX = 1000


def _write_output(text, path):
    """Write the report to `path`, or stdout; returns exit code 0."""
    if path is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from None
    return 0


def _emit(records, config, fmt, out):
    if fmt == "json":
        text = to_json(records, config)
    elif fmt == "csv":
        text = to_csv(records)
    else:
        text = "".join((r.line() if hasattr(r, "line") else json.dumps(r, sort_keys=True, default=str))
                       + "\n" for r in records)
    return _write_output(text, out)


def _config_of(args):
    skip = {"func", "system"}
    cfg = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    cfg["version"] = __version__
    return cfg


# ---------------------------------------------------------------------------
# input validation


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _read_custom_system(path):
    """(vars, polys) from a custom-system JSON file, checked against the
    schema {"vars": [name, ...], "polys": [[[coeff, [exp, ...]], ...], ...]}
    with one integer exponent in [0, 2^63) per variable."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not {"vars", "polys"} <= doc.keys():
        raise ValueError(f'{path}: expected an object with keys "vars" and "polys"')
    names, polys = doc["vars"], doc["polys"]
    if not (isinstance(names, list) and names and all(isinstance(v, str) for v in names)
            and len(set(names)) == len(names)):
        raise ValueError(f'{path}: "vars" must be a non-empty list of distinct names')
    if not (isinstance(polys, list) and polys and all(isinstance(f, list) for f in polys)):
        raise ValueError(f'{path}: "polys" must be a non-empty list of term lists')
    for i, rows in enumerate(polys):
        for term in rows:
            if not (isinstance(term, list) and len(term) == 2 and _is_int(term[0])
                    and isinstance(term[1], list) and len(term[1]) == len(names)
                    and all(_is_int(e) and 0 <= e < 2 ** 63 for e in term[1])):
                raise ValueError(
                    f"{path}: polynomial {i}: a term must be [integer coefficient, "
                    f"{len(names)} integer exponents in [0, 2^63)], got {term!r}")
    return names, polys


def _validate(args):
    """Check every subcommand's parameters before it runs; raises ValueError
    with the message to print.  A custom count's system is read here, into
    `args.system`."""
    for name in ("n", "d", "shards", "budget", "bound"):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise ValueError(f"--{name} must be at least 1, got {value}")
    for name in ("n", "d", "delta"):
        value = getattr(args, name, None)
        if value is not None and value > PARAM_MAX:
            raise ValueError(f"--{name} must be at most {PARAM_MAX}, got {value}")
    char = getattr(args, "char", 0)
    if char:
        try:
            prime_power(char)
        except ValueError as exc:
            raise ValueError(f"--char {char}: {exc}") from None
    if args.command == "count" and args.family == "custom":
        if args.poly_file is None:
            raise ValueError("--poly-file required for custom counts")
        try:
            args.system = _read_custom_system(args.poly_file)
        except OSError as exc:
            raise ValueError(str(exc)) from None


# ---------------------------------------------------------------------------
# families dump


def _cmd_families_dump(args):
    char = args.char
    name = args.family
    if name in IDEAL_LABELS:
        dom = QQ if char == 0 else field_create(*prime_power(char))
        ig = build_ideal(args.n, args.d, name, dom)
        return _write_output(ig.to_text() + "\n", args.out)
    if char != 0:
        F = field_create(*prime_power(char))
        if name == "X":
            return _write_output(f"X = {build_x(args.n, args.d, F).to_text()}\n", args.out)
        if F.char != 2:
            raise ValueError(f"only the hypersurface itself dumps over char {char}; "
                             "maps are characteristic-0 constructions")
        if name not in ("char2", "g"):
            raise ValueError(f"family {name!r} has no char-2 constructor; use the char2 family")
        data = build_char_two_maps(args.n, args.d, F)
        lines = [f"P = {data['P'].to_text()}", f"Q = {data['Q'].to_text()}",
                 data["g"].to_text()]
        return _write_output("\n".join(lines) + "\n", args.out)
    if name == "Xdelta":
        if args.delta is None:
            raise ValueError("--delta required for Xdelta")
        f = build_x_d_delta(args.n, args.d, args.delta)
        return _write_output(f"Xdelta = {f.to_text()}\n", args.out)
    if name == "pencil":
        data = build_line_pencil(args.n, args.d)
        lines = [f"L[{i}] = {L.to_text()}" for i, L in enumerate(data["lines"])]
        lines.append(f"F = {data['F'].to_text()}")
        return _write_output("\n".join(lines) + "\n", args.out)
    builder = FAMILY_BUILDERS.get(name)
    if builder is None:
        raise ValueError(f"unknown family {name!r}")
    pieces = builder(args.n, args.d)
    text = "\n".join(f"{label} = {poly.to_text()}" for label, poly in pieces)
    return _write_output(text + "\n", args.out)


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args):
    if args.check == "all":
        records = run_all_checks(args.n, args.d, seed=args.seed, budget=args.budget)
    elif args.check in CHECKS:
        records = [CHECKS[args.check].run(args.n, args.d, args.seed, args.budget)]
    else:
        raise ValueError(f"unknown check {args.check!r}")
    _emit(records, _config_of(args), args.format, args.out)
    return 0 if all(r.passed for r in records) else 2


# ---------------------------------------------------------------------------
# count


def _load_custom_polys(system, F):
    """The system's polynomials over F: terms with one exponent vector add
    up, and terms whose coefficient vanishes in F are dropped."""
    names, rows_list = system
    ctx = VarContext(names)
    polys = []
    for rows in rows_list:
        terms = {}
        for coeff, exps in rows:
            key = tuple(exps)
            terms[key] = F.add(terms.get(key, F.zero), F.from_int(coeff))
        polys.append(MPoly(ctx, F, {e: c for e, c in terms.items() if not F.is_zero(c)}))
    return polys


def _cmd_count(args):
    F = field_create(*prime_power(args.q))
    if args.family == "Y0":
        breakdown = count_y0_structure(args.d, F, budget=args.budget)
        _emit([breakdown], _config_of(args), args.format, args.out)
        return 0 if breakdown["match"] else 2
    if args.family == "custom":
        polys = _load_custom_polys(args.system, F)
        report = count_custom(polys, F, budget=args.budget)
    else:
        report = count_family(args.family, args.n, args.d, F, delta=args.delta,
                              budget=args.budget)
    _emit([report], _config_of(args), args.format, args.out)
    if report.match is None:
        return 3
    return 0 if report.match else 2


# ---------------------------------------------------------------------------
# heights


def _cmd_heights(args):
    if args.n != 1:
        raise ValueError("height scans support n = 1 only (P^3 search space)")
    records = height_scan(args.d, args.bound, mode=args.mode, budget=args.budget)
    return _emit(records, _config_of(args), args.format, args.out)


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Reports a command line it rejects as a ValueError, which `main` maps
    to exit code 5 like every other invalid input."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


# the flags several subcommands share
_N = {"type": int, "default": 1}
_D = {"type": int, "default": 1}
# count and heights check it is at least 1 and ignore it: every count runs
# in one piece
_SHARDS = {"type": int, "default": 1, "help": "accepted and ignored"}
_BUDGET = {"type": int, "default": DEFAULT_BUDGET}
_OUT = {"default": None}
_FORMAT = {"choices": ("json", "csv", "text"), "default": "text"}

# every subcommand, keyed by its name path: its help, the handler it runs,
# and its flags in help order, each with the `add_argument` keywords (type,
# default, choices, required, help) that both parsers read
COMMANDS = {
    ("families", "dump"): ("print a family in canonical text form", _cmd_families_dump, {
        "--family": {"required": True},
        "--delta": {"type": int, "default": None},
        "--char": {"type": int, "default": 0},
        "--n": _N, "--d": _D, "--out": _OUT}),
    ("verify",): ("run symbolic/numeric identity checks", _cmd_verify, {
        "--check": {"default": "all"},
        "--seed": {"type": int, "default": 42},
        "--n": _N, "--d": _D, "--budget": _BUDGET, "--out": _OUT, "--format": _FORMAT}),
    ("count",): ("exact F_q point counts (block convolution or chart scan) vs closed formulas",
                 _cmd_count, {
        "--family": {"required": True, "choices": ("X", "Y", "Xdelta", "Y0", "custom")},
        "--q": {"type": int, "required": True},
        "--delta": {"type": int, "default": None},
        "--poly-file": {"default": None},
        "--n": _N, "--d": _D, "--shards": _SHARDS, "--budget": _BUDGET, "--out": _OUT,
        "--format": _FORMAT}),
    ("heights",): ("bounded-height point counts (n = 1)", _cmd_heights, {
        "--bound": {"type": int, "required": True},
        "--mode": {"choices": ("direct", "param", "both"), "default": "both"},
        "--n": _N, "--d": _D, "--shards": _SHARDS, "--budget": _BUDGET, "--out": _OUT,
        "--format": _FORMAT}),
}
# the help of each subcommand group (one level deep), and the dest of the
# name at each depth
_GROUP_HELP = {("families",): "construct and print the families"}
_DESTS = ("command", "action")


def _table_parse(argv):
    """The Namespace argparse returns for a canonical command line: a
    subcommand path, then `FLAG VALUE` pairs where FLAG is an exact flag of
    that subcommand and VALUE does not start with "-", with every required
    flag given; the last of a repeated flag wins.  None for any other
    command line, which is left to argparse."""
    for path, (_, func, flags) in COMMANDS.items():
        if tuple(argv[:len(path)]) == path:
            break
    else:
        return None
    pairs = argv[len(path):]
    if len(pairs) % 2:
        return None
    given = {}
    for flag, text in zip(pairs[::2], pairs[1::2]):
        spec = flags.get(flag)
        if spec is None or text.startswith("-"):
            return None
        try:
            value = spec.get("type", str)(text)
        except ValueError:
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        given[flag] = value
    if any(spec.get("required") and flag not in given for flag, spec in flags.items()):
        return None
    values = {flag[2:].replace("-", "_"): given.get(flag, spec.get("default"))
              for flag, spec in flags.items()}
    return argparse.Namespace(**dict(zip(_DESTS, path)), func=func, **values)


@functools.cache
def build_parser():
    """The argparse parser for `COMMANDS`, built on first use and kept:
    building it costs 2.6-4 ms on a 2-core host, and parsing leaves it
    unchanged.  `main` needs it only for a command line `_table_parse`
    declines: help, --version, abbreviations, --flag=value, errors."""
    parser = _Parser(
        prog="skewplanes",
        description="Exact constructions, identity verification, point counts, "
                    "and height scans for a family of rational hypersurfaces.")
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = {(): parser.add_subparsers(dest=_DESTS[0], required=True)}
    for path, (help_, func, flags) in COMMANDS.items():
        group = path[:-1]
        if group not in subparsers:
            sub = subparsers[()].add_parser(group[0], help=_GROUP_HELP[group])
            subparsers[group] = sub.add_subparsers(dest=_DESTS[1], required=True)
        sub = subparsers[group].add_parser(path[-1], help=help_)
        for flag, spec in flags.items():
            sub.add_argument(flag, **spec)
        sub.set_defaults(func=func)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _table_parse(argv)
        if args is None:
            args = build_parser().parse_args(argv)
        _validate(args)
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: budget exceeded: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
