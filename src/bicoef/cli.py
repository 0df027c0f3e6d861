"""Command-line interface.

Subcommands: bound, invert, operator, member, falsify, extremal,
corollary-check.  Exit codes: 0 success, 1 violated invariant (a
falsification violation, a failed corollary identity, or an extremal gap
below -VIOLATION_TOL times the bound), 2 usage error, 141 (128 + SIGPIPE)
when the reader of stdout closed it before the output was written, with
nothing on stderr.

An optional config file (``--config``) holds ``key = value`` lines whose keys
are the subcommand's long flag names.  Each line is read as the token
``--key=value`` (a switch set to 1/true/yes as a bare ``--key``) placed right
after the subcommand, so explicit flags win and argparse checks config values
and flags alike: types, choices, required flags, unknown keys.  Every usage
error, from argparse, the config file or a handler, is one ``bicoef: ...``
line on stderr with exit 2.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .bounds import COROLLARY_IDS, bounds_for, corollary_check
from .harness import extremal_search, falsify
from .operators import (AlphaParams, BetaParams, MembershipGrid,
                        apply_operator, membership)
from .series import NormalizedFunction, inverse_coeffs_closed, revert

__all__ = ["main", "build_parser"]


def _number(kind):
    """argparse type: a finite float or complex; a complex may hold spaces."""
    def parse(text: str):
        try:
            value = kind(text.replace(" ", "") if kind is complex else text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a {kind.__name__} value: {text!r}")
        if not np.isfinite(value):
            raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
        return value
    return parse


_float, _complex = _number(float), _number(complex)


MAX_ORDER = 256   # revert's N convolutions: ~10 ms, pow_real's ~2, of a ~0.2 s member child at 256
# Atoms per mixture of falsify and extremal.  Three atoms already reach every
# K = 2 prefix (Caratheodory-Toeplitz); a campaign's memory is CHUNK x atoms,
# and at 64 a 1e5-sample falsify peaked at 57 MB RSS, against 38 MB at 3.
MAX_ATOMS = 64
# member's grid: --radii circles of --angles points each, some 80 B a point.
# At 2^16 angles and the 4 default radii member peaked at 51 MB RSS, against
# 31 MB at the default 256 angles; at both caps, 16 radii of 2^16 angles, at
# 111 MB, and it took 4.1 s at --order 256.
MAX_ANGLES = 1 << 16
MAX_RADII = 16


def _int(lo: int, hi: int | None = None):
    """argparse type: an int in [lo, hi], or at least lo where hi is None."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an int value: {text!r}")
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        if hi is not None and value > hi:
            raise argparse.ArgumentTypeError(f"must be <= {hi}, got {value}")
        return value
    return parse


_order, _count, _seed = _int(1, MAX_ORDER), _int(1), _int(0)
_atoms, _angles = _int(1, MAX_ATOMS), _int(1, MAX_ANGLES)


def _list(item, cap: int):
    """argparse type: comma-separated item values, none empty, at most cap."""
    def parse(text: str) -> list:
        fields = text.split(",")
        if not all(field.strip() for field in fields):
            raise argparse.ArgumentTypeError(f"empty field in the list {text!r}")
        if len(fields) > cap:
            raise argparse.ArgumentTypeError(f"at most {cap} values, got {len(fields)}")
        return [item(field) for field in fields]
    return parse


# the default order, len + 1, stays <= MAX_ORDER
_coeffs, _radii = _list(_complex, MAX_ORDER - 1), _list(_float, MAX_RADII)


def _report(args, payload: dict, text_lines: list[str]) -> str:
    """The --json payload (a complex as [re, im]) or the text lines."""
    if args.json:
        return json.dumps(payload, indent=2, sort_keys=True,
                          default=lambda z: [z.real, z.imag])
    return "\n".join(text_lines)


def _open_out(path):
    """A context that yields --out PATH opened for binary writing, or None.

    Where PATH is the file open on fd 1 (``--out /dev/stdout``) it yields
    stdout's buffer: a second open of a regular file there would write from
    offset 0, over what stdout writes.
    """
    if not path:
        return contextlib.nullcontext()
    try:
        on_stdout = os.path.samestat(os.stat(path), os.fstat(1))
    except OSError:
        on_stdout = False
    return contextlib.nullcontext(sys.stdout.buffer) if on_stdout else open(path, "wb")


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    report = _report(args, payload, text_lines)
    with _open_out(args.out) as out:
        if out is not None:
            out.write((report + "\n").encode("utf-8"))
    print(report)


@contextlib.contextmanager
def _usage_error_on_overflow(flags: str):
    """numpy's float warnings off; an OverflowError is a usage error naming flags."""
    try:
        with np.errstate(all="ignore"):
            yield
    except OverflowError:
        raise ValueError(f"the result of {flags} overflows") from None


def _finite(numbers):
    """numbers, or OverflowError where one of them is inf or NaN."""
    if not np.isfinite(numbers).all():
        raise OverflowError
    return numbers


def _params_from_args(args):
    """Build the parameter set named by --family."""
    shape = getattr(args, args.family)
    if shape is None:
        raise ValueError(f"--{args.family} is required for --family {args.family}")
    params = {"alpha": AlphaParams, "beta": BetaParams}[args.family]
    return params(shape, args.lam, args.mu)


# --------------------------------------------------------------------------
# subcommand handlers

def _cmd_bound(args) -> int:
    params = _params_from_args(args)
    rep = bounds_for(params)
    payload = {"family": params.family, "alpha": args.alpha, "beta": args.beta,
               "lambda": params.lam, "mu": params.mu, **asdict(rep)}
    lines = [f"a2_bound = {rep.a2_bound!r}  [{rep.a2_branch}]",
             f"a3_bound = {rep.a3_bound!r}  [{rep.a3_branch}]"]
    _emit(args, payload, lines)
    return 0


def _cmd_invert(args) -> int:
    closed = {"--a2": args.a2, "--a3": args.a3, "--a4": args.a4}
    if args.coeffs is not None:
        given = [flag for flag, value in closed.items() if value is not None]
        if given:
            raise ValueError(f"{' and '.join(given)} cannot be combined with --coeffs")
        f = NormalizedFunction.from_tail(args.coeffs, order=args.order)
        with _usage_error_on_overflow("--coeffs"):
            tail = _finite(revert(f).coeffs[2:].tolist())
        payload = {"inverse_tail": tail, "order": f.order}
        lines = [f"b{k + 2} = {c}" for k, c in enumerate(tail)]
    else:
        if args.order is not None:
            raise ValueError("--order applies only with --coeffs")
        with _usage_error_on_overflow("--a2, --a3 and --a4"):
            b2, b3, b4 = _finite(inverse_coeffs_closed(
                *(0j if value is None else value for value in closed.values())))
        payload = {"b2": b2, "b3": b3, "b4": b4}
        lines = [f"b2 = {b2}", f"b3 = {b3}", f"b4 = {b4}"]
    _emit(args, payload, lines)
    return 0


def _cmd_operator(args) -> int:
    f = NormalizedFunction.from_tail(args.coeffs, order=args.order)
    with _usage_error_on_overflow("--coeffs, --lambda and --mu"):
        coeffs = _finite(apply_operator(f, args.lam, args.mu).tolist())
    payload = {"coeffs": coeffs, "order": len(coeffs) - 1,
               "lambda": args.lam, "mu": args.mu}
    lines = [f"c{k} = {c}" for k, c in enumerate(coeffs)]
    _emit(args, payload, lines)
    return 0


def _cmd_member(args) -> int:
    params = _params_from_args(args)
    f = NormalizedFunction.from_tail(args.coeffs, order=args.order)
    grid = MembershipGrid(tuple(args.radii), args.angles, args.tol)
    with _usage_error_on_overflow("--coeffs, --lambda and --mu"):
        rep = membership(f, params, grid)
    lines = [f"{'PASS' if rep.passed else 'FAIL'} ({rep.test} test, "
             f"threshold {rep.threshold!r})",
             f"worst value {rep.worst_value!r} at z = {rep.worst_point} "
             f"on side {rep.worst_side}",
             f"margin {rep.margin!r}"]
    _emit(args, asdict(rep), lines)
    return 0


def _cmd_falsify(args) -> int:
    params = _params_from_args(args)
    bounds_for(params)   # a usage error here leaves --out untouched
    # opened first, so that an unwritable PATH fails before the campaign runs
    with _open_out(args.out) as out:
        summary = falsify(params, args.n, args.seed,
                          filter_mode=args.filter, atom_count=args.atoms)
        if out is not None:
            summary.write_csv(out)
    payload = summary.to_json_dict()
    lines = [
        f"samples    {summary.n_samples}",
        f"admissible {summary.n_admissible} "
        f"(modulus fails {summary.n_fail_modulus}, "
        f"toeplitz fails {summary.n_fail_toeplitz})",
        f"max |a2|   {summary.a2.max_abs!r}  bound {summary.bounds.a2_bound!r}",
        f"max |a3|   {summary.a3.max_abs!r}  bound {summary.bounds.a3_bound!r}",
        f"violations {len(summary.violations)}",
    ]
    print(_report(args, payload, lines))
    return 1 if summary.violations else 0


def _cmd_extremal(args) -> int:
    params = _params_from_args(args)
    bounds_for(params)   # a usage error here leaves --out untouched
    # opened first, so that an unwritable PATH fails before the campaign runs
    with _open_out(args.out) as out:
        res = extremal_search(params, args.objective, args.budget, args.seed,
                              atom_count=args.atoms)
        lines = [f"objective |{res.objective}|",
                 f"achieved  {res.achieved!r}",
                 f"bound     {res.bound!r}",
                 f"gap       {res.gap!r}",
                 f"evals     {res.evaluations}",
                 f"sample    {res.best_index}"]
        report = _report(args, asdict(res), lines)
        if out is not None:
            out.write((report + "\n").encode("utf-8"))
    print(report)
    return 1 if res.violated else 0


def _cmd_corollary_check(args) -> int:
    which = COROLLARY_IDS if args.which == "all" else (args.which,)
    reports = [corollary_check(w) for w in which]
    lines = []
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.which}: {status}  points={r.points} "
                     f"max_dev={r.max_deviation:.3e}")
        if r.crossover_found is not None:
            lines.append(f"  crossover at {r.crossover_found!r} "
                         f"(expected {r.crossover_expected!r})")
        elif r.crossover_expected is not None:
            lines.append(f"  crossover not found (expected {r.crossover_expected!r})")
        for note in r.notes:
            lines.append(f"  note: {note}")
    _emit(args, {"reports": [asdict(r) for r in reports]}, lines)
    return 0 if all(r.passed for r in reports) else 1


# --------------------------------------------------------------------------
# parser construction and config handling

class _UsageError(Exception):
    """A command line or config file that the parser rejects."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises its usage errors instead of exiting, and
    the errors of its writes (-h, --version) instead of dropping them."""

    def error(self, message):
        raise _UsageError(message)

    def _print_message(self, message, file=None):
        if message:   # a closed stdout raises BrokenPipeError: main exits 141
            (file or sys.stderr).write(message)


def _add_common(sp) -> None:
    sp.add_argument("--json", action="store_true", help="emit JSON")
    sp.add_argument("--out", metavar="PATH",
                    help="also write the report (CSV for falsify) to PATH")
    sp.add_argument("--config", metavar="PATH",
                    help="file of 'key = value' lines, each read as "
                         "--key=value; flags win")


def _add_order(sp) -> None:
    sp.add_argument("--order", type=_order, default=None,
                    help=f"series truncation order, 1 to {MAX_ORDER}")


def _add_family(sp) -> None:
    sp.add_argument("--family", choices=("alpha", "beta"), required=True)
    shape = sp.add_mutually_exclusive_group()   # the one --family names
    shape.add_argument("--alpha", type=_float, default=None)
    shape.add_argument("--beta", type=_float, default=None)
    _add_operator_params(sp)


def _add_operator_params(sp) -> None:
    sp.add_argument("--lambda", dest="lam", type=_float, default=1.0)
    sp.add_argument("--mu", type=_float, default=1.0)


def build_parser():
    parser = _Parser(
        prog="bicoef",
        description="Coefficient bounds and falsification harness for two "
                    "bi-univalent function classes")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("bound", help="evaluate the closed-form bounds")
    _add_family(sp)
    _add_common(sp)
    sp.set_defaults(func=_cmd_bound)

    sp = sub.add_parser("invert", help="inverse-function coefficients")
    sp.add_argument("--a2", type=_complex, default=None, help="default 0")
    sp.add_argument("--a3", type=_complex, default=None, help="default 0")
    sp.add_argument("--a4", type=_complex, default=None, help="default 0")
    sp.add_argument("--coeffs", type=_coeffs, default=None,
                    metavar="A2,A3,...",
                    help="full reversion of z + a2 z^2 + ... instead of the "
                         "closed-form triple; not with --a2/--a3/--a4")
    _add_order(sp)
    _add_common(sp)
    sp.set_defaults(func=_cmd_invert)

    sp = sub.add_parser("operator", help="apply the class operator")
    sp.add_argument("--coeffs", type=_coeffs, required=True, metavar="A2,A3,...")
    _add_operator_params(sp)
    _add_order(sp)
    _add_common(sp)
    sp.set_defaults(func=_cmd_operator)

    sp = sub.add_parser("member", help="grid membership check")
    _add_family(sp)
    sp.add_argument("--coeffs", type=_coeffs, required=True, metavar="A2,A3,...")
    sp.add_argument("--radii", type=_radii, default=MembershipGrid.radii)
    sp.add_argument("--angles", type=_angles, default=MembershipGrid.n_angles)
    sp.add_argument("--tol", type=_float, default=MembershipGrid.tol)
    _add_order(sp)
    _add_common(sp)
    sp.set_defaults(func=_cmd_member)

    sp = sub.add_parser("falsify", help="randomized falsification campaign")
    _add_family(sp)
    sp.add_argument("-n", "--samples", dest="n", type=_count, default=100000)
    sp.add_argument("--filter", choices=("modulus", "toeplitz"),
                    default="toeplitz")
    sp.add_argument("--atoms", type=_atoms, default=3)
    sp.add_argument("--seed", type=_seed, default=0, help="RNG seed")
    _add_common(sp)
    sp.set_defaults(func=_cmd_falsify)

    sp = sub.add_parser("extremal", help="largest admissible |a2| or |a3| of a campaign")
    _add_family(sp)
    sp.add_argument("--objective", choices=("a2", "a3"), default="a2")
    sp.add_argument("--budget", type=_count, default=10000)
    sp.add_argument("--atoms", type=_atoms, default=3)
    sp.add_argument("--seed", type=_seed, default=0, help="RNG seed")
    _add_common(sp)
    sp.set_defaults(func=_cmd_extremal)

    sp = sub.add_parser("corollary-check",
                        help="verify corollary reductions of the bounds")
    sp.add_argument("--which", choices=COROLLARY_IDS + ("all",),
                    default="all")
    _add_common(sp)
    sp.set_defaults(func=_cmd_corollary_check)

    return parser


_SWITCHES = ("json",)


def _config_tokens(path: str) -> list[str]:
    """The ``key = value`` lines of a config file as command-line tokens.

    ``--key=value`` keeps a value with a leading minus a value; a switch is a
    bare ``--key`` when set to 1/true/yes and absent when set to 0/false/no.
    """
    tokens = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = (part.strip() for part in line.partition("="))
            if not eq or key == "config":
                raise _UsageError(f"config error: {path}:{lineno}: expected "
                                  f"'key = value' naming a flag other than "
                                  f"--config, got {line!r}")
            switch = value.lower() if key in _SWITCHES else None
            if switch in ("1", "true", "yes"):
                tokens.append(f"--{key}")
            elif switch not in ("0", "false", "no"):
                tokens.append(f"--{key}={value}")
    return tokens


def _with_config(argv: list[str]) -> list[str]:
    """argv with the ``--config`` file's tokens after the subcommand name."""
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return argv
    # the top-level parser takes no option values: the first word is the command
    at = next((i for i, tok in enumerate(argv) if not tok.startswith("-")),
              len(argv))
    return argv[:at + 1] + _config_tokens(path) + argv[at + 1:]


def main(argv=None) -> int:
    if argv is None:
        # the program, not a caller in process: move the import-time heap of
        # numpy and bicoef (~22k objects) to the permanent generation, so that
        # no collection traverses it, the one at interpreter exit included.
        # A caller's heap stays collectable: a frozen cycle is never freed.
        gc.freeze()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        try:
            args = build_parser().parse_args(_with_config(argv))
            code = args.func(args)
        except SystemExit as exc:  # -h and --version
            code = exc.code
        sys.stdout.flush()   # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader is gone, which is no usage error; stdout now points at
        # devnull, so the flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (_UsageError, ValueError, OSError) as exc:
        print(f"bicoef: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"bicoef: out of memory: {str(exc) or 'no detail'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
