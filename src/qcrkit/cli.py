"""Command-line front end: batch operations over JSON state files.

Every command is a thin dispatcher onto the library and produces the same
numbers a direct call would. Exit codes: 0 success/pass, 1 verification
failure, 2 informational non-PPT finding, 64 usage or parameter errors
and unwritable output paths, 65 unreadable or malformed state files.

A JSON config file named by the QCRKIT_CONFIG environment variable supplies
defaults for tol / cap / seed; command-line flags win, and each command's
parser names the tolerance used when neither gives one. The config may also
hold report_format, which must be "json" and changes nothing.

Each command returns its exit code and its report body; ``main`` alone
writes the ``--report`` document, format and command first.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from . import defaults
from .construct import (
    ShieldSeed,
    build_example_state,
    build_ghz_qcr,
    build_private_state,
    build_twisted_qcr,
    random_party_twist,
    random_private_state,
)
from .entanglement import CutSpec, all_dealer_cuts_ppt, ppt_report, trace_distance
from .protocols import InputVerificationError, compose, reduce
from .statefile import StateFileError, read_state, write_state
from .registers import standard_layout
from .states import QuantumState, _check_cap, measurement_distribution
from .verify import is_qcr

ENV_CONFIG = "QCRKIT_CONFIG"

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_NON_PPT = 2
EXIT_USAGE = 64
EXIT_BAD_FILE = 65

REPORT_FORMAT = "qcr-report/1"


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # usage problems exit 64; argparse's default of 2 is reserved for
        # the informational non-PPT outcome
        raise CliError(EXIT_USAGE, f"{self.prog}: {message}")


_CONFIG_KEYS = {"tol", "cap", "seed", "report_format"}


def _load_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise CliError(EXIT_USAGE, f"cannot read config file {path}: {e}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise CliError(EXIT_USAGE, f"config file {path} is not valid JSON: {e}")
    if not isinstance(doc, dict):
        raise CliError(EXIT_USAGE, f"config file {path} must hold a JSON object")
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise CliError(EXIT_USAGE, f"unknown config keys: {sorted(unknown)}")
    # exact types, since bool is a subclass of int; json.loads reads Infinity
    if "tol" in doc and not (type(doc["tol"]) in (int, float) and 0 < doc["tol"] < math.inf):
        raise CliError(EXIT_USAGE, "config tol must be a positive finite number")
    if "cap" in doc and not (type(doc["cap"]) is int and doc["cap"] >= 1):
        raise CliError(EXIT_USAGE, "config cap must be a positive integer")
    if "seed" in doc and type(doc["seed"]) is not int:
        raise CliError(EXIT_USAGE, "config seed must be an integer")
    if "report_format" in doc and doc["report_format"] != "json":
        raise CliError(EXIT_USAGE, f"unsupported report_format {doc['report_format']!r}")
    return doc


def resolve_config(args: argparse.Namespace) -> None:
    """Fill tol, cap and seed from the config file where no flag gave them.

    A tol that neither gives is the command's own default_tol.
    """
    path = os.environ.get(ENV_CONFIG)
    doc = _load_config_file(path) if path else {}
    doc.setdefault("tol", args.default_tol)
    for key in ("tol", "cap", "seed"):
        if getattr(args, key) is None:
            setattr(args, key, doc.get(key))
    if args.tol is not None:
        args.tol = float(args.tol)


def _positive_float(text: str) -> float:
    x = float(text)
    if not 0 < x < math.inf:
        raise argparse.ArgumentTypeError("must be a positive finite number")
    return x


def _positive_int(text: str) -> int:
    x = int(text)
    if x < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return x


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(",") if p.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _label_list(text: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in text.split(",") if p.strip())


def _digit_key(digits: Sequence[int], d: int) -> str:
    sep = "" if d <= 10 else "-"
    return sep.join(str(x) for x in digits)


def _rng_for(args: argparse.Namespace, what: str) -> np.random.Generator:
    if args.seed is None:
        raise CliError(
            EXIT_USAGE, f"{what} is randomized; provide --seed or a seed in the config file"
        )
    return np.random.default_rng(args.seed)


def _distribution(state: QuantumState, regs: Sequence[str]) -> dict[str, float]:
    """Outcome probabilities above the floor, keyed by digit string."""
    probs = measurement_distribution(state, regs)
    dmax = max(probs.shape)
    out = {}
    for digits in itertools.product(*[range(n) for n in probs.shape]):
        p = float(probs[digits])
        if p > defaults.PROB_FLOOR:
            out[_digit_key(digits, dmax)] = p
    return out


def _print_verification(report) -> None:
    print(f"condition (i):  {'pass' if report.condition_i.passed else 'FAIL'}"
          f"  max deviation {report.condition_i.max_deviation:.3e}"
          f"  off-support mass {report.condition_i.off_support_mass:.3e}")
    for c in report.coalitions:
        who = ",".join(c.dishonest) if c.dishonest else "(eavesdropper only)"
        print(f"condition (ii): {'pass' if c.passed else 'FAIL'}"
              f"  dishonest={{{who}}}  max distance {c.max_distance:.3e}")
    print(f"verdict: {'PASS' if report.verdict else 'FAIL'}"
          + (f" (failing: {', '.join(report.failing_conditions)})" if not report.verdict else ""))


# -- commands ----------------------------------------------------------
# each returns its exit code and the body of its report document


def cmd_construct(args: argparse.Namespace) -> tuple[int, dict]:
    fam = args.family
    verification = None
    if fam == "example":
        state = build_example_state()
        _check_cap(state.dim, args.cap)
    else:
        n = 1 if fam == "private" else args.n
        if args.d is None or n is None:
            need = "--d" if fam == "private" else "--d and --n"
            raise CliError(EXIT_USAGE, f"construct {fam} needs {need}")
        dims = args.shield_dims or (args.d if fam == "twisted" else 1,) * (n + 1)
        # the layout checks the shield-dim count; the cap is checked before
        # any seed is drawn or shield density allocated
        _check_cap(standard_layout(args.d, n, dims).total_dim, args.cap)
        if fam == "ghz":
            if args.random:
                sigma = ShieldSeed.random(dims, _rng_for(args, "a random shield seed"))
            else:
                sigma = ShieldSeed.basis_zero(dims)
            state = build_ghz_qcr(args.d, n, sigma, cap=args.cap)
        elif fam == "private":
            if args.random:
                state = random_private_state(args.d, dims, _rng_for(args, "a random private state"))
            else:
                state = build_private_state(args.d, ShieldSeed.basis_zero(dims), cap=args.cap)
        else:  # twisted
            rng = _rng_for(args, "a twisted construction")
            base = build_ghz_qcr(args.d, n, ShieldSeed.basis_zero(dims), cap=args.cap)
            twist = random_party_twist(base.layout, rng)
            state, verification = build_twisted_qcr(base, twist, tol=args.tol)

    note = f"constructed by qcr construct {fam}"
    write_state(state, args.out, note=note)
    dist = _distribution(state, state.layout.info_labels)
    regs = " ".join(f"{s.label}({s.dim})" for s in state.layout.subsystems)
    print(f"wrote {args.out}")
    print(f"registers: {regs}")
    print(f"dimension: {state.dim}  representation: {'pure' if state.is_pure else 'density'}"
          f"  purity: {state.purity():.12g}")
    print("info distribution:")
    for key, p in dist.items():
        print(f"  {key}  {p:.12g}")
    doc = {
        "family": fam,
        "out": args.out,
        "dimension": state.dim,
        "representation": "pure" if state.is_pure else "density",
        "purity": state.purity(),
        "layout": state.layout.to_dict(),
        "info_distribution": dist,
    }
    code = EXIT_OK
    if verification is not None:
        doc["verification"] = verification.to_dict()
        _print_verification(verification)
        if not verification.verdict:
            code = EXIT_VERIFY_FAIL
    return code, doc


def cmd_verify(args: argparse.Namespace) -> tuple[int, dict]:
    state = read_state(args.state, cap=args.cap)
    report = is_qcr(state, tol=args.tol, exhaustive=args.exhaustive)
    print(f"input: {args.state}  (dim {state.dim}, tol {args.tol:g}"
          + (", exhaustive coalitions)" if args.exhaustive else ")"))
    _print_verification(report)
    code = EXIT_OK if report.verdict else EXIT_VERIFY_FAIL
    return code, {"input": str(args.state), **report.to_dict()}


def cmd_reduce(args: argparse.Namespace) -> tuple[int, dict]:
    state = read_state(args.state, cap=args.cap)
    players = state.layout.players
    keep = args.keep
    unknown = set(keep) - set(players)
    if unknown:
        raise CliError(EXIT_USAGE, f"unknown players in --keep: {sorted(unknown)}")
    if not keep:
        raise CliError(EXIT_USAGE, "--keep needs at least one player")
    dishonest = tuple(p for p in players if p not in set(keep))
    if not dishonest:
        raise CliError(EXIT_USAGE, "--keep lists every player; nothing to measure out")
    outcomes = reduce(state, dishonest, outcome=args.branch, check=True, tol=args.tol)
    stem = args.out[:-5] if args.out.endswith(".json") else args.out
    branches_doc = []
    all_pass = True
    print(f"measured out {','.join(dishonest)} (kept {','.join(keep)}), tol {args.tol:g}")
    for oc in outcomes:
        rep = is_qcr(oc.state, tol=args.tol)
        all_pass = all_pass and rep.verdict
        path = f"{stem}.b{_digit_key(oc.digits, state.layout.qudit_dim)}.json"
        write_state(oc.state, path, note=f"reduce branch digits={list(oc.digits)} beta={oc.beta}")
        print(f"  branch {oc.digits}  p={oc.probability:.12g}  beta={oc.beta}"
              f"  correction={'yes' if oc.correction_applied else 'no'}"
              f"  verify={'PASS' if rep.verdict else 'FAIL'}  -> {path}")
        branches_doc.append({**oc.to_dict(), "file": path, "verification": rep.to_dict()})
    return (EXIT_OK if all_pass else EXIT_VERIFY_FAIL), {
        "input": str(args.state),
        "kept": list(keep),
        "dishonest": list(dishonest),
        "tol": args.tol,
        "all_branches_pass": all_pass,
        "branches": branches_doc,
    }


def cmd_compose(args: argparse.Namespace) -> tuple[int, dict]:
    a = read_state(args.state_a, cap=args.cap)
    b = read_state(args.state_b, cap=args.cap)
    merged, record = compose(a, b, check=not args.force, tol=args.tol, cap=args.cap)
    report = is_qcr(merged, tol=args.tol)
    write_state(merged, args.out, note=f"composed from {args.state_a} and {args.state_b}")
    print(f"wrote {args.out}  (dim {merged.dim}, {merged.layout.n_players} players)")
    print(f"applied {record.unitary_descriptor}")
    _print_verification(report)
    return (EXIT_OK if report.verdict else EXIT_VERIFY_FAIL), {
        "inputs": [str(args.state_a), str(args.state_b)],
        "out": args.out,
        "tol": args.tol,
        "record": record.to_dict(),
        "verification": report.to_dict(),
    }


def _all_cuts(state: QuantumState) -> list[CutSpec]:
    # a dimension-1 register transposes nothing, so it stays on side one,
    # as the first register of dimension above 1 does
    layout = state.layout
    labels = [l for l in layout.non_env_labels if layout.subsystem(l).dim > 1]
    if len(labels) < 2:
        raise CliError(EXIT_USAGE, "need at least two non-environment registers "
                       "of dimension above 1 to cut")
    return [
        CutSpec.from_side_two(layout, two)
        for r in range(1, len(labels))
        for two in itertools.combinations(labels[1:], r)
    ]


def cmd_ppt(args: argparse.Namespace) -> tuple[int, dict]:
    if args.side_two is not None and args.cuts != "explicit":
        raise CliError(EXIT_USAGE, "--side-two needs --cuts explicit")
    if args.cuts == "explicit" and not args.side_two:
        raise CliError(EXIT_USAGE, "--cuts explicit needs --side-two LABELS")
    state = read_state(args.state, cap=args.cap)
    if args.cuts == "dealer":
        report = all_dealer_cuts_ppt(state, tol=args.tol)
    else:
        cuts = (_all_cuts(state) if args.cuts == "all"
                else [CutSpec.from_side_two(state.layout, args.side_two)])
        report = ppt_report(state, cuts, tol=args.tol)
    print(f"input: {args.state}  (dim {state.dim}, tol {args.tol:g})")
    for c in report.cuts:
        print(f"  cut [{' '.join(c.side_one)} | {' '.join(c.side_two)}]"
              f"  min eigenvalue {c.min_eigenvalue:.12g}  {'PPT' if c.ppt else 'non-PPT'}")
    print(f"overall: {'all cuts PPT' if report.all_ppt else 'non-PPT cut found'}")
    code = EXIT_OK if report.all_ppt else EXIT_NON_PPT
    return code, {"input": str(args.state), **report.to_dict()}


def cmd_distance(args: argparse.Namespace) -> tuple[int, dict]:
    a = read_state(args.state_a, cap=args.cap)
    b = read_state(args.state_b, cap=args.cap)
    value = trace_distance(a, b)
    print(f"trace distance: {value:.12g}")
    return EXIT_OK, {"inputs": [str(args.state_a), str(args.state_b)], "value": value}


def cmd_measure(args: argparse.Namespace) -> tuple[int, dict]:
    state = read_state(args.state, cap=args.cap)
    layout = state.layout
    if args.registers:
        regs = list(args.registers)
        missing = [r for r in regs if r not in set(layout.labels)]
        if missing:
            raise CliError(EXIT_USAGE, f"unknown registers: {missing}")
    else:
        layout.require_crypto_form()
        regs = list(layout.info_labels)
    dist = _distribution(state, regs)
    print(f"measurement on {', '.join(regs)}:")
    for key, p in dist.items():
        print(f"  {key}  {p:.12g}")
    return EXIT_OK, {"input": str(args.state), "registers": regs, "distribution": dist}


# -- parser ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=_positive_float, default=None,
                        help="tolerance override (default: 1e-9, protocol commands 1e-7)")
    common.add_argument("--cap", type=_positive_int, default=None,
                        help=f"total-dimension cap (default {defaults.DIM_CAP})")
    common.add_argument("--seed", type=int, default=None,
                        help="seed for randomized constructions")
    common.add_argument("--report", default=None, metavar="PATH",
                        help="write a JSON report document here")
    common.set_defaults(default_tol=None)

    parser = _Parser(prog="qcr",
                     description="Construct, verify, transform, and analyze "
                                 "quantum cryptographic resource states.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("construct", parents=[common],
                       help="build a state from a named family and write it to a file")
    p.add_argument("family", choices=["private", "example", "ghz", "twisted"])
    p.add_argument("--d", type=_positive_int, help="qudit dimension")
    p.add_argument("--n", type=_positive_int, help="number of players")
    p.add_argument("--shield-dims", type=_int_list, default=None, metavar="DIMS",
                   help="comma-separated shield dimensions, dealer first")
    p.add_argument("--random", action="store_true",
                   help="draw the shield seed (and twist, for private) randomly; needs a seed")
    p.add_argument("--out", required=True, help="output state file")
    p.set_defaults(func=cmd_construct, default_tol=defaults.VERIFY_TOL)

    p = sub.add_parser("verify", parents=[common], help="certify a state file")
    p.add_argument("state")
    p.add_argument("--exhaustive", action="store_true",
                   help="check every coalition, not just maximal ones")
    p.set_defaults(func=cmd_verify, default_tol=defaults.VERIFY_TOL)

    p = sub.add_parser("reduce", parents=[common],
                       help="measure out the players not listed in --keep")
    p.add_argument("state")
    p.add_argument("--keep", type=_label_list, required=True, metavar="PLAYERS",
                   help="comma-separated players who keep their registers")
    p.add_argument("--branch", type=_int_list, default=None, metavar="DIGITS",
                   help="select one measurement branch instead of enumerating all")
    p.add_argument("--out", required=True,
                   help="output prefix; branch files get .b<digits>.json appended")
    p.set_defaults(func=cmd_reduce, default_tol=defaults.PROTOCOL_TOL)

    p = sub.add_parser("compose", parents=[common],
                       help="merge two state files under one dealer")
    p.add_argument("state_a")
    p.add_argument("state_b")
    p.add_argument("--out", required=True, help="output state file")
    p.add_argument("--force", action="store_true",
                   help="skip input certification")
    p.set_defaults(func=cmd_compose, default_tol=defaults.PROTOCOL_TOL)

    p = sub.add_parser("ppt", parents=[common],
                       help="partial-transpose positivity across cuts")
    p.add_argument("state")
    p.add_argument("--cuts", choices=["dealer", "all", "explicit"], default="dealer",
                   help="dealer: the dealer cuts; all: every split of the registers "
                   "of dimension above 1; explicit: the one cut --side-two names")
    p.add_argument("--side-two", type=_label_list, default=None, metavar="LABELS",
                   help="registers on the transposed side (with --cuts explicit)")
    p.set_defaults(func=cmd_ppt, default_tol=defaults.PPT_TOL)

    p = sub.add_parser("distance", parents=[common],
                       help="trace distance between two state files")
    p.add_argument("state_a")
    p.add_argument("state_b")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("measure", parents=[common],
                       help="computational-basis distribution on chosen registers")
    p.add_argument("state")
    p.add_argument("--registers", type=_label_list, default=None, metavar="LABELS",
                   help="registers to measure (default: every info register)")
    p.set_defaults(func=cmd_measure)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        resolve_config(args)
        code, body = args.func(args)
        if args.report is not None:
            doc = {"format": REPORT_FORMAT, "command": args.command, **body}
            Path(args.report).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        return code
    except CliError as e:
        print(f"error: {e.message}", file=sys.stderr)
        return e.code
    except StateFileError as e:
        print(f"state file error: {e}", file=sys.stderr)
        return EXIT_BAD_FILE
    except InputVerificationError as e:
        print(f"input verification failed: {e}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    except (ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        # reads fail as state-file or config errors, so this is an output path
        print(f"error: cannot write output: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
