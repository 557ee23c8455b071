"""Batch front end: one subcommand per pipeline stage.

Reports are plain ``key value`` lines in a fixed order so golden files
can be compared byte for byte.  Wall time goes to stderr to keep stdout
stable across runs.  Exit codes: 0 clean, 1 mathematical violation or
counterexample found, 2 unreadable or malformed input.

Each flag value is checked by its argparse type, and a value outside
its domain exits 2 on one line naming the flag: ``error: lhyp lenfun:
argument --regular: expected a natural number, got '-1'``.  Only the
delta's rank, the input's, is checked later.  ``Report.read`` reads and
digests every input file.

When the first argument names a subcommand, only that subcommand's
parser is built, from its row of ``_COMMANDS``; any other command line
builds all of them, so that help and every top-level error keep their
bytes.
"""

import argparse
import hashlib
import math
import os
import sys
import time
# building the parser loads locale, through gettext, and shutil, through
# HelpFormatter; imported here, they cost start-up time, not command time
import locale
import shutil
from typing import Callable, List, Optional, Sequence, Tuple, Union

from .catalog import read_grp, read_len
from .completion import MissingMidpoint, gamma1, gamma2, write_cg
from .errors import ConstructionError, InputError, quoted
from .isometry import ClassCert, IsoPerm, classify_certificate, read_perm
from .lenfun import check_axioms, check_complete, check_free, check_regular
from .lspace import hyperbolicity_report, read_lms, validate_metric
from .ordgroup import LexElem, parse_lex
from .relhyp import (RelCayley, check_Pn, check_qi, short_pair_report,
                     verify_relhyp_geodesics)


def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if hasattr(value, "render"):
        return value.render()
    if isinstance(value, (tuple, list)):
        return ",".join(_fmt(v) for v in value) if value else "none"
    if isinstance(value, str) and not value:
        return "none"
    return str(value)


class Report:
    """Ordered key-value lines; .failed tracks verdict lines that said no."""

    def __init__(self, command: str):
        self.lines: List[Tuple[str, str]] = [("command", command)]
        self.failed = False

    def add(self, key: str, value) -> None:
        self.lines.append((key, _fmt(value)))

    def verdict(self, key: str, ok: bool, witness=None) -> None:
        self.add(key, ok)
        if not ok:
            self.failed = True
            if witness is not None:
                self.add(key + "_witness", witness)

    def read(self, role: str, path: str, name: Optional[str] = None) -> str:
        """The text of the file at path; its digest line, under name (the
        path by default), joins the report once."""
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise InputError("cannot read %s: %s" % (path, exc)) from None
        line = ("input_" + role, "%s sha256:%s"
                % (name or path, hashlib.sha256(data).hexdigest()))
        if line not in self.lines:
            self.lines.append(line)
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError:
            raise InputError("%s is not utf-8 text" % path) from None

    def loader(self, path: str) -> Callable[[str], str]:
        """Reads the group files that the file at path refers to, each
        relative to that file's directory."""
        base = os.path.dirname(os.path.abspath(path))
        return lambda ref: self.read("group", os.path.join(base, ref), ref)

    def emit(self) -> None:
        for key, value in self.lines:
            sys.stdout.write("%s %s\n" % (key, value))


def _int_from(low: float, domain: str) -> Callable[[str], int]:
    """The argparse type of an int flag whose values start at low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("invalid int value: %s" % quoted(text)) from None
        if value < low:
            raise argparse.ArgumentTypeError("expected %s, got %s" % (domain, quoted(text)))
        return value
    return parse


_positive = _int_from(1, "a positive integer")
_natural_number = _int_from(0, "a natural number")


def _delta(text: str) -> Union[int, LexElem]:
    """The argparse type of a delta in Lambda: a tuple, or a bare integer
    that stands for the first coordinate.  Every delta bounds a defect,
    which is never negative."""
    try:
        d = parse_lex(text)
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if d.sign() < 0:
        raise argparse.ArgumentTypeError("expected a delta of at least 0, got %s" % quoted(text))
    return d if text.strip().startswith("(") else d.coords[0]


def _delta_at_rank(args, rank: int) -> LexElem:
    """args.delta in the input's rank: a bare integer is padded with zeros."""
    d = args.delta
    if isinstance(d, int):
        return LexElem((d,) + (0,) * (rank - 1))
    if d.rank != rank:
        raise InputError("lhyp %s: argument --delta: %s has rank %d, but the "
                         "input has rank %d" % (args.cmd, d.render(), d.rank, rank))
    return d


# -- check ----------------------------------------------------------------

def cmd_check(args) -> Report:
    rep = Report("check")
    X = read_lms(rep.read("space", args.space))
    rep.add("points", len(X))
    rep.add("rank", X.rank)
    rep.add("domain", X.domain)
    v = validate_metric(X)
    rep.verdict("metric", v.ok, str(v))
    if not v.ok:
        return rep
    hr = hyperbolicity_report(X)
    rep.add("delta_triple", hr.delta_triple)
    rep.add("delta_4pt", hr.delta_4pt)
    lo, hi = min(hr.delta_triple_at.values()), max(hr.delta_triple_at.values())
    # every basepoint constant doubles any other, and the four-point
    # constant sits within a factor two of each of them
    doubling = hi <= lo * 2
    four_point = hi <= hr.delta_4pt * 2 and hr.delta_4pt <= lo * 2
    rep.verdict("doubling_sweep", doubling)
    rep.verdict("four_point_sweep", four_point)
    return rep


# -- delta ----------------------------------------------------------------

def cmd_delta(args) -> Report:
    rep = Report("delta")
    X = read_lms(rep.read("space", args.space))
    v = validate_metric(X)
    if not v.ok:
        rep.verdict("metric", False, str(v))
        return rep
    hr = hyperbolicity_report(X)
    rep.add("points", len(X))
    for lab in X.labels:
        rep.add("delta_at", "%s %s" % (lab, hr.delta_triple_at[lab].render()))
    rep.add("delta_triple", hr.delta_triple)
    rep.add("witness_triple", hr.witness_triple)
    rep.add("basepoint", hr.basepoint_of_witness)
    rep.add("delta_4pt", hr.delta_4pt)
    rep.add("witness_4pt", hr.witness_quad)
    return rep


# -- complete -------------------------------------------------------------

def cmd_complete(args) -> Report:
    rep = Report("complete")
    X = read_lms(rep.read("space", args.space))
    rep.add("method", args.method)
    rep.add("delta", args.delta)
    if args.method == "gamma2":
        # gamma2 checks its input before it looks for midpoints
        try:
            out = gamma2(X, args.delta, order_seed=args.seed)
        except MissingMidpoint as exc:
            rep.verdict("midpoints", False, "no %d-central point for %s"
                        % (2 * args.delta, ",".join(exc.triple)))
            return rep
        rep.add("midpoints", True)
    else:
        out = gamma1(X, args.delta, order_seed=args.seed)
    rep.add("vertices", len(out.labels))
    rep.add("edges", len(out.edges))
    rep.add("essential", out.essential_count())
    identity = out.labels == X.labels and all(
        out.unit_row(i) == [d.coords[0] for d in X.dist[i]] for i in range(len(X)))
    if identity:
        rep.add("certificate", "identity")
    else:
        rep.add("certificate", "stage-" + out.certificate.get("stage", "?"))
    for key in sorted(out.certificate):
        rep.add("cert_" + key, out.certificate[key])
    text = write_cg(out)
    rep.add("output", "sha256:%s" % hashlib.sha256(text.encode()).hexdigest())
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError("cannot write %s: %s" % (args.out, exc)) from None
        rep.add("written", args.out)
    return rep


# -- classify -------------------------------------------------------------

_KIND_NAMES = {
    "elliptic": "Elliptic",
    "hyperbolic_or_inversion": "HyperbolicOrInversion",
    "inversion": "InversionCert",
    "undetermined": "Undetermined",
}


def _render_cert(cert: ClassCert) -> str:
    name = _KIND_NAMES[cert.kind]
    if cert.kind == "elliptic":
        return "%s(%d)" % (name, cert.K)
    return name


def cmd_classify(args) -> Report:
    rep = Report("classify")
    X = read_lms(rep.read("space", args.space))
    pi = IsoPerm(X, read_perm(rep.read("perm", args.perm)))
    delta = _delta_at_rank(args, X.rank)
    cert = classify_certificate(X, pi, delta, args.K)
    rep.add("delta", delta)
    rep.add("K", args.K)
    rep.add("order", pi.order)
    rep.add("certificate", _render_cert(cert))
    rep.add("witness", cert.witness)
    rep.add("horizon", cert.horizon)
    return rep


# -- lenfun ---------------------------------------------------------------

def cmd_lenfun(args) -> Report:
    rep = Report("lenfun")
    table = read_len(rep.read("len", args.len), rep.loader(args.len))
    delta = _delta_at_rank(args, table.rank)
    if not (args.axioms or args.regular is not None or args.complete or args.free):
        raise InputError("pick at least one of --axioms --regular --complete --free")
    rep.add("elements", len(table))
    rep.add("rank", table.rank)
    sample = table.elements()
    if args.axioms:
        ax = check_axioms(table, sample)
        rep.verdict("axiom_nonneg", ax.nonneg_ok, ax.nonneg_witness)
        rep.verdict("axiom_symmetric", ax.symmetric_ok, ax.symmetric_witness)
        rep.verdict("axiom_subadditive", ax.subadditive_ok, ax.subadditive_witness)
        rep.add("delta_min", ax.delta)
        rep.add("delta_witness", ax.delta_witness)
        rep.add("pairs_checked", ax.pairs_checked)
        rep.add("triples_checked", ax.triples_checked)
    if args.regular is not None:
        rg = check_regular(table, sample, args.regular, delta)
        rep.add("regular_k", rg.k)
        rep.verdict("r1", rg.r1_ok, rg.r1_witness)
        rep.verdict("r2", rg.r2_ok, rg.r2_witness)
        rep.verdict("r1_implies_r2", rg.implication_r1_to_r2)
        rep.verdict("r2_implies_r1", rg.implication_r2_to_r1)
    if args.complete:
        cp = check_complete(table, sample, delta)
        rep.verdict("complete", cp.complete, cp.witness)
        rep.verdict("prefix_gap", cp.prefix_gap_ok, cp.prefix_gap_witness)
        rep.add("prefix_gap_max", cp.prefix_gap_max)
    if args.free:
        fr = check_free(table, sample, delta)
        rep.verdict("free", fr.free, fr.witness)
        rep.verdict("kernel_trivial", fr.kernel_trivial)
    return rep


# -- relcayley ------------------------------------------------------------

def cmd_relcayley(args) -> Report:
    rep = Report("relcayley")
    gtext = rep.read("group", args.group)
    ltext = rep.read("len", args.len)
    group, gens = read_grp(gtext, rep.loader(args.group))
    table = read_len(ltext, rep.loader(args.len))
    if group != table.group:
        raise InputError("group file holds %r but the length file's group is %r"
                         % (group, table.group))
    delta = _delta_at_rank(args, table.rank)
    rc = RelCayley(table.group, table, args.N, args.radius, gens=gens)
    rep.add("N", args.N)
    rep.add("radius", args.radius)
    rep.add("cosets", len(rc))
    rep.add("base", rc.labels[0])
    sp = short_pair_report(rc)
    rep.add("short_pairs_checked", sp.checked)
    rep.verdict("short_pairs", sp.ok, sp.witness)
    qi = check_qi(rc)
    rep.add("N_prime", qi.N_prime)
    rep.add("alpha", qi.alpha)
    rep.add("alpha_star", qi.alpha_star)
    rep.add("qi_pairs", qi.pairs_checked)
    rep.add("unreachable", qi.unreachable)
    rep.verdict("qi_upper", qi.upper_ok, qi.witness)
    rep.verdict("qi_lower", qi.lower_ok, qi.witness)
    ge = verify_relhyp_geodesics(rc, args.K, delta)
    rep.add("geodesic_two_edge_checked", ge.two_edge_checked)
    rep.verdict("geodesic_two_edge", ge.two_edge_ok, ge.witness)
    rep.add("geodesic_three_edge_checked", ge.three_edge_checked)
    rep.verdict("geodesic_three_edge", ge.three_edge_ok, ge.witness)
    if args.pn is not None:
        pd = delta.coords[0] if table.rank == 1 else 0
        pn = check_Pn(table.group, table, args.pn, args.radius, delta=pd)
        rep.add("pn_n", pn.n)
        rep.add("pn_alpha", pn.alpha)
        rep.verdict("pn_alpha_ok", pn.alpha_ok)
        rep.verdict("pn_generates", pn.generates)
        rep.add("pn_double_cosets", pn.double_cosets)
        rep.add("pn_threshold", pn.threshold.render())
        rep.add("pn_L", pn.L.render())
    return rep


# -- entry point ----------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as malformed input; its subcommand
    parsers are of this class too."""

    def error(self, message: str):
        raise InputError("%s: %s" % (self.prog, message))


_SPACE = ("--space", dict(required=True, metavar="F.lms"))
_DELTA = ("--delta", dict(type=_delta, default=0, metavar="Q"))

# name -> (help, handler, flags), each flag (name, add_argument keywords),
# in the order of lhyp --help
_COMMANDS = {
    "check": ("validate a space and its constants", cmd_check, [_SPACE]),
    "delta": ("hyperbolicity constants per basepoint", cmd_delta, [_SPACE]),
    "complete": ("run a completion stage", cmd_complete, [
        _SPACE,
        ("--method", dict(required=True, choices=("gamma1", "gamma2"))),
        ("--delta", dict(required=True, type=_natural_number)),
        ("--seed", dict(type=_int_from(-math.inf, "an integer"), default=None,
                        help="shuffle construction order (default: canonical)")),
        ("--out", dict(metavar="F.cg", help="write the graph here"))]),
    "classify": ("certificate for a finite isometry", cmd_classify, [
        _SPACE,
        ("--perm", dict(required=True, metavar="F.perm")),
        ("--delta", dict(required=True, type=_delta, metavar="Q")),
        ("--K", dict(type=_natural_number, default=0, metavar="K"))]),
    "lenfun": ("length function checks", cmd_lenfun, [
        ("--len", dict(required=True, metavar="F.len")),
        ("--axioms", dict(action="store_true")),
        ("--regular", dict(type=_natural_number, default=None, metavar="K")),
        ("--complete", dict(action="store_true")),
        ("--free", dict(action="store_true")),
        _DELTA]),
    "relcayley": ("relative Cayley graph reports", cmd_relcayley, [
        ("--group", dict(required=True, metavar="F.grp")),
        ("--len", dict(required=True, metavar="F.len")),
        ("--N", dict(required=True, type=_positive)),
        ("--radius", dict(required=True, type=_positive)),
        ("--pn", dict(type=_natural_number, default=None, metavar="N",
                      help="also run the ball property at this n")),
        ("--K", dict(type=_positive, default=1, metavar="K")),
        _DELTA]),
}


def _build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The parser for argv: only the subcommand argv[0] names, or all of
    them when it names none."""
    p = _Parser(prog="lhyp", description="finite Lambda-metric space toolkit")
    # with prog given, argparse need not format a usage line to name
    # the subparsers lhyp check, lhyp delta, ...
    sub = p.add_subparsers(dest="cmd", required=True, prog="lhyp")
    chosen = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
    for name in chosen:
        help_text, func, flags = _COMMANDS[name]
        c = sub.add_parser(name, help=help_text)
        for flag, options in flags:
            c.add_argument(flag, **options)
        c.set_defaults(func=func)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    t0 = time.perf_counter()
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        args = _build_parser(argv).parse_args(argv)
        rep = args.func(args)
    except InputError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except ConstructionError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    finally:
        sys.stderr.write("wall %.3fs\n" % (time.perf_counter() - t0))
    rep.emit()
    return 1 if rep.failed else 0


if __name__ == "__main__":
    sys.exit(main())
