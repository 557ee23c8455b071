import os
import re
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

from lhyp import cli, completion
from lhyp.catalog import (MAX_GROUP_NESTING, FiniteGroup, FreeGroup,
                          product_length, write_grp, write_len)
from lhyp.cli import main
from lhyp.errors import InputError
from lhyp.geodspace import distances_from, read_gg
from lhyp.lspace import write_lms

from helpers import cycle_space, f2_table, random_metric_rows, space_rank1, z_table

TREE = ("lambda Z^1\n"
        "points 4 a b c d\n"
        "(0) (1) (2) (3)\n"
        "(1) (0) (1) (2)\n"
        "(2) (1) (0) (1)\n"
        "(3) (2) (1) (0)\n")

TRIANGLE = ("lambda Z^1\n"
            "points 3 x y z\n"
            "(0) (2) (2)\n"
            "(2) (0) (2)\n"
            "(2) (2) (0)\n")

# the basepoint constants differ: (1)/2 at a, (1) everywhere else
FIVE = ("lambda Z^1\n"
        "points 5 a b c d e\n"
        "(0) (2) (2) (3) (4)\n"
        "(2) (0) (1) (1) (3)\n"
        "(2) (1) (0) (2) (2)\n"
        "(3) (1) (2) (0) (2)\n"
        "(4) (3) (2) (2) (0)\n")

FIVE_SHA = "sha256:3823fc3b0b2d04cdf5d9b64aabc2f9c8bc88a7441e39918a325f472fb6705c9e"

# a weighted path with gaps 3,2,3,9,3,2,3: a tree whose stage-two
# completion has 816 vertices
PATH8 = ("lambda Z^1\n"
         "points 8 a b c d e f g h\n"
         "(0) (3) (5) (8) (17) (20) (22) (25)\n"
         "(3) (0) (2) (5) (14) (17) (19) (22)\n"
         "(5) (2) (0) (3) (12) (15) (17) (20)\n"
         "(8) (5) (3) (0) (9) (12) (14) (17)\n"
         "(17) (14) (12) (9) (0) (3) (5) (8)\n"
         "(20) (17) (15) (12) (3) (0) (2) (5)\n"
         "(22) (19) (17) (14) (5) (2) (0) (3)\n"
         "(25) (22) (20) (17) (8) (5) (3) (0)\n")

PATH8_SHA = "sha256:a8de61ee71b17136e0ee4848ebf3084719552da2c4df97ec54f703b38b63bc86"

ASYMMETRIC = ("lambda Z^1\n"
              "points 2 p q\n"
              "(0) (2)\n"
              "(1) (0)\n")

# a 4-cycle, whose four-point constant is (1)
CYCLE = ("lambda Z^1\n"
         "points 4 a b c d\n"
         "(0) (1) (2) (1)\n"
         "(1) (0) (1) (2)\n"
         "(2) (1) (0) (1)\n"
         "(1) (2) (1) (0)\n")


def put(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def lines_of(out):
    return dict(line.split(" ", 1) for line in out.splitlines())


# -- check / delta --------------------------------------------------------


def test_check_clean_tree(tmp_path, capsys):
    space = put(tmp_path, "tree.lms", TREE)
    code, out, err = run(capsys, "check", "--space", space)
    assert code == 0
    got = lines_of(out)
    assert out.startswith("command check\n")
    assert got["points"] == "4" and got["rank"] == "1" and got["domain"] == "Z"
    assert got["metric"] == "yes"
    assert got["delta_triple"] == "(0)" and got["delta_4pt"] == "(0)"
    assert got["doubling_sweep"] == "yes" and got["four_point_sweep"] == "yes"
    assert "wall " in err and "wall " not in out


def test_check_reruns_are_byte_identical(tmp_path, capsys):
    space = put(tmp_path, "tree.lms", TREE)
    _, first, _ = run(capsys, "check", "--space", space)
    _, second, _ = run(capsys, "check", "--space", space)
    assert first == second


def test_check_digests_the_input(tmp_path, capsys):
    space = put(tmp_path, "tree.lms", TREE)
    _, out, _ = run(capsys, "check", "--space", space)
    assert re.search(r"^input_space %s sha256:[0-9a-f]{64}$" % re.escape(space),
                     out, re.M)


def test_check_metric_violation(tmp_path, capsys):
    space = put(tmp_path, "bad.lms", ASYMMETRIC)
    code, out, _ = run(capsys, "check", "--space", space)
    assert code == 1
    got = lines_of(out)
    assert got["metric"] == "no"
    assert got["metric_witness"] == "LM3 at p,q"


def test_check_malformed_file(tmp_path, capsys):
    space = put(tmp_path, "junk.lms", "hello world\n")
    code, out, err = run(capsys, "check", "--space", space)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_check_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "check", "--space", str(tmp_path / "nope.lms"))
    assert code == 2 and err.startswith("error: ")


def test_a_non_utf8_input_is_refused(tmp_path, capsys):
    space = tmp_path / "latin1.lms"
    space.write_bytes(TREE.replace(" a ", " \xe9 ").encode("latin-1"))
    code, out, err = run(capsys, "check", "--space", str(space))
    assert code == 2 and out == ""
    assert error_lines(err) == ["error: %s is not utf-8 text" % space]


def test_argparse_failures_exit_two(tmp_path, capsys):
    # a rejected command line takes the malformed-input path: one error
    # line naming the parser, no usage text, nothing on stdout (the list
    # of choices is left out, as its quoting varies across Pythons)
    for argv, start in [
            ([], "error: lhyp: the following arguments are required: cmd"),
            (["frobnicate"], "error: lhyp: argument cmd: invalid choice: "
                             "'frobnicate'"),
            # no abbreviations: a prefix of a command is no command
            (["chec"], "error: lhyp: argument cmd: invalid choice: 'chec'"),
            # an option before the command is read as the top level's
            (["--space", "x", "check"], "error: lhyp: argument cmd: invalid "
                                        "choice: 'x'"),
            (["check", "--space", "x", "extra"], "error: lhyp: unrecognized "
                                                 "arguments: extra"),
            (["check"], "error: lhyp check: the following arguments are "
                        "required: --space"),
            (["relcayley", "--N", "1/2"], "error: lhyp relcayley: argument "
                                          "--N: invalid int value: '1/2'")]:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        (line,) = error_lines(err)
        assert line.startswith(start)
        assert "usage" not in err


# the help of lhyp and of each command at 80 columns
HELP = {
    "": """\
usage: lhyp [-h] {check,delta,complete,classify,lenfun,relcayley} ...

finite Lambda-metric space toolkit

positional arguments:
  {check,delta,complete,classify,lenfun,relcayley}
    check               validate a space and its constants
    delta               hyperbolicity constants per basepoint
    complete            run a completion stage
    classify            certificate for a finite isometry
    lenfun              length function checks
    relcayley           relative Cayley graph reports

options:
  -h, --help            show this help message and exit
""",
    "check": """\
usage: lhyp check [-h] --space F.lms

options:
  -h, --help     show this help message and exit
  --space F.lms
""",
    "delta": """\
usage: lhyp delta [-h] --space F.lms

options:
  -h, --help     show this help message and exit
  --space F.lms
""",
    "complete": """\
usage: lhyp complete [-h] --space F.lms --method {gamma1,gamma2} --delta DELTA
                     [--seed SEED] [--out F.cg]

options:
  -h, --help            show this help message and exit
  --space F.lms
  --method {gamma1,gamma2}
  --delta DELTA
  --seed SEED           shuffle construction order (default: canonical)
  --out F.cg            write the graph here
""",
    "classify": """\
usage: lhyp classify [-h] --space F.lms --perm F.perm --delta Q [--K K]

options:
  -h, --help     show this help message and exit
  --space F.lms
  --perm F.perm
  --delta Q
  --K K
""",
    "lenfun": """\
usage: lhyp lenfun [-h] --len F.len [--axioms] [--regular K] [--complete]
                   [--free] [--delta Q]

options:
  -h, --help   show this help message and exit
  --len F.len
  --axioms
  --regular K
  --complete
  --free
  --delta Q
""",
    "relcayley": """\
usage: lhyp relcayley [-h] --group F.grp --len F.len --N N --radius RADIUS
                      [--pn N] [--K K] [--delta Q]

options:
  -h, --help       show this help message and exit
  --group F.grp
  --len F.len
  --N N
  --radius RADIUS
  --pn N           also run the ball property at this n
  --K K
  --delta Q
""",
}

COMMANDS = ["check", "delta", "complete", "classify", "lenfun", "relcayley"]


@pytest.mark.parametrize("cmd", [""] + COMMANDS)
def test_help_bytes(cmd, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        main(cmd.split() + ["--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out == HELP[cmd]


def parser_choices(argv):
    (sub,) = [a for a in cli._build_parser(argv)._actions if a.dest == "cmd"]
    return list(sub.choices)


def test_only_the_named_command_is_built():
    for cmd in COMMANDS:
        assert parser_choices([cmd, "--help"]) == [cmd]
    assert parser_choices(["lenfun", "--len", "t.len", "--axioms"]) == ["lenfun"]
    # anything else gets every command, for the top level's help and errors
    for argv in ([], ["-h"], ["frob"], ["chec"], ["--space", "x", "check"]):
        assert parser_choices(argv) == COMMANDS


def test_threads_env(tmp_path, capsys, monkeypatch):
    # the scan sizes its own pool and reads no environment variable
    space = put(tmp_path, "five.lms", FIVE)
    for cmd in ("check", "delta"):
        monkeypatch.delenv("LHYP_THREADS", raising=False)
        code, base, _ = run(capsys, cmd, "--space", space)
        assert code == 0
        for value in ("3", "many"):
            monkeypatch.setenv("LHYP_THREADS", value)
            assert run(capsys, cmd, "--space", space)[:2] == (code, base)


def test_delta_lists_basepoints(tmp_path, capsys):
    space = put(tmp_path, "tree.lms", TREE)
    code, out, _ = run(capsys, "delta", "--space", space)
    assert code == 0
    for lab in "abcd":
        assert "delta_at %s (0)" % lab in out
    got = lines_of(out)
    assert got["delta_4pt"] == "(0)"
    assert got["witness_4pt"] == "a,c,b,d"


def test_delta_golden(tmp_path, capsys):
    space = put(tmp_path, "five.lms", FIVE)
    code, out, _ = run(capsys, "delta", "--space", space)
    assert code == 0
    assert out == ("command delta\n"
                   "input_space %s %s\n"
                   "points 5\n"
                   "delta_at a (1)/2\n"
                   "delta_at b (1)\n"
                   "delta_at c (1)\n"
                   "delta_at d (1)\n"
                   "delta_at e (1)\n"
                   "delta_triple (1)\n"
                   "witness_triple c,d,e\n"
                   "basepoint b\n"
                   "delta_4pt (1)\n"
                   "witness_4pt b,e,c,d\n" % (space, FIVE_SHA))


def test_check_golden(tmp_path, capsys):
    space = put(tmp_path, "five.lms", FIVE)
    code, out, _ = run(capsys, "check", "--space", space)
    assert code == 0
    assert out == ("command check\n"
                   "input_space %s %s\n"
                   "points 5\n"
                   "rank 1\n"
                   "domain Z\n"
                   "metric yes\n"
                   "delta_triple (1)\n"
                   "delta_4pt (1)\n"
                   "doubling_sweep yes\n"
                   "four_point_sweep yes\n" % (space, FIVE_SHA))


# -- complete -------------------------------------------------------------


def test_complete_gamma1_identity(tmp_path, capsys):
    space = put(tmp_path, "tree.lms", TREE)
    code, out, _ = run(capsys, "complete", "--method", "gamma1",
                       "--delta", "0", "--space", space)
    assert code == 0
    got = lines_of(out)
    assert got["certificate"] == "identity"
    # chords restate d(x,y) for the far pairs, hence 3 + 3 edges
    assert got["vertices"] == "4" and got["edges"] == "6"


def test_complete_gamma2_identity(tmp_path, capsys):
    space = put(tmp_path, "tree.lms", TREE)
    code, out, _ = run(capsys, "complete", "--method", "gamma2",
                       "--delta", "0", "--space", space)
    assert code == 0
    got = lines_of(out)
    assert got["certificate"] == "identity"
    assert got["vertices"] == "4" and got["edges"] == "3"


def test_complete_gamma1_triangle(tmp_path, capsys):
    space = put(tmp_path, "tri.lms", TRIANGLE)
    code, out, _ = run(capsys, "complete", "--method", "gamma1",
                       "--delta", "1", "--space", space)
    assert code == 0
    got = lines_of(out)
    assert got["certificate"] == "stage-one"
    assert got["vertices"] == "6" and got["edges"] == "9"
    assert got["cert_delta_bound"] == "29"


def test_complete_gamma2_triangle(tmp_path, capsys):
    space = put(tmp_path, "tri.lms", TRIANGLE)
    code, out, _ = run(capsys, "complete", "--method", "gamma2",
                       "--delta", "1", "--space", space)
    assert code == 0
    got = lines_of(out)
    assert got["certificate"] == "stage-two"
    assert got["vertices"] == "6" and got["edges"] == "6"
    assert got["cert_H"] == "0" and got["cert_B"] == "58"
    assert got["cert_delta_bound"] == "5907466"


def test_complete_gamma2_without_midpoints(tmp_path, capsys):
    space = put(tmp_path, "tri.lms", TRIANGLE)
    code, out, _ = run(capsys, "complete", "--method", "gamma2",
                       "--delta", "0", "--space", space)
    assert code == 1
    got = lines_of(out)
    assert got["midpoints"] == "no"
    assert got["midpoints_witness"] == "no 0-central point for x,y,z"


def test_complete_writes_cg_file(tmp_path, capsys):
    space = put(tmp_path, "tri.lms", TRIANGLE)
    target = tmp_path / "tri.cg"
    code, out, _ = run(capsys, "complete", "--method", "gamma2",
                       "--delta", "1", "--space", space,
                       "--out", str(target))
    assert code == 0
    text = target.read_text()
    assert text.startswith("completion 6 6\n")
    assert "c stage two" in text
    got = lines_of(out)
    assert got["written"] == str(target)
    assert re.fullmatch(r"sha256:[0-9a-f]{64}", got["output"])


def test_complete_scans_the_midpoint_triples_once(tmp_path, capsys,
                                                  monkeypatch):
    # gamma2 scans the triples for its midpoints line once
    scans = []
    central_codes = completion._central_codes

    def counting(space, delta):
        scans.append(delta)
        return central_codes(space, delta)

    monkeypatch.setattr(completion, "_central_codes", counting)
    space = put(tmp_path, "tri.lms", TRIANGLE)
    for method, want in (("gamma1", 0), ("gamma2", 1)):
        scans.clear()
        code, _, _ = run(capsys, "complete", "--space", space, "--method",
                         method, "--delta", "1")
        assert code == 0 and len(scans) == want


def test_complete_cannot_write_into_a_missing_directory(tmp_path, capsys):
    space = put(tmp_path, "tree.lms", TREE)
    target = str(tmp_path / "missing" / "tree.cg")
    code, out, err = run(capsys, "complete", "--space", space, "--method",
                         "gamma1", "--delta", "0", "--out", target)
    assert code == 2 and out == ""
    (line,) = error_lines(err)
    assert line.startswith("error: cannot write %s: " % target)


@pytest.mark.parametrize("method", ["gamma1", "gamma2"])
def test_complete_refuses_a_non_metric_input(tmp_path, capsys, method):
    space = put(tmp_path, "bad.lms", ASYMMETRIC)
    code, out, err = run(capsys, "complete", "--space", space, "--method",
                         method, "--delta", "0")
    assert code == 2 and out == ""
    assert error_lines(err) == ["error: input is not a metric space: LM3 at p,q"]


@pytest.mark.parametrize("domain", ["Z", "Q"])
def test_gamma2_refuses_a_rank_two_table_before_its_midpoints(tmp_path, capsys,
                                                             domain):
    # the midpoint scan on such a table would print a verdict on an input
    # that gamma2 refuses, or an error of its own
    # an equilateral triangle, with no (2,0)-central point
    space = put(tmp_path, "plane.lms", "lambda %s^2\npoints 3 x y z\n"
                "(0,0) (0,2) (0,2)\n(0,2) (0,0) (0,2)\n(0,2) (0,2) (0,0)\n"
                % domain)
    for method in ("gamma1", "gamma2"):
        code, out, err = run(capsys, "complete", "--space", space, "--method",
                             method, "--delta", "1")
        assert code == 2 and out == ""
        assert error_lines(err) == ["error: completion needs integer distances "
                                    "(rank-1 Z table)"]


@pytest.mark.parametrize("argv", [
    ["complete", "--method", "gamma1"],
    ["complete", "--method", "gamma2"],
    ["classify", "--perm", "id.perm"],
], ids=["gamma1", "gamma2", "classify"])
def test_a_delta_below_the_four_point_constant_is_refused(tmp_path, capsys,
                                                           argv):
    space = put(tmp_path, "cycle.lms", CYCLE)
    put(tmp_path, "id.perm", "0 1 2 3\n")
    argv = [str(tmp_path / a) if a == "id.perm" else a for a in argv]
    code, out, err = run(capsys, *argv, "--space", space, "--delta", "0")
    assert code == 2 and out == ""
    assert error_lines(err) == ["error: delta (0) is below the four-point "
                                "constant (1) of the input"]


def test_complete_seed_is_cosmetic(tmp_path, capsys):
    space = put(tmp_path, "tri.lms", TRIANGLE)
    _, base, _ = run(capsys, "complete", "--method", "gamma2",
                     "--delta", "1", "--space", space)
    _, seeded, _ = run(capsys, "complete", "--method", "gamma2",
                       "--delta", "1", "--space", space, "--seed", "7")
    assert seeded == base


def test_complete_gamma2_path_golden(tmp_path, capsys):
    space = put(tmp_path, "path8.lms", PATH8)
    code, out, _ = run(capsys, "complete", "--method", "gamma2",
                       "--delta", "1", "--space", space)
    assert code == 0
    assert out == ("command complete\n"
                   "input_space %s %s\n"
                   "method gamma2\n"
                   "delta 1\n"
                   "midpoints yes\n"
                   "vertices 816\n"
                   "edges 911\n"
                   "essential 8\n"
                   "certificate stage-two\n"
                   "cert_B 58\n"
                   "cert_H 0\n"
                   "cert_H_measured 0\n"
                   "cert_delta 1\n"
                   "cert_delta_bound 5907466\n"
                   "cert_delta_prime 29\n"
                   "cert_geodesic yes\n"
                   "cert_long_short_k 25230\n"
                   "cert_qg_add 5944188\n"
                   "cert_qg_add_variant 5903868\n"
                   "cert_qg_mult 116\n"
                   "cert_stage two\n"
                   "output sha256:0f18165fac7d64f65428523d60461d694e81b3a7988c90ce55cc16cf947a7d47\n"
                   % (space, PATH8_SHA))


@pytest.mark.parametrize("method, text", [("gamma1", TREE),
                                          ("gamma2", PATH8)])
def test_complete_reads_at_most_n_rows_of_the_output(tmp_path, capsys,
                                                      monkeypatch, method,
                                                      text):
    built = []
    outs = []

    def counted(adj, src):
        built.append((adj, src))
        return distances_from(adj, src)

    def kept(stage):
        def run_stage(*args, **kwargs):
            outs.append(stage(*args, **kwargs))
            return outs[-1]
        return run_stage

    monkeypatch.setattr(completion, "distances_from", counted)
    monkeypatch.setattr(cli, method, kept(getattr(cli, method)))
    space = put(tmp_path, "x.lms", text)
    code, out, _ = run(capsys, "complete", "--method", method,
                       "--delta", "1", "--space", space)
    assert code == 0
    (g,) = outs
    rows = [src for adj, src in built if adj is g.unit_adjacency]
    assert len(set(rows)) == len(rows) <= g.essential_count()


# -- classify -------------------------------------------------------------


def test_classify_identity(tmp_path, capsys):
    space = put(tmp_path, "tree.lms", TREE)
    perm = put(tmp_path, "id.perm", "0 1 2 3\n")
    code, out, _ = run(capsys, "classify", "--space", space, "--perm", perm,
                       "--delta", "0")
    assert code == 0
    got = lines_of(out)
    assert got["order"] == "1"
    assert got["certificate"] == "Elliptic(0)"


def test_classify_rotation(tmp_path, capsys):
    space = put(tmp_path, "c4.lms", write_lms(cycle_space(4)))
    perm = put(tmp_path, "rot.perm", "1 2 3 0\n")
    code, out, _ = run(capsys, "classify", "--space", space, "--perm", perm,
                       "--delta", "1", "--K", "2")
    assert code == 0
    got = lines_of(out)
    assert got["order"] == "4"
    assert got["certificate"] == "Elliptic(2)"


def test_classify_rejects_a_non_permutation(tmp_path, capsys):
    space = put(tmp_path, "tree.lms", TREE)
    perm = put(tmp_path, "short.perm", "0 1 2\n")
    code, _, err = run(capsys, "classify", "--space", space, "--perm", perm,
                       "--delta", "0")
    assert code == 2 and err.startswith("error: ")


@pytest.mark.parametrize("n, d01, axiom", [(4, 30, "LM4 at v0,v1,v2"),
                                           (72, -3, "LM1 at v0,v1")])
def test_classify_rejects_a_table_that_is_not_a_metric(tmp_path, capsys, n, d01,
                                                      axiom):
    # on both sides of the four-point crossover; the basepoint scans find
    # no maximizing quadruple in the 72-point table
    rows = random_metric_rows(Random(n), n, maxw=9)
    rows[0][1] = rows[1][0] = d01
    space = put(tmp_path, "bad.lms", write_lms(space_rank1(rows)))
    perm = put(tmp_path, "id.perm", " ".join(map(str, range(n))) + "\n")
    code, out, err = run(capsys, "classify", "--space", space, "--perm", perm,
                         "--delta", "1")
    assert code == 2 and out == ""
    assert error_lines(err) == ["error: input is not a metric space: " + axiom]


# -- lenfun ---------------------------------------------------------------


def test_classify_rejects_a_negative_K(tmp_path, capsys):
    space = put(tmp_path, "tree.lms", TREE)
    perm = put(tmp_path, "id.perm", "0 1 2 3\n")
    code, out, err = run(capsys, "classify", "--space", space, "--perm", perm,
                         "--delta", "1", "--K", "-1")
    assert code == 2 and out == ""
    assert error_lines(err) == ["error: lhyp classify: argument --K: expected "
                                "a natural number, got '-1'"]


def f2_fixture(tmp_path, radius=2, table_radius=None):
    put(tmp_path, "f2.grp", write_grp(FreeGroup(2)))
    return put(tmp_path, "f2.len",
               write_len(f2_table(table_radius or radius), "f2.grp"))


def test_lenfun_full_sweep(tmp_path, capsys):
    table = f2_fixture(tmp_path)
    code, out, _ = run(capsys, "lenfun", "--len", table, "--axioms",
                       "--regular", "1", "--complete", "--free")
    assert code == 0
    got = lines_of(out)
    assert got["elements"] == "17"
    assert got["delta_min"] == "(0)"
    assert got["axiom_nonneg"] == got["axiom_symmetric"] == "yes"
    assert got["axiom_subadditive"] == "yes"
    assert got["r1"] == got["r2"] == "yes"
    assert got["r1_implies_r2"] == got["r2_implies_r1"] == "yes"
    assert got["complete"] == "yes" and got["prefix_gap"] == "yes"
    assert got["prefix_gap_max"] == "(0)"
    assert got["free"] == "yes" and got["kernel_trivial"] == "yes"
    assert "input_group" in out  # the referenced .grp is digested too


def test_lenfun_requires_a_mode(tmp_path, capsys):
    table = f2_fixture(tmp_path)
    code, _, err = run(capsys, "lenfun", "--len", table)
    assert code == 2 and "pick at least one" in err


def error_lines(err):
    return [line for line in err.splitlines() if line.startswith("error:")]


def test_lenfun_rejects_a_bad_radius(tmp_path, capsys):
    put(tmp_path, "z.grp", write_grp(FreeGroup(1)))
    table = put(tmp_path, "z.len", "group z.grp\nlambda Z^1\nradius x\n")
    code, out, err = run(capsys, "lenfun", "--len", table, "--axioms")
    assert code == 2 and out == ""
    assert error_lines(err) == ["error: bad radius 'x'"]


def test_lenfun_rejects_a_negative_regular_k(tmp_path, capsys):
    table = f2_fixture(tmp_path)
    code, out, err = run(capsys, "lenfun", "--len", table, "--axioms",
                         "--regular", "-1")
    assert code == 2 and out == ""
    assert error_lines(err) == ["error: lhyp lenfun: argument --regular: "
                                "expected a natural number, got '-1'"]
    # the same check as complete's --delta
    space = put(tmp_path, "tree.lms", TREE)
    code, out, err = run(capsys, "complete", "--space", space, "--method",
                         "gamma1", "--delta", "-1")
    assert code == 2 and out == ""
    assert error_lines(err) == ["error: lhyp complete: argument --delta: "
                                "expected a natural number, got '-1'"]


def test_lenfun_group_files_may_share_but_not_cycle(tmp_path, capsys):
    put(tmp_path, "z.grp", write_grp(FreeGroup(1)))
    put(tmp_path, "zz.grp", "product z.grp z.grp\n")
    table = put(tmp_path, "zz.len",
                write_len(product_length(z_table(1), z_table(1)), "zz.grp"))
    code, out, err = run(capsys, "lenfun", "--len", table, "--axioms")
    assert code == 0 and error_lines(err) == []
    assert lines_of(out)["elements"] == "9"
    put(tmp_path, "self.grp", "product z.grp self.grp\n")
    table = put(tmp_path, "self.len", "group self.grp\nlambda Z^1\n")
    code, out, err = run(capsys, "lenfun", "--len", table, "--axioms")
    assert code == 2 and out == ""
    assert error_lines(err) == ["error: group file 'self.grp' refers back to itself"]


def group_chain(tmp_path, kind, depth):
    """A chain of depth ``kind`` files: f<k>.grp is the ``kind`` of Z and
    f<k-1>.grp, and top.grp, the last, names x, the generator of the
    innermost Z.  The length table lists l(x^k) = |k| for |k| <= 4, so
    every group operation walks the whole nesting.
    """
    put(tmp_path, "f0.grp", write_grp(FreeGroup(1)))
    for k in range(1, depth):
        put(tmp_path, "f%d.grp" % k, "%s f0.grp f%d.grp\n" % (kind, k - 1))

    def form(k):
        word = ("a" if k > 0 else "A") * abs(k)
        if kind == "product":
            return "1|" * depth + (word or "1")
        return "R(" * depth + word + ")" * depth if word else "1"

    grp = put(tmp_path, "top.grp",
              "%s f0.grp f%d.grp\ngens %s\n" % (kind, depth - 1, form(1)))
    table = put(tmp_path, "t.len", "group top.grp\nlambda Z^1\n" + "".join(
        "%s %d\n" % (form(k), abs(k)) for k in range(-4, 5)))
    return grp, table


@pytest.mark.parametrize("kind", ["product", "freeprod"])
def test_group_files_nest_up_to_the_bound(tmp_path, capsys, kind):
    for depth, want in ((MAX_GROUP_NESTING, 0), (MAX_GROUP_NESTING + 1, 2)):
        grp, table = group_chain(tmp_path, kind, depth)
        for argv in (("lenfun", "--len", table, "--axioms", "--regular", "1",
                      "--complete", "--free"),
                     ("relcayley", "--group", grp, "--len", table, "--N", "1",
                      "--radius", "2", "--pn", "1")):
            code, out, err = run(capsys, *argv)
            assert code == want
            if want:
                assert out == ""
                assert error_lines(err) == [
                    "error: group file 'f0.grp' is nested more than %d files "
                    "deep" % MAX_GROUP_NESTING]
            else:
                assert error_lines(err) == []
                assert out.startswith("command %s\n" % argv[0])


# l = 0, 3, 2, 3, 4 on a^k, |k| <= 4: every axiom holds, nothing else does
BUMP = ("group z.grp\nlambda Z^1\n1 0\na 3\nA 3\naa 2\nAA 2\naaa 3\nAAA 3\n"
        "aaaa 4\nAAAA 4\n")
BUMP_SHA = "sha256:4472155a9f4bdda803efcf59d0fe754e4212cf5f857f5959fc4a5729eaa27e7c"
Z_GRP_SHA = "sha256:76e45e287324d0cd5c0f18db421a30afb5c75d4ecd85aab0094e1d067eb620fe"

LEX = ("group z.grp\nlambda Z^2\n1 0 0\na 6 2\nA 6 2\naa 12 2\nAA 12 2\n"
       "aaa -2 3\nAAA -2 3\n")
LEX_SHA = "sha256:b5804d40f2c50818cc224902762cd03a20d4b08299ebc97c9ddd0b1e06ffa3b4"


def test_lenfun_failing_golden(tmp_path, capsys):
    put(tmp_path, "z.grp", write_grp(FreeGroup(1)))
    table = put(tmp_path, "bump.len", BUMP)
    code, out, _ = run(capsys, "lenfun", "--len", table, "--axioms",
                       "--regular", "1", "--complete", "--free")
    assert code == 1
    assert out == ("command lenfun\n"
                   "input_len %s %s\n"
                   "input_group z.grp %s\n"
                   "elements 9\n"
                   "rank 1\n"
                   "axiom_nonneg yes\n"
                   "axiom_symmetric yes\n"
                   "axiom_subadditive yes\n"
                   "delta_min (1)\n"
                   "delta_witness A,aaa,a\n"
                   "pairs_checked 61\n"
                   "triples_checked 34\n"
                   "regular_k 1\n"
                   "r1 no\n"
                   "r1_witness a,A\n"
                   "r2 no\n"
                   "r2_witness a,A\n"
                   "r1_implies_r2 yes\n"
                   "r2_implies_r1 yes\n"
                   "complete no\n"
                   "complete_witness a,1\n"
                   "prefix_gap yes\n"
                   "prefix_gap_max (0)\n"
                   "free no\n"
                   "free_witness a\n"
                   "kernel_trivial yes\n" % (table, BUMP_SHA, Z_GRP_SHA))


def test_lenfun_rank_two_golden(tmp_path, capsys):
    put(tmp_path, "z.grp", write_grp(FreeGroup(1)))
    table = put(tmp_path, "lex.len", LEX)
    code, out, _ = run(capsys, "lenfun", "--len", table, "--axioms",
                       "--regular", "0", "--free", "--delta", "(1,0)")
    assert code == 1
    assert out == ("command lenfun\n"
                   "input_len %s %s\n"
                   "input_group z.grp %s\n"
                   "elements 7\n"
                   "rank 2\n"
                   "axiom_nonneg yes\n"
                   "axiom_symmetric yes\n"
                   "axiom_subadditive yes\n"
                   "delta_min (-20,1)/2\n"
                   "delta_witness A,aa,a\n"
                   "pairs_checked 37\n"
                   "triples_checked 13\n"
                   "regular_k 0\n"
                   "r1 no\n"
                   "r1_witness a,A\n"
                   "r2 no\n"
                   "r2_witness a,A\n"
                   "r1_implies_r2 yes\n"
                   "r2_implies_r1 yes\n"
                   "free yes\n"
                   "kernel_trivial yes\n" % (table, LEX_SHA, Z_GRP_SHA))


# -- relcayley ------------------------------------------------------------


def z_fixture(tmp_path, table_radius):
    put(tmp_path, "z.grp", write_grp(FreeGroup(1)))
    return put(tmp_path, "z.len", write_len(z_table(table_radius), "z.grp"))


def test_relcayley_z_golden(tmp_path, capsys):
    table = z_fixture(tmp_path, 10)
    code, out, _ = run(capsys, "relcayley", "--group",
                       str(tmp_path / "z.grp"), "--len", table,
                       "--N", "2", "--radius", "5", "--K", "1")
    assert code == 0
    got = lines_of(out)
    assert got["cosets"] == "11" and got["base"] == "1"
    assert got["short_pairs_checked"] == "18" and got["short_pairs"] == "yes"
    assert got["N_prime"] == "2"
    assert got["alpha"] == "(0)" and got["alpha_star"] == "(1)"
    assert got["qi_pairs"] == "55" and got["unreachable"] == "0"
    assert got["qi_upper"] == got["qi_lower"] == "yes"
    assert got["geodesic_two_edge_checked"] == "8"
    assert got["geodesic_two_edge"] == "yes"
    assert got["geodesic_three_edge"] == "yes"


def test_relcayley_needs_twice_the_radius(tmp_path, capsys):
    table = z_fixture(tmp_path, 5)
    code, _, err = run(capsys, "relcayley", "--group",
                       str(tmp_path / "z.grp"), "--len", table,
                       "--N", "2", "--radius", "5", "--K", "1")
    assert code == 2 and "length table too small" in err


@pytest.mark.parametrize("text, N, radius, line", [
    # the radius-5 table lacks a^6 = A^-1 a^5
    (write_len(z_table(5), "z.grp"), "2", "5",
     "error: length table too small: no entry for aaaaaa joining cosets "
     "A and aaaaa"),
    ("group z.grp\nlambda Z^1\n1 0\na 1\nA 2\naa 2\nAA 2\n", "1", "2",
     "error: length table is not inversion-symmetric at A"),
], ids=["missing", "asymmetric"])
def test_relcayley_pair_table_error_lines(tmp_path, capsys, text, N, radius,
                                          line):
    grp = put(tmp_path, "z.grp", write_grp(FreeGroup(1)))
    table = put(tmp_path, "z.len", text)
    code, out, err = run(capsys, "relcayley", "--group", grp, "--len", table,
                         "--N", N, "--radius", radius)
    assert code == 2 and out == ""
    assert error_lines(err) == [line]


def test_relcayley_ball_property(tmp_path, capsys):
    put(tmp_path, "f2.grp", write_grp(FreeGroup(2)))
    table = put(tmp_path, "f2.len", write_len(f2_table(4), "f2.grp"))
    code, out, _ = run(capsys, "relcayley", "--group",
                       str(tmp_path / "f2.grp"), "--len", table,
                       "--N", "1", "--radius", "2", "--K", "1", "--pn", "1")
    assert code == 0
    got = lines_of(out)
    assert got["cosets"] == "17"
    assert got["pn_alpha"] == "(0)" and got["pn_alpha_ok"] == "yes"
    assert got["pn_generates"] == "yes"
    assert got["pn_double_cosets"] == "5"
    assert got["pn_threshold"] == \
        "6144*log2(154) + 768 + 2288*0 in [363321/8, 1453287/32)"
    assert got["pn_L"] == \
        "1536*log2(154) + 192 + 572*0 in [363321/32, 1453287/128)"


@pytest.mark.parametrize("grp, holds", [
    (write_grp(FiniteGroup.cyclic(3)), "FiniteGroup(order=3)"),
    (write_grp(FreeGroup(1)), "FreeGroup(1)"),
], ids=["finite", "free"])
def test_relcayley_group_must_match_the_length_file(tmp_path, capsys, grp, holds):
    put(tmp_path, "f2.grp", write_grp(FreeGroup(2)))
    table = put(tmp_path, "f2.len", write_len(f2_table(4), "f2.grp"))
    other = put(tmp_path, "other.grp", grp)
    code, out, err = run(capsys, "relcayley", "--group", other, "--len", table,
                         "--N", "1", "--radius", "2", "--K", "1")
    assert code == 2 and out == ""
    assert error_lines(err) == ["error: group file holds %s but the length "
                                "file's group is FreeGroup(2)" % holds]


# l(a^k) = 1, 3, 6, 1, 5, 5, 5, 6: aaa leaves the radius-4 ball, so the
# ball has a hole, and aa is a two-step of short edges with no direct edge
HOLE = ("group z.grp\nlambda Z^1\n1 0\na 1\nA 1\naa 3\nAA 3\naaa 6\nAAA 6\n"
        "aaaa 1\nAAAA 1\naaaaa 5\nAAAAA 5\naaaaaa 5\nAAAAAA 5\n"
        "aaaaaaa 5\nAAAAAAA 5\naaaaaaaa 6\nAAAAAAAA 6\n")
HOLE_SHA = "sha256:a851ccb3023fb14a1c344b478dd061f9877c85fb51e06852f9aa27a2a1a4c1ce"

# Z x Z on its first-factor generator: l(a^k, 1) = (|k|, 0), and the
# elements off the first factor lie above every N-ball
ZZ_GRP = "product z.grp z.grp\ngens a|1\n"
ZZ_GRP_SHA = "sha256:d548e342242fa61f79946eb412758aa5bf5986726168cfa219be618bb4ca43c3"
ZZ = ("group zz.grp\nlambda Z^2\n1|1 0 0\n"
      + "".join("%s|1 %d 0\n%s|1 %d 0\n" % ("a" * k, k, "A" * k, k)
                for k in range(1, 7))
      + "1|a -10000000 1\n1|A -10000000 1\na|a 9999999 1\nA|A 9999999 1\n"
        "A|a -7 1\na|A -7 1\n")
ZZ_SHA = "sha256:9f5fd9e8376f109d2bcdd7af0a83fa9788a2db3a6ad28f40a23089994ca0921c"


def test_relcayley_failing_golden(tmp_path, capsys):
    grp = put(tmp_path, "z.grp", write_grp(FreeGroup(1)))
    table = put(tmp_path, "hole.len", HOLE)
    code, out, _ = run(capsys, "relcayley", "--group", grp, "--len", table,
                       "--N", "2", "--radius", "4", "--delta", "0")
    assert code == 1
    assert out == ("command relcayley\n"
                   "input_group %s %s\n"
                   "input_len %s %s\n"
                   "input_group z.grp %s\n"
                   "N 2\n"
                   "radius 4\n"
                   "cosets 7\n"
                   "base 1\n"
                   "short_pairs_checked 1\n"
                   "short_pairs no\n"
                   "short_pairs_witness 1,A,AA\n"
                   "N_prime 1\n"
                   "alpha (0)\n"
                   "alpha_star (1)\n"
                   "qi_pairs 10\n"
                   "unreachable 11\n"
                   "qi_upper yes\n"
                   "qi_lower no\n"
                   "qi_lower_witness AA,aa\n"
                   "geodesic_two_edge_checked 2\n"
                   "geodesic_two_edge yes\n"
                   "geodesic_three_edge_checked 0\n"
                   "geodesic_three_edge yes\n"
                   % (grp, Z_GRP_SHA, table, HOLE_SHA, Z_GRP_SHA))


@pytest.mark.parametrize("delta, code, tail", [
    # a delta above Lambda_1 makes every geodesic inequality hold
    ("(0,1)", 0, "geodesic_two_edge yes\n"
                 "geodesic_three_edge_checked 2\n"
                 "geodesic_three_edge yes\n"),
], ids=["above"])
def test_relcayley_rank_two_golden(tmp_path, capsys, delta, code, tail):
    put(tmp_path, "z.grp", write_grp(FreeGroup(1)))
    grp = put(tmp_path, "zz.grp", ZZ_GRP)
    table = put(tmp_path, "zz.len", ZZ)
    got, out, _ = run(capsys, "relcayley", "--group", grp, "--len", table,
                      "--N", "3", "--radius", "3", "--K", "2",
                      "--delta", delta)
    assert got == code
    assert out == ("command relcayley\n"
                   "input_group %s %s\n"
                   "input_len %s %s\n"
                   "input_group z.grp %s\n"
                   "input_group zz.grp %s\n"
                   "N 3\n"
                   "radius 3\n"
                   "cosets 7\n"
                   "base 1|1\n"
                   "short_pairs_checked 10\n"
                   "short_pairs yes\n"
                   "N_prime 3\n"
                   "alpha (0,0)\n"
                   "alpha_star (1,0)\n"
                   "qi_pairs 21\n"
                   "unreachable 0\n"
                   "qi_upper yes\n"
                   "qi_lower yes\n"
                   "geodesic_two_edge_checked 6\n"
                   % (grp, ZZ_GRP_SHA, table, ZZ_SHA, Z_GRP_SHA, ZZ_GRP_SHA)
                   + tail)


def test_a_negative_delta_is_refused(tmp_path, capsys):
    # a delta below 0 in Lambda bounds no defect, so it is malformed input
    put(tmp_path, "z.grp", write_grp(FreeGroup(1)))
    hole = put(tmp_path, "hole.len", HOLE)
    lex = put(tmp_path, "lex.len", LEX)
    zz_grp = put(tmp_path, "zz.grp", ZZ_GRP)
    zz = put(tmp_path, "zz.len", ZZ)
    space = put(tmp_path, "tree.lms", TREE)
    perm = put(tmp_path, "id.perm", "0 1 2 3\n")
    relcayley = ["relcayley", "--N", "3", "--radius", "3", "--K", "2"]
    for argv, delta in [
            (["lenfun", "--len", hole, "--complete"], "-1"),
            (relcayley + ["--group", str(tmp_path / "z.grp"), "--len", hole],
             "-1"),
            (["classify", "--space", space, "--perm", perm], "-1"),
            # the last coordinate is the most significant
            (["lenfun", "--len", lex, "--free"], "(5,-1)"),
            (relcayley + ["--group", zz_grp, "--len", zz], "(5,-1)")]:
        code, out, err = run(capsys, *argv, "--delta", delta)
        assert code == 2 and out == ""
        assert error_lines(err) == ["error: lhyp %s: argument --delta: expected "
                                    "a delta of at least 0, got '%s'"
                                    % (argv[0], delta)]


def test_a_refused_long_value_is_echoed_cut_short(tmp_path, capsys):
    # 5,000 digits are past int()'s limit; a refused delta is echoed by
    # the parser of group elements
    relcayley = ["relcayley", "--group", "z.grp", "--len", "z.len", "--radius", "1"]
    lenfun = ["lenfun", "--len", "z.len", "--axioms"]
    complete = ["complete", "--space", "s.lms", "--method", "gamma1", "--delta", "0"]
    for argv, flag, value, why in [
            (relcayley, "--N", "9" * 5000, "invalid int value: "),
            (complete, "--seed", "9" * 5000, "invalid int value: "),
            (relcayley, "--N", "-" + "9" * 4000, "expected a positive integer, got "),
            (lenfun, "--delta", "x" * 3000, "bad coordinate "),
            (lenfun, "--delta", "-" + "9" * 2999, "expected a delta of at least 0, got "),
            (lenfun, "--delta", "(" + "1," * 1500, "unbalanced parentheses in ")]:
        code, out, err = run(capsys, *argv, flag, value)
        assert code == 2 and out == ""
        assert error_lines(err) == ["error: lhyp %s: argument %s: %s%r... (%d characters)"
                                    % (argv[0], flag, why, value[:40], len(value))]


# a long token in each reader's file; no subcommand reads a graph file,
# so the .gg case reads it directly, and a permutation of the wrong size
# is refused by its count of images, with no token
@pytest.mark.parametrize("files, argv, error, token", [
    ({"s.lms": "lambda Z^1\npoints %s a\n(0)\n" % ("9" * 5000)},
     "check --space s.lms", "bad point count %s", "9" * 5000),
    ({"g.gg": "graph 2\n0 %s\n" % ("x" * 3000)}, None,
     "bad edge endpoint %s", "x" * 3000),
    ({"c.grp": "finite 2\n0 1\n1 %s\n" % ("x" * 3000),
      "c.len": "group c.grp\nlambda Z^1\n0 0\n"},
     "lenfun --len c.len --axioms", "bad table entry %s", "x" * 3000),
    ({"z.grp": "free 1\n", "z.len": "group z.grp\nlambda Z^1\n%s 1\n" % ("aA" * 1500)},
     "lenfun --len z.len --axioms", "word %s is not reduced", "aA" * 1500),
    ({"z.grp": "free 1\n", "z.len": "group z.grp\nlambda Z^1\n%s 1\n%s 1\n"
      % ("a" * 3000, "a" * 3000)},
     "lenfun --len z.len --axioms", "element %s listed twice", "a" * 3000),
    ({"s.lms": TREE, "r.perm": "0 1 2 %s\n" % ("x" * 3000)},
     "classify --space s.lms --perm r.perm --delta 0", "bad image %s", "x" * 3000),
    ({"s.lms": TREE, "r.perm": " ".join(map(str, range(5000))) + "\n"},
     "classify --space s.lms --perm r.perm --delta 0",
     "permutation has 5000 images for 4 points", None),
], ids=["lms", "gg", "grp", "len", "len-twice", "perm", "perm-size"])
def test_a_refused_long_file_token_is_echoed_cut_short(tmp_path, capsys, files,
                                                       argv, error, token):
    paths = {name: put(tmp_path, name, text) for name, text in files.items()}
    if argv is None:
        with pytest.raises(InputError) as info:
            read_gg(files["g.gg"])
        code, out, err = 2, "", "error: %s\n" % info.value
    else:
        code, out, err = run(capsys, *[paths.get(a, a) for a in argv.split()])
    assert code == 2 and out == ""
    if token is not None:
        error %= "%r... (%d characters)" % (token[:40], len(token))
    assert error_lines(err) == ["error: " + error]


def test_relcayley_rejects_an_identity_beyond_the_radius(tmp_path, capsys):
    grp = put(tmp_path, "z.grp", write_grp(FreeGroup(1)))
    table = put(tmp_path, "z.len", "group z.grp\nlambda Z^1\n1 5\na 1\nA 1\n"
                                   "aa 2\nAA 2\n")
    code, out, err = run(capsys, "relcayley", "--group", grp, "--len", table,
                         "--N", "1", "--radius", "1")
    assert code == 2 and out == ""
    assert error_lines(err) == ["error: length (5) of the identity 1 lies "
                                "beyond the radius 1"]


def test_relcayley_rejects_a_negative_length(tmp_path, capsys):
    grp = put(tmp_path, "z.grp", write_grp(FreeGroup(1)))
    table = put(tmp_path, "z.len", "group z.grp\nlambda Z^1\n1 0\na -1\nA -1\n")
    code, out, err = run(capsys, "relcayley", "--group", grp, "--len", table,
                         "--N", "2", "--radius", "1")
    assert code == 2 and out == ""
    assert error_lines(err) == ["error: length (-1) of A is negative"]


def test_a_construction_error_exits_one(tmp_path, capsys):
    # under N = 1 no quotient joins {a, A} to {1, aa, AA}: l(a) = 5 and
    # l(a^-1 AA) = 6
    grp = put(tmp_path, "aa.grp", "free 1\ngens aa\n")
    put(tmp_path, "z.grp", write_grp(FreeGroup(1)))
    table = put(tmp_path, "z.len", "group z.grp\nlambda Z^1\n1 0\na 5\nA 5\n"
                                   "aa 1\nAA 1\naaa 6\nAAA 6\naaaa 7\nAAAA 7\n")
    code, out, err = run(capsys, "relcayley", "--group", grp, "--len", table,
                         "--N", "1", "--radius", "5")
    assert code == 1 and out == ""
    assert error_lines(err) == ["error: coset graph disconnected at N=1 "
                                "within radius 5"]


UNUSED_MODULES = ("dataclasses", "inspect", "concurrent.futures",
                  "multiprocessing")

# the unused modules found loaded after import, then the modules that a
# check command loads on top, one line each on stderr
IMPORT_PROBE = """
import sys, lhyp.cli
print(*(m for m in %r if m in sys.modules), file=sys.stderr)
before = set(sys.modules)
lhyp.cli.main(["check", "--space", %r])
print(*sorted(set(sys.modules) - before), file=sys.stderr)
"""


def test_importing_the_cli_leaves_out_dataclasses_and_inspect(tmp_path):
    # every command starts by importing lhyp.cli; -S keeps site hooks,
    # which may import any of these modules themselves, out of the check
    space = put(tmp_path, "tree.lms", TREE)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = IMPORT_PROBE % (UNUSED_MODULES, space)
    res = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert lines_of(res.stdout)["metric"] == "yes"
    loaded, wall, added = res.stderr.split("\n")[:3]
    assert wall.startswith("wall ")
    # nothing the command runs imports a module that start-up left out
    assert loaded == added == ""
