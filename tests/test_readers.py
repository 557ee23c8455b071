"""Readers and the CLI on mutated small inputs: only InputError escapes a
reader, and main exits 0, 1 or 2 with one error line on exit 2.  Valid
inputs near the edges go through main and are checked against the
oracles."""

import io
import math
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from lhyp.catalog import read_grp, read_len
from lhyp.cli import main
from lhyp.errors import InputError
from lhyp.geodspace import read_gg
from lhyp import lspace
from lhyp.isometry import read_perm
from lhyp.lspace import read_lms
from lhyp.ordgroup import parse_lex

from oracles import (floyd, oracle_central_points, oracle_classify,
                     oracle_delta_4pt, oracle_delta_at, oracle_delta_at_witness,
                     oracle_geodesic_gap, oracle_tau, rkey)

TREE = ("lambda Z^1\n"
        "points 4 a b c d\n"
        "(0) (1) (2) (3)\n"
        "(1) (0) (1) (2)\n"
        "(2) (1) (0) (1)\n"
        "(3) (2) (1) (0)\n")

PLANE = ("lambda Q^2\n"
         "points 3 x y z  # a comment\n"
         "(0,0) (1/2,1) (0,1)\n"
         "(1/2,1) (0,0) (-1,1)\n"
         "(0,1) (-1,1) (0,0)\n")

GRAPH = "graph 4\n0 1\n1 2\n2 3  # a path\n"

PERM = "3 2 1 0\n"

# group files a length or group file may refer to
GROUPS = {
    "z.grp": "free 1\n",
    "f2.grp": "free 2\n",
    "c2.grp": "finite 2\nnames e a\n0 1\n1 0\ngens a\n",
    "zc.grp": "product z.grp c2.grp\n",
    "zz.grp": "freeprod z.grp z.grp\n",
}

Z_LEN = "group z.grp\nlambda Z^1\nradius 2\n1 0\na 1\nA 1\naa 2\nAA 2\n"

F2_LEN = "group f2.grp\nlambda Z^1\nradius 1\n1 0\na 1\nA 1\nb 1\nB 1\n"

# small tokens only, so a mutant never asks for a large computation
TOKENS = ("0", "1", "2", "3", "-1", "x", "a", "A", "e", "(0)", "(1)", "(2)",
          "(0,1)", "(1/2)", "(1,0,0)", "Z^1", "Z^2", "Q^1", "Z^0", "lambda",
          "points", "graph", "free", "finite", "names", "gens", "group",
          "radius", "product", "freeprod", "z.grp", "c2.grp", "zz.grp",
          "#", "|", "&", ":", "(", ")", ",", "/")


@st.composite
def mutants(draw, text):
    """text after one to three edits of its tokens or lines."""
    lines = [line.split() for line in text.splitlines()]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        r = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        row = lines[r]
        c = draw(st.integers(min_value=0, max_value=max(len(row) - 1, 0)))
        edit = draw(st.sampled_from(
            ("replace", "insert", "drop", "drop_line", "dup_line", "char")))
        if edit == "replace" and row:
            row[c] = draw(st.sampled_from(TOKENS))
        elif edit == "insert":
            row.insert(c, draw(st.sampled_from(TOKENS)))
        elif edit == "drop" and row:
            del row[c]
        elif edit == "drop_line" and len(lines) > 1:
            del lines[r]
        elif edit == "dup_line":
            lines.insert(r, list(row))
        elif edit == "char" and row:
            tok = row[c]
            k = draw(st.integers(min_value=0, max_value=len(tok)))
            row[c] = tok[:k] + draw(st.sampled_from("0129-()/,^|x ")) + tok[k + 1:]
    return "\n".join(" ".join(row) for row in lines) + "\n"


def load_group(ref):
    try:
        return GROUPS[ref]
    except KeyError:
        raise InputError("cannot read %s" % ref) from None


def reads_or_refuses(read, text):
    try:
        read(text)
    except InputError:
        pass


@given(st.one_of(mutants(TREE), mutants(PLANE)))
def test_read_lms_on_mutants(text):
    reads_or_refuses(read_lms, text)


@given(mutants(GRAPH))
def test_read_gg_on_mutants(text):
    reads_or_refuses(read_gg, text)


@given(st.one_of([mutants(text) for text in GROUPS.values()]))
def test_read_grp_on_mutants(text):
    reads_or_refuses(lambda t: read_grp(t, load_group), text)


@given(st.one_of(mutants(Z_LEN), mutants(F2_LEN)))
def test_read_len_on_mutants(text):
    reads_or_refuses(lambda t: read_len(t, load_group), text)


@given(mutants(PERM))
def test_read_perm_on_mutants(text):
    reads_or_refuses(read_perm, text)


# each subcommand: its input files and its arguments, in which a file's
# name stands for its path
COMMANDS = {
    "check": ({"t.lms": TREE}, "check --space t.lms"),
    "delta": ({"p.lms": PLANE}, "delta --space p.lms"),
    "complete": ({"t.lms": TREE},
                 "complete --space t.lms --method gamma2 --delta 1"),
    "classify": ({"t.lms": TREE, "r.perm": PERM},
                 "classify --space t.lms --perm r.perm --delta 0"),
    "lenfun": ({"f2.len": F2_LEN, "f2.grp": GROUPS["f2.grp"]},
               "lenfun --len f2.len --axioms --regular 1 --complete --free"),
    "relcayley": ({"z.grp": GROUPS["z.grp"], "z.len": Z_LEN},
                  "relcayley --group z.grp --len z.len --N 1 --radius 1"),
}


@st.composite
def mutated_runs(draw):
    files, argv = COMMANDS[draw(st.sampled_from(sorted(COMMANDS)))]
    name = draw(st.sampled_from(sorted(files)))
    return dict(files, **{name: draw(mutants(files[name]))}), argv


def run_main(files, argv):
    """Exit code, stdout and the error lines of main on files in a fresh
    directory; argv is a list, or a string split at whitespace, and a
    file's name in it stands for its path."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            with open(os.path.join(tmp, name), "w") as fh:
                fh.write(text)
        if isinstance(argv, str):
            argv = argv.split()
        args = [os.path.join(tmp, a) if a in files else a for a in argv]
        # main catches InputError and ConstructionError; anything else
        # raised inside fails the test
        with redirect_stdout(out), redirect_stderr(err):
            code = main(args)
    return code, out.getvalue(), [line for line in err.getvalue().splitlines()
                                  if line.startswith("error:")]


@settings(max_examples=120)
@given(mutated_runs())
def test_main_on_mutated_inputs(run):
    code, out, errors = run_main(*run)
    assert code in (0, 1, 2)
    if code == 2:
        assert len(errors) == 1 and out == ""


# -- main on drawn flag values --------------------------------------------

LEX = ("lambda Z^2\n"
       "points 3 x y z\n"
       "(0,0) (1,0) (0,1)\n"
       "(1,0) (0,0) (0,1)\n"
       "(0,1) (0,1) (0,0)\n")

Z2_LEN = "group z.grp\nlambda Z^2\n1 0 0\na 1 0\nA 1 0\naa 2 0\nAA 2 0\n"

# each subcommand on a rank-1 and a rank-2 input, every flag value in
# its domain; the files' ranks come first
FLAG_RUNS = [
    (1, {"t.lms": TREE}, "check --space t.lms"),
    (2, {"l.lms": LEX}, "check --space l.lms"),
    (1, {"t.lms": TREE}, "delta --space t.lms"),
    (2, {"p.lms": PLANE}, "delta --space p.lms"),
    (1, {"t.lms": TREE},
     "complete --space t.lms --method gamma2 --delta 1 --seed 3"),
    (2, {"l.lms": LEX},
     "complete --space l.lms --method gamma1 --delta 0 --seed 3"),
    (1, {"t.lms": TREE, "r.perm": PERM},
     "classify --space t.lms --perm r.perm --delta 0 --K 1"),
    (2, {"l.lms": LEX, "s.perm": "1 0 2\n"},
     "classify --space l.lms --perm s.perm --delta (0,1) --K 1"),
    (1, {"f2.len": F2_LEN, "f2.grp": GROUPS["f2.grp"]},
     "lenfun --len f2.len --axioms --regular 1 --complete --free --delta 0"),
    (2, {"z2.len": Z2_LEN, "z.grp": GROUPS["z.grp"]},
     "lenfun --len z2.len --axioms --regular 1 --free --delta (0,1)"),
    (1, {"z.grp": GROUPS["z.grp"], "z.len": Z_LEN},
     "relcayley --group z.grp --len z.len --N 1 --radius 1 --K 1 --pn 1 "
     "--delta 0"),
    (2, {"z.grp": GROUPS["z.grp"], "z2.len": Z2_LEN},
     "relcayley --group z.grp --len z2.len --N 1 --radius 1 --K 1 --pn 0 "
     "--delta (0,1)"),
]

# negative, zero, huge, fractional, empty and malformed values, and
# tuples of ranks 0 to 3; the last integer is past int()'s digit limit
FLAG_VALUES = ("-7", "-1", "0", "1", "2", "3", str(10 ** 40), "1/2", "-3/4",
               "2.5", "", " ", "x", "(", "()", "(0)", "(1)", "(-1)", "(0,1)",
               "(1,0)", "(2,3)", "(5,-1)", "(-5,1)", "(0,0,1)", "(1,-1,0)",
               "gamma1", "9" * 5000)

FILE_FLAGS = ("--space", "--perm", "--len", "--group")


def as_int(text):
    try:
        return int(text)
    except ValueError:
        return None


def flag_accepts(cmd, flag, value, rank):
    """Is value in the domain of the flag, at an input of the given rank?"""
    if flag == "--method":
        return value in ("gamma1", "gamma2")
    if flag == "--delta" and cmd != "complete":
        # a tuple, or a bare integer for the first coordinate; the last
        # coordinate is the most significant, and delta is at least 0
        if value.startswith("(") and value.endswith(")"):
            body = value[1:-1]
            coords = [as_int(t) for t in body.split(",")] if body else []
            if len(coords) != rank:
                return False
        else:
            coords = [as_int(value)]
        if None in coords:
            return False
        nonzero = [c for c in coords if c]
        return not nonzero or nonzero[-1] > 0
    n = as_int(value)
    if n is None:
        return False
    if flag == "--seed":
        return True
    low = 1 if flag in ("--N", "--radius") or (cmd, flag) == ("relcayley", "--K") \
        else 0
    return n >= low


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.sampled_from(FLAG_RUNS), st.data())
def test_main_on_drawn_flag_values(run, data):
    rank, files, argv = run
    argv = argv.split()
    cmd = argv[0]
    i = data.draw(st.sampled_from(
        [i for i in range(1, len(argv) - 1) if not argv[i + 1].startswith("--")]))
    flag, value = argv[i], data.draw(st.sampled_from(FLAG_VALUES))
    argv[i + 1] = value
    code, out, errors = run_main(files, argv)
    if code == 2:
        assert out == "" and len(errors) == 1
    else:
        assert code in (0, 1) and out.startswith("command %s\n" % cmd)
        assert errors == []
    if flag in FILE_FLAGS:
        return
    # a refused value is named with its flag; checks that need the input,
    # such as n <= radius, keep their own text
    names_flag = code == 2 and errors[0].startswith(
        "error: lhyp %s: argument %s: " % (cmd, flag))
    assert names_flag != flag_accepts(cmd, flag, value, rank)


def test_an_empty_delta_is_refused_alike():
    for rank, files, argv in FLAG_RUNS:
        cmd = argv.split()[0]
        if cmd in ("lenfun", "relcayley", "classify"):
            code, out, errors = run_main(files, argv.split() + ["--delta", ""])
            assert (code, out, errors) == (
                2, "", ["error: lhyp %s: argument --delta: bad coordinate ''"
                        % cmd])


@pytest.mark.parametrize("grp, word, error", [
    ("f2.grp", "a1", "bad letter '1' in word 'a1'"),
    ("f2.grp", "b-a", "bad letter '-' in word 'b-a'"),
    ("f2.grp", "\u00e9", "bad letter '\u00e9' in word '\u00e9'"),
    ("f2.grp", "abc", "letter 'c' outside rank 2"),
    ("f2.grp", "aZ", "letter 'Z' outside rank 2"),
    ("z.grp", "B", "letter 'B' outside rank 1"),
    ("f2.grp", "abBa", "word 'abBa' is not reduced"),
    ("z.grp", "Aa", "word 'Aa' is not reduced"),
    # a bad letter is reported before a cancelling pair
    ("f2.grp", "aA1", "bad letter '1' in word 'aA1'"),
    ("f2.grp", "aAc", "letter 'c' outside rank 2"),
    ("zc.grp", "b|e", "letter 'b' outside rank 1"),
])
def test_lenfun_names_the_bad_word(grp, word, error):
    text = "group %s\nlambda Z^1\n%s 1\n" % (grp, word)
    code, out, errors = run_main(dict(GROUPS, **{"w.len": text}),
                                 "lenfun --len w.len --axioms")
    assert (code, out, errors) == (2, "", ["error: " + error])


# -- read_len converts each tuple of coordinate tokens once -----------------

def test_read_len_equal_tokens_give_equal_lengths():
    text = "group f2.grp\nlambda Z^2\n1 0 0\na 1 01\nA 01 1\nb 1 1\nB 01 01\n"
    t = read_len(text, load_group)
    F = t.group
    one = t.values[F.parse("b")]
    assert one.coords == (1, 1)
    assert all(t.values[F.parse(w)] == one for w in ("a", "A", "B"))
    # one object per distinct length, whatever tokens spelled it
    assert all(t.values[F.parse(w)] is one for w in ("a", "A", "B"))


@pytest.mark.parametrize("body, line", [
    ("a 1 x\nA 1 x\n", "a 1 x"),
    ("a 1 1\nA 1 x\nb 1 x\nB 1 1\n", "A 1 x"),
    ("a 1 1\nA x 1\nb 1 1\nB x 1\n", "A x 1"),
    # the tokens differ from a good line's only in spelling
    ("a 1 01\nA 1 1\nb 1 1.0\nB 1 1.0\n", "b 1 1.0"),
])
def test_read_len_names_the_first_line_of_a_bad_token(body, line):
    text = "group f2.grp\nlambda Z^2\n1 0 0\n" + body
    error = "bad coordinates in %r" % line
    with pytest.raises(InputError) as info:
        read_len(text, load_group)
    assert str(info.value) == error
    code, out, errors = run_main(dict(GROUPS, **{"w.len": text}),
                                 "lenfun --len w.len --axioms")
    assert (code, out, errors) == (2, "", ["error: " + error])


# -- read_lms shares one element per token ----------------------------------

def lms(group, rows, labels="abcd"):
    labels = labels[:len(rows)]
    return "lambda %s\npoints %d %s\n%s\n" % (
        group, len(rows), " ".join(labels), "\n".join(rows))


def test_read_lms_equals_parsing_each_entry():
    rows = ["0 1 01 (2)", "1 0 (1) 2", "01 (1) 0 1", "(2) 2 1 (0)"]
    X = read_lms(lms("Z^1", rows))
    want = tuple(tuple(parse_lex(t, 1, "Z") for t in row.split()) for row in rows)
    assert X.dist == want
    # one element per token text: 1 and 01 are equal values, two objects
    assert X.dist[0][1] is X.dist[1][0] is X.dist[2][3]
    assert X.dist[0][2] is X.dist[2][0] and X.dist[0][2] is not X.dist[0][1]
    assert X.packed_table() == ((0, 1, 1, 2), (1, 0, 1, 2), (1, 1, 0, 1), (2, 2, 1, 0))
    assert lspace.validate_metric(X).ok


def test_read_lms_parses_each_distinct_token_once(monkeypatch):
    calls = []

    def counting(text, rank=None, domain="Z"):
        calls.append(text)
        return parse_lex(text, rank, domain)

    monkeypatch.setattr(lspace, "parse_lex", counting)
    rows = ["(0,0) (1,1) (1,1) (2,1)", "(1,1) (0,0) (2,1) (1,1)",
            "(1,1) (2,1) (0,0) (1,1)", "(2,1) (1,1) (1,1) (0,0)"]
    X = read_lms(lms("Q^2", rows))
    assert calls == ["(0,0)", "(1,1)", "(2,1)"]
    assert X.d("a", "d") == parse_lex("(2,1)", 2, "Q")


@pytest.mark.parametrize("group, rows, error", [
    # the first bad token in row-major order, late in the table, repeated
    ("Z^2", ["(0,0) (1,0) (2,1)", "(1,0) (0,0) (1,x)", "(2,1) (1,x) (1,x)"],
     "bad coordinate 'x'"),
    ("Z^2", ["(0,0) (1,0) (2,1)", "(1,0) (0,0) (3)", "(2,1) (3) (3)"],
     "expected rank 2, got '(3)'"),
    # '1/2' is a bad coordinate in Z^1; the reader names it as a fraction
    pytest.param("Z^1", ["0 1 2", "1 0 1/2", "2 1/2 1/2"],
                 "fractional coordinate '1/2' in Z^n",
                 id="Z^1-rows2-bad coordinate '1/2'"),
    ("Q^1", ["0 1 2", "1 0 (1", "2 (1 (1"], "unbalanced parentheses in '(1'"),
    # a wrong-rank token that repeats loses to a bad one that comes first
    ("Z^2", ["(0,0) (1,0) (2,1)", "(1,0) (0,0) (1,/)", "(7) (7) (7)"],
     "bad coordinate '/'"),
    ("Z^2", ["(0,0) (1,0) (2,1)", "(1,0) (0,0) (7)", "(7) (1,/) (1,/)"],
     "expected rank 2, got '(7)'"),
])
def test_read_lms_reports_the_first_bad_token(group, rows, error):
    text = lms(group, rows)
    with pytest.raises(InputError) as err:
        read_lms(text)
    assert str(err.value) == error
    assert run_main({"s.lms": text}, "check --space s.lms") == (2, "", ["error: " + error])


# -- valid inputs near the edges, through main ------------------------------

def lex_floyd(n, weight):
    """Shortest paths over coordinate tuples, compared right to left."""
    d = [[weight[i][j] for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = tuple(a + b for a, b in zip(d[i][k], d[k][j]))
                if rkey(via) < rkey(d[i][j]):
                    d[i][j] = via
    return d


def render_coord(c):
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else "%d/%d" % (c.numerator, c.denominator)


def render_raw(t):
    if len(t) == 1 and t[0] >= 0:
        return render_coord(t[0])
    return "(%s)" % ",".join(map(render_coord, t))


def value_of(text):
    """A reported constant, '(c,...)' or '(c,...)/m', as a tuple of Fractions."""
    body, _, den = text.partition(")/")
    m = int(den) if den else 1
    return tuple(Fraction(c) / m for c in body.strip("()").split(","))


@st.composite
def edge_spaces(draw):
    """(domain, raw table) of a valid metric near an edge of the input space:
    n <= 3, Q^n with denominators up to 10^9, coordinates up to 10^7, or two
    labels at distance zero (a copy of another point)."""
    edge = draw(st.sampled_from(("tiny", "qbig", "zbig", "twin")))
    n = draw(st.integers(min_value=1, max_value=3 if edge == "tiny" else 6))
    rank = draw(st.integers(min_value=1, max_value=3))
    domain = "Q" if edge == "qbig" else "Z"
    top = 10 ** 7 if edge in ("qbig", "zbig") else 9

    def coord(lo):
        c = draw(st.integers(min_value=lo, max_value=top))
        if domain == "Q":
            return Fraction(c, draw(st.integers(min_value=1, max_value=10 ** 9)))
        return c

    zero = (0,) * rank
    weight = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w = tuple(coord(-top) for _ in range(rank - 1)) + (coord(1),)
            weight[i][j] = weight[j][i] = w
    rows = lex_floyd(n, weight)
    if edge == "twin":
        src = draw(st.integers(min_value=0, max_value=n - 1))
        at = draw(st.integers(min_value=0, max_value=n))
        col = [row[src] for row in rows]
        rows = [row[:at] + [c] + row[at:] for row, c in zip(rows, col)]
        rows.insert(at, col[:at] + [zero] + col[at:])
    return domain, rows


def expected_report(rows):
    """Per-point constants, the constant, the first witness basepoint and
    its triple, and the four-point constant, from the oracles."""
    n = len(rows)
    per = [oracle_delta_at(rows, v) for v in range(n)]
    top = max(per, key=rkey)
    d4 = oracle_delta_4pt(rows)
    # constants are never negative, so the witness exists when one is not 0
    if any(top):
        bp = next(v for v in range(n) if per[v] == top)
        return per, top, bp, oracle_delta_at_witness(rows, bp)[1], d4
    return per, top, None, None, d4


def twice(t):
    return tuple(2 * c for c in t)


@settings(max_examples=60)
@given(edge_spaces(), st.sampled_from(("check", "delta")))
def test_main_on_edge_inputs_matches_the_oracles(space, command):
    domain, rows = space
    n, rank = len(rows), len(rows[0][0])
    labels = ["p%d" % i for i in range(n)]
    text = "lambda %s^%d\npoints %d %s\n%s\n" % (
        domain, rank, n, " ".join(labels),
        "\n".join(" ".join(render_raw(t) for t in row) for row in rows))
    code, out, errors = run_main({"s.lms": text}, command + " --space s.lms")
    assert errors == []
    got = dict(line.split(" ", 1) for line in out.splitlines()
               if not line.startswith(("input_space", "delta_at ")))
    twin = next(((i, j) for i in range(n) for j in range(i + 1, n)
                 if not any(rows[i][j])), None)
    if twin is not None:
        assert code == 1
        assert got["metric"] == "no"
        assert got["metric_witness"] == "LM2 at %s,%s" % (labels[twin[0]], labels[twin[1]])
        return
    per, top, bp, triple, d4 = expected_report(rows)
    assert value_of(got["delta_triple"]) == top
    assert value_of(got["delta_4pt"]) == d4
    if command == "delta":
        assert code == 0
        shown = [line.split()[1:] for line in out.splitlines() if line.startswith("delta_at ")]
        assert [lab for lab, _ in shown] == labels
        assert [value_of(v) for _, v in shown] == per
        if bp is None:
            assert (got["basepoint"], got["witness_triple"]) == ("none", "none")
        else:
            assert got["basepoint"] == labels[bp]
            assert got["witness_triple"] == ",".join(labels[t] for t in triple)
    else:
        lo = min(per, key=rkey)
        doubling = rkey(top) <= rkey(twice(lo))
        four_point = rkey(top) <= rkey(twice(d4)) and rkey(d4) <= rkey(twice(lo))
        assert got["doubling_sweep"] == ("yes" if doubling else "no")
        assert got["four_point_sweep"] == ("yes" if four_point else "no")
        assert code == (0 if doubling and four_point else 1)


@st.composite
def rs_spaces(draw):
    """(table, delta) of a small rank-1 metric in which every triple has a
    2*delta-central point, delta the least natural number at or above the
    four-point constant; half the tables are unit-graph metrics."""
    n = draw(st.integers(min_value=2, max_value=5))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if draw(st.booleans()):
        # a spanning tree plus drawn extra edges, all of weight 1
        edges = [(draw(st.integers(min_value=0, max_value=i - 1)), i, 1)
                 for i in range(1, n)]
        edges += [(i, j, 1) for i, j in pairs if draw(st.booleans())]
    else:
        edges = [(i, j, draw(st.integers(min_value=1, max_value=4)))
                 for i, j in pairs]
    rows = floyd(n, edges)
    raw = [[(c,) for c in row] for row in rows]
    d4 = oracle_delta_4pt(raw)[0]
    delta = -(-d4.numerator // d4.denominator)
    for x in range(n):
        for y in range(x + 1, n):
            for z in range(y + 1, n):
                assume(oracle_central_points(raw, (delta,), x, y, z))
    return rows, delta


def read_cg(text):
    """Header counts, (class, records) per vertex and the edges of a .cg
    file."""
    lines = text.splitlines()
    _, nv, ne = lines[0].split()
    verts = [line.split()[2:] for line in lines if line.startswith("v ")]
    edges = [tuple(map(int, line.split()[1:])) for line in lines
             if line.startswith("e ")]
    return (int(nv), int(ne)), [(v[0], v[1:]) for v in verts], edges


@settings(derandomize=True, deadline=None, max_examples=80)
@given(rs_spaces(), st.sampled_from(("gamma1", "gamma2")))
def test_complete_out_meets_its_contract(space, method):
    rows, delta = space
    n = len(rows)
    labels = ["p%d" % i for i in range(n)]
    text = "lambda Z^1\npoints %d %s\n%s\n" % (
        n, " ".join(labels),
        "\n".join(" ".join("(%d)" % c for c in row) for row in rows))
    with tempfile.TemporaryDirectory() as tmp:
        target = os.path.join(tmp, "out.cg")
        code, out, errors = run_main(
            {"s.lms": text}, ["complete", "--space", "s.lms", "--method", method,
                              "--delta", str(delta), "--out", target])
        with open(target) as fh:
            header, verts, edges = read_cg(fh.read())
    assert (code, errors) == (0, [])
    got = dict(line.split(" ", 1) for line in out.splitlines())
    V = len(verts)
    assert header == (V, len(edges))
    assert (got["vertices"], got["edges"]) == (str(V), str(len(edges)))
    # the input points come first, under their own labels, and only they
    # are essential
    assert verts[:n] == [("essential", [lab]) for lab in labels]
    assert all(klass != "essential" for klass, _ in verts[n:])
    # the path metric over every edge is the unit-edge metric, and it is
    # geodesic
    unit = floyd(V, [e for e in edges if e[2] == 1])
    assert floyd(V, edges) == unit
    assert oracle_geodesic_gap(unit) is None
    for i in range(n):
        for j in range(n):
            d = rows[i][j]
            if method == "gamma1":
                assert unit[i][j] == d
            else:
                assert d <= unit[i][j] <= oracle_tau(d, delta)
    identity = V == n and all(unit[i] == rows[i] for i in range(n))
    assert (got["certificate"] == "identity") == identity


@st.composite
def classify_cases(draw):
    """(table, permutation, delta) of an isometry: a cycle space under a
    drawn rotation or reflection, a path space under its reflection, an
    all-ones metric under a permutation of drawn cycle lengths on drawn
    points, or the rank-2 space of two points under their swap.  Delta
    lies 0 to 2 above the four-point constant rounded up; the swap's
    also draws its last coordinate."""
    family = draw(st.sampled_from(("cycle", "path", "ones", "swap")))
    if family == "swap":
        rows = [[(0, 0), (0, 1)], [(0, 1), (0, 0)]]
        return rows, (1, 0), (draw(st.integers(min_value=0, max_value=2)),
                              draw(st.integers(min_value=0, max_value=1)))
    if family == "ones":
        lengths = draw(st.lists(st.integers(min_value=1, max_value=4),
                                min_size=1, max_size=3))
        n = sum(lengths)
        where = draw(st.permutations(range(n)))
        perm = [0] * n
        start = 0
        for m in lengths:
            for t in range(m):
                perm[where[start + t]] = where[start + (t + 1) % m]
            start += m
        perm = tuple(perm)
        rows = [[(int(i != j),) for j in range(n)] for i in range(n)]
    elif family == "cycle":
        n = draw(st.integers(min_value=3, max_value=8))
        rows = [[(min(abs(i - j), n - abs(i - j)),) for j in range(n)] for i in range(n)]
        k = draw(st.integers(min_value=0, max_value=n - 1))
        reflect = draw(st.booleans())
        perm = tuple((k - i) % n if reflect else (i + k) % n for i in range(n))
    else:
        n = draw(st.integers(min_value=1, max_value=8))
        rows = [[(abs(i - j),) for j in range(n)] for i in range(n)]
        perm = tuple(range(n - 1, -1, -1))
    low = math.ceil(oracle_delta_4pt(rows)[0])
    return rows, perm, (draw(st.integers(min_value=low, max_value=low + 2)),)


CERT_NAMES = {"elliptic": "Elliptic(%d)", "hyperbolic_or_inversion":
              "HyperbolicOrInversion", "inversion": "InversionCert",
              "undetermined": "Undetermined"}


@settings(derandomize=True, deadline=None, max_examples=200)
@given(classify_cases(), st.integers(min_value=0, max_value=3))
def test_main_classify_matches_the_oracle(case, K):
    rows, perm, delta = case
    n = len(rows)
    labels = ["p%d" % i for i in range(n)]
    raw = "(%s)" % ",".join(map(str, delta))
    text = "lambda Z^%d\npoints %d %s\n%s\n" % (
        len(delta), n, " ".join(labels),
        "\n".join(" ".join("(%s)" % ",".join(map(str, t)) for t in row)
                  for row in rows))
    code, out, errors = run_main(
        {"s.lms": text, "s.perm": " ".join(map(str, perm)) + "\n"},
        ["classify", "--space", "s.lms", "--perm", "s.perm", "--delta", raw,
         "--K", str(K)])
    assert (code, errors) == (0, [])
    got = dict(line.split(" ", 1) for line in out.splitlines())
    order, kind, witness = oracle_classify(rows, perm, delta, K)
    if witness is None:
        shown = "none"
    elif kind == "inversion":
        shown = ",".join(labels[a] for a in witness)
    else:
        shown = labels[witness]
    assert got["order"] == str(order)
    assert got["certificate"] == (CERT_NAMES[kind] % K if kind == "elliptic"
                                  else CERT_NAMES[kind])
    assert got["witness"] == shown
    assert got["horizon"] == "%d basepoints, K=%d" % (n, K)
