"""Readers and the CLI on mutated small inputs: only InputError escapes a
reader, and main exits 0, 1 or 2 with one error line on exit 2."""

import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from lhyp.catalog import read_grp, read_len
from lhyp.cli import main
from lhyp.errors import InputError
from lhyp.geodspace import read_gg
from lhyp.isometry import read_perm
from lhyp.lspace import read_lms

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
    directory; a file's name in argv stands for its path."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            with open(os.path.join(tmp, name), "w") as fh:
                fh.write(text)
        args = [os.path.join(tmp, a) if a in files else a for a in argv.split()]
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
