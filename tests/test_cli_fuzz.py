"""The file and option contract under fuzzing, through ``cli.main``.

One small corpus (12 CST airfoils at n = 61, one more at n = 41, a
collinear copy of the first, their manifest, a Grassmann and a product
model, a blade definition, and a gl2 and a product-spd blade built from
it) is made once.  Each example of the first test applies one to three
line-level mutations to one artifact -- a token replaced by a
non-finite, overflowing, non-numeric, empty, negative or underscored
value, a line deleted, truncated or duplicated, a token dropped or
appended, the first line replaced (a wrong magic), two adjacent lines
swapped (reordered blocks), every two-number row put on the line y = x
(collinear landmarks), a file name pointed at the n = 41 airfoil or at
the collinear one -- and runs every command that reads that artifact.
The second test gives the numeric options of the commands those same
values.  Each run must exit 0, 2, 3 or 4 and print no traceback.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapetensors.cli import main
from shapetensors.cst import generate_airfoils
from shapetensors.shapes import LandmarkShape, write_landmarks
from shapetensors.textio import write_manifest

DOCUMENTED_EXITS = {0, 2, 3, 4}
TOKENS = ("nan", "inf", "1e308", "x", "", "-1", "1_0")
COEFFS = "--coeffs=0.01,-0.005,0.002"

# The commands that read each artifact; {a} is the mutated copy, {root}
# the corpus directory and {out} an output path in a fresh directory.
CONSUMERS = {
    "manifest.txt": [
        ["fit", "--input", "{a}", "--rank", "3", "--out", "{out}"],
        ["fit", "--input", "{a}", "--manifold", "product", "--rank", "3",
         "--out", "{out}"],
        ["preprocess", "--input", "{a}", "--n", "41", "--out", "{out}"],
    ],
    "s00.txt": [
        ["dist", "--a", "{a}", "--b", "{root}/s01.txt"],
        ["dist", "--a", "{a}", "--b", "{root}/s01.txt", "--space", "spd"],
    ],
    "grassmann.model": [
        ["sample", "--model", "{a}", "--sweep", "corner-to-corner",
         "--count", "3", "--scale", "mean", "--out", "{out}"],
        ["sample", "--model", "{a}", COEFFS, "--out", "{out}"],
        ["blade", "deform", "--blade", "{root}/gl2.blade", "--model", "{a}",
         COEFFS, "--scale", "mean", "--out", "{out}"],
    ],
    "product.model": [
        ["sample", "--model", "{a}", "--sweep", "corner-to-corner",
         "--count", "3", "--out", "{out}"],
    ],
    "blade.def": [
        ["blade", "build", "--blade", "{a}", "--out", "{out}"],
        ["blade", "build", "--blade", "{a}", "--variant", "product-spd",
         "--n", "41", "--out", "{out}"],
    ],
    "gl2.blade": [
        ["blade", "eval", "--blade", "{a}", "--eta", "0.5", "--out", "{out}"],
        ["blade", "deform", "--blade", "{a}", "--model",
         "{root}/grassmann.model", COEFFS, "--out", "{out}"],
        ["blade", "wireframe", "--blade", "{a}", "--sections", "3",
         "--out", "{out}"],
    ],
    "spd.blade": [
        ["blade", "eval", "--blade", "{a}", "--eta", "0.5", "--out", "{out}"],
        ["blade", "wireframe", "--blade", "{a}", "--sections", "3",
         "--out", "{out}"],
    ],
}


def cli(*argv):
    """(exit code, stderr) of one in-process run of the CLI."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:  # an argparse usage error
            code = exc.code
    return code, err.getvalue()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    shapes, _, _ = generate_airfoils(np.random.default_rng(3), 12, n_c=61)
    for i, shape in enumerate(shapes):
        write_landmarks(root / f"s{i:02d}.txt", shape)
    odd, _, _ = generate_airfoils(np.random.default_rng(4), 1, n_c=41)
    write_landmarks(root / "odd.txt", odd[0])
    x = shapes[0].x[:, 0]
    write_landmarks(root / "line.txt", LandmarkShape(np.column_stack([x, x])))
    write_manifest(root / "manifest.txt",
                   [(f"s{i:02d}.txt", "fuzz") for i in range(12)], "fuzz corpus")
    (root / "blade.def").write_text("\n".join(
        ["span 10", "bend 0 0 0 0", "bend 1 0 1 10"]
        + [f"station {k / 3:.4f} s{k:02d}.txt m 1 0.1 0 {1 + k / 10:g} b 0 0.01"
           for k in range(4)]) + "\n")
    for argv in (
        ["fit", "--input", root / "manifest.txt", "--rank", 3,
         "--out", root / "grassmann.model"],
        ["fit", "--input", root / "manifest.txt", "--manifold", "product",
         "--rank", 3, "--out", root / "product.model"],
        ["blade", "build", "--blade", root / "blade.def",
         "--out", root / "gl2.blade"],
        ["blade", "build", "--blade", root / "blade.def",
         "--variant", "product-spd", "--out", root / "spd.blade"],
    ):
        assert cli(*argv)[0] == 0
    return root


def mutate(lines, kind, i, j, token):
    """One line-level mutation of ``lines`` at line i and token or
    character j (both taken modulo the available count)."""
    k = i % len(lines)
    words = lines[k].split(" ")
    if kind == "delete":
        del lines[k]
    elif kind == "duplicate":
        lines.insert(k, lines[k])
    elif kind == "head":
        lines[0] = token
    elif kind == "swap":
        after = (k + 1) % len(lines)
        lines[k], lines[after] = lines[after], lines[k]
    elif kind == "repoint":
        lines[k] = re.sub(r"s\d\d\.txt", ("odd.txt", "line.txt")[j % 2], lines[k])
    elif kind == "collinear":  # every two-token row onto the line y = x
        lines[:] = [re.sub(r"^(\S+) \S+$", r"\1 \1", line) for line in lines]
    elif kind == "truncate":
        lines[k] = lines[k][:j % (len(lines[k]) + 1)]
    else:
        w = j % len(words)
        if kind == "replace":
            words[w] = token
        elif kind == "drop":
            del words[w]
        else:
            words.append(token)
        lines[k] = " ".join(words)
    return lines


# line indices lean towards the first lines, where the headers sit
MUTATIONS = st.tuples(
    st.sampled_from(("replace", "delete", "truncate", "duplicate", "drop",
                     "append", "head", "swap", "repoint", "collinear")),
    st.one_of(st.integers(0, 8), st.integers(0, 10**4)),
    st.integers(0, 10**4),
    st.sampled_from(TOKENS),
)


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(CONSUMERS)),
       edits=st.lists(MUTATIONS, min_size=1, max_size=3))
def test_mutated_artifacts_exit_with_a_documented_code(corpus, name, edits):
    lines = (corpus / name).read_text().splitlines()
    for edit in edits:
        lines = mutate(lines, *edit)
    mutant = corpus / f"mutant-{name}"
    mutant.write_text("\n".join(lines) + "\n")
    for argv in CONSUMERS[name]:
        with tempfile.TemporaryDirectory(dir=corpus) as tmp:
            out = Path(tmp) / "out"
            code, err = cli(*[a.format(a=mutant, root=corpus, out=out)
                              for a in argv])
        assert code in DOCUMENTED_EXITS and "Traceback" not in err, (argv, err)


def test_a_collinear_landmark_file_exits_2_and_is_named(corpus):
    """dist and fit name the collinear file, blade build its station."""
    (corpus / "collinear-s00.txt").write_text("\n".join(mutate(
        (corpus / "s00.txt").read_text().splitlines(), "collinear", 0, 0, "")) + "\n")
    for name, at in (("manifest.txt", 5), ("blade.def", 4)):
        (corpus / f"collinear-{name}").write_text("\n".join(mutate(
            (corpus / name).read_text().splitlines(), "repoint", at, 1, "")) + "\n")
    fit = ["fit", "--input", "{root}/collinear-manifest.txt", "--rank", "3",
           "--out", "{out}"]
    build = ["blade", "build", "--blade", "{root}/collinear-blade.def",
             "--out", "{out}"]
    cases = [
        (["dist", "--a", "{root}/collinear-s00.txt", "--b", "{root}/s01.txt"],
         "collinear-s00.txt: "),
        (["dist", "--a", "{root}/s01.txt", "--b", "{root}/collinear-s00.txt",
          "--space", "spd"], "collinear-s00.txt: "),
        (fit, "line.txt: "),
        (fit[:3] + ["--manifold", "product"] + fit[3:], "line.txt: "),
        (build, "station 1 (eta=0.3333"),
        (build + ["--variant", "product-spd", "--n", "41"], "station 1 (eta=0.3333"),
    ]
    for argv, named in cases:
        with tempfile.TemporaryDirectory(dir=corpus) as tmp:
            code, err = cli(*[a.format(root=corpus, out=Path(tmp) / "out")
                              for a in argv])
        assert code == 2, (argv, err)
        assert named in err and "landmarks are collinear" in err, (argv, err)


# Commands whose numeric options the second test sets; each {v} takes the
# next drawn value.
NUMERIC_ARGV = [
    ["cst-gen", "--count", "{v}", "--nc", "21", "--seed", "{v}", "--out", "{out}"],
    ["preprocess", "--input", "{root}/manifest.txt", "--n", "{v}", "--out", "{out}"],
    ["fit", "--input", "{root}/manifest.txt", "--rank", "{v}", "--epsilon", "{v}",
     "--out", "{out}"],
    ["sample", "--model", "{root}/grassmann.model", "--coeffs={v},{v},{v}",
     "--out", "{out}"],
    ["sample", "--model", "{root}/product.model", "--sweep", "corner-to-corner",
     "--count", "{v}", "--seed", "{v}", "--out", "{out}"],
    ["blade", "build", "--blade", "{root}/blade.def", "--n", "{v}",
     "--out", "{out}"],
    ["blade", "eval", "--blade", "{root}/gl2.blade", "--eta", "{v}",
     "--out", "{out}"],
    ["blade", "deform", "--blade", "{root}/gl2.blade", "--model",
     "{root}/grassmann.model", "--coeffs={v},{v},{v}", "--out", "{out}"],
    ["blade", "wireframe", "--blade", "{root}/spd.blade", "--sections", "{v}",
     "--out", "{out}"],
]


@settings(max_examples=100, deadline=None)
@given(argv=st.sampled_from(NUMERIC_ARGV),
       values=st.lists(st.sampled_from(TOKENS + ("3", "0.5", "1e-3")),
                       min_size=3, max_size=3))
def test_fuzzed_numeric_options_exit_with_a_documented_code(corpus, argv, values):
    values = iter(values)
    with tempfile.TemporaryDirectory(dir=corpus) as tmp:
        argv = [re.sub(r"\{v\}", lambda _: next(values), a).format(
            root=corpus, out=Path(tmp) / "out") for a in argv]
        code, err = cli(*argv)
    assert code in DOCUMENTED_EXITS and "Traceback" not in err, (argv, err)
