"""Fuzzing the CLI's input files: edge lists, GFA and FASTA.

The contract: a command either succeeds (exit 0) or refuses its input
with exit 2 and exactly one ``error:`` line on stderr; it never escapes
with an exception.  Examples are derandomized so the suite is
deterministic.  Vertex ids and vertex-count hints stay small, because a
well-formed file naming a huge vertex is a real (huge) graph, not a fault.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdp.cli import main

FUZZ = settings(derandomize=True, max_examples=80, deadline=None, database=None)

# free text without tabs or '=': it can never spell an edge line or a
# vertex-count hint, so it cannot ask for a huge graph
junk = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\t="),
    max_size=12,
)
small = st.integers(-3, 12)
wide = st.one_of(small, st.integers(-(2**70), 2**70))

edge_line = st.one_of(
    st.tuples(st.one_of(small, junk), st.one_of(small, junk), st.one_of(wide, junk))
    .map(lambda t: "\t".join(map(str, t))),
    st.one_of(st.integers(-3, 40), junk).map(lambda n: f"# n={n}"),
    junk,
)

seq = st.text("ACGTNacgtnXé*", max_size=10)
name = st.sampled_from(["s1", "s2", "s3", "", "s 1"])
gfa_line = st.one_of(
    st.tuples(name, seq).map(lambda t: "S\t" + "\t".join(t)),
    st.tuples(name, st.sampled_from(["+", "-", ""]), name, st.sampled_from(["+", "-"]))
    .map(lambda t: "L\t" + "\t".join(t) + "\t0M"),
    st.sampled_from(["S", "S\ts1", "L\ts1\t+", "H\tVN:Z:1.0"]),
    junk,
)

fasta_line = st.one_of(
    st.sampled_from([">", "> ", ">r1", ">r2 extra", ">r1"]),
    seq,
    junk,
)

GFA = "S\ts1\tACGTACGTAC\nS\ts2\tGTTACA\nL\ts1\t+\ts2\t+\t0M\n"
FASTA = ">r1\nACGTAC\n>r2\nGTTA\n"
EDGES = "# n=6\n0\t1\t3\n1\t2\t4\n2\t3\t1\n3\t4\t2\n4\t5\t9\n5\t0\t1\n"


def lines(strategy):
    return st.lists(strategy, max_size=8).map(lambda ls: "\n".join(ls) + "\n")


def run_cli(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([str(a) for a in argv])
    return rc, err.getvalue()


def assert_clean(argv):
    rc, err = run_cli(argv)
    assert rc in (0, 2), (rc, err)
    if rc == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def write(d: Path, files: dict) -> None:
    for fname, text in files.items():
        (d / fname).write_text(text, encoding="utf-8")


@FUZZ
@given(lines(edge_line))
def test_fuzz_edge_list(text):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        write(d, {"g.edges": text})
        assert_clean(["apsp", "--graph", d / "g.edges", "--max-tile", 4,
                      "--model", "--verify", "--out", d / "o"])


@FUZZ
@given(lines(gfa_line))
def test_fuzz_gfa(text):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        write(d, {"g.gfa": text, "r.fa": FASTA})
        assert_clean(["s2g", "--graph", d / "g.gfa", "--reads", d / "r.fa",
                      "--model", "--out", d / "o"])


@FUZZ
@given(lines(fasta_line))
def test_fuzz_fasta(text):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        write(d, {"g.gfa": GFA, "r.fa": text})
        assert_clean(["s2g", "--graph", d / "g.gfa", "--reads", d / "r.fa",
                      "--model", "--out", d / "o"])


# each fault the fuzzing found, and the faults it led to, as a named case:
# input files ("@" is the case's directory) and the command that used to
# escape with a traceback
FOUND = {
    "fasta_header_without_name": (
        {"g.gfa": GFA, "r.fa": ">\nACGT\n"},
        ["s2g", "--graph", "@/g.gfa", "--reads", "@/r.fa"],
    ),
    "fasta_header_without_name_mid_file": (
        {"g.gfa": GFA, "r.fa": ">r1\nACGT\n> \nAC\n"},
        ["s2g", "--graph", "@/g.gfa", "--reads", "@/r.fa"],
    ),
    "edge_field_beyond_int64": (
        {"g.edges": "0\t1\t3\n1\t0\t99999999999999999999\n"},
        ["apsp", "--graph", "@/g.edges"],
    ),
    "gfa_non_ascii_base": (
        {"g.gfa": "S\ts1\tACGé\n", "r.fa": FASTA},
        ["s2g", "--graph", "@/g.gfa", "--reads", "@/r.fa"],
    ),
    "gen_negative_seed": ({}, ["gen", "er", "--n", 10, "--p", 0.1, "--seed", -1]),
    "sweep_negative_seed": ({}, ["sweep", "tilesize", "--Ns", 256, "--seed", -1]),
    "sweep_pe_zero_bandwidth": (
        {"c.json": '{"hbm": {"hbm_bandwidth": 0}}'},
        ["sweep", "pe", "--config", "@/c.json"],
    ),
    "sweep_tilesize_zero_drain_lanes": (
        {"c.json": '{"pcm": {"merge_drain_lanes": 0}}'},
        ["sweep", "tilesize", "--Ns", 256, "--config", "@/c.json"],
    ),
}


@pytest.mark.parametrize("case", sorted(FOUND))
def test_found_fault_exits_2_with_one_line(case, tmp_path):
    files, argv = FOUND[case]
    here = str(tmp_path)
    write(tmp_path, {f: text.replace("@", here) for f, text in files.items()})
    argv = [str(a).replace("@", here) for a in argv] + ["--out", tmp_path / "o"]
    rc, err = run_cli(argv)
    assert rc == 2 and err.startswith("error: ") and err.count("\n") == 1, err
