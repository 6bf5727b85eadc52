import argparse
import contextlib
import os
import subprocess
import sys

import numpy as np
import pytest

from lyapspec import cli, cocycle, domination, sft, spectrum, typicality
from lyapspec.cocycle import OneStepCocycle

DIAG = """\
# two commuting diagonal matrices
dim 2
alphabet 2
transition full
matrix 1
2 0
0 0.5
matrix 2
3 0
0 0.33333333333333331
"""

GOLDEN = """\
dim 2
alphabet 2
transition
1 1
1 0
matrix 1
2 0
0 1
matrix 2
1 1
1 2
"""

# a 3-symbol Wielandt shift (mixing rate 5) with generators near 1e103:
# at the first connector length k = 4, every ratio of the QM search
# (depth 1) is near 1e412, past the float range
WIELANDT = """\
dim 2
alphabet 3
transition
0 1 0
0 0 1
1 1 0
matrix 1
1e103 .5e103
.2e103 1e103
matrix 2
1e103 .3e103
.4e103 .9e103
matrix 3
.8e103 .1e103
.3e103 1e103
"""


def _run_quiet(argv):
    """Run the CLI in a fresh interpreter, as a user would: its stderr
    shows every warning."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return subprocess.run([sys.executable, "-m", "lyapspec.cli", *argv],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)


@pytest.fixture
def diag_file(tmp_path):
    path = tmp_path / "diag.cocycle"
    path.write_text(DIAG)
    return str(path)


@pytest.fixture
def scalar_file(tmp_path):
    path = tmp_path / "scalar.cocycle"
    path.write_text("dim 1\nalphabet 2\ntransition full\nmatrix 1\n2\nmatrix 2\n3\n")
    return str(path)


@pytest.fixture
def dim7_file(tmp_path):
    """Past the typicality checker's cap of dim 6."""
    path = tmp_path / "dim7.cocycle"
    eye = "\n".join(" ".join("1" if i == j else "0" for j in range(7)) for i in range(7))
    path.write_text(f"dim 7\nalphabet 2\ntransition full\nmatrix 1\n{eye}\n"
                    f"matrix 2\n{eye.replace('1', '2')}\n")
    return str(path)


@pytest.fixture
def dim4_file(tmp_path, twisted4_cocycle):
    path = tmp_path / "dim4.cocycle"
    cli.write_cocycle(str(path), twisted4_cocycle)
    return str(path)


@pytest.fixture
def latin1_file(tmp_path):
    """The diagonal cocycle with a Latin-1 comment on line 3: not UTF-8."""
    path = tmp_path / "latin1.cocycle"
    path.write_bytes(DIAG.replace("alphabet 2", "alphabet 2  # caf\xe9").encode("latin-1"))
    return str(path)


@pytest.fixture
def pos_file(tmp_path):
    path = tmp_path / "pos.cocycle"
    path.write_text(DIAG.replace("3 0\n0 0.33333333333333331",
                                 "1 1\n1 2").replace("0.5", "1"))
    return str(path)


def _scaled_pos_file(tmp_path, exponent):
    """The positive cocycle with every entry times 10**exponent."""
    path = tmp_path / f"pos{exponent}.cocycle"
    path.write_text(f"dim 2\nalphabet 2\ntransition full\nmatrix 1\n2e{exponent} 0\n"
                    f"0 1e{exponent}\nmatrix 2\n1e{exponent} 1e{exponent}\n"
                    f"1e{exponent} 2e{exponent}\n")
    return str(path)


@pytest.fixture
def pos110_file(tmp_path):
    """Valid, but a product of three generators passes 1e300."""
    return _scaled_pos_file(tmp_path, 110)


@pytest.fixture
def pos160_file(tmp_path):
    """Finite entries whose determinants overflow a float."""
    return _scaled_pos_file(tmp_path, 160)


class TestParser:
    def test_parse_full_shift(self):
        c = cli.parse_cocycle_text(DIAG)
        assert c.k == 2 and c.d == 2
        assert c.Q.is_full_shift
        assert np.allclose(c.generators[1], np.diag([3.0, 1.0 / 3.0]))

    def test_parse_explicit_transition(self):
        c = cli.parse_cocycle_text(GOLDEN)
        assert not c.Q.is_full_shift
        assert c.Q.allows(1, 2) and not c.Q.allows(2, 2)

    def test_comments_and_whitespace(self):
        text = DIAG.replace("dim 2", "  dim   2  # inline comment")
        c = cli.parse_cocycle_text(text)
        assert c.d == 2

    def test_roundtrip_exact(self):
        rng = np.random.default_rng(5)
        c = OneStepCocycle(
            Q=sft.validate([[1, 1], [1, 0]]),
            generators=[np.eye(2) + 0.1 * rng.normal(size=(2, 2))
                        for _ in range(2)])
        c2 = cli.parse_cocycle_text(cli.format_cocycle(c))
        assert np.array_equal(c.Q.entries, c2.Q.entries)
        for A, B in zip(c.generators, c2.generators):
            assert np.array_equal(A, B)

    def test_parse_error_reports_line(self):
        bad = DIAG.replace("2 0", "2 x", 1)
        with pytest.raises(cli.ParseError, match="line"):
            cli.parse_cocycle_text(bad)

    def test_missing_matrix_block(self):
        truncated = DIAG[:DIAG.index("matrix 2")]
        with pytest.raises(cli.ParseError):
            cli.parse_cocycle_text(truncated)

    def test_bad_transition_entry(self):
        bad = GOLDEN.replace("1 1\n1 0", "1 2\n1 0")
        with pytest.raises(cli.ParseError):
            cli.parse_cocycle_text(bad)

    @pytest.mark.parametrize("text", [
        "dim 1000000000\nalphabet 2\ntransition full\nmatrix 1\n1\n",
        "dim 1\nalphabet 1000000000\ntransition full\nmatrix 1\n1\n",
        "dim 1\nalphabet 1000000000\ntransition\n1 1\n",
    ], ids=["dim", "alphabet-full", "alphabet-explicit"])
    def test_huge_header_is_end_of_file(self, text):
        """A header whose arrays could never be allocated is checked
        against the tokens that follow it before any allocation."""
        with pytest.raises(cli.ParseError, match="unexpected end of file"):
            cli.parse_cocycle_text(text)

    def test_non_primitive_rejected(self):
        bad = GOLDEN.replace("1 1\n1 0", "0 1\n1 0")
        with pytest.raises(sft.NotPrimitiveError):
            cli.parse_cocycle_text(bad)


class TestGrid:
    def test_single_axis(self):
        grid = cli.parse_grid("0:1:0.5", 1)
        assert np.allclose(grid.ravel(), [0.0, 0.5, 1.0])

    def test_product_and_broadcast(self):
        grid = cli.parse_grid("-1:1:1", 2)
        assert grid.shape == (9, 2)
        assert np.allclose(grid[0], [-1, -1])
        assert np.allclose(grid[-1], [1, 1])

    def test_mixed_axes(self):
        grid = cli.parse_grid("0:1:1;0:2:1", 2)
        assert grid.shape == (6, 2)

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            cli.parse_grid("0:1", 1)
        with pytest.raises(ValueError):
            cli.parse_grid("0:1:0.5;0:1:0.5", 3)


class TestCommands:
    def test_validate_ok(self, diag_file, capsys):
        assert cli.main(["validate", diag_file]) == 0
        out = capsys.readouterr().out
        assert "mixing rate = 1" in out

    def test_validate_margin_is_scale_free(self, tmp_path, capsys):
        """Entries near 1e103 in dim 3: the margin is |det(A / scale)|,
        while scale**3 would overflow a float."""
        path = tmp_path / "big3.cocycle"
        path.write_text("dim 3\nalphabet 2\ntransition full\n"
                        "matrix 1\n1e103 9e102 0\n9e102 1e103 0\n0 0 5e102\n"
                        "matrix 2\n1e103 0 0\n0 1e103 0\n0 0 1e102\n")
        assert cli.main(["validate", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-2] == "matrix 1: invertibility margin 0.095"
        assert out[-1] == "matrix 2: invertibility margin 0.1"

    def test_validate_parse_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cocycle"
        path.write_text("dim oops\n")
        assert cli.main(["validate", str(path)]) == cli.EXIT_PARSE

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_validate_non_utf8_names_the_line(self, newline, tmp_path, capsys):
        """The file is UTF-8 whatever the locale; a bad byte is a parse
        error on the line it sits on, counted as the parser counts."""
        path = tmp_path / "latin1.cocycle"
        path.write_bytes(DIAG.replace("alphabet 2", "alphabet 2  # caf\xe9")
                         .replace("\n", newline).encode("latin-1"))
        assert cli.main(["validate", str(path)]) == cli.EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("parse error: line 3: byte 0xe9 is not UTF-8 (")

    def test_validate_missing_file_exit_2(self):
        assert cli.main(["validate", "/nonexistent.cocycle"]) == cli.EXIT_PARSE

    def test_validate_non_primitive_exit_3(self, tmp_path):
        path = tmp_path / "per.cocycle"
        path.write_text(GOLDEN.replace("1 1\n1 0", "0 1\n1 0"))
        assert cli.main(["validate", str(path)]) == cli.EXIT_VALIDATE

    def test_validate_large_alphabet_exit_3(self, tmp_path, capsys):
        """A complete full-shift file with an alphabet above the cap is
        refused before its k x k transition matrix is allocated."""
        k = cli.MAX_ALPHABET + 1
        path = tmp_path / "wide.cocycle"
        path.write_text(f"dim 1\nalphabet {k}\ntransition full\n"
                        + "".join(f"matrix {s}\n2\n" for s in range(1, k + 1)))
        assert cli.main(["validate", str(path)]) == cli.EXIT_VALIDATE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"validation error: alphabet {k} is larger than "
                                    f"the supported {cli.MAX_ALPHABET} symbols"]

    def test_pressure_csv(self, diag_file, tmp_path, capsys):
        out = tmp_path / "p.csv"
        code = cli.main(["pressure", diag_file, "--q=0:1:1", "--n", "6",
                         "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        manifest = [line for line in lines if line.startswith("#")]
        assert any("input_sha256" in line for line in manifest)
        header = next(line for line in lines if not line.startswith("#"))
        assert header.split(",") == ["q_1", "q_2", "n", "P_n", "lower",
                                     "upper", "cauchy_diag"]
        data = [line for line in lines if not line.startswith("#")][1:]
        assert len(data) == 4
        # q = (0,0): pressure is log 2 at 17 significant digits
        row00 = data[0].split(",")
        assert float(row00[3]) == pytest.approx(np.log(2), abs=1e-15)

    def test_pressure_budget_exit_4(self, diag_file):
        code = cli.main(["pressure", diag_file, "--q=0:0:1", "--n", "12",
                         "--budget", "10"])
        assert code == cli.EXIT_BUDGET

    def test_pressure_qm_constant_past_float_range_is_quiet(self, tmp_path):
        """Generators near 1e103 give a QM ratio past the float range: C
        is kept as inf, and the run warns nothing."""
        rows = ["1 .9 0", ".9 1 0", "0 0 .5", "1 .2 .1", ".3 .4 .2", ".1 .1 .3"]
        big = [" ".join(f"{float(x)}e103" for x in row.split()) for row in rows]
        path = tmp_path / "big.cocycle"
        path.write_text("dim 3\nalphabet 2\ntransition full\nmatrix 1\n"
                        + "\n".join(big[:3]) + "\nmatrix 2\n" + "\n".join(big[3:]) + "\n")
        run = _run_quiet(["pressure", str(path), "--q=0:1:1", "--n", "6",
                          "--out", str(tmp_path / "p.csv")])
        assert (run.returncode, run.stderr) == (0, "")
        # the first connector length of a Wielandt shift already overflows
        wielandt = tmp_path / "wielandt.cocycle"
        wielandt.write_text(WIELANDT)
        c = cli.load_cocycle(str(wielandt))
        assert (typicality.qm_search(c, 1, 4).k, typicality.qm_search(c, 1, 4).C) == (4, np.inf)
        # below the mixing rate - 1 some pair has no connector
        assert not typicality.qm_search(c, 1, 3).found

    def test_pressure_infinite_qm_constant_leaves_lower_blank(self, tmp_path):
        """A QM constant past the float range brackets nothing: every
        lower cell is empty, and the run warns nothing."""
        path = tmp_path / "wielandt.cocycle"
        path.write_text(WIELANDT)
        out = tmp_path / "p.csv"
        run = _run_quiet(["pressure", str(path), "--q=0:1:1", "--n", "8", "--qm-depth", "1",
                          "--qm-connect", "4", "--out", str(out)])
        assert (run.returncode, run.stderr) == (0, "")
        lines = [line.split(",") for line in out.read_text().splitlines()
                 if not line.startswith("#")]
        lower = lines[0].index("lower")
        assert len(lines) == 5 and all(row[lower] == "" for row in lines[1:])

    def test_pressure_budget_covers_only_the_qm_lengths_read(self, diag_file, capsys):
        """The QM search stops at k = 0 on a full shift and reads the
        lengths 1..4, so a budget that the lengths of connector length 12
        (up to 2 * 2 + 12 = 16) would exceed does not stop the run."""
        code = cli.main(["pressure", diag_file, "--n", "3", "--qm-depth", "2",
                         "--qm-connect", "12", "--budget", "100", "--q=0:0:1"])
        assert (code, capsys.readouterr().err) == (0, "")

    def test_spectrum_csv(self, pos_file, tmp_path):
        out = tmp_path / "s.csv"
        code = cli.main(["spectrum", pos_file, "--auto-grid", "3",
                         "--n", "8", "--out", str(out)])
        assert code == 0
        lines = [line for line in out.read_text().splitlines()
                 if not line.startswith("#")]
        assert lines[0].split(",")[:3] == ["alpha_1", "alpha_2", "h"]
        assert len(lines) == 4

    def test_typical_accept(self, pos_file, capsys):
        code = cli.main(["typical", pos_file,
                         "--fixed-symbol", "1", "--homoclinic", "2"])
        assert code == 0
        assert "typical: yes" in capsys.readouterr().out

    def test_typical_accepts_dim_4(self, dim4_file, capsys):
        code = cli.main(["typical", dim4_file, "--fixed-symbol", "1", "--homoclinic", "2"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in out[1:4]] == ["  t = 1", "  t = 2", "  t = 3"]
        assert out[4:] == ["  twisting margin 0.00080972 (ok)", "typical: yes"]

    def test_typical_no_fixed_symbol_exit_5(self, tmp_path):
        path = tmp_path / "cycle.cocycle"
        path.write_text(
            "dim 1\nalphabet 3\ntransition\n0 1 1\n1 0 1\n1 1 0\n"
            "matrix 1\n1\nmatrix 2\n2\nmatrix 3\n3\n")
        assert cli.main(["typical", str(path)]) == cli.EXIT_NO_FIXED

    def test_dominate_pass_exit_0(self, diag_file, capsys):
        code = cli.main(["dominate", diag_file, "--n-max", "9"])
        assert code == 0
        assert "overall: pass" in capsys.readouterr().out

    def test_dominate_fail_exit_1(self, tmp_path):
        rot = ("dim 2\nalphabet 2\ntransition full\n"
               "matrix 1\n0 -1\n1 0\nmatrix 2\n0.8 -0.6\n0.6 0.8\n")
        path = tmp_path / "rot.cocycle"
        path.write_text(rot)
        assert cli.main(["dominate", str(path), "--n-max", "9"]) \
            == cli.EXIT_DOM_FAIL

    def test_dominate_inconclusive_exit_6(self, tmp_path):
        near = ("dim 2\nalphabet 2\ntransition full\n"
                "matrix 1\n1.0001 0\n0 1\nmatrix 2\n1.0001 0\n0 1\n")
        path = tmp_path / "near.cocycle"
        path.write_text(near)
        assert cli.main(["dominate", str(path), "--n-max", "8"]) \
            == cli.EXIT_INCONCLUSIVE

    def test_dominate_cone_certified(self, diag_file, capsys):
        """The S-lemma margin of the diagonal cocycle is that of its
        weaker generator diag(2, 1/2): 0.2 - atan(tan 0.2 / 4)."""
        assert cli.main(["dominate", diag_file, "--n-max", "9", "--cone"]) == 0
        assert "multicone t=1: 1 balls of radius 0.2, margin 0.149366 (certified)" \
            in capsys.readouterr().out

    def test_dominate_cone_certified_through_the_union(self, certify_jobs, capsys):
        """The certify workload's k3d2 family (seed 1) has a ball with a
        pair that does not count; its image arcs lie inside the union of
        balls, so the certificate is a proof."""
        job = certify_jobs["dominate:k3d2"]
        assert cli.main(job.cli_argv()) == 0
        assert "multicone t=1: 6 balls of radius 0.2, margin 0.0598302 (certified)" \
            in capsys.readouterr().out

    def test_dominate_cone_rotations_inconclusive(self, tmp_path, capsys):
        rot = ("dim 2\nalphabet 2\ntransition full\n"
               "matrix 1\n0 -1\n1 0\nmatrix 2\n0.8 -0.6\n0.6 0.8\n")
        path = tmp_path / "rot.cocycle"
        path.write_text(rot)
        assert cli.main(["dominate", str(path), "--n-max", "9", "--cone"]) \
            == cli.EXIT_DOM_FAIL
        assert "multicone t=1: no certificate (inconclusive)" in capsys.readouterr().out

    def test_subsystem_roundtrip(self, pos_file, tmp_path):
        sub_path = tmp_path / "sub.cocycle"
        out = tmp_path / "sub.csv"
        code = cli.main(["subsystem", pos_file, "--base-n", "2",
                         "--q=0:1:1", "--n", "8", "--block-depth", "3",
                         "--subsystem-out", str(sub_path),
                         "--out", str(out)])
        assert code == 0
        sub = cli.load_cocycle(str(sub_path))
        assert sub.k == 4 and sub.d == 2
        data = [line for line in out.read_text().splitlines()
                if not line.startswith("#")]
        gap_col = data[0].split(",").index("gap")
        for row in data[1:]:
            assert float(row.split(",")[gap_col]) < 0.05

    def test_subsystem_search_exhaustion_exit_7(self, tmp_path):
        rot = ("dim 2\nalphabet 2\ntransition full\n"
               "matrix 1\n0 -1\n1 0\nmatrix 2\n0.8 -0.6\n0.6 0.8\n")
        path = tmp_path / "rot.cocycle"
        path.write_text(rot)
        code = cli.main(["subsystem", str(path), "--base-n", "2",
                         "--pad-bound", "2",
                         "--fixed-symbol", "1", "--homoclinic", "2",
                         "--subsystem-out", str(tmp_path / "x.cocycle")])
        assert code in (cli.EXIT_NO_FIXED, cli.EXIT_SEARCH_EXHAUSTED)

    def test_pressure_empty_qm_search_leaves_lower_blank(self, diag_file, tmp_path):
        out = tmp_path / "p.csv"
        code = cli.main(["pressure", diag_file, "--q=1:1:1", "--n", "4",
                         "--qm-depth", "0", "--out", str(out)])
        assert code == 0
        lines = [line for line in out.read_text().splitlines()
                 if not line.startswith("#")]
        lower = lines[0].split(",").index("lower")
        assert lines[1].split(",")[lower] == ""


@pytest.mark.parametrize("argv, code", [
    (["pressure", "{diag}", "--n", "0"], cli.EXIT_PARSE),
    (["pressure", "{diag}", "--q=0:1"], cli.EXIT_PARSE),
    (["spectrum", "{diag}", "--n", "0"], cli.EXIT_PARSE),
    (["dominate", "{diag}", "--n-min", "5", "--n-max", "3"], cli.EXIT_PARSE),
    (["dominate", "{diag}", "--n-min", "3", "--n-max", "3"], cli.EXIT_PARSE),
    (["dominate", "{diag}", "--index", "5"], cli.EXIT_VALIDATE),
    (["dominate", "{scalar}"], cli.EXIT_VALIDATE),
    (["dominate", "{scalar}", "--cone"], cli.EXIT_VALIDATE),
    (["dominate", "{diag}", "--cone", "--seed", "-1"], cli.EXIT_PARSE),
    (["pressure", "{diag}", "--q=nan:1:1"], cli.EXIT_PARSE),
    (["spectrum", "{diag}", "--alpha=0:inf:1"], cli.EXIT_PARSE),
    (["typical", "{pos}", "--fixed-symbol", "1", "--homoclinic", "1,x"], cli.EXIT_PARSE),
    (["typical", "{pos}", "--search-depth", "0"], cli.EXIT_PARSE),
    (["typical", "{pos}", "--fixed-symbol", "7", "--homoclinic", "1"], cli.EXIT_VALIDATE),
    (["subsystem", "{pos}", "--fixed-symbol", "1", "--homoclinic", "9"], cli.EXIT_VALIDATE),
    (["subsystem", "{pos}", "--block-depth", "0"], cli.EXIT_PARSE),
    (["subsystem", "{pos}", "--base-n", "2", "--n", "30"], cli.EXIT_BUDGET),
    (["pressure", "{diag}", "--qm-depth", "-1", "--q=0:0:1"], cli.EXIT_PARSE),
    (["pressure", "{diag}", "--qm-connect", "-1", "--q=0:0:1"], cli.EXIT_PARSE),
    (["subsystem", "{pos}", "--pad-bound", "-1"], cli.EXIT_PARSE),
    (["pressure", "{diag}", "--q=0:1:1e-300"], cli.EXIT_PARSE),
    (["pressure", "{diag}", "--q=0:1:1e-3;0:1:1e-3"], cli.EXIT_PARSE),
    (["pressure", "{diag}", "--n", "3", "--qm-depth", "6", "--qm-connect", "6",
      "--budget", "1000"], cli.EXIT_BUDGET),
    (["subsystem", "{pos}", "--block-depth", "30"], cli.EXIT_BUDGET),
    (["subsystem", "{pos}", "--base-n", "40"], cli.EXIT_BUDGET),
    (["typical", "{dim7}"], cli.EXIT_VALIDATE),
    (["subsystem", "{dim7}"], cli.EXIT_VALIDATE),
    # runs the whole MAX_TYPICAL_CHECKS search, about 6 s
    pytest.param(["typical", "{diag}", "--search-depth", "13"], cli.EXIT_BUDGET,
                 marks=pytest.mark.slow),
    (["subsystem", "{pos110}"], cli.EXIT_VALIDATE),
    (["typical", "{pos110}", "--fixed-symbol", "1", "--homoclinic", "2,2"], cli.EXIT_VALIDATE),
    (["validate", "{pos160}"], cli.EXIT_VALIDATE),
    (["pressure", "{pos160}", "--q=0:0:1", "--n", "4"], cli.EXIT_VALIDATE),
    (["spectrum", "{pos160}", "--n", "4", "--auto-grid", "3"], cli.EXIT_VALIDATE),
    (["dominate", "{pos160}"], cli.EXIT_VALIDATE),
    (["pressure", "{diag}", "--q=0:0:1", "--budget", "0"], cli.EXIT_PARSE),
    (["spectrum", "{diag}", "--auto-grid", "3", "--budget", "-5"], cli.EXIT_PARSE),
    (["spectrum", "{latin1}", "--auto-grid", "3"], cli.EXIT_PARSE),
], ids=["pressure-n", "pressure-grid", "spectrum-n", "dominate-range",
        "dominate-single-length", "dominate-index", "dominate-dim-1",
        "dominate-dim-1-cone", "dominate-seed", "pressure-grid-nan",
        "spectrum-grid-inf",
        "typical-word", "typical-depth", "typical-symbol", "subsystem-word-symbol", "subsystem-depth",
        "subsystem-budget", "pressure-qm-depth", "pressure-qm-connect",
        "subsystem-pad-bound", "pressure-grid-tiny-step", "pressure-grid-too-many-points",
        "pressure-qm-budget", "subsystem-block-depth", "subsystem-base-n",
        "typical-search-dim-7", "subsystem-search-dim-7", "typical-search-budget",
        "subsystem-product-overflow", "typical-product-overflow", "validate-wedge-overflow",
        "pressure-wedge-overflow", "spectrum-wedge-overflow", "dominate-wedge-overflow",
        "pressure-budget-0", "spectrum-budget-negative", "spectrum-not-utf8"])
def test_user_input_error_is_one_line(argv, code, diag_file, pos_file, scalar_file,
                                      dim7_file, pos110_file, pos160_file, latin1_file,
                                      tmp_path, capsys):
    """Bad values end in a documented exit code and a one-line
    message, never a traceback (exit 1 means a negative verdict), and
    leave no output behind: no stdout line and no subsystem file.  A
    file the loader refuses reports a validation error, one it cannot
    decode a parse error."""
    prefix = {"{pos160}": "validation error: ",
              "{latin1}": "parse error: "}.get(argv[1], "error: ")
    argv = [a.format(diag=diag_file, pos=pos_file, scalar=scalar_file, dim7=dim7_file,
                     pos110=pos110_file, pos160=pos160_file, latin1=latin1_file)
            for a in argv]
    sub_out = tmp_path / "x.cocycle"
    argv += ["--subsystem-out", str(sub_out)] if argv[0] == "subsystem" else []
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    assert len(err.splitlines()) == 1
    assert err.startswith("budget exceeded: " if code == cli.EXIT_BUDGET else prefix)
    assert out == ""
    assert not sub_out.exists()


@pytest.mark.parametrize("command", ["typical", "subsystem"])
def test_pair_search_cap_exit_4(command, diag_file, monkeypatch, capsys):
    """The pair search stops at MAX_TYPICAL_CHECKS checks, so a deep
    search on the diagonal cocycle (no pair is typical) exits 4."""
    monkeypatch.setattr(typicality, "MAX_TYPICAL_CHECKS", 100)
    assert cli.main([command, diag_file, "--search-depth", "16"]) == cli.EXIT_BUDGET
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["budget exceeded: no typical pair among the first 100 "
                                "checked, at a = 1 and length 6; reduce the search depth"]


def test_padding_cap_exit_4(pos_file, tmp_path, monkeypatch, capsys):
    """The padding search stops past MAX_PADDINGS candidates: exit 4,
    one stderr line, and no output."""
    monkeypatch.setattr(domination, "MAX_PADDINGS", 5)
    sub_out = tmp_path / "x.cocycle"
    assert cli.main(["subsystem", pos_file, "--base-n", "2", "--subsystem-out",
                     str(sub_out)]) == cli.EXIT_BUDGET
    out, err = capsys.readouterr()
    assert out == "" and not sub_out.exists()
    assert err.splitlines() == ["budget exceeded: more than 5 padding words of length <= 8; "
                                "reduce the pad bound"]


@pytest.mark.parametrize("argv, err", [
    (["dominate", "{pos}", "--n-max", "30"],
     "#L_30 = 1073741824 words exceeds the budget of 20000000"),
    (["subsystem", "{pos}", "--block-depth", "30"],
     "#L_30 = 1237940039285380274899124224 words exceeds the budget of 9000000"),
    (["subsystem", "{pos}", "--base-n", "7"],
     "128 base words of length 7: their 2097152 blocks of depth 3 exceed the budget of 300000"),
    # refused before a full shift on 65,536 symbols is built
    (["subsystem", "{pos}", "--base-n", "16"],
     "65536 base words of length 16: their 281474976710656 blocks of depth 3 "
     "exceed the budget of 300000"),
], ids=["dominate-n-max", "subsystem-block-depth", "subsystem-base-n-7", "subsystem-base-n-16"])
def test_budget_error_names_the_count_and_the_limit(argv, err, pos_file, tmp_path, capsys):
    """Past a command's fixed word budget: exit 4, one stderr line with
    the count and the budget, and no output."""
    sub_out = tmp_path / "x.cocycle"
    argv = [a.format(pos=pos_file) for a in argv]
    argv += ["--subsystem-out", str(sub_out)] if argv[0] == "subsystem" else []
    assert cli.main(argv) == cli.EXIT_BUDGET
    assert capsys.readouterr() == ("", f"budget exceeded: {err}\n")
    assert not sub_out.exists()


@pytest.mark.parametrize("argv, err", [
    (["pressure", "{pos}", "--n", "20000"],
     "#L_20000 words exceeds the budget of 20000000: #L_25 already does"),
    (["pressure", "{pos}", "--n", "1000000"],
     "#L_1000000 words exceeds the budget of 20000000: #L_25 already does"),
    (["pressure", "{pos}", "--n", "2", "--qm-depth", "8000"],
     "#L_16000 words exceeds the budget of 20000000: #L_25 already does"),
    (["spectrum", "{pos}", "--n", "20000"],
     "#L_20000 words exceeds the budget of 20000000: #L_25 already does"),
    (["dominate", "{pos}", "--n-max", "20000"],
     "#L_20000 words exceeds the budget of 20000000: #L_25 already does"),
    (["subsystem", "{pos}", "--n", "20000"],
     "#L_20000 words exceeds the budget of 20000000: #L_25 already does"),
    (["subsystem", "{pos}", "--block-depth", "20000"],
     "#L_20000 words exceeds the budget of 9000000: #L_8 already does"),
    (["subsystem", "{pos}", "--base-n", "20000"],
     "at least 128 base words of length 20000: their at least 2097152 blocks of depth 3 "
     "exceed the budget of 300000"),
], ids=["pressure-n", "pressure-n-1e6", "pressure-qm-depth", "spectrum-n", "dominate-n-max",
        "subsystem-n", "subsystem-block-depth", "subsystem-base-n"])
def test_budget_error_past_a_printable_count(argv, err, pos_file, tmp_path, capsys):
    """Counts of thousands of digits, which Python refuses to print:
    the refusal names the first length past the budget instead, and
    counts no further, so each exits 4 at once with one stderr line and
    writes no output."""
    out = tmp_path / "x.csv"
    argv = [a.format(pos=pos_file) for a in argv]
    argv += ["--subsystem-out", str(tmp_path / "x.cocycle")] if argv[0] == "subsystem" else []
    argv += [] if argv[0] == "dominate" else ["--out", str(out)]
    assert cli.main(argv) == cli.EXIT_BUDGET
    assert capsys.readouterr() == ("", f"budget exceeded: {err}\n")
    assert list(tmp_path.glob("x.*")) == []


@pytest.mark.parametrize("gaussian", [False, True], ids=["pos", "gaussian-d3"])
def test_subsystem_n_past_the_budget_is_refused_before_the_search(gaussian, pos_file, tmp_path,
                                                                  capsys, monkeypatch):
    """The base cocycle's sums at --n come before the typicality search,
    so an over-budget --n exits 4 with one stderr line, no pair checked
    and no file written.  On the Gaussian d = 3 cocycle no pair passes,
    so a refusal after the search would be exit 5."""
    path = pos_file
    if gaussian:
        path = str(tmp_path / "gauss.cocycle")
        gens = list(np.random.default_rng(2).standard_normal((2, 3, 3)))
        cli.write_cocycle(path, OneStepCocycle(Q=sft.full_shift(2), generators=gens))
    checks = []
    monkeypatch.setattr(typicality, "check_typical", lambda *a: checks.append(a))
    out, sub = tmp_path / "x.csv", tmp_path / "x.sub"
    assert cli.main(["subsystem", path, "--n", "20000", "--subsystem-out", str(sub),
                     "--out", str(out)]) == cli.EXIT_BUDGET
    assert capsys.readouterr() == ("", "budget exceeded: #L_20000 words exceeds the budget "
                                       "of 20000000: #L_25 already does\n")
    assert checks == [] and not out.exists() and not sub.exists()


@pytest.mark.parametrize("argv", [
    ["pressure", "{diag}", "--q=0:0:1", "--n", "4", "--out", "{missing}/p.csv"],
    ["spectrum", "{diag}", "--auto-grid", "3", "--n", "4", "--out", "{missing}/s.csv"],
    ["subsystem", "{pos}", "--base-n", "2", "--q=0:0:1", "--n", "4",
     "--subsystem-out", "{missing}/s.cocycle"],
    ["subsystem", "{pos}", "--base-n", "2", "--q=0:0:1", "--n", "4",
     "--subsystem-out", "{sub}", "--out", "{missing}/x.csv"],
    ["subsystem", "{pos}", "--base-n", "2", "--q=0:0:1", "--n", "4",
     "--subsystem-out", "{missing}/s.cocycle", "--out", "{csv}"],
], ids=["pressure-out", "spectrum-out", "subsystem-out", "subsystem-csv-out",
        "subsystem-out-keeps-csv"])
def test_unwritable_output_path_is_exit_2(argv, diag_file, pos_file, tmp_path, capsys,
                                         monkeypatch):
    """An output path in a missing directory is a usage error: exit 2
    and one line, before any sweep or typicality check, and no other
    output is left behind: an unwritable --out writes no subsystem, and
    an unwritable --subsystem-out leaves an existing --out as it was."""
    calls = []
    for module, name in [(cocycle, "_sweep"), (typicality, "check_typical")]:
        monkeypatch.setattr(module, name, lambda *a, f=getattr(module, name), n=name, **kw:
                            calls.append(n) or f(*a, **kw))
    missing = tmp_path / "missing"
    sub = tmp_path / "x.cocycle"
    csv = tmp_path / "kept.csv"
    csv.write_text("# earlier run\n")
    argv = [a.format(diag=diag_file, pos=pos_file, missing=missing, sub=sub, csv=csv)
            for a in argv]
    assert cli.main(argv) == cli.EXIT_PARSE
    out, err = capsys.readouterr()
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert out == ""
    assert not missing.exists()
    assert not sub.exists()
    assert csv.read_text() == "# earlier run\n"
    assert calls == []


def test_subsystem_csv_on_stdout_parses(pos_file, tmp_path, capsys):
    """Without --out, the subsystem note is a comment line, so the first
    line not starting with # is the CSV header."""
    assert cli.main(["subsystem", pos_file, "--base-n", "2", "--q=0:1:1", "--n", "4",
                     "--subsystem-out", str(tmp_path / "s.cocycle")]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines.index("q_1,q_2,ell,P_ell_D_per_symbol,P_n,gap")
    assert lines[0].startswith("# subsystem written to ")
    assert all(line.startswith("#") for line in lines[:header])


COMMAND_NAMES = ["validate", "pressure", "spectrum", "typical", "dominate", "subsystem"]


@pytest.mark.parametrize("argv, builds", [
    (["pressure", "{diag}", "--q=0:0:1", "--n", "2"], 1),
    (["presure", "{diag}"], 6),
    (["--help"], 6),
], ids=["command", "misspelled", "help"])
def test_main_builds_only_the_named_command(argv, builds, diag_file, monkeypatch, capsys):
    """A run that names a command builds that command's parser alone;
    help and a misspelled command build all six."""
    names = []
    add_parser = argparse._SubParsersAction.add_parser
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                        lambda self, name, **kw: names.append(name) or add_parser(self, name, **kw))
    with pytest.raises(SystemExit) if argv == ["--help"] else contextlib.nullcontext():
        cli.main([a.format(diag=diag_file) for a in argv])
    assert len(names) == builds


@pytest.mark.parametrize("argv", [
    ["validate", "{diag}"],
    ["pressure", "{diag}", "--q=0:1:0.5", "--n", "4", "--qm-depth", "2", "--budget", "99",
     "--out", "p.csv"],
    ["spectrum", "{diag}", "--alpha=1:1:1", "--oracle", "--eps", "0.1", "--qm-connect", "1"],
    ["typical", "{diag}", "--fixed-symbol", "1", "--homoclinic", "2,1"],
    ["dominate", "{diag}", "--index", "1", "--cone", "--seed", "3", "--n-max", "5"],
    ["subsystem", "{diag}", "--base-n", "2", "--search-depth", "2", "--subsystem-out", "s"],
], ids=COMMAND_NAMES)
def test_one_command_parser_matches_the_full_one(argv, diag_file, capsys):
    """The parser built for one command has the --help text and gives
    the namespace (so the manifest) of the parser of all six."""
    argv = [a.format(diag=diag_file) for a in argv]
    one, full = cli.build_parser(argv[0]), cli.build_parser()
    assert vars(one.parse_args(argv)) == vars(full.parse_args(argv))
    helps = []
    for parser in (one, full):
        with pytest.raises(SystemExit):
            parser.parse_args([argv[0], "--help"])
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1]
    assert helps[0].startswith(f"usage: lyapspec {argv[0]} ")


def test_misspelled_command_names_every_command(diag_file, capsys):
    assert cli.main(["presure", diag_file]) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert all(f"'{name}'" in err for name in COMMAND_NAMES)


def test_runs_as_module(diag_file):
    """python -m lyapspec runs the CLI from a source tree."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    for argv, first in [(["--help"], "usage: lyapspec "), (["validate", diag_file], "alphabet k")]:
        run = subprocess.run([sys.executable, "-m", "lyapspec", *argv], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout.startswith(first)


@pytest.mark.parametrize("argv", [
    ["pressure", "{diag}", "--n", "abc"],
    ["spectrum", "{diag}", "--auto-grid", "1.5"],
    ["frobnicate", "{diag}"],
    ["pressure"],
    [],
    ["dominate", "{diag}", "--no-such-flag"],
], ids=["bad-int", "bad-int-spectrum", "unknown-command", "missing-file",
        "missing-command", "unknown-flag"])
def test_parser_error_returns_2(argv, diag_file, capsys):
    """argparse's own errors come back from main as exit 2 with one
    line, like every other usage error, instead of a SystemExit."""
    assert cli.main([a.format(diag=diag_file) for a in argv]) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [["--help"], ["spectrum", "--help"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def _spectrum_rows(path):
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_spectrum_auto_grid_statuses_match_hull_tested_curve(pos_file, tmp_path):
    """The statuses the CLI prints for an auto grid are those of
    spectrum_curve on the same grid: the solver alone sets them."""
    out = tmp_path / "s.csv"
    assert cli.main(["spectrum", pos_file, "--auto-grid", "7", "--n", "8",
                     "--out", str(out)]) == 0
    c = cli.load_cocycle(pos_file)
    est = spectrum.domain_estimate(c, 8)
    grid = spectrum.interior_alpha_grid(est, 7)
    points = spectrum.spectrum_curve(c, grid, 8)
    assert [row["status"] for row in _spectrum_rows(out)] == [p.status for p in points]


def _diag_entropy(a):
    """Binary entropy of the weight t on generator 2 of the diagonal
    cocycle, at alpha_1 = (1 - t) log 2 + t log 3 = a."""
    t = (a - np.log(2)) / np.log(1.5)
    return -t * np.log(t) - (1 - t) * np.log(1 - t)


@pytest.mark.parametrize("a, status, h, tol", [
    (np.log(5), "boundary-suspect", "", None),
    (np.log(2) + 5e-5, "interior-converged", _diag_entropy(np.log(2) + 5e-5), 1e-8),
    (np.log(2), "boundary-suspect", 0.0, 1e-3),
    (1000.0, "diverged", "", None),
], ids=["beyond-log3", "near-log2", "on-log2", "far"])
def test_spectrum_user_alpha_outside_hull_is_boundary_suspect(a, status, h, tol, diag_file,
                                                              tmp_path):
    """log 5 lies beyond the largest exponent log 3 of the diagonal
    cocycle: the iterate escapes, and its direction separates alpha from
    every profile, so the empty level set prints an empty h.  log 2 +
    5e-5 lies inside the profile hull (though outside the hull of the
    5^d sampled gradients), and the solver converges on the closed form:
    P_n = log(2^u + 3^u) at every n.  log 2 is a profile (the word
    11...1), on the hull: its level set is not empty, so h stays finite.
    From 1000 the damped steps, at most 1/|g| long, never reach q_max:
    the row diverges, and its direction still proves the level set
    empty."""
    out = tmp_path / "s.csv"
    a = float(a)
    assert cli.main(["spectrum", diag_file, f"--alpha={a}:{a}:1;{-a}:{-a}:1",
                     "--n", "8", "--out", str(out)]) == 0
    row, = _spectrum_rows(out)
    assert row["status"] == status
    if h == "":
        assert row["h"] == ""
    else:
        assert float(row["h"]) == pytest.approx(h, abs=tol)


@pytest.mark.parametrize("a", ["1e155", "-1e300"])
def test_spectrum_alpha_past_the_square_root_of_the_float_range_is_quiet(a, pos_file,
                                                                         tmp_path):
    """At |alpha| > 1e154, |g|^2 passes the float range: the Newton step
    is solved with both sides scaled by a power of two, so the run is
    quiet, and the row's direction still proves its level set empty."""
    out = tmp_path / "s.csv"
    run = _run_quiet(["spectrum", pos_file, "--n", "3", f"--alpha={a}:{a}:1;{a}:{a}:1",
                      "--out", str(out)])
    assert (run.returncode, run.stderr) == (0, "")
    row, = _spectrum_rows(out)
    assert row["status"] == "diverged" and row["h"] == ""


def test_spectrum_separation_test_at_the_float_limit_is_quiet(pos_file, tmp_path):
    """At alpha = (1.7e308, -1.7e308), <u, alpha> passes the float range
    unless alpha is scaled first: the run is quiet, and the row's
    direction still proves its level set empty."""
    out = tmp_path / "s.csv"
    run = _run_quiet(["spectrum", pos_file, "--n", "3",
                      "--alpha=1.7e308:1.7e308:1;-1.7e308:-1.7e308:1", "--out", str(out)])
    assert (run.returncode, run.stderr) == (0, "")
    row, = _spectrum_rows(out)
    assert row["status"] == "diverged" and row["h"] == ""


@pytest.mark.parametrize("q, value", [("1e308", "inf"), ("-1e308", "0")])
@pytest.mark.parametrize("command", ["pressure", "subsystem"])
def test_pressure_at_the_float_limit_is_quiet_and_never_nan(command, q, value, pos_file,
                                                             tmp_path):
    """At q = (1e308, 1e308) the word sums pass the float range: P_n is
    inf, and every bracket and gap built from it is an empty cell.  At
    q = (-1e308, -1e308) the words with |det| > 1 weigh exp(-inf) = 0,
    and the rest give P_n = 0 exactly.  Both runs are quiet."""
    out = tmp_path / "p.csv"
    extra = (["--n", "3"] if command == "pressure"
             else ["--subsystem-out", str(tmp_path / "s.cocycle")])
    run = _run_quiet([command, pos_file, f"--q={q}:{q}:1", "--out", str(out), *extra])
    assert (run.returncode, run.stderr) == (0, "")
    row, = _spectrum_rows(out)
    assert row["P_n"] == value and "nan" not in row.values()
    if value == "inf":
        assert {row[k] for k in ("lower", "upper", "cauchy_diag", "gap") if k in row} == {""}


def test_spectrum_derives_the_profiles_at_most_twice(diag_file, tmp_path, monkeypatch):
    """A 5 x 5 grid beyond the largest exponent log 3 of the diagonal
    cocycle, every point boundary-suspect, with the oracle: the solver,
    which also decides the empty level sets, and the oracle derive the
    length-n profiles once each, not once per boundary-suspect point."""
    calls = []
    profiles = cocycle._profiles

    def counted(logs, n):
        calls.append(n)
        return profiles(logs, n)

    monkeypatch.setattr(cocycle, "_profiles", counted)
    out = tmp_path / "s.csv"
    assert cli.main(["spectrum", diag_file, "--alpha=1.2:2.0:0.2;-2.0:-1.2:0.2", "--n", "8",
                     "--oracle", "--eps", "0.05", "--out", str(out)]) == 0
    rows = _spectrum_rows(out)
    assert len(rows) == 25
    assert all(row["status"] == "boundary-suspect" for row in rows)
    assert len(calls) <= 2


#: runs the CLI on sys.argv[1:] with every scipy import failing, prints
#: the scipy modules loaded and exits with the CLI's code
BLOCK_SCIPY = """
import sys
class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"{name} is blocked")
sys.meta_path.insert(0, BlockScipy())
from lyapspec import cli
code = cli.main(sys.argv[1:])
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
sys.exit(code)
"""


def test_spectrum_runs_with_scipy_blocked(diag_file, tmp_path):
    """The package needs numpy only: an explicit alpha grid and an auto
    grid both solve with scipy unimportable, and none of it loads."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = str(tmp_path / "s.csv")
    for grid in ["--alpha=0.8:0.8:1;-0.8:-0.8:1", "--auto-grid=3"]:
        run = subprocess.run([sys.executable, "-c", BLOCK_SCIPY, "spectrum", diag_file, grid,
                              "--n", "6", "--out", out], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "[]"
