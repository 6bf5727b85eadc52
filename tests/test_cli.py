import numpy as np
import pytest

from lyapspec import cli, sft, spectrum
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


@pytest.fixture
def diag_file(tmp_path):
    path = tmp_path / "diag.cocycle"
    path.write_text(DIAG)
    return str(path)


@pytest.fixture
def pos_file(tmp_path):
    path = tmp_path / "pos.cocycle"
    path.write_text(DIAG.replace("3 0\n0 0.33333333333333331",
                                 "1 1\n1 2").replace("0.5", "1"))
    return str(path)


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

    def test_validate_parse_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cocycle"
        path.write_text("dim oops\n")
        assert cli.main(["validate", str(path)]) == cli.EXIT_PARSE

    def test_validate_missing_file_exit_2(self):
        assert cli.main(["validate", "/nonexistent.cocycle"]) == cli.EXIT_PARSE

    def test_validate_non_primitive_exit_3(self, tmp_path):
        path = tmp_path / "per.cocycle"
        path.write_text(GOLDEN.replace("1 1\n1 0", "0 1\n1 0"))
        assert cli.main(["validate", str(path)]) == cli.EXIT_VALIDATE

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
    (["typical", "{pos}", "--fixed-symbol", "1", "--homoclinic", "1,x"], cli.EXIT_PARSE),
    (["typical", "{pos}", "--fixed-symbol", "7", "--homoclinic", "1"], cli.EXIT_VALIDATE),
    (["subsystem", "{pos}", "--fixed-symbol", "1", "--homoclinic", "9"], cli.EXIT_VALIDATE),
    (["subsystem", "{pos}", "--block-depth", "0"], cli.EXIT_PARSE),
    (["subsystem", "{pos}", "--base-n", "2", "--n", "30"], cli.EXIT_BUDGET),
], ids=["pressure-n", "pressure-grid", "spectrum-n", "dominate-range",
        "dominate-single-length", "dominate-index",
        "typical-word", "typical-symbol", "subsystem-word-symbol", "subsystem-depth",
        "subsystem-budget"])
def test_user_input_error_is_one_line(argv, code, diag_file, pos_file, tmp_path, capsys):
    """Bad values end in a documented exit code and a one-line
    message, never a traceback (exit 1 means a negative verdict)."""
    argv = [a.format(diag=diag_file, pos=pos_file) for a in argv]
    argv += ["--subsystem-out", str(tmp_path / "x.cocycle")] if argv[0] == "subsystem" else []
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("budget exceeded: " if code == cli.EXIT_BUDGET else "error: ")


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
    """The auto grid skips the per-point hull test; its statuses are
    those of the same grid solved with the domain estimate."""
    out = tmp_path / "s.csv"
    assert cli.main(["spectrum", pos_file, "--auto-grid", "7", "--n", "8",
                     "--out", str(out)]) == 0
    c = cli.load_cocycle(pos_file)
    est = spectrum.domain_estimate(c, 8)
    grid = spectrum.interior_alpha_grid(est, 7)
    points = spectrum.spectrum_curve(c, grid, 8, domain=est)
    assert [row["status"] for row in _spectrum_rows(out)] == [p.status for p in points]


@pytest.mark.parametrize("a", [np.log(5), np.log(2) + 5e-5], ids=["beyond-log3", "near-log2"])
def test_spectrum_user_alpha_outside_hull_is_boundary_suspect(a, diag_file, tmp_path):
    """A user grid is still hull-tested.  log 5 lies beyond the largest
    exponent log 3 of the diagonal cocycle; log 2 + 5e-5 lies inside the
    profile hull but outside the gradient hull (q radius 10 reaches
    log 2 + 1.2e-4), where the solver alone converges at |q| < q_max/2."""
    out = tmp_path / "s.csv"
    a = float(a)
    assert cli.main(["spectrum", diag_file, f"--alpha={a}:{a}:1;{-a}:{-a}:1",
                     "--n", "8", "--out", str(out)]) == 0
    rows = _spectrum_rows(out)
    assert len(rows) == 1
    assert rows[0]["status"] == "boundary-suspect"
