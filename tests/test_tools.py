import importlib.util
import os
import re
import shutil
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_same_outputs_accepts_a_tree_against_itself():
    """tools/same_outputs.py runs every benchmark job on both trees and
    finds no difference between a tree and itself."""
    run = subprocess.run([sys.executable, os.path.join(REPO, "tools", "same_outputs.py"),
                          REPO, REPO], capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr
    total = run.stdout.split()[2]
    assert run.stdout == f"{total} of {total} jobs identical\n" and int(total) > 0


def test_same_outputs_names_a_perturbed_line(tmp_path):
    """A copy of the tree whose ``dominate`` prints its last line with a
    trailing space differs on every dominate job, and on nothing else:
    the tool names that line on each, and exits 1."""
    for part in ("src", "bench"):
        shutil.copytree(os.path.join(REPO, part), tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".work"))
    cli = tmp_path / "src" / "lyapspec" / "cli.py"
    source = cli.read_text(encoding="utf-8")
    line = 'print(f"overall: {verdict}")'
    assert source.count(line) == 1
    cli.write_text(source.replace(line, 'print(f"overall: {verdict} ")'), encoding="utf-8")
    run = subprocess.run([sys.executable, os.path.join(REPO, "tools", "same_outputs.py"),
                          REPO, str(tmp_path)], capture_output=True, text=True)
    assert run.returncode == 1, run.stdout + run.stderr
    *diffs, summary = run.stdout.splitlines()
    assert diffs and all(
        re.fullmatch(r".* \(dominate:\w+\): stdout differs, line \d+: "
                     r"'overall: (\w+)' != 'overall: \1 '", d) for d in diffs), run.stdout
    total = summary.split()[2]
    assert summary == f"{int(total) - len(diffs)} of {total} jobs identical"


def _same_outputs():
    spec = importlib.util.spec_from_file_location(
        "same_outputs", os.path.join(REPO, "tools", "same_outputs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_numeric_cell_differences_are_measured():
    """Lines that differ only in numbers get the largest absolute and
    relative difference over every differing line; a line that differs
    in any other text, or a changed line count, gets the first line
    alone."""
    diff = _same_outputs()._first_difference
    old = "q1,q2,h\n0.5,-1e-3,0.25,ok\n1,2,3,ok\n"
    new = "q1,q2,h\n0.5,-1.5e-3,0.25,ok\n1,2,3.000003,ok\n"
    assert diff(old, new) == (
        "line 2: '0.5,-1e-3,0.25,ok' != '0.5,-1.5e-3,0.25,ok'; numeric cells only, "
        "on 2 lines: largest difference 0.0005 absolute, 0.333 relative")
    assert diff("margin 0.25 (certified)\n", "margin 0.25 (empirical)\n") == (
        "line 1: 'margin 0.25 (certified)' != 'margin 0.25 (empirical)'")
    assert diff("a 1\nb 2\n", "a 1.5\nb 3 x\n") == "line 1: 'a 1' != 'a 1.5'"
    assert diff("a 1\n", "a 2\nb\n") == "line 1: 'a 1' != 'a 2'"
    assert diff("a 1\n", "a 1\nb\n") == "1 lines != 2 lines"
    assert diff(0, 2) == "0 != 2"
