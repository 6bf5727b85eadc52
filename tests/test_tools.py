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
