import os
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
