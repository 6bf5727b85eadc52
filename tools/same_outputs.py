"""Check that two source trees give the same outputs on the benchmark's
jobs, byte for byte.

    python3 tools/same_outputs.py OLD_TREE NEW_TREE

Each tree runs the jobs of the sweep, legendre and certify workloads of
its own ``bench/workloads.py`` at seeds 1-3 (87 jobs), in-process through
its own ``lyapspec.cli.main``, in one subprocess per tree.  Per job the
exit code, stdout, stderr, CSV file and subsystem file are compared,
after the ``# wall_time_s`` manifest lines are dropped and the job's
work directory is replaced by ``<work>``.  Prints every job that
differs, with its first differing line (and, when its lines differ only
in numbers, the largest absolute and relative difference of those
numbers), and exits 1 if any does, else exits 0.  Inputs and outputs go
to a temporary directory, and the subprocesses write no bytecode, so
neither tree is touched.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile

WORKLOADS = ("sweep", "legendre", "certify")
SEEDS = (1, 2, 3)
FIELDS = ("code", "stdout", "stderr", "csv", "subsystem")


def _read(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _normalize(text: str | None, workdir: str) -> str | None:
    if text is None:
        return None
    lines = text.replace(workdir, "<work>").splitlines(keepends=True)
    return "".join(line for line in lines if not line.startswith("# wall_time_s "))


def run_tree(tree: str, workroot: str, result_path: str) -> None:
    """Run every job on the tree's own program and workload list, and
    write {job label: {field: value}} to result_path as JSON."""
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "bench")]
    import workloads
    from lyapspec import cli

    results = {}
    for name in WORKLOADS:
        for seed in SEEDS:
            workdir = os.path.join(workroot, f"{name}-{seed}")
            for i, job in enumerate(workloads.materialize(name, seed, workdir)):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cli.main(job.cli_argv())
                    except Exception as exc:  # a traceback is an output too
                        code = f"raised {type(exc).__name__}: {exc}"
                texts = [out.getvalue(), err.getvalue(), _read(job.out), _read(job.sub)]
                results[f"{name} seed {seed} job {i} ({job.label})"] = dict(
                    zip(FIELDS, [code, *(_normalize(t, workdir) for t in texts)]))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)


#: a decimal number, as the jobs print their cells
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _numeric_differences(old: str, new: str) -> list[tuple[float, float]] | None:
    """(absolute, relative) difference of each pair of differing numbers
    of two lines whose text around the numbers is the same; None when
    the lines differ elsewhere."""
    if _NUMBER.split(old) != _NUMBER.split(new):
        return None
    pairs = [(float(a), float(b)) for a, b in zip(_NUMBER.findall(old), _NUMBER.findall(new))
             if a != b]
    return [(abs(a - b), abs(a - b) / (max(abs(a), abs(b)) or 1.0)) for a, b in pairs]


def _first_difference(old, new) -> str:
    """The first differing line of two field values, or both values.  When
    every differing line differs only in numeric cells, also the number
    of such lines and the largest absolute and relative difference of
    their cells."""
    if not (isinstance(old, str) and isinstance(new, str)):
        return f"{old!r} != {new!r}"
    old_lines, new_lines = old.splitlines(), new.splitlines()
    lines = [(i, a, b) for i, (a, b) in enumerate(zip(old_lines, new_lines), start=1) if a != b]
    if not lines:
        return f"{len(old_lines)} lines != {len(new_lines)} lines"
    i, a, b = lines[0]
    first = f"line {i}: {a!r} != {b!r}"
    diffs = [_numeric_differences(a, b) for _, a, b in lines]
    if len(old_lines) != len(new_lines) or any(d is None for d in diffs):
        return first
    cells = [cell for d in diffs for cell in d]
    return (f"{first}; numeric cells only, on {len(lines)} lines: "
            f"largest difference {max(c[0] for c in cells):.3g} absolute, "
            f"{max(c[1] for c in cells):.3g} relative")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--tree"]:
        run_tree(*argv[1:])
        return 0
    if len(argv) != 2:
        print("usage: same_outputs.py OLD_TREE NEW_TREE", file=sys.stderr)
        return 2
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for label, tree in zip(("old", "new"), argv):
            result = os.path.join(tmp, f"{label}.json")
            subprocess.run([sys.executable, "-B", os.path.abspath(__file__), "--tree",
                            os.path.abspath(tree), os.path.join(tmp, label), result],
                           check=True)
            with open(result, encoding="utf-8") as fh:
                runs.append(json.load(fh))
    old, new = runs
    differ = 0
    for key in sorted(old.keys() | new.keys()):
        if key not in old or key not in new:
            print(f"{key}: only in {'new' if key not in old else 'old'}")
            differ += 1
            continue
        fields = [f for f in FIELDS if old[key][f] != new[key][f]]
        differ += bool(fields)
        for f in fields:
            print(f"{key}: {f} differs, {_first_difference(old[key][f], new[key][f])}")
    total = len(old.keys() | new.keys())
    print(f"{total - differ} of {total} jobs identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
