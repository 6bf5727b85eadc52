"""Command-line interface, the .cocycle file format, and reproducible
run manifests.

Run as `lyapspec` or `python -m lyapspec`.  `main` builds only the
parser of the command it runs (all six for help or an unknown command).

Exit codes: 0 success, 1 domination fail, typicality "no" or an
exhausted pair search, 2 parse or usage error or an unreadable input
or unwritable output path (refused before any work), 3 validation
failure (also an alphabet above MAX_ALPHABET symbols, generators whose
exterior powers overflow, and in `typical`/`subsystem` a word product
past 1e300 or a dim above 6), 4 budget exceeded (also a
`typical`/`subsystem` pair search past typicality.MAX_TYPICAL_CHECKS
checks), 5 missing typicality precondition, 6 domination inconclusive,
7 subsystem search exhaustion.
Commands raise CliError; `main` alone prints the one stderr line and
returns the code.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import hashlib
import math
import os
import sys
import time
from functools import partial

import numpy as np

from . import __version__, domination, matalg, pressure, sft, spectrum, typicality
from .cocycle import DEFAULT_WORD_BUDGET, BudgetError, OneStepCocycle, log_wedge_norm_matrices
from .sft import NotPrimitiveError

EXIT_OK = 0
EXIT_DOM_FAIL = 1
EXIT_PARSE = 2
EXIT_VALIDATE = 3
EXIT_BUDGET = 4
EXIT_NO_FIXED = 5
EXIT_INCONCLUSIVE = 6
EXIT_SEARCH_EXHAUSTED = 7


#: refuse grid specs with more points than this
MAX_GRID_POINTS = 10**6

#: refuse .cocycle files with a larger alphabet before the k x k
#: transition matrix is allocated: sft.validate holds a few k x k int64
#: arrays (8 MB each at the cap), and each Boolean power it takes is an
#: O(k^3) integer product (5.7 s at k = 1,024, 32 s at k = 2,000)
MAX_ALPHABET = 1024


class ParseError(ValueError):
    def __init__(self, msg: str, line: int):
        super().__init__(f"line {line}: {msg}")
        self.line = line


class CliError(Exception):
    """A failure that `main` reports as one stderr line and an exit code."""

    def __init__(self, code: int, line: str):
        super().__init__(line)
        self.code = code


class UsageError(CliError, ValueError):
    """A command-line value the command cannot use; exit 2."""

    def __init__(self, msg: str):
        super().__init__(EXIT_PARSE, f"error: {msg}")


# ---------------------------------------------------------------------------
# .cocycle file format

def parse_cocycle_text(text: str) -> OneStepCocycle:
    """Parse the .cocycle format.

    Header: ``dim d`` and ``alphabet k``; then ``transition full`` or
    ``transition`` followed by k rows of k 0/1 entries; then, for each
    s = 1..k, ``matrix s`` followed by d rows of d reals.  ``#`` starts
    a comment; tokens are whitespace-separated.
    """
    # token stream with line numbers
    tokens: list[tuple[str, int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        tokens.extend((tok, lineno) for tok in body.split())
    pos = 0

    def peek():
        return tokens[pos][0] if pos < len(tokens) else None

    def take(what: str) -> str:
        nonlocal pos
        if pos >= len(tokens):
            last = tokens[-1][1] if tokens else 1
            raise ParseError(f"unexpected end of file, expected {what}", last)
        tok, _ = tokens[pos]
        pos += 1
        return tok

    def take_number(what: str, convert=int):
        tok = take(what)
        try:
            return convert(tok)
        except ValueError:
            kind = "integer" if convert is int else "number"
            raise ParseError(f"expected {kind} {what}, got {tok!r}",
                             tokens[pos - 1][1]) from None

    def expect(keyword: str):
        tok = take(keyword)
        line = tokens[pos - 1][1]
        if tok != keyword:
            raise ParseError(f"expected {keyword!r}, got {tok!r}", line)

    expect("dim")
    d = take_number("dimension")
    expect("alphabet")
    k = take_number("alphabet size")
    if d < 1 or k < 1:
        raise ParseError("dim and alphabet must be >= 1", tokens[pos - 1][1])

    expect("transition")
    # the arrays below are sized from the header: their tokens must exist first
    need = (1 if peek() == "full" else k * k) + k * (2 + d * d)
    if len(tokens) - pos < need:
        raise ParseError(f"unexpected end of file: the header needs {need} more tokens, "
                         f"found {len(tokens) - pos}", tokens[-1][1])
    if k > MAX_ALPHABET:
        raise ValueError(f"alphabet {k} is larger than the supported {MAX_ALPHABET} symbols")
    if peek() == "full":
        take("full")
        Q_entries = np.ones((k, k), dtype=np.int64)
    else:
        Q_entries = np.empty((k, k), dtype=np.int64)
        for r in range(k):
            for cidx in range(k):
                val = take_number(f"transition entry ({r + 1},{cidx + 1})")
                line = tokens[pos - 1][1]
                if val not in (0, 1):
                    raise ParseError(f"transition entry must be 0 or 1, got {val}", line)
                Q_entries[r, cidx] = val

    generators = []
    for s in range(1, k + 1):
        expect("matrix")
        idx = take_number("matrix index")
        line = tokens[pos - 1][1]
        if idx != s:
            raise ParseError(f"expected 'matrix {s}', got 'matrix {idx}'", line)
        A = np.empty((d, d))
        for r in range(d):
            for cidx in range(d):
                A[r, cidx] = take_number(f"matrix {s} entry ({r + 1},{cidx + 1})", float)
        generators.append(A)
    if pos != len(tokens):
        raise ParseError(f"trailing input {tokens[pos][0]!r}", tokens[pos][1])

    try:
        Q = sft.validate(Q_entries)
    except NotPrimitiveError:
        raise
    except ValueError as exc:
        raise NotPrimitiveError(str(exc)) from exc
    return OneStepCocycle(Q=Q, generators=generators)


def load_cocycle(path: str) -> OneStepCocycle:
    """Parse the file at path as UTF-8, whatever the locale."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the bad one decode; "x" stands in for the bad byte's line
        line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(f"byte {data[exc.start]:#04x} is not UTF-8 ({exc.reason})", line) from None
    return parse_cocycle_text(text)


def format_cocycle(c: OneStepCocycle, comment: str | None = None) -> str:
    """Serialize to the .cocycle format with round-trip-exact decimals."""
    lines = []
    if comment:
        lines.extend(f"# {line}" for line in comment.splitlines())
    lines.append(f"dim {c.d}")
    lines.append(f"alphabet {c.k}")
    if c.Q.is_full_shift:
        lines.append("transition full")
    else:
        lines.append("transition")
        for row in c.Q.entries:
            lines.append(" ".join(str(int(x)) for x in row))
    for s, A in enumerate(c.generators, start=1):
        lines.append(f"matrix {s}")
        for row in A:
            lines.append(" ".join(f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"


def write_cocycle(path: str, c: OneStepCocycle, comment: str | None = None) -> None:
    with open(path, "w") as fh:
        fh.write(format_cocycle(c, comment=comment))


# ---------------------------------------------------------------------------
# manifests and CSV output

def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def manifest_lines(args: argparse.Namespace, started: float) -> list[str]:
    """Run manifest rendered as CSV comment header lines."""
    lines = [f"# tool lyapspec {__version__}", f"# command {args.command}"]
    lines += [f"# flag {key}={val}" for key, val in sorted(vars(args).items())
              if key != "func" and val is not None]
    if getattr(args, "file", None):
        lines.append(f"# input_sha256 {file_digest(args.file)}")
    lines.append(f"# seed {getattr(args, 'seed', 0)}")
    lines.append(f"# wall_time_s {time.time() - started:.3f}")
    return lines


def open_out(path: str | None):
    """The CSV destination as a context manager: stdout when path is
    None, else the file at path, opened for writing."""
    return contextlib.nullcontext(sys.stdout) if path is None else open(path, "w")


def _check_writable(path: str | None) -> None:
    """Raise the OSError that opening path for writing would raise,
    without creating or truncating the file; None is stdout."""
    if path is None:
        return
    try:
        os.close(os.open(path, os.O_WRONLY))
    except FileNotFoundError:
        parent = os.path.dirname(path) or "."
        if not os.path.basename(path) or not os.path.isdir(parent):
            raise
        if not os.access(parent, os.W_OK | os.X_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path) from None


def write_csv(out, header: list[str], rows: list[list], manifest: list[str]):
    for line in manifest:
        print(line, file=out)
    print(",".join(header), file=out)
    for row in rows:
        print(",".join(_fmt(x) for x in row), file=out)


def _fmt(x) -> str:
    return f"{x:.17g}" if isinstance(x, (float, np.floating)) else str(x)


def parse_grid(spec: str, d: int) -> np.ndarray:
    """Grid spec ``lo:hi:step`` per coordinate, joined by ``;``.

    A single-coordinate spec is broadcast to all d axes; the result is
    the cartesian product, one point per row.  The point count is
    checked against MAX_GRID_POINTS before any axis is built.
    """
    parts = spec.split(";")
    if len(parts) == 1 and d > 1:
        parts = parts * d
    if len(parts) != d:
        raise UsageError(f"grid spec has {len(parts)} axes, expected {d}")
    axes = []
    for part in parts:
        try:
            lo, hi, step = (float(p) for p in part.split(":"))
        except ValueError:
            raise UsageError(f"bad axis spec {part!r}, expected lo:hi:step") from None
        if not (np.isfinite([lo, hi]).all() and 0 < step < np.inf):
            raise UsageError(f"bad axis spec {part!r}, need finite lo, hi and step > 0")
        # a float count, so that a tiny step gives inf, not an overflow
        axes.append((lo, step, max(float(np.floor((hi - lo) / step + 1e-9)) + 1, 0.0)))
    size = math.prod(count for _, _, count in axes)
    if size > MAX_GRID_POINTS:
        raise UsageError(f"grid spec {spec!r} has {size:.4g} points, "
                         f"more than {MAX_GRID_POINTS}")
    axes = [lo + step * np.arange(int(count)) for lo, step, count in axes]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, d)


def _at_least(flag: str, value: int, low: int) -> None:
    if value < low:
        raise UsageError(f"{flag} must be >= {low}, got {value}")


# ---------------------------------------------------------------------------
# subcommands

def _load(args) -> OneStepCocycle:
    try:
        return load_cocycle(args.file)
    except ParseError as exc:
        raise CliError(EXIT_PARSE, f"parse error: {exc}") from exc
    except ValueError as exc:  # NotPrimitiveError included
        raise CliError(EXIT_VALIDATE, f"validation error: {exc}") from exc


def cmd_validate(args) -> int:
    c = _load(args)
    print(f"alphabet k = {c.k}")
    print(f"dimension d = {c.d}")
    print(f"mixing rate = {c.Q.mixing_rate}")
    for s, A in enumerate(c.generators, start=1):
        print(f"matrix {s}: invertibility margin {matalg.det_margin(A):.6g}")
    return EXIT_OK


def cmd_pressure(args) -> int:
    started = time.time()
    c = _load(args)
    _at_least("--n", args.n, 1)
    _at_least("--budget", args.budget, 1)
    c.budget = args.budget
    _at_least("--qm-depth", args.qm_depth, 0)
    _at_least("--qm-connect", args.qm_connect, 0)
    grid = parse_grid(args.q, c.d)
    _check_writable(args.out)
    # one sweep for the QM search and the table, when the search stops at
    # its first connector length k
    k, reads = typicality.qm_lengths(c.Q, args.qm_depth, args.qm_connect)
    log_wedge_norm_matrices(c, {*reads, *pressure.table_lengths(args.n, k)})
    qm = typicality.qm_search(c, args.qm_depth, args.qm_connect)
    est = pressure.pressure_table(c, grid, args.n, qm_C=qm.C, qm_k=qm.k)
    brackets = np.column_stack([est.lower, est.upper, est.cauchy]).tolist()
    rows = [[*q, args.n, value, *("" if math.isnan(x) else x for x in row)]
            for q, value, row in zip(grid, est.value.tolist(), brackets)]
    header = [f"q_{i + 1}" for i in range(c.d)] + ["n", "P_n", "lower", "upper", "cauchy_diag"]
    with open_out(args.out) as out:
        write_csv(out, header, rows, manifest_lines(args, started))
    return EXIT_OK


def cmd_spectrum(args) -> int:
    started = time.time()
    c = _load(args)
    _at_least("--n", args.n, 1)
    _at_least("--budget", args.budget, 1)
    c.budget = args.budget
    _at_least("--auto-grid", args.auto_grid, 1)
    if args.oracle and not args.eps > 0:
        raise UsageError(f"--eps must be positive, got {args.eps}")
    grid = parse_grid(args.alpha, c.d) if args.alpha else None
    _check_writable(args.out)
    if grid is None:
        grid = spectrum.interior_alpha_grid(spectrum.domain_estimate(c, args.n), args.auto_grid)
    points = spectrum.spectrum_curve(c, grid, args.n)
    header = ([f"alpha_{i + 1}" for i in range(c.d)] + ["h"]
              + [f"q_{i + 1}" for i in range(c.d)] + ["status", "band"])
    rows = [[*pt.alpha, "" if pt.empty else pt.h, *pt.q_star, pt.status,
             0.0 if pt.status == "interior-converged" else np.nan] for pt in points]
    if args.oracle:
        header += ["epsilon", "count", "h_count", "gap"]
        counts, h_counts = spectrum.oracle_count(c, grid, args.eps, args.n)
        for row, pt, count, h_count in zip(rows, points, counts.tolist(), h_counts.tolist()):
            # a level set empty at length n has h_n = -inf
            gap = abs(h_count - pt.h) if count and not pt.empty else np.inf
            row.extend([args.eps, count, h_count, gap])
    with open_out(args.out) as out:
        write_csv(out, header, rows, manifest_lines(args, started))
    return EXIT_OK


def _checked(call):
    """call(), with a ValueError other than a BudgetError as exit 3."""
    try:
        return call()
    except BudgetError:
        raise
    except ValueError as exc:
        raise CliError(EXIT_VALIDATE, f"error: {exc}") from exc


def _typicality(c: OneStepCocycle, args) -> typicality.TypicalityReport | None:
    """The check of the pair --fixed-symbol/--homoclinic when both are
    given, else the first passing pair of the search (None when it is
    exhausted)."""
    if not any(c.Q.allows(a, a) for a in range(1, c.k + 1)):
        raise CliError(EXIT_NO_FIXED,
                       "error: no symbol a with Q[a,a] = 1 (no fixed point available)")
    # usage errors are ValueErrors too, so they are raised before the try
    if args.fixed_symbol is None or args.homoclinic is None:
        _at_least("--search-depth", args.search_depth, 1)
        check = partial(typicality.search_typical_pair, c, args.search_depth)
    else:
        try:
            w = tuple(int(s) for s in args.homoclinic.split(","))
        except ValueError:
            raise UsageError(f"bad word {args.homoclinic!r}, expected symbols 1,2,...") from None
        check = partial(typicality.check_typical, c, args.fixed_symbol, w)
    return _checked(check)


def cmd_typical(args) -> int:
    c = _load(args)
    report = _typicality(c, args)
    if report is None:
        print(f"search exhausted at depth {args.search_depth}: no typical pair found")
        return EXIT_DOM_FAIL
    print(f"pair: a = {report.a}, w = {','.join(map(str, report.w))}")
    for t, gap in enumerate(report.gap_margins, start=1):
        print(f"  t = {t}: eigenvalue-gap margin {gap:.6g} "
              f"({'ok' if gap > typicality.TOL_GAP else 'FAIL'})")
    print(f"  twisting margin {report.twist_margin:.6g} "
          f"({'ok' if report.twist_margin > typicality.TOL_INDEP else 'FAIL'})")
    print(f"typical: {'yes' if report.passed else 'no'}")
    return EXIT_OK if report.passed else EXIT_DOM_FAIL


def cmd_dominate(args) -> int:
    c = _load(args)
    _at_least("--n-min", args.n_min, 1)
    _at_least("--n-max", args.n_max, args.n_min + 1)
    _at_least("--seed", args.seed, 0)
    if c.d == 1 or args.index is not None and not 1 <= args.index <= c.d - 1:
        raise CliError(EXIT_VALIDATE, f"error: --index {args.index} outside 1..{c.d - 1}"
                       if c.d > 1 else "error: dim 1 has no index to test")
    n_range = range(args.n_min, args.n_max + 1)
    indices = range(1, c.d) if args.index is None else [args.index]
    report = domination.DominationReport(
        entries=[domination.domination_test(c, i, n_range=n_range) for i in indices])
    for entry in report.entries:
        print(f"index {entry.index}: slope {entry.slope:.6g}, verdict {entry.verdict}")
        ratios = " ".join(f"{n}:{r:.4f}" for n, r in zip(entry.lengths, entry.log_ratios))
        print(f"  log max ratios: {ratios}")
    if args.cone:
        for t in indices:
            cert = domination.multicone_search(c.wedges[t], seed=args.seed)
            if cert is None:
                print(f"multicone t={t}: no certificate (inconclusive)")
            else:
                print(f"multicone t={t}: {len(cert.centers)} balls of radius "
                      f"{cert.radius}, margin {cert.margin:.6g} ({cert.kind})")
    verdict = report.verdict
    print(f"overall: {verdict}")
    return {"pass": EXIT_OK, "fail": EXIT_DOM_FAIL}.get(verdict, EXIT_INCONCLUSIVE)


def cmd_subsystem(args) -> int:
    started = time.time()
    c = _load(args)
    for flag in ("base_n", "block_depth", "n"):
        _at_least("--" + flag.replace("_", "-"), getattr(args, flag), 1)
    _at_least("--pad-bound", args.pad_bound, 0)
    grid = parse_grid(args.q, c.d)
    # both destinations checked before any work: an unwritable one must
    # leave the other untouched
    _check_writable(args.out)
    _check_writable(args.subsystem_out)
    typ = _typicality(c, args)
    if typ is None or not typ.passed:
        raise CliError(EXIT_NO_FIXED, "error: typicality precondition not met")
    try:
        sub = _checked(partial(domination.build_dominated_subsystem,
                               c, args.base_n, typ.a, typ.w, pad_bound=args.pad_bound))
    except domination.SubsystemSearchError as exc:
        raise CliError(EXIT_SEARCH_EXHAUSTED, f"error: {exc}") from exc
    # rows first: a budget error must leave no subsystem file behind
    per_symbol = domination.subsystem_pressure(sub, grid, args.block_depth) / sub.ell
    base = pressure.log_sums(c, grid, (args.n,))[args.n] / args.n
    # a gap past the float range is absent, as a pressure bracket is
    with np.errstate(invalid="ignore"):
        gap = np.abs(per_symbol - base)
    cells = np.column_stack([per_symbol, base, np.where(np.isfinite(gap), gap, np.nan)])
    rows = [[*q, sub.ell, *("" if math.isnan(x) else x for x in row)]
            for q, row in zip(grid, cells.tolist())]
    comment = (f"dominated subsystem: base_n={sub.base_n} ell={sub.ell} "
               f"pads={sub.pad_left}|{sub.pad_right}")
    header = [f"q_{i + 1}" for i in range(c.d)] + ["ell", "P_ell_D_per_symbol", "P_n", "gap"]
    with open_out(args.out) as out:
        write_cocycle(args.subsystem_out, sub.tuple_cocycle, comment=comment)
        note = (f"subsystem written to {args.subsystem_out}: {len(sub.words)} words "
                f"of length {sub.ell}, kappa = {sub.kappa}")
        # comment lines when the CSV follows on stdout (numpy may wrap kappa)
        print(note if args.out is not None else "# " + note.replace("\n", "\n# "))
        write_csv(out, header, rows, manifest_lines(args, started))
    return EXIT_OK


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Parse errors (subparsers' too) become UsageErrors: exit 2, one line."""

    def error(self, message):
        raise UsageError(message)


def _budget(p):
    p.add_argument("--budget", type=int, default=DEFAULT_WORD_BUDGET,
                   help="most words of the longest swept length (exit 4 past it)")


def _out(p):
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")


def _qm(p):
    p.add_argument("--qm-depth", type=int, default=4,
                   help="longest word of the QM search (read by pressure only)")
    p.add_argument("--qm-connect", type=int, default=4,
                   help="longest connector of the QM search (read by pressure only)")


def _pair(p):
    p.add_argument("--fixed-symbol", type=int, default=None)
    p.add_argument("--homoclinic", default=None, help="comma-separated core word w")
    p.add_argument("--search-depth", type=int, default=3)


def _pressure(p):
    p.add_argument("--q", default="-3:3:0.25", help="grid spec lo:hi:step[;...]")
    p.add_argument("--n", type=int, default=10)


def _spectrum(p):
    p.add_argument("--alpha", default=None, help="explicit alpha grid spec")
    p.add_argument("--auto-grid", type=int, default=11)
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--oracle", action="store_true",
                   help="add cylinder-count oracle columns")


def _dominate(p):
    p.add_argument("--index", type=int, default=None, help="single index i")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=12)
    p.add_argument("--cone", action="store_true",
                   help="also search for multicone certificates")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the multicone search: it picks the balls of the "
                   "cover and the directions of the sampled fallback only")


def _subsystem(p):
    p.add_argument("--base-n", type=int, default=3)
    p.add_argument("--pad-bound", type=int, default=8)
    p.add_argument("--block-depth", type=int, default=3)
    p.add_argument("--q", default="-1:1:1")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--subsystem-out", default="subsystem.cocycle")


#: name: (function, help, option adders in --help order); every command
#: also takes the positional file
COMMANDS = {
    "validate": (cmd_validate, "parse and validate a .cocycle file", ()),
    "pressure": (cmd_pressure, "pressure table over a q grid", (_qm, _budget, _out, _pressure)),
    "spectrum": (cmd_spectrum, "Legendre entropy spectrum", (_qm, _budget, _out, _spectrum)),
    "typical": (cmd_typical, "typicality check", (_pair,)),
    "dominate": (cmd_dominate, "domination test", (_dominate,)),
    "subsystem": (cmd_subsystem, "build a dominated subsystem and compare its pressure "
                  "to the base pressure", (_pair, _qm, _out, _subsystem)),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of the named one only."""
    parser = _Parser(
        prog="lyapspec",
        description="Pressure and Lyapunov entropy spectra of one-step matrix "
                    "cocycles over mixing subshifts of finite type.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS if command is None else [command]:
        func, help, adders = COMMANDS[name]
        p = sub.add_parser(name, help=help)
        for add in adders:
            add(p)
        p.add_argument("file")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    """Run one command.  The only place that reports an error: one
    stderr line and the exit code."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
        return args.func(args)
    except CliError as exc:
        code, line = exc.code, str(exc)
    except BudgetError as exc:
        code, line = EXIT_BUDGET, f"budget exceeded: {exc}"
    except OSError as exc:
        code, line = EXIT_PARSE, f"error: {exc}"
    print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
