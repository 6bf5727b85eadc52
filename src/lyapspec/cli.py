"""Command-line interface, the .cocycle file format, and reproducible
run manifests.

Exit codes: 0 success, 1 domination fail, 2 parse or usage error,
3 validation failure, 4 budget exceeded, 5 missing typicality precondition,
6 domination inconclusive, 7 subsystem search exhaustion.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time

import numpy as np

from . import __version__, domination, pressure, sft, spectrum, typicality
from .cocycle import BudgetError, OneStepCocycle, fiber_bunched
from .sft import NotPrimitiveError, TransitionMatrix

EXIT_OK = 0
EXIT_DOM_FAIL = 1
EXIT_PARSE = 2
EXIT_VALIDATE = 3
EXIT_BUDGET = 4
EXIT_NO_FIXED = 5
EXIT_INCONCLUSIVE = 6
EXIT_SEARCH_EXHAUSTED = 7


class ParseError(ValueError):
    def __init__(self, msg: str, line: int):
        super().__init__(f"line {line}: {msg}")
        self.line = line


class UsageError(ValueError):
    """A command-line value the command cannot use; exit 2."""


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

    def take_int(what: str) -> int:
        tok = take(what)
        line = tokens[pos - 1][1]
        try:
            return int(tok)
        except ValueError:
            raise ParseError(f"expected integer {what}, got {tok!r}", line) from None

    def take_float(what: str) -> float:
        tok = take(what)
        line = tokens[pos - 1][1]
        try:
            return float(tok)
        except ValueError:
            raise ParseError(f"expected number {what}, got {tok!r}", line) from None

    def expect(keyword: str):
        tok = take(keyword)
        line = tokens[pos - 1][1]
        if tok != keyword:
            raise ParseError(f"expected {keyword!r}, got {tok!r}", line)

    expect("dim")
    d = take_int("dimension")
    expect("alphabet")
    k = take_int("alphabet size")
    if d < 1 or k < 1:
        raise ParseError("dim and alphabet must be >= 1", tokens[pos - 1][1])

    expect("transition")
    if peek() == "full":
        take("full")
        Q_entries = np.ones((k, k), dtype=np.int64)
    else:
        Q_entries = np.empty((k, k), dtype=np.int64)
        for r in range(k):
            for cidx in range(k):
                val = take_int(f"transition entry ({r + 1},{cidx + 1})")
                line = tokens[pos - 1][1]
                if val not in (0, 1):
                    raise ParseError(f"transition entry must be 0 or 1, got {val}", line)
                Q_entries[r, cidx] = val

    generators = []
    for s in range(1, k + 1):
        expect("matrix")
        idx = take_int("matrix index")
        line = tokens[pos - 1][1]
        if idx != s:
            raise ParseError(f"expected 'matrix {s}', got 'matrix {idx}'", line)
        A = np.empty((d, d))
        for r in range(d):
            for cidx in range(d):
                A[r, cidx] = take_float(f"matrix {s} entry ({r + 1},{cidx + 1})")
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
    with open(path) as fh:
        return parse_cocycle_text(fh.read())


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
    flags = {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("func",) and v is not None
    }
    lines = [
        f"# tool lyapspec {__version__}",
        f"# command {args.command}",
    ]
    for key, val in flags.items():
        lines.append(f"# flag {key}={val}")
    if getattr(args, "file", None):
        lines.append(f"# input_sha256 {file_digest(args.file)}")
    lines.append(f"# seed {getattr(args, 'seed', 0)}")
    lines.append(f"# wall_time_s {time.time() - started:.3f}")
    return lines


def write_csv(path: str | None, header: list[str], rows: list[list], manifest: list[str]):
    out = sys.stdout if path is None else open(path, "w")
    try:
        for line in manifest:
            print(line, file=out)
        print(",".join(header), file=out)
        for row in rows:
            print(",".join(_fmt(x) for x in row), file=out)
    finally:
        if path is not None:
            out.close()


def _fmt(x) -> str:
    if isinstance(x, float) or isinstance(x, np.floating):
        return f"{x:.17g}"
    return str(x)


def parse_grid(spec: str, d: int) -> np.ndarray:
    """Grid spec ``lo:hi:step`` per coordinate, joined by ``;``.

    A single-coordinate spec is broadcast to all d axes; the result is
    the cartesian product, one point per row.
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
        if step <= 0:
            raise UsageError("grid step must be positive")
        count = int(np.floor((hi - lo) / step + 1e-9)) + 1
        axes.append(lo + step * np.arange(count))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, d)


def _at_least(flag: str, value: int, low: int) -> None:
    if value < low:
        raise UsageError(f"{flag} must be >= {low}, got {value}")


# ---------------------------------------------------------------------------
# subcommands

def _load(args) -> OneStepCocycle | int:
    try:
        return load_cocycle(args.file)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (NotPrimitiveError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATE


def cmd_validate(args) -> int:
    c = _load(args)
    if isinstance(c, int):
        return c
    print(f"alphabet k = {c.k}")
    print(f"dimension d = {c.d}")
    print(f"mixing rate = {c.Q.mixing_rate}")
    for s, A in enumerate(c.generators, start=1):
        scale = float(np.abs(A).max())
        margin = abs(float(np.linalg.det(A))) / max(scale**c.d, 1e-300)
        print(f"matrix {s}: invertibility margin {margin:.6g}")
    bunched, value = fiber_bunched(c, args.alpha)
    print(f"fiber bunching at alpha={args.alpha}: value {value:.6g} "
          f"({'fiber bunched' if bunched else 'not fiber bunched'})")
    return EXIT_OK


def cmd_pressure(args) -> int:
    started = time.time()
    c = _load(args)
    if isinstance(c, int):
        return c
    _at_least("--n", args.n, 1)
    grid = parse_grid(args.q, c.d)
    qm = typicality.qm_search(c, args.qm_depth, args.qm_connect)
    rows = []
    for q in grid:
        est = pressure.pressure_estimate(
            c, q, args.n, qm_C=qm.C, qm_k=qm.k, budget=args.budget)
        rows.append(
            [*q, args.n, est.value,
             est.lower if est.lower is not None else "",
             est.upper if est.upper is not None else "",
             est.cauchy if est.cauchy is not None else ""])
    header = [f"q_{i + 1}" for i in range(c.d)] + ["n", "P_n", "lower", "upper", "cauchy_diag"]
    write_csv(args.out, header, rows, manifest_lines(args, started))
    return EXIT_OK


def cmd_spectrum(args) -> int:
    started = time.time()
    c = _load(args)
    if isinstance(c, int):
        return c
    _at_least("--n", args.n, 1)
    _at_least("--auto-grid", args.auto_grid, 1)
    if args.oracle and not args.eps > 0:
        raise UsageError(f"--eps must be positive, got {args.eps}")
    est = spectrum.domain_estimate(c, args.n, budget=args.budget)
    # auto-grid points lie in the gradient hull by construction
    if args.alpha:
        grid, domain = parse_grid(args.alpha, c.d), est
    else:
        grid, domain = spectrum.interior_alpha_grid(est, args.auto_grid), None
    points = spectrum.spectrum_curve(c, grid, args.n, budget=args.budget, domain=domain)
    header = ([f"alpha_{i + 1}" for i in range(c.d)] + ["h"]
              + [f"q_{i + 1}" for i in range(c.d)] + ["status", "band"])
    rows = []
    for pt in points:
        band = 0.0 if pt.status == "interior-converged" else np.nan
        h = "" if pt.status == "boundary-suspect" and not np.isfinite(pt.h) else pt.h
        rows.append([*pt.alpha, h, *pt.q_star, pt.status, band])
    if args.oracle:
        header += ["epsilon", "count", "h_count", "gap"]
        for row, pt in zip(rows, points):
            count, h_count = spectrum.oracle_count(
                c, pt.alpha, args.eps, args.n, budget=args.budget)
            gap = abs(h_count - pt.h) if count else np.inf
            row.extend([args.eps, count, h_count, gap])
    write_csv(args.out, header, rows, manifest_lines(args, started))
    return EXIT_OK


def _typicality(c: OneStepCocycle, args):
    """The check of the pair --fixed-symbol/--homoclinic when both are
    given, else the first passing pair of the search (None when it is
    exhausted); an int is an exit code."""
    if not any(c.Q.allows(a, a) for a in range(1, c.k + 1)):
        print("error: no symbol a with Q[a,a] = 1 (no fixed point available)",
              file=sys.stderr)
        return EXIT_NO_FIXED
    if args.fixed_symbol is None or args.homoclinic is None:
        return typicality.search_typical_pair(c, args.search_depth)
    try:
        w = tuple(int(s) for s in args.homoclinic.split(","))
    except ValueError:
        raise UsageError(f"bad word {args.homoclinic!r}, expected symbols 1,2,...") from None
    try:
        return typicality.check_typical(c, args.fixed_symbol, w)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATE


def cmd_typical(args) -> int:
    c = _load(args)
    if isinstance(c, int):
        return c
    report = _typicality(c, args)
    if isinstance(report, int):
        return report
    if report is None:
        print(f"search exhausted at depth {args.search_depth}: no typical pair found")
        return EXIT_DOM_FAIL
    print(f"pair: a = {report.a}, w = {','.join(map(str, report.w))}")
    for level in report.levels:
        print(f"  t = {level.t}: eigenvalue-gap margin {level.gap_margin:.6g} "
              f"({'ok' if level.eig_ok else 'FAIL'}), "
              f"independence margin {level.indep_margin:.6g} "
              f"({'ok' if level.indep_ok else 'FAIL'})")
    print(f"typical: {'yes' if report.passed else 'no'}")
    return EXIT_OK if report.passed else EXIT_DOM_FAIL


def cmd_dominate(args) -> int:
    c = _load(args)
    if isinstance(c, int):
        return c
    _at_least("--n-min", args.n_min, 1)
    _at_least("--n-max", args.n_max, args.n_min + 1)
    if args.index is not None and not 1 <= args.index <= c.d - 1:
        print(f"error: --index {args.index} outside 1..{c.d - 1}", file=sys.stderr)
        return EXIT_VALIDATE
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
            reps = [c.wedges[t][s] for s in range(c.k)]
            cert = domination.multicone_search(reps, t=t, seed=args.seed)
            if cert is None:
                print(f"multicone t={t}: no certificate (inconclusive)")
            else:
                print(f"multicone t={t}: {len(cert.centers)} balls of radius "
                      f"{cert.radius}, margin {cert.margin:.6g}")
    verdict = report.verdict
    print(f"overall: {verdict}")
    return {"pass": EXIT_OK, "fail": EXIT_DOM_FAIL}.get(verdict, EXIT_INCONCLUSIVE)


def cmd_subsystem(args) -> int:
    started = time.time()
    c = _load(args)
    if isinstance(c, int):
        return c
    for flag in ("base_n", "block_depth", "n"):
        _at_least("--" + flag.replace("_", "-"), getattr(args, flag), 1)
    grid = parse_grid(args.q, c.d)
    typ = _typicality(c, args)
    if isinstance(typ, int):
        return typ
    if typ is None or not typ.passed:
        print("error: typicality precondition not met", file=sys.stderr)
        return EXIT_NO_FIXED
    try:
        sub = domination.build_dominated_subsystem(
            c, args.base_n, typ.a, typ.w, pad_bound=args.pad_bound)
    except domination.SubsystemSearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEARCH_EXHAUSTED
    comment = (f"dominated subsystem: base_n={sub.base_n} ell={sub.ell} "
               f"pads={sub.pad_left}|{sub.pad_right}")
    write_cocycle(args.subsystem_out, sub.tuple_cocycle, comment=comment)
    print(f"subsystem written to {args.subsystem_out}: {len(sub.words)} words "
          f"of length {sub.ell}, kappa = {sub.kappa}")

    rows = []
    for q in grid:
        est_sub = domination.subsystem_pressure(sub, q, args.block_depth)
        base = pressure.log_sn(c, q, args.n) / args.n
        gap = abs(est_sub.value / sub.ell - base)
        rows.append([*q, sub.ell, est_sub.value / sub.ell, base, gap])
    header = [f"q_{i + 1}" for i in range(c.d)] + ["ell", "P_ell_D_per_symbol", "P_n", "gap"]
    write_csv(args.out, header, rows, manifest_lines(args, started))
    return EXIT_OK


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Parse errors (subparsers' too) become UsageErrors: exit 2, one line."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lyapspec",
        description="Pressure and Lyapunov entropy spectra of one-step matrix "
                    "cocycles over mixing subshifts of finite type.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a .cocycle file")
    p.add_argument("file")
    p.add_argument("--alpha", type=float, default=1.0,
                   help="Hoelder exponent for the fiber-bunching report")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("pressure", help="pressure table over a q grid")
    p.add_argument("file")
    p.add_argument("--q", default="-3:3:0.25", help="grid spec lo:hi:step[;...]")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--qm-depth", type=int, default=4, dest="qm_depth")
    p.add_argument("--qm-connect", type=int, default=4, dest="qm_connect")
    p.add_argument("--budget", type=int, default=20_000_000)
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_pressure)

    p = sub.add_parser("spectrum", help="Legendre entropy spectrum")
    p.add_argument("file")
    p.add_argument("--alpha", default=None, help="explicit alpha grid spec")
    p.add_argument("--auto-grid", type=int, default=11, dest="auto_grid")
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--oracle", action="store_true",
                   help="add cylinder-count oracle columns")
    p.add_argument("--qm-depth", type=int, default=4, dest="qm_depth", help="ignored")
    p.add_argument("--qm-connect", type=int, default=4, dest="qm_connect", help="ignored")
    p.add_argument("--budget", type=int, default=20_000_000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("typical", help="typicality check")
    p.add_argument("file")
    p.add_argument("--fixed-symbol", type=int, default=None, dest="fixed_symbol")
    p.add_argument("--homoclinic", default=None,
                   help="comma-separated core word w")
    p.add_argument("--search-depth", type=int, default=3, dest="search_depth")
    p.set_defaults(func=cmd_typical)

    p = sub.add_parser("dominate", help="domination test")
    p.add_argument("file")
    p.add_argument("--index", type=int, default=None, help="single index i")
    p.add_argument("--n-min", type=int, default=2, dest="n_min")
    p.add_argument("--n-max", type=int, default=12, dest="n_max")
    p.add_argument("--cone", action="store_true",
                   help="also search for multicone certificates")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_dominate)

    p = sub.add_parser("subsystem", help="build a dominated subsystem and "
                                         "compare its pressure to the base pressure")
    p.add_argument("file")
    p.add_argument("--base-n", type=int, default=3, dest="base_n")
    p.add_argument("--pad-bound", type=int, default=8, dest="pad_bound")
    p.add_argument("--block-depth", type=int, default=3, dest="block_depth")
    p.add_argument("--fixed-symbol", type=int, default=None, dest="fixed_symbol")
    p.add_argument("--homoclinic", default=None)
    p.add_argument("--search-depth", type=int, default=3, dest="search_depth")
    p.add_argument("--q", default="-1:1:1")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--qm-depth", type=int, default=4, dest="qm_depth", help="ignored")
    p.add_argument("--qm-connect", type=int, default=4, dest="qm_connect", help="ignored")
    p.add_argument("--subsystem-out", default="subsystem.cocycle",
                   dest="subsystem_out")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_subsystem)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
