"""Fuzz test: any argv of small values and junk tokens ends in a
documented exit code, returned from ``cli.main``, never a traceback."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from lyapspec import cli  # noqa: E402

DIAG = """\
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

POS = DIAG.replace("3 0\n0 0.33333333333333331", "1 1\n1 2").replace("0.5", "1")

INTS = ["-1", "0", "1", "2", "3"]
FLOATS = ["-1", "0", "0.05", "1", "nan", "inf", "1e-300"]
GRIDS = ["0:0:1", "0:1:1", "-1:1:2", "1:1:1;0:1:1", "0:1", "1:0:1", "0:1:0",
         "0:1:-1", "nan:1:1", "0:inf:1", "x:1:1", "0:1:1;0:1:1;0:1:1", "0:1:1e-300", ""]
WORDS = ["1", "2", "1,2", "2,1,2", "0", "3", "-1", "", "1,,2", "x"]
JUNK = ["", "x", "-", "--", "-1", "nan", ":", ";", ",", "--nope", "1e999",
        "99999999999999999999"]

# option -> values; the sizes stay small (n <= 8, grids <= 5 points) so
# that every example runs in well under a second
SMALL_N = INTS + ["5", "8"]
OPTIONS = {
    "validate": {},
    "pressure": {"--q": GRIDS, "--n": SMALL_N, "--qm-depth": INTS,
                 "--qm-connect": INTS, "--budget": INTS + ["100000"]},
    "spectrum": {"--alpha": GRIDS, "--auto-grid": INTS + ["5"], "--n": SMALL_N,
                 "--eps": FLOATS, "--oracle": None, "--budget": INTS + ["100000"],
                 "--qm-depth": INTS},
    "typical": {"--fixed-symbol": INTS, "--homoclinic": WORDS,
                "--search-depth": INTS},
    "dominate": {"--index": INTS, "--n-min": SMALL_N, "--n-max": SMALL_N,
                 "--cone": None, "--seed": INTS},
    "subsystem": {"--base-n": INTS, "--pad-bound": INTS, "--block-depth": INTS + ["30"],
                  "--fixed-symbol": INTS, "--homoclinic": WORDS,
                  "--search-depth": INTS, "--q": GRIDS, "--n": SMALL_N},
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {}
    for name, text in (("diag", DIAG), ("pos", POS)):
        paths[name] = root / f"{name}.cocycle"
        paths[name].write_text(text)
    paths["out"] = root / "out.csv"
    paths["sub"] = root / "sub.cocycle"
    paths["bad_out"] = root / "missing" / "out.csv"
    paths["bad_sub"] = root / "missing" / "sub.cocycle"
    return paths


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    options = OPTIONS[command]
    argv = [command, draw(st.sampled_from(["{diag}", "{pos}", "{diag}x"]))]
    for _ in range(draw(st.integers(0, 4 if options else 0))):
        flag = draw(st.sampled_from(sorted(options)))
        values = options[flag]
        if values is None:
            argv.append(flag)
        elif draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(values))]
        else:
            argv.append(f"{flag}={draw(st.sampled_from(values))}")
    # one junk token in a quarter of the examples: most junk is a parse
    # error, which would end the run before the command's own checks
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(JUNK)))
    # output paths: a good one, or one in a missing directory
    if command in ("pressure", "spectrum", "subsystem"):
        argv += ["--out", draw(st.sampled_from(["{out}", "{bad_out}"]))]
    if command == "subsystem":
        argv += ["--subsystem-out", draw(st.sampled_from(["{sub}", "{bad_sub}"]))]
    return argv


@hypothesis.settings(max_examples=100, deadline=None,
                     suppress_health_check=[hypothesis.HealthCheck.too_slow])
@hypothesis.given(argv=argvs())
def test_main_returns_a_documented_code(argv, files):
    argv = [a.format(**files) for a in argv]
    code = cli.main(argv)
    assert code in range(8), (argv, code)
