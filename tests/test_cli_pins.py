"""Every command's output, pinned to the text recorded at 12 digits.

Each case runs ``cli.main`` and compares its exit status, stdout, stderr
and any ``-o`` file with ``golden/commands.json``, every number rounded to
12 significant digits.  Under ``--exact`` the output must round to the same
text, and each number of its report or rows must be ``%.17g`` of the float
the matching library call returns, so the check holds on any numpy version.

``python tests/test_cli_pins.py`` rewrites the recorded file from the code
as it stands; do that only for an intended change of output.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

import pwldist as pw
from pwldist import cli, order_stats

DATA = Path(__file__).parent / "data"
RECORD = Path(__file__).parent / "golden" / "commands.json"
SPECS = sorted(path.name for path in DATA.glob("*.json"))
CURVE = "x,y\n0,0\n0.25,0.5\n0.5,2\n1,1\n1.5,0\n"
NUMBER = re.compile(r"-?\b(?:\d+\.?\d*(?:e[-+]?\d+)?|inf|nan)\b")


def _cases():
    for spec in SPECS:
        yield ["validate", spec]
        yield ["normalize", spec]
        yield ["normalize", spec, "-o", "OUT"]
        yield ["eval", spec, "--what", "pdf"]
        yield ["eval", spec, "--what", "cdf"]
        for rule in order_stats.QUANTILE_RULES:
            for p in ("0", "0.3", "0.5", "1"):
                yield ["quantile", spec, "-p", p, "--rule", rule]
        yield ["sample", spec, "-n", "20", "--seed", "5"]
        yield ["fit", spec]
    yield ["fit", "CURVE"]
    yield ["fit", "CURVE", "-o", "OUT"]


CASES = [" ".join(argv) for argv in _cases()]


def _at_12(text):
    if text is None:
        return None
    return NUMBER.sub(lambda m: "%.12g" % float(m.group()), text)


def _run(case, exact=False):
    """Exit status, stdout, stderr and the ``-o`` file of one case."""
    argv = case.split() + (["--exact"] if exact else [])
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"OUT": Path(tmp) / "out.json", "CURVE": Path(tmp) / "c.csv"}
        paths["CURVE"].write_text(CURVE)
        argv = [
            str(DATA / arg) if arg in SPECS else str(paths.get(arg, arg))
            for arg in argv
        ]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
        written = paths["OUT"]
        file_text = written.read_text() if written.exists() else None
    return {
        "exit": status,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "file": file_text,
    }


def _rounded(result):
    return {key: value if key == "exit" else _at_12(value)
            for key, value in result.items()}


def _library_floats(case):
    """The numbers a successful case prints, from the library calls."""
    argv = case.split()
    command, opts = argv[0], dict(zip(argv[2::2], argv[3::2]))
    if argv[1] == "CURVE":
        rows = [line.split(",") for line in CURVE.split()[1:]]
        xs, ys = ([float(row[i]) for row in rows] for i in (0, 1))
        fitted = pw.fit(pw.FitRequest.from_points(xs, ys))
        return [len(xs), fitted.breakpoints.size - 1]
    d = cli.parse_spec((DATA / argv[1]).read_text()).density
    if command == "validate":
        return [d.breakpoints.size - 1, *d.support, pw.raw_mass(d)]
    if command == "normalize":
        _, report = pw.normalize(d)
        return [report.raw_mass, report.factor_k]
    if command == "quantile":
        p = float(opts["-p"])
        pre = pw.quantile_preimage(d, p)
        return [pre.lower, pre.upper, pw.quantile(d, p, opts["--rule"])]
    if command == "eval":
        xs = np.linspace(*d.support, 101)
        values = pw.pdf(d, xs) if opts["--what"] == "pdf" else pw.cdf(d, xs)
    else:
        xs = cli.seeded_uniforms(5, 20)
        values = pw.sample(d, xs)
    return np.column_stack((xs, values)).ravel().tolist()


@pytest.fixture(scope="module")
def recorded():
    return json.loads(RECORD.read_text())


def test_every_case_is_recorded(recorded):
    assert sorted(recorded) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_output_matches_record(case, recorded):
    assert _rounded(_run(case)) == recorded[case]


@pytest.mark.parametrize("case", CASES)
def test_exact_prints_library_floats(case, recorded):
    result = _run(case, exact=True)
    assert _rounded(result) == recorded[case]
    if result["exit"] != 0:
        return
    emits_spec = case.startswith(("normalize", "fit"))
    to_file = "OUT" in case.split()
    report = result["stderr" if emits_spec and not to_file else "stdout"]
    printed = NUMBER.findall(report)
    assert printed == ["%.17g" % x for x in _library_floats(case)]


if __name__ == "__main__":
    RECORD.write_text(
        json.dumps({case: _rounded(_run(case)) for case in CASES}, indent=1)
        + "\n"
    )
