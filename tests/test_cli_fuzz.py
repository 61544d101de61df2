"""Property tests of the CLI exit-code contract under random inputs.

``solve`` exits 0, 2 or 3 on any scenario document; ``simulate`` exits 0 on
valid numeric options and ``verify --suite equilibrium`` 0 or 1, and both
exit 2 on an invalid one, or on an ``--x0`` or ``--spike-v`` so large that
the Monte-Carlo cost sums overflow.  No input may end in a traceback.  Each
option is passed as ``--name=value`` or as two tokens, as drawn.  A document
whose six weights are scaled by a power of two solves to the same gain, byte
for byte.  A solution directory with one file mutated (a theta.csv or
diagnostics.csv cell or row, a summary.json value) is input too: ``verify``
and ``simulate`` on it exit with a documented code, and with one ``error:``
line when it is 2.  The examples are derandomized, so every run draws the
same cases.
"""

import contextlib
import copy
import io
import json
import math
import os
import shutil
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbslq.cli import main
from fbslq.scenario import (
    classical_reduction_scenario,
    example_2_5_scenario,
    smoke_scenario,
    trivial_scenario,
)

GRID_STEPS = 16  # fixed by the flag, so no mutation can ask for a large grid
SIM_STEPS = 40
H = 1.0 / SIM_STEPS
DOCS = {
    "example25": example_2_5_scenario(GRID_STEPS),
    "trivial": trivial_scenario(GRID_STEPS),
    "smoke": smoke_scenario(GRID_STEPS),
    "classical": classical_reduction_scenario(GRID_STEPS),
}
FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def run_cli(argv):
    """Exit code and stderr of one in-process CLI call; an uncaught exception propagates."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # overflow on extreme values
            code = main(argv)
    return code, err.getvalue()


def paths_in(doc, prefix=()):
    """Every key path of a JSON document, the root included."""
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from paths_in(value, prefix + (key,))


extremes = st.sampled_from([10**400, -(10**400), 5e-324, -5e-324, 1.7976931348623157e308, 0.0])
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | extremes | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(DOCS[draw(st.sampled_from(sorted(DOCS)))])
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(paths_in(doc))))
        if not path:
            doc = draw(json_values)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(json_values)
    return doc


@FUZZ
@given(doc=mutated_documents())
def test_solve_exits_with_a_documented_code(doc):
    with tempfile.TemporaryDirectory() as tmp:
        scen = os.path.join(tmp, "doc.json")
        with open(scen, "w") as fh:
            json.dump(doc, fh)
        code, err = run_cli(["solve", scen, "--grid-steps", str(GRID_STEPS),
                             "--out", os.path.join(tmp, "out")])
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code:
        assert err.startswith("error:")


@pytest.fixture(scope="module")
def solution_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    scen = root / "smoke.json"
    scen.write_text(json.dumps(smoke_scenario(SIM_STEPS)))
    code, _ = run_cli(["solve", str(scen), "--out", str(root / "sol")])
    assert code == 0
    return str(root / "sol")


def option(name, value, joined):
    """``--name=value`` or the two tokens ``--name value``."""
    return [f"--{name}={value!r}"] if joined else [f"--{name}", repr(value)]


# (value, valid) pairs; a huge finite number is not valid, since the cost
# sums overflow and the command gives no verdict.
non_finite = st.sampled_from([math.inf, -math.inf, math.nan]).map(lambda x: (x, False))
huge = (st.floats(1e160, 1e300) | st.floats(-1e300, -1e160)).map(lambda x: (x, False))
path_counts = st.integers(1, 64).map(lambda p: (p, True)) | st.integers(-5, 0).map(lambda p: (p, False))
start_times = (
    st.integers(0, SIM_STEPS - 1).map(lambda i: (i * H, True))
    | st.integers(SIM_STEPS, 3 * SIM_STEPS).map(lambda i: (i * H, False))  # the horizon and past it
    | st.integers(-3 * SIM_STEPS, -1).map(lambda i: (i * H, False))
    | st.tuples(st.integers(-5, SIM_STEPS + 5), st.floats(0.05, 0.95)).map(lambda p: ((p[0] + p[1]) * H, False))
    | non_finite
)
states = (
    st.integers(-SIM_STEPS, SIM_STEPS).map(lambda i: (i * H, True))
    | st.floats(-3.0, 3.0).map(lambda x: (x, True))
    | non_finite
    | huge
)
directions = st.floats(-3.0, 3.0).map(lambda x: (x, True)) | non_finite | huge
forms = st.lists(st.booleans(), min_size=5, max_size=5)


@FUZZ
@given(paths=path_counts, t=start_times, x0=states, v=directions, seed=st.integers(0, 2**32),
       joined=forms)
def test_simulate_options_exit_with_a_documented_code(solution_dir, paths, t, x0, v, seed, joined):
    valid = paths[1] and t[1] and x0[1] and v[1]
    drawn = (("paths", paths[0]), ("t", t[0]), ("x0", x0[0]), ("spike-v", v[0]), ("seed", seed))
    options = [tok for (name, value), j in zip(drawn, joined) for tok in option(name, value, j)]
    with tempfile.TemporaryDirectory() as tmp:
        code, err = run_cli(["simulate", solution_dir, *options, "--out", tmp])
    assert code == (0 if valid else 2)
    assert "Traceback" not in err
    if not valid:
        assert err.startswith("error:") and err.count("\n") == 1


@settings(FUZZ, max_examples=25)
@given(paths=path_counts, x0=states, joined=forms)
def test_verify_options_exit_with_a_documented_code(solution_dir, paths, x0, joined):
    valid = paths[1] and x0[1]
    options = option("paths", paths[0], joined[0]) + option("x0", x0[0], joined[1])
    with tempfile.TemporaryDirectory() as tmp:
        code, err = run_cli(["verify", solution_dir, "--suite", "equilibrium", *options,
                             "--out", os.path.join(tmp, "rep.json")])
    assert code in ((0, 1) if valid else (2,))
    assert "Traceback" not in err
    if not valid:
        assert err.startswith("error:") and err.count("\n") == 1


cells = st.text(max_size=8) | st.floats().map(repr) | st.sampled_from(["", "-0", "1e400", "0x10", "7", " 1"])


@st.composite
def mutated_csv(draw, text):
    """The text of a CSV file with one cell or one row changed, dropped or added."""
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    row = lines[i].split(",")
    j = draw(st.integers(0, len(row) - 1))
    kind = draw(st.sampled_from(["cell", "drop_cell", "add_cell", "row", "drop_row", "copy_row", "blank_row"]))
    if kind == "cell":
        row[j] = draw(cells)
    elif kind == "drop_cell":
        del row[j]
    elif kind == "add_cell":
        row.insert(j, draw(cells))
    lines[i] = ",".join(row)
    if kind == "row":
        lines[i] = draw(st.text(max_size=24))
    elif kind == "drop_row":
        del lines[i]
    elif kind == "copy_row":
        lines.insert(i, lines[i])
    elif kind == "blank_row":
        lines.insert(i, "")
    return "\n".join(lines) + "\n"


@st.composite
def mutated_json(draw, text):
    """The text of a JSON document with one value replaced or deleted, the document itself included."""
    doc = json.loads(text)
    path = draw(st.sampled_from(list(paths_in(doc))))
    if not path:
        return json.dumps(draw(json_values))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(json_values)
    return json.dumps(doc)


@FUZZ
@given(name=st.sampled_from(["theta.csv", "summary.json", "diagnostics.csv"]), data=st.data())
def test_a_mutated_solution_directory_exits_with_a_documented_code(solution_dir, name, data):
    with tempfile.TemporaryDirectory() as tmp:
        sol = os.path.join(tmp, "sol")
        shutil.copytree(solution_dir, sol)
        path = os.path.join(sol, name)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        text = data.draw((mutated_json if name == "summary.json" else mutated_csv)(text))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        commands = (
            (["verify", sol, "--suite", "equilibrium", "--paths", "16", "--out", os.path.join(tmp, "rep.json")],
             (0, 1, 2)),
            (["simulate", sol, "--paths", "16", "--out", os.path.join(tmp, "sim")], (0, 2)),
        )
        for argv, codes in commands:
            code, err = run_cli(argv)
            assert code in codes
            assert "Traceback" not in err
            if code == 2:
                assert err.startswith("error:") and err.count("\n") == 1


def scaled_weights(doc, k):
    """The document with its six weights multiplied by 2**k: every parameter they are linear in."""
    doc = json.loads(json.dumps(doc))  # R and N share one dict in the smoke document
    for weight in doc["weights"].values():
        for name in ("value", "base", "alpha", "beta", "values"):
            if name in weight["params"]:
                weight["params"][name] = np.ldexp(np.asarray(weight["params"][name]), k).tolist()
    return doc


def solve_unchecked(root, doc):
    """Exit code and theta.csv bytes of ``solve --no-assumption-check`` on a document."""
    scen, out = os.path.join(root, "doc.json"), os.path.join(root, "out")
    with open(scen, "w") as fh:
        json.dump(doc, fh)
    code, _ = run_cli(["solve", scen, "--no-assumption-check", "--grid-steps", str(GRID_STEPS), "--out", out])
    theta = os.path.join(out, "theta.csv")
    if not os.path.exists(theta):
        return code, None
    with open(theta, "rb") as fh:
        return code, fh.read()


@pytest.fixture(scope="module")
def unscaled_solves(tmp_path_factory):
    return {name: solve_unchecked(tmp_path_factory.mktemp(name), doc) for name, doc in DOCS.items()}


@FUZZ
@given(name=st.sampled_from(sorted(DOCS)), k=st.integers(-300, 300))
def test_weights_scaled_by_a_power_of_two_give_the_same_gain(unscaled_solves, name, k):
    # Theta* does not change when all six weights are multiplied by c > 0, and
    # for c = 2**k every product the solver forms scales exactly; so no node
    # may be decided by a threshold in the weights' units.
    with tempfile.TemporaryDirectory() as tmp:
        assert solve_unchecked(tmp, scaled_weights(DOCS[name], k)) == unscaled_solves[name]
