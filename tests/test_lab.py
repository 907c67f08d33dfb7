import hashlib
import json
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from circlepoly import __version__, cli, experiments, measures
from circlepoly.cli import main
from circlepoly.errors import ConfigError
from circlepoly.experiments import MAX_LADDER, _schedule, config_hash, read_csv, write_csv
from circlepoly.measures import MAX_QUAD_NODES

NAN = float("nan")
INF = float("inf")


def _run(tmp_path, command, cfg=None, seed=0, out=None):
    out = out or str(tmp_path / "out")
    argv = [command, "--out", out, "--seed", str(seed)]
    if cfg is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        argv += ["--config", str(cfg_path)]
    return main(argv), out


def test_csv_roundtrip(tmp_path):
    path = str(tmp_path / "t.csv")
    write_csv(path, ["a", "b"], [[1, 2.5], [3, -0.125]], "deadbeef0000")
    with open(path) as fh:
        first = fh.readline()
    assert first == f"# config=deadbeef0000 version={__version__}\n"
    columns, rows = read_csv(path)
    assert columns == ["a", "b"]
    assert rows == [[1.0, 2.5], [3.0, -0.125]]


def test_csv_cells_keep_their_format(tmp_path):
    # integers in full, everything else as a float to 17 digits
    path = str(tmp_path / "t.csv")
    row = [10 ** 18, 2 ** 70, np.int64(-5), True, NAN, -0.0, INF, np.float64(0.1), 1.5]
    write_csv(path, list("abcdefghi"), [row, row[::-1]], "deadbeef0000")
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = "1000000000000000000,1180591620717411303424,-5,1,nan,-0,inf,0.10000000000000001,1.5"
    assert lines[2] == cells
    assert lines[3] == ",".join(cells.split(",")[::-1])


def test_read_csv_errors(tmp_path):
    with pytest.raises(ConfigError):
        read_csv(str(tmp_path / "missing.csv"))
    empty = tmp_path / "empty.csv"
    empty.write_text("# only a comment\n")
    with pytest.raises(ConfigError):
        read_csv(str(empty))
    text = tmp_path / "text.csv"
    text.write_text("a,b\n1,x\n")
    with pytest.raises(ConfigError):
        read_csv(str(text))


@pytest.mark.parametrize("cells", ["1", "1,2,3"])
def test_plot_of_a_ragged_csv_is_a_config_error(tmp_path, capsys, cells):
    csv = tmp_path / "ragged.csv"
    csv.write_text(f"n,gap\n1,0.5\n{cells}\n")
    code, _ = _run(tmp_path, "plot", {"csv": str(csv), "x": "n", "y": ["gap"]})
    assert code == 2
    err = capsys.readouterr().err
    assert "ragged.csv" in err and "cell count" in err


def test_config_hash_is_order_independent():
    assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
    assert config_hash({"a": 1}) != config_hash({"a": 2})


def test_universality_smoke(tmp_path):
    code, out = _run(
        tmp_path,
        "universality",
        {
            "degrees": [8, 16],
            "points": {"explicit": [[0, 1]]},
            "quadrature_m": 8192,
        },
    )
    assert code == 0
    columns, rows = read_csv(os.path.join(out, "universality.csv"))
    assert columns == ["s_re", "s_im", "n", "C", "gap", "L", "bound"]
    assert len(rows) == 2
    for row in rows:
        gap, bound = row[4], row[6]
        assert gap <= bound


def test_universality_uniform_gaps_vanish(tmp_path):
    code, out = _run(
        tmp_path,
        "universality",
        {
            "measure": {"kind": "uniform"},
            "degrees": [8],
            "points": {"count": 3},
            "quadrature_m": 4096,
        },
    )
    assert code == 0
    _, rows = read_csv(os.path.join(out, "universality.csv"))
    for row in rows:
        assert row[4] < 1e-12 and row[5] == 0.0


def test_universality_atom_l_does_not_decay(tmp_path):
    code, out = _run(
        tmp_path,
        "universality",
        {
            "measure": {
                "kind": "uniform",
                "scale": 0.5,
                "atoms": [{"point": [1, 0], "weight": [0.5, 0]}],
            },
            "coeffs": {"explicit": [[0.0, 0.0]]},
            "degrees": [8, 64],
            "points": {"explicit": [[1, 0]]},
            "quadrature_m": 8192,
        },
    )
    _, rows = read_csv(os.path.join(out, "universality.csv"))
    lvals = {int(row[2]): row[5] for row in rows}
    assert lvals[64] > lvals[8]  # the atom at s contributes (n+1)|weight|


def test_lacunary_smoke_and_decay(tmp_path):
    code, out = _run(
        tmp_path,
        "lacunary",
        {
            "coeffs": {"random": {"count": 64, "radius": 0.05}},
            "degrees": [2, 4, 8, 16, 32, 64],
            "points": {"count": 8},
        },
        seed=11,
    )
    assert code == 0
    _, rows = read_csv(os.path.join(out, "lacunary_summary.csv"))
    medians = [row[3] for row in rows]
    assert medians[-1] < medians[0]


def test_lacunary_zero_coeffs(tmp_path):
    code, out = _run(
        tmp_path,
        "lacunary",
        {
            "coeffs": {"explicit": [[0.0, 0.0], [0.0, 0.0]]},
            "degrees": [2, 4],
            "points": {"count": 4},
        },
    )
    assert code == 0
    _, rows = read_csv(os.path.join(out, "lacunary.csv"))
    for row in rows:
        assert row[4] < 1e-14


def test_lacunary_rejects_nonincreasing_schedule(tmp_path):
    code, _ = _run(tmp_path, "lacunary", {"degrees": [8, 8, 16]})
    assert code == 2


def test_fejer_smoke(tmp_path):
    code, out = _run(tmp_path, "fejer", seed=7)
    assert code == 0
    columns, rows = read_csv(os.path.join(out, "fejer.csv"))
    assert columns == ["eps", "n", "nonlinear", "fejer", "mismatch"]
    mism = {(row[0], int(row[1])): row[4] for row in rows}
    for n in (8, 16, 32):
        assert 2.0 <= mism[(0.1, n)] / mism[(0.05, n)] <= 8.0


def test_fejer_zero_shape_rejected(tmp_path):
    code, _ = _run(tmp_path, "fejer", {"shape": {"explicit": [[0.0, 0.0]]}})
    assert code == 2


def test_thm5_pipeline(tmp_path):
    code, out = _run(
        tmp_path,
        "thm5",
        {"b": [[0.3, 0.0], [0.0, 0.0], [0.2, 0.0]], "l1_degrees": [1, 4, 16]},
    )
    assert code == 0
    with open(os.path.join(out, "thm5_report.json")) as fh:
        report = json.load(fh)
    assert report["accepted"]
    assert report["su2_grid_residual"] < 1e-10
    assert report["orthonormality_max"] < 1e-8
    _, rows = read_csv(os.path.join(out, "thm5_l1.csv"))
    assert rows[-1][1] < rows[0][1]


def test_thm5_residuals_are_at_rounding(tmp_path):
    # a and b are read on the grid by FFT, so the density's c_0 and the
    # clipped pair's grid residual carry no Horner rounding
    code, out = _run(tmp_path, "thm5", {"b": [[0.3, 0.0], [0.0, 0.0], [0.2, 0.0]]}, seed=1)
    assert code == 0
    with open(os.path.join(out, "thm5_report.json")) as fh:
        report = json.load(fh)
    for key in ("orthonormality_max", "c0_err", "su2_grid_residual"):
        assert report[key] <= 1e-15, key


@pytest.mark.parametrize(
    "command,cfg",
    [
        ("lacunary", {"coeffs": {"explicit": [[1e300, 0.0]]}}),
        ("roundtrip", {"radius": 1e200, "trials": 1}),
        ("fejer", {"shape": {"explicit": [[1.0, 0.0]]}, "epsilons": [1e200, 5e199]}),
    ],
)
def test_a_coefficient_whose_square_overflows_is_a_config_error(tmp_path, capsys, command, cfg):
    # it used to give the zero pair: lacunary exited 0 with NaN errors and
    # roundtrip 4
    with np.errstate(over="ignore"):
        code, _ = _run(tmp_path, command, cfg)
    assert code == 2
    assert "overflows" in capsys.readouterr().err


def test_an_overflowing_square_prints_no_warning(tmp_path, capsys):
    # numpy's scalar power used to warn on stderr before the config error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _ = _run(tmp_path, "lacunary", {"coeffs": {"explicit": [[1e300, 0.0]]}})
    assert code == 2
    assert "Warning" not in capsys.readouterr().err


def test_thm5_single_coefficient_family(tmp_path):
    # b = 0.5 z / sqrt(1.25) comes from the one-term series with F = 0.5
    b1 = 0.5 / np.sqrt(1.25)
    code, out = _run(
        tmp_path,
        "thm5",
        {"b": [[b1, 0.0]], "strip_steps": 4, "l1_degrees": [1, 2]},
    )
    assert code == 0
    with open(os.path.join(out, "thm5_report.json")) as fh:
        report = json.load(fh)
    F = [complex(x, y) for x, y in report["coeffs"]]
    assert abs(F[0] - 0.5) < 1e-8
    assert max(abs(f) for f in F[1:]) < 1e-8


def test_thm5_rejects_supercritical_b(tmp_path):
    code, out = _run(tmp_path, "thm5", {"b": [[0.71, 0.0]]})
    assert code == 3
    with open(os.path.join(out, "thm5_report.json")) as fh:
        report = json.load(fh)
    assert not report["accepted"]


@pytest.mark.parametrize("grid_m", [1, 3])
def test_thm5_grid_m_must_be_power_of_two(tmp_path, capsys, grid_m):
    # refused by name before the outer completion and the stripping run
    code, out = _run(tmp_path, "thm5", {"b": [[0.3, 0.0]], "grid_m": grid_m})
    assert code == 2
    assert "grid_m" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "thm5_report.json"))


def test_roundtrip_smoke(tmp_path):
    code, out = _run(tmp_path, "roundtrip", {"trials": 2, "n": 16, "extract_n": 8})
    assert code == 0
    _, rows = read_csv(os.path.join(out, "roundtrip.csv"))
    for row in rows:
        assert row[2] < 1e-9 and row[3] < 1e-12


def test_roundtrip_strips_by_the_factor_trees(tmp_path):
    # n = 256 is above nlfs.TREE_MIN_N and a[0] near 0.85 is above
    # nlfs.TREE_MIN_A0, so layer_strip runs the two factor trees
    code, out = _run(
        tmp_path, "roundtrip", {"n": 256, "radius": 0.05, "trials": 2, "extract_n": 8}
    )
    assert code == 0
    _, rows = read_csv(os.path.join(out, "roundtrip.csv"))
    assert len(rows) == 2
    for row in rows:
        assert row[2] <= 1e-13


def test_plancherel_smoke(tmp_path):
    code, out = _run(tmp_path, "plancherel", {"systems": 2, "n": 6})
    assert code == 0
    _, rows = read_csv(os.path.join(out, "plancherel.csv"))
    assert len(rows) == 2 * (6 * 7) // 2
    for row in rows:
        assert row[3] <= row[4] + 1e-8


def test_counterexample_smoke(tmp_path):
    code, out = _run(tmp_path, "counterexample", {"n_max": 16})
    assert code == 0
    _, rows = read_csv(os.path.join(out, "counterexample.csv"))
    for row in rows:
        assert row[1] < 1e-12 and row[2] < 1e-10
    _, grows = read_csv(os.path.join(out, "counterexample_growth.csv"))
    wmax = [row[1] for row in grows]
    assert wmax == sorted(wmax)
    assert all(row[3] == 1.0 for row in grows)


def test_plot_and_missing_columns(tmp_path):
    code, out = _run(
        tmp_path,
        "universality",
        {"degrees": [8, 16], "points": {"explicit": [[0, 1]]}, "quadrature_m": 4096},
    )
    assert code == 0
    csv = os.path.join(out, "universality.csv")
    code2, _ = _run(
        tmp_path,
        "plot",
        {"csv": csv, "x": "n", "y": ["gap", "L"], "xlog": True, "ylog": True},
        out=out,
    )
    assert code2 == 0
    svg = os.path.join(out, "plot.svg")
    with open(svg) as fh:
        content = fh.read()
    assert content.startswith("<svg ") and content.rstrip().endswith("</svg>")
    code3, _ = _run(tmp_path, "plot", {"csv": csv, "x": "n", "y": ["nope"]}, out=out)
    assert code3 == 2


def _plot_csv(tmp_path, rows):
    csv = str(tmp_path / "data.csv")
    write_csv(csv, ["n", "gap", "L"], rows, "deadbeef0000")
    return csv


@pytest.mark.parametrize("ylog", [False, True])
def test_plot_leaves_out_non_finite_points(tmp_path, ylog):
    # runners write NaN rows on failed certifications; those points are
    # left out of their series instead of crashing the tick computation
    csv = _plot_csv(tmp_path, [[1, 0.5, NAN], [2, INF, 0.25], [4, 0.125, -INF], [8, 0.0625, 0.03125]])
    code, out = _run(tmp_path, "plot", {"csv": csv, "x": "n", "y": ["gap", "L"], "ylog": ylog})
    assert code == 0
    with open(os.path.join(out, "plot.svg")) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.startswith("<polyline")]
    assert [ln.count(",") for ln in lines] == [3, 2]
    assert "nan" not in "".join(lines) and "inf" not in "".join(lines)


def test_plot_of_a_range_wider_than_the_largest_float(tmp_path):
    # 1e308 - (-1e308) overflows to inf; the ticks and coordinates are
    # formed from halves of the values instead
    csv = _plot_csv(tmp_path, [[1, -1e308, 0.5], [2, 1e308, 0.25], [-1e308, 0.0, 1e308]])
    code, out = _run(tmp_path, "plot", {"csv": csv, "x": "n", "y": ["gap", "L"], "ylog": False})
    assert code == 0
    with open(os.path.join(out, "plot.svg")) as fh:
        svg = fh.read()
    assert "nan" not in svg and "inf" not in svg
    assert svg.count("<polyline") == 2
    assert ">-1e+308</text>" in svg and ">1e+308</text>" in svg


def test_plot_with_no_finite_point_is_a_config_error(tmp_path, capsys):
    csv = _plot_csv(tmp_path, [[1, 0.5, NAN], [2, 0.25, INF]])
    code, _ = _run(tmp_path, "plot", {"csv": csv, "x": "n", "y": ["L"]})
    assert code == 2
    assert "empty data for plot" in capsys.readouterr().err


@pytest.mark.parametrize("y", ["gap", "L"])
def test_plot_y_must_be_a_list(tmp_path, capsys, y):
    # a string is not split into one-letter column names
    csv = _plot_csv(tmp_path, [[1, 0.5, 0.25]])
    code, _ = _run(tmp_path, "plot", {"csv": csv, "x": "n", "y": y})
    assert code == 2
    assert "y must be a non-empty list" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,cfg,mib",
    [("lacunary", None, 4), ("thm5", {"b": [[0.3, 0.0], [0.0, 0.0], [0.2, 0.0]]}, 6), ("universality", None, 7)],
)
def test_runner_working_memory(tmp_path, command, cfg, mib):
    # tracemalloc peak of one run at the benchmark's configs, seed 1.  The
    # all-rows ladder (lacunary's 9,369 rows, thm5's 33 rows at 8,192 nodes)
    # and l_functional_table's doubled 2m-node arrays peaked at 18.9, 9.5 and
    # 8.5 MiB; only the rows and the centred window a runner reads take
    # 0.6, 3.0 and 5.1 MiB
    assert _run(tmp_path, command, cfg, seed=1)[0] == 0  # fills the grid caches
    tracemalloc.start()
    try:
        code, _ = _run(tmp_path, command, cfg, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= mib * 2**20


def test_determinism_byte_identical(tmp_path):
    cfg = {"degrees": [8], "points": {"count": 4}, "quadrature_m": 4096}
    _, out1 = _run(tmp_path, "universality", cfg, seed=5, out=str(tmp_path / "a"))
    _, out2 = _run(tmp_path, "universality", cfg, seed=5, out=str(tmp_path / "b"))
    with open(os.path.join(out1, "universality.csv"), "rb") as fh:
        blob1 = fh.read()
    with open(os.path.join(out2, "universality.csv"), "rb") as fh:
        blob2 = fh.read()
    assert blob1 == blob2


# Digests of the CSVs these configs wrote at seed 0 when every grid, every
# l_functional entry and every Plancherel pair was computed on its own; the
# shared grids and fused reductions must reproduce them byte for byte.  The
# universality digest is of the far-field L sum (the L and bound columns
# moved by rounding, at most 3.3e-16 relative; gap is unchanged).  The
# plancherel digest is of the exact Jensen sides (lhs and margin moved by
# at most 1.5e-8 from the 512-node grid means; rhs is unchanged) with the
# zeros column.
PINNED_CSV_SHA256 = [
    (
        "universality",
        {"degrees": [8, 16, 32], "points": {"count": 4}, "quadrature_m": 4096},
        "0da1f5d37fc1a06ff1eca122f9dea4da8adda808611485be4e4a86f88068390a",
    ),
    (
        "plancherel",
        {"systems": 2, "n": 6},
        "3bbe5e5186accae45c38d65f556e796d72ba63eebafc510ed436cb568e8fc74f",
    ),
    # taken when every pair of degree >= 1 was eigensolved; at this radius
    # all of them are certified root-free by Rouché's theorem instead
    (
        "plancherel",
        {"systems": 2, "n": 6, "radius": 0.05},
        "3213d7aed454b97ccce6accd24ebf19516796a7fff1479539252490c0372c58b",
    ),
]


@pytest.mark.parametrize(
    "command,cfg,digest",
    PINNED_CSV_SHA256,
    ids=["universality", "plancherel", "plancherel_certified"],
)
def test_csv_bytes_pinned(tmp_path, command, cfg, digest):
    code, out = _run(tmp_path, command, cfg)
    assert code == 0
    with open(os.path.join(out, f"{command}.csv"), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == digest


LACUNARY_PIN_CFG = {
    "coeffs": {"random": {"count": 16, "radius": 0.05}},
    "degrees": {"base": 2, "count": 6, "start": 4},
    "points": {"count": 8},
}


# Digests of the files these configs wrote at seed 0 when forward,
# layer_strip and the ladder recursion stepped through LaurentPoly values;
# the array-native recursions must reproduce them byte for byte.  The thm5
# report is that of the outer completion by one FFT exponential: against
# the scaling and squaring on LaurentPoly values it replaced, coeffs moved
# by at most 1.9e-18, b_residual_sup by 7.1e-18, c0_err by 3.5e-17 and
# orthonormality_max (7.725112940632058e-15, the rounding of the Gram
# matrix over the moments) by 1.2e-17, to 7.713316492360561e-15.  Since a
# and b are read on the grid by one FFT instead of Horner over a's 257
# coefficients times z^-256, the density's rounding is gone: coeffs moved
# by at most 5.7e-18, b_residual_sup from 1.3458658513553942e-17 to
# 1.366326272559654e-17, c0_err from 6.6e-15 to 0.0, su2_grid_residual
# from 4.9e-15 to 0.0 and orthonormality_max to 2.2206390636941933e-16.
PINNED_OUTPUT_SHA256 = [
    (
        "roundtrip",
        {"trials": 2, "n": 16, "extract_n": 8},
        "roundtrip.csv",
        "5ef3a9958c8437db49d27ec51a4dd0948df116b848386525a2f995d9078baab8",
    ),
    (
        "counterexample",
        {"n_max": 16},
        "counterexample.csv",
        "9aae67a13ce1f5d81151cbb859295f9941b307638dfe82a73b7476f27105e763",
    ),
    (
        "thm5",
        {"b": [[0.3, 0.0], [0.0, 0.0], [0.2, 0.0]], "l1_degrees": [1, 4, 16]},
        "thm5_report.json",
        "5c53e5286a3bfdbacd0013ca31b92347dd9ace36d9460026058de90cbc89382a",
    ),
    # taken when ladder_eval ran the full SU(2) step at every degree: 16
    # coefficients run to degree 128, and the 32-entry fejer shape to 64, so
    # both ladders step past their last nonzero coefficient
    (
        "lacunary",
        LACUNARY_PIN_CFG,
        "lacunary.csv",
        "96562749b1bcbfe5f775dd24e62ee1f9e28378a093297cf677b434fea1a3ed06",
    ),
    (
        "lacunary",
        LACUNARY_PIN_CFG,
        "lacunary_summary.csv",
        "f2bd1db9eb26a6cf6585f22ac62d7b31223ae423110b8c960afe5a7fdc7f77f1",
    ),
    (
        "fejer",
        {"degrees": [8, 16, 32, 64]},
        "fejer.csv",
        "06d4f85191d23931cbf34f90729055e5967e2a10f94729d226b48d20e8356c5e",
    ),
]


# thm5_report.json at seed 1 with the orthonormality check at degrees 0 and
# 1, where the Gram matrix is 1x1 over a ladder of no coefficient and 2x2
# over one; taken when thm5 read it from a ladder of F[:max(d, 1)], and
# re-taken when a and b came to be read on the grid by FFT: the moves of
# PINNED_OUTPUT_SHA256's thm5 entry, with orthonormality_max going from
# 6.678832113442223e-15 to 1.8115917159401349e-19 at degree 0 and from
# 7.713316492360561e-15 to 2.2206390636941933e-16 at degree 1
THM5_ORTHO_SHA256 = {
    0: "bbb11a637a657cf4645abaa5554ee3f5c5796dd73c3493255fea2635a456da54",
    1: "fd8954972ae4ff26bb491f158a4a403004f4d6897d676165afb2ddbb3ed6576d",
}


@pytest.mark.parametrize("degree", sorted(THM5_ORTHO_SHA256))
def test_thm5_low_ortho_degree_bytes_pinned(tmp_path, degree):
    cfg = {"b": [[0.3, 0.0], [0.0, 0.0], [0.2, 0.0]], "ortho_degree": degree}
    code, out = _run(tmp_path, "thm5", cfg, seed=1)
    assert code == 0
    with open(os.path.join(out, "thm5_report.json"), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == THM5_ORTHO_SHA256[degree]


@pytest.mark.parametrize(
    "command,cfg,fname,digest",
    PINNED_OUTPUT_SHA256,
    ids=["roundtrip", "counterexample", "thm5", "lacunary", "lacunary_summary", "fejer"],
)
def test_output_bytes_pinned(tmp_path, command, cfg, fname, digest):
    code, out = _run(tmp_path, command, cfg)
    assert code == 0
    with open(os.path.join(out, fname), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == digest


@pytest.mark.parametrize(
    "command,cfg",
    [
        ("universality", {"C": NAN, "degrees": [8], "points": {"count": 2}, "quadrature_m": 1024}),
        ("plancherel", {"tol": NAN, "systems": 1, "n": 3}),
        ("roundtrip", {"strip_tol": NAN, "trials": 1, "n": 4, "extract_n": 2}),
        ("roundtrip", {"extract_tol": NAN, "trials": 1, "n": 4, "extract_n": 2}),
        ("thm5", {"b": [[NAN, 0.0]]}),
    ],
)
def test_nan_never_certifies(tmp_path, command, cfg):
    code, _ = _run(tmp_path, command, cfg)
    assert code == 3


@pytest.mark.parametrize(
    "command,cfg",
    [
        ("universality", {"quadrature_m": 0}),
        ("plancherel", {"n": 0}),
        ("plancherel", {"n": -1}),
        ("plancherel", {"systems": 0}),
        ("fejer", {"degrees": []}),
        ("fejer", {"epsilons": []}),
        ("fejer", {"epsilons": [0.1, 0.07]}),
        ("counterexample", {"r_values": []}),
        ("counterexample", {"growth_r": []}),
    ],
)
def test_empty_grid_configs_rejected(tmp_path, command, cfg):
    code, out = _run(tmp_path, command, cfg)
    assert code == 2
    assert not os.path.exists(os.path.join(out, f"{command}.csv"))


@pytest.mark.parametrize(
    "command,cfg,artifact",
    [
        ("roundtrip", {"n": 0}, "roundtrip.csv"),
        ("roundtrip", {"trials": 0}, "roundtrip.csv"),
        ("roundtrip", {"extract_n": 0}, "roundtrip.csv"),
        ("thm5", {"b": [[0.3, 0.0]], "l1_degrees": []}, "thm5_report.json"),
        ("thm5", {"b": [[0.3, 0.0]], "strip_steps": 0}, "thm5_report.json"),
        ("thm5", {"b": [[0.3, 0.0]], "bandwidth": 0}, "thm5_report.json"),
        ("thm5", {"b": [[0.71, 0.0]], "l1_degrees": []}, "thm5_report.json"),
        ("thm5", {"b": [[0.3, 0.0]], "ortho_degree": -1}, "thm5_report.json"),
        ("universality", {"measure": {"kind": "uniform", "scale": [1, 0]}}, "universality.csv"),
        ("universality", {"points": {"count": "abc"}}, "universality.csv"),
        ("universality", {"degrees": [4, "x"]}, "universality.csv"),
        ("fejer", {"ratio_window": [2]}, "fejer.csv"),
        ("fejer", {"degrees": [8]}, "fejer.csv"),
        ("counterexample", {"n_max": 0}, "counterexample.csv"),
        ("lacunary", {"coeffs": {"random": 5}}, "lacunary.csv"),
        ("universality", {"measure": {"kind": "mu_r", "r": "x"}}, "universality.csv"),
        # NaN passes |abs(s) - 1| > tol, so every on-circle check is written the other way
        ("universality", {"points": {"explicit": [[NAN, 0.0], [1.0, 0.0]]}}, "universality.csv"),
        ("fejer", {"point": [NAN, 0.0]}, "fejer.csv"),
        (
            "universality",
            {
                "measure": {
                    "kind": "uniform",
                    "scale": 0.5,
                    "atoms": [{"point": [NAN, 0.0], "weight": [0.5, 0.0]}],
                },
                "quadrature_m": 1024,
            },
            "universality.csv",
        ),
        # JSON's Infinity and non-integral sizes are refused, not truncated
        ("plancherel", {"n": INF}, "plancherel.csv"),
        ("plancherel", {"systems": INF}, "plancherel.csv"),
        ("plancherel", {"n": 2.7}, "plancherel.csv"),
        ("roundtrip", {"trials": INF}, "roundtrip.csv"),
        ("lacunary", {"degrees": {"base": NAN}}, "lacunary.csv"),
        ("lacunary", {"degrees": {"base": INF}}, "lacunary.csv"),
        ("lacunary", {"degrees": {"base": 1e308}}, "lacunary.csv"),
        # a largest degree above MAX_QUAD_NODES is refused before any allocation
        ("lacunary", {"degrees": {"base": 1e200, "count": 2}}, "lacunary.csv"),
        ("universality", {"degrees": [8, 1e12]}, "universality.csv"),
        ("fejer", {"degrees": [8, 1e12]}, "fejer.csv"),
        # an empty explicit point list is refused, not run on no points
        ("lacunary", {"points": {"explicit": []}}, "lacunary.csv"),
        ("universality", {"points": {"explicit": []}}, "universality.csv"),
        # a nested spec is read by the same rules as the top level: [re, im]
        # entries, unknown keys, and one source, not two
        ("universality", {"coeffs": {"explicit": [{"a": 1}]}}, "universality.csv"),
        ("universality", {"points": {"explicit": [{"x": 1}]}}, "universality.csv"),
        ("thm5", {"b": [{"re": 1}]}, "thm5_report.json"),
        ("thm5", {"b": [[0.3, 0.0, 1.0]]}, "thm5_report.json"),
        ("plot", {"csv": "CSV", "x": "n", "y": ["gap"], "out_name": 5}, "plot.svg"),
        ("lacunary", {"degrees": {"base": 1.5, "count": 3, "start": 4, "extra": 1}}, "lacunary.csv"),
        ("lacunary", {"coeffs": {"random": {"count": 4, "radius": 0.1, "bogus": 1}}}, "lacunary.csv"),
        ("universality", {"points": {"count": 4, "explicit": [[1, 0]]}}, "universality.csv"),
        (
            "lacunary",
            {"coeffs": {"explicit": [[0.1, 0.0]], "random": {"count": 4}}, "degrees": [2, 4], "points": {"count": 2}},
            "lacunary.csv",
        ),
        (
            "universality",
            {"measure": {"kind": "uniform", "r": 0.5}, "degrees": [8], "points": {"count": 2}, "quadrature_m": 1024},
            "universality.csv",
        ),
        (
            "universality",
            {
                "measure": {"kind": "atoms", "list": [{"point": [1, 0], "weight": [1, 0]}], "atoms": []},
                "coeffs": {"explicit": [[0.0, 0.0]]},
                "degrees": [8],
                "points": {"count": 2},
                "quadrature_m": 1024,
            },
            "universality.csv",
        ),
        # a number is not a string or a boolean, and a boolean only true or false
        ("roundtrip", {"trials": 1, "n": 4, "extract_n": 2, "radius": "0.5"}, "roundtrip.csv"),
        ("roundtrip", {"trials": 1, "n": 4, "extract_n": 2, "strip_tol": True}, "roundtrip.csv"),
        ("universality", {"measure": {"kind": "mu_r", "r": "0.5"}, "degrees": [8], "points": {"count": 2}}, "universality.csv"),
        (
            "lacunary",
            {"coeffs": {"random": {"count": 4, "radius": 0.1, "real": "no"}}, "degrees": [2, 4], "points": {"count": 2}},
            "lacunary.csv",
        ),
        ("plot", {"csv": "CSV", "x": "n", "y": ["gap"], "xlog": "yes"}, "plot.svg"),
        # every integer has an upper bound, checked before anything is allocated
        ("universality", {"quadrature_m": 1e9}, "universality.csv"),
        ("universality", {"points": {"count": 1e9}}, "universality.csv"),
        ("counterexample", {"grid": 1e9}, "counterexample.csv"),
        ("counterexample", {"n_max": 1e9}, "counterexample.csv"),
        ("plancherel", {"n": 1e9}, "plancherel.csv"),
        ("plancherel", {"systems": 1e9}, "plancherel.csv"),
        ("roundtrip", {"trials": 1e9}, "roundtrip.csv"),
        ("roundtrip", {"extract_n": MAX_LADDER + 1, "n": MAX_LADDER + 1}, "roundtrip.csv"),
        ("thm5", {"b": [[0.3, 0.0]], "grid_m": 2 ** 30}, "thm5_report.json"),
        ("thm5", {"b": [[0.3, 0.0]], "strip_steps": 1e9}, "thm5_report.json"),
        ("thm5", {"b": [[0.3, 0.0]], "bandwidth": 1e9}, "thm5_report.json"),
        # and two keys that size one array together are held to the budget
        ("counterexample", {"n_max": 2 ** 12, "grid": 2 ** 12}, "counterexample.csv"),
        ("universality", {"degrees": [2 ** 20], "points": {"count": 16}}, "universality.csv"),
        ("lacunary", {"degrees": [2 ** 20], "points": {"count": 16}}, "lacunary.csv"),
        ("thm5", {"b": [[0.3, 0.0]], "strip_steps": 2 ** 12 + 1, "bandwidth": 2 ** 12}, "thm5_report.json"),
        ("thm5", {"b": [[0.3, 0.0]], "l1_degrees": [2 ** 12], "grid_m": 2 ** 12}, "thm5_report.json"),
    ],
)
def test_nonpositive_sizes_rejected(tmp_path, capsys, command, cfg, artifact):
    if cfg.get("csv") == "CSV":  # a plot reads a CSV that has its columns
        cfg = dict(cfg, csv=_plot_csv(tmp_path, [[1, 0.5, 0.25], [2, 0.25, 0.125]]))
    code, out = _run(tmp_path, command, cfg)
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not os.path.exists(os.path.join(out, artifact))


@pytest.mark.parametrize(
    "spec",
    [
        [8, MAX_QUAD_NODES + 1],
        {"base": 2, "count": 30, "start": 4},
        {"base": 1.5, "count": 10 ** 9, "start": 4},
        {"start": MAX_QUAD_NODES + 1, "count": 1},
    ],
)
def test_schedule_bounds_its_largest_degree(spec):
    with pytest.raises(ConfigError):
        _schedule(spec, "degrees")


def test_schedule_keeps_degrees_at_the_bound():
    assert _schedule([8, MAX_QUAD_NODES], "degrees") == [8, MAX_QUAD_NODES]
    assert _schedule({"base": 2, "count": 19, "start": 4}, "degrees")[-1] == MAX_QUAD_NODES


def test_main_reuses_its_parser(tmp_path):
    runs = [
        ("roundtrip", {"trials": 1, "n": 8, "extract_n": 4}, 3),
        ("plancherel", {"systems": 1, "n": 4}, 5),
    ]

    def outputs(fresh):
        written = []
        for k, (command, cfg, seed) in enumerate(runs):
            if fresh:
                cli._parser.cache_clear()
            out = str(tmp_path / f"{fresh}{k}")
            code, _ = _run(tmp_path, command, cfg, seed, out=out)
            with open(os.path.join(out, f"{command}.csv"), "rb") as fh:
                written.append((code, fh.read()))
            # a refused command line leaves the parser as it was
            with pytest.raises(SystemExit) as exc:
                main(["nope"])
            assert exc.value.code == 2
        return written

    assert outputs(fresh=False) == outputs(fresh=True)
    assert cli._parser() is cli._parser()


def test_nan_density_gives_nan_l(tmp_path):
    values = [[1.0, 0.0]] * 7 + [[NAN, 0.0]]
    code, out = _run(
        tmp_path,
        "universality",
        {
            "measure": {"kind": "samples", "values": values},
            "coeffs": {"explicit": [[0.0, 0.0]]},
            "degrees": [8, 16],
            "points": {"count": 2},
            "quadrature_m": 1024,
        },
    )
    assert code == 3
    columns, rows = read_csv(os.path.join(out, "universality.csv"))
    assert len(rows) == 4
    assert all(np.isnan(row[columns.index("L")]) for row in rows)


def test_seed_changes_random_points(tmp_path):
    cfg = {"degrees": [8], "points": {"count": 4}, "quadrature_m": 4096}
    _, out1 = _run(tmp_path, "universality", cfg, seed=1, out=str(tmp_path / "a"))
    _, out2 = _run(tmp_path, "universality", cfg, seed=2, out=str(tmp_path / "b"))
    _, rows1 = read_csv(os.path.join(out1, "universality.csv"))
    _, rows2 = read_csv(os.path.join(out2, "universality.csv"))
    assert rows1 != rows2


def test_bad_config_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["universality", "--config", str(bad), "--out", str(tmp_path)]) == 2
    # an integer literal past Python's int digit limit is a ValueError, not a JSONDecodeError
    bad.write_text('{"n": ' + "1" * 5000 + "}")
    assert main(["roundtrip", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert (
        main(["universality", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        == 2
    )


def test_bad_measure_spec(tmp_path):
    code, _ = _run(tmp_path, "universality", {"measure": {"kind": "nope"}})
    assert code == 2


def test_negative_seed_rejected(tmp_path):
    assert main(["universality", "--seed", "-1", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "command,cfg",
    [
        ("universality", {"degrees": [8], "points": {"count": 2}, "quadrature": 1024}),
        ("lacunary", {"degree": [8, 16]}),
        ("fejer", {"epsilon": [0.1, 0.05]}),
        ("thm5", {"b": [[0.3, 0.0]], "strip_step": 4}),
        ("roundtrip", {"trials": 1, "n": 4, "extract_n": 2, "seed": 3}),
        # the grid key retired with Plancherel's Jensen sides
        ("plancherel", {"systems": 1, "n": 3, "grid": 4096}),
        ("counterexample", {"n_max": 4, "r_value": [0.5]}),
        ("plot", {"csv": "x.csv", "x": "n", "y": ["gap"], "log": True}),
    ],
)
def test_unknown_config_key_rejected(tmp_path, capsys, command, cfg):
    code, out = _run(tmp_path, command, cfg)
    assert code == 2
    assert "unknown config keys" in capsys.readouterr().err
    assert not os.path.exists(out) or not os.listdir(out)


def test_readme_tables_name_every_config_key():
    # each schema table, nested specs included, is documented in README's
    # Command line section
    tables = [table for name, table in vars(experiments).items() if name.endswith("_SCHEMA")]
    tables += [measures.ATOM_SCHEMA] + [table for table, _ in measures.MEASURE_KINDS.values()]
    assert len(tables) == 8 + 4 + 1 + 4
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme) as fh:
        text = fh.read()
    section = text[text.index("## Command line") : text.index("## Acceptance suite")]
    missing = sorted({key for table in tables for key in table if f"`{key}`" not in section})
    assert not missing, f"README's Command line section does not name {missing}"
