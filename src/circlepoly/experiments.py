"""Experiment harness behind the command line interface.

Each run_* function takes a config dict, read against its subcommand's
schema table, an output directory and a seed; it writes CSV/JSON
artifacts and returns a process exit code: 0 for success, 3 when a bound
or invariant that the run is supposed to certify fails.  Config problems
raise ConfigError (exit 2 in the CLI), numerical breakdowns raise the
package's numerical errors (exit 4).

CSV files open with a comment line carrying the config hash and package
version, so a result file can always be traced back to its inputs.
Output is byte-identical for identical config + seed.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os

import numpy as np

from . import __version__
from ._accel import ladder_eval
from .errors import ConfigError, HypothesisError
from .laurent import LaurentPoly, coeffs_to_json
from .measures import (
    MAX_QUAD_NODES,
    CircleMeasure,
    circle_nodes,
    l_functional_table,
    measure_from_json,
    on_circle,
)
from .nlfs import (
    B_SUP_THRESHOLD,
    density_on_circle,
    forward,
    layer_strip,
    layer_strip_truncated,
    outer_from_modulus,
    w_from_ab,
)
from .schema import OPTIONAL, REQUIRED, integer, list_of, of_type, pair, pairs, power_of_two, read_config, real
from .szego import extract_coeffs, ladder_from_coeffs, plancherel_table, verify_system
from .svgplot import line_chart


# -- plumbing ---------------------------------------------------------------


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


@functools.lru_cache(maxsize=64)
def _row_format(types: tuple) -> str:
    """One %-format for a row whose cells have these types: an integer
    cell in full, any other as a float to 17 significant digits."""
    return ",".join("%d" if issubclass(t, (int, np.integer)) else "%.17g" for t in types)


def write_csv(path, columns, rows, cfg_hash: str):
    lines = [f"# config={cfg_hash} version={__version__}"]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(_row_format(tuple(map(type, row))) % tuple(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path):
    """Return (columns, rows-of-floats), skipping comment lines; every row
    must have as many cells as the header."""
    if not os.path.exists(path):
        raise ConfigError(f"no such CSV file: {path}")
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise ConfigError(f"CSV file {path} has no data")
    columns = lines[0].split(",")
    try:
        rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    except ValueError as e:
        raise ConfigError(f"CSV file {path} has a non-numeric cell") from e
    if any(len(row) != len(columns) for row in rows):
        raise ConfigError(f"CSV file {path} has a row whose cell count differs from the header's")
    return columns, rows


# The working-memory budget, 256 MiB in complex entries of 16 B: the most
# a config may ask of one array, or of the product of two keys sizing one
MAX_ENTRIES = 2 ** 24
MAX_SERIES = 2 ** 18  # forward and layer_strip hold about 750 B per coefficient
MAX_LADDER = 4094  # a packed ladder to degree n takes 16 (n+1)(n+2) B


def _within_budget(entries: int, what: str):
    if entries > MAX_ENTRIES:
        raise ConfigError(f"{what} asks for {entries} entries, above the budget of {MAX_ENTRIES}")


def _random_disk(rng, count: int, radius: float, real_only=False) -> np.ndarray:
    r = radius * np.sqrt(rng.uniform(size=count))
    th = rng.uniform(0.0, 2 * np.pi, size=count)
    vals = r * np.exp(1j * th)
    return vals.real.astype(np.complex128) if real_only else vals


# The nested specs.  A random source reads into (size, draw), draw a function
# of the generator, so a runner validates all before it draws, in its order.

POINTS_SCHEMA = {"explicit": (OPTIONAL, pairs), "count": (OPTIONAL, integer, 1, MAX_QUAD_NODES)}
RANDOM_SCHEMA = {"count": (256, integer, 1, MAX_SERIES), "radius": (0.05, real), "real": (False, of_type, bool)}
SCHEDULE_SCHEMA = {
    "base": (1.5, real),
    "count": (20, integer, 1, MAX_QUAD_NODES),
    "start": (4, integer, 1, MAX_QUAD_NODES),
}


def _points(value, what: str):
    """Circle points from {"explicit": [[re,im],...]} or {"count": N}."""
    _, v = read_config(value, POINTS_SCHEMA, what)
    pts, count = v["explicit"], v["count"]
    if (pts is None) == (count is None):
        raise ConfigError(f"{what} must give either 'explicit' pairs or a 'count'")
    if count is not None:
        return count, lambda rng: np.exp(2j * np.pi * rng.uniform(size=count))
    if not len(pts) or not on_circle(pts):
        raise ConfigError(f"{what}.explicit must be points on the unit circle, at least one")
    return len(pts), lambda rng: pts


def _random_coeffs(value, what: str):
    """count coefficients uniform in the disk of the radius, real if "real"."""
    _, v = read_config(value, RANDOM_SCHEMA, what)
    if v["radius"] <= 0:
        raise ConfigError(f"{what} needs a positive radius")
    return v["count"], lambda rng: _random_disk(rng, v["count"], v["radius"], v["real"])


COEFFS_SCHEMA = {"explicit": (OPTIONAL, pairs), "random": (OPTIONAL, _random_coeffs)}


def _coeff_source(value, what: str):
    _, v = read_config(value, COEFFS_SCHEMA, what)
    explicit, rnd = v["explicit"], v["random"]
    if (explicit is None) == (rnd is None):
        raise ConfigError(f"{what} must give either 'explicit' values or a 'random' draw")
    return rnd or (len(explicit), lambda rng: explicit)


def _schedule(value, what: str) -> list:
    """Degree schedule: explicit list or lacunary base/count/start, its largest
    degree at most MAX_QUAD_NODES, the largest grid a quadrature may build."""
    if not isinstance(value, dict):
        return list_of(value, what, None, integer, 1, MAX_QUAD_NODES)
    _, v = read_config(value, SCHEDULE_SCHEMA, what)
    if not v["base"] > 1.0:  # a NaN base fails
        raise ConfigError("lacunary schedule needs base > 1")
    ns = [v["start"]]
    try:
        # a schedule stops growing at its first degree past the bound
        while len(ns) < v["count"] and ns[-1] <= MAX_QUAD_NODES:
            ns.append(max(int(np.ceil(v["base"] * ns[-1])), ns[-1] + 1))
    except OverflowError as e:  # an infinite base * n
        raise ConfigError("lacunary schedule overflows; lower its base or count") from e
    if ns[-1] > MAX_QUAD_NODES:
        raise ConfigError(f"{what} must be at most {MAX_QUAD_NODES}, got {ns[-1]}")
    return ns


def _ladder_coeffs(F, n: int) -> np.ndarray:
    """F cut or zero-padded to length n, the coefficients of a ladder to degree n."""
    out = np.zeros(n, dtype=np.complex128)
    out[: min(len(F), n)] = F[:n]
    return out


def _rescaled_below_threshold(F, margin=0.01, grid=4096):
    """Shrink F geometrically until grid sup|b| clears the 2^-1/2 threshold."""
    F = np.array(F, dtype=np.complex128)
    for _ in range(200):
        pair = forward(F)
        sup_b = float(np.max(np.abs(pair.b.on_grid(grid))))
        if sup_b < B_SUP_THRESHOLD - margin:
            return F, pair, sup_b
        F = 0.8 * F
    raise HypothesisError("could not rescale coefficients below the sup|b| threshold")


# -- universality -----------------------------------------------------------

UNIVERSALITY_SCHEMA = {
    "measure": ({"kind": "mu_r", "r": 0.5}, measure_from_json),
    "coeffs": (OPTIONAL, _coeff_source),
    "degrees": ([8, 16, 32, 64, 128, 256, 512], _schedule),
    "points": ({"count": 64}, _points),
    "C": (2.0, real),
    "quadrature_m": (65536, integer, 1, MAX_QUAD_NODES),
}


def gap_and_bound(ws, kn, dn, n: int, C: float, lval: float):
    """(1/(n+1))|conj(w(s)) K_n - D_n| and the bound exp(30C) L it is held to."""
    return abs(np.conj(ws) * kn - dn) / (n + 1), float(np.exp(30.0 * C)) * lval


def run_universality(cfg, outdir, seed: int) -> int:
    """Diagonal universality gap vs its L-functional bound, per (s, n)."""
    cfg, val = read_config(cfg, UNIVERSALITY_SCHEMA)
    cfg["seed"] = seed
    mu, C = val["measure"], val["C"]
    if val["coeffs"] is None and not hasattr(mu, "r") and cfg["measure"]["kind"] != "uniform":
        raise ConfigError("only mu_r ([r]) and uniform (none) give built-in coefficients; supply 'coeffs'")
    degrees = sorted(set(val["degrees"]))
    if degrees[0] < 2 * C:
        raise ConfigError(f"smallest degree must satisfy n >= 2C = {2 * C:g}")
    npoints, draw_points = val["points"]
    _within_budget((degrees[-1] + 1) * npoints, "(largest degree + 1) x points")
    rng = np.random.default_rng(seed)
    F = val["coeffs"][1](rng) if val["coeffs"] else np.array([getattr(mu, "r", 0.0)], dtype=np.complex128)
    points = draw_points(rng)
    u, v = ladder_eval(_ladder_coeffs(F, degrees[-1]), points)
    # K_n(s,s) on the circle: sum_j phitilde_j(s) conj(phi_j(s))
    kdiag = np.cumsum(v * np.conj(u), axis=0)
    lvals = l_functional_table(mu, points, degrees, val["quadrature_m"])
    rows = []
    violated = False
    for si, s in enumerate(points):
        ws = mu.density_at(s)
        for k, n in enumerate(degrees):
            lval = float(lvals[si, k])
            # on the diagonal z = lam = s the Dirichlet kernel is n + 1
            gap, bound = gap_and_bound(ws, kdiag[n, si], n + 1, n, C, lval)
            # absolute slack so a roundoff-level gap cannot trip a zero bound;
            # written so that a NaN gap or bound fails the certification
            if not gap <= bound + 1e-12:
                violated = True
            rows.append([s.real, s.imag, n, C, gap, lval, bound])
    write_csv(
        os.path.join(outdir, "universality.csv"),
        ["s_re", "s_im", "n", "C", "gap", "L", "bound"],
        rows,
        config_hash(cfg),
    )
    return 3 if violated else 0


# -- lacunary ---------------------------------------------------------------

LACUNARY_SCHEMA = {
    "coeffs": ({"random": {"count": 256, "radius": 0.05}}, _coeff_source),
    "degrees": ({"base": 1.5, "count": 20, "start": 4}, _schedule),
    "points": ({"count": 64}, _points),
}


def run_lacunary(cfg, outdir, seed: int) -> int:
    """Pointwise convergence of (star(phi) phitilde)^2 along a lacunary schedule."""
    cfg, val = read_config(cfg, LACUNARY_SCHEMA)
    cfg["seed"] = seed
    degrees = val["degrees"]
    for prev, cur in zip(degrees, degrees[1:]):
        if cur <= prev:
            raise ConfigError("degree schedule must be strictly increasing")
    npoints, draw_points = val["points"]
    _within_budget((degrees[-1] + 1) * npoints, "(largest degree + 1) x points")
    rng = np.random.default_rng(seed)
    F, pair, sup_b = _rescaled_below_threshold(val["coeffs"][1](rng))
    points = draw_points(rng)
    target = np.conj(1.0 / density_on_circle(pair.a(points), pair.b(points)) ** 2)
    u, v = ladder_eval(_ladder_coeffs(F, degrees[-1]), points, degrees)
    rows, qrows = [], []
    for k, (n, un, vn) in enumerate(zip(degrees, u, v), start=1):
        err = np.abs((np.conj(un) * vn) ** 2 - target)
        for s, e in zip(points, err):
            rows.append([s.real, s.imag, k, n, e])
        q25, q50, q75 = np.quantile(err, [0.25, 0.5, 0.75])
        qrows.append([k, n, q25, q50, q75])
    h = config_hash(cfg)
    write_csv(
        os.path.join(outdir, "lacunary.csv"),
        ["s_re", "s_im", "k", "n", "err"],
        rows,
        h,
    )
    write_csv(
        os.path.join(outdir, "lacunary_summary.csv"),
        ["k", "n", "q25", "median", "q75"],
        qrows,
        h,
    )
    return 0


# -- Fejer comparison -------------------------------------------------------

FEJER_SCHEMA = {
    "shape": ({"random": {"count": 32, "radius": 1.0, "real": True}}, _coeff_source),
    "point": ([1.0, 0.0], pair),
    "epsilons": ([0.1, 0.05, 0.025], list_of, None, real),
    "degrees": ([8, 16, 32], list_of, None, integer, 0, MAX_QUAD_NODES),
    "ratio_window": ([2.0, 8.0], list_of, 2, real),
}


def run_fejer(cfg, outdir, seed: int) -> int:
    """Nonlinear diagonal expression vs twice the Fejer gap of F-hat.

    The shape is held fixed while epsilon scales it; the mismatch between
    the two columns should shrink by about 4x per halving of epsilon.
    With a complex shape at a generic point the linear term of the
    expansion can cancel and the mismatch drops a full order; the default
    real shape evaluated at s = 1 keeps the quadratic term in front.
    """
    cfg, val = read_config(cfg, FEJER_SCHEMA)
    cfg["seed"] = seed
    s, epsilons, (lo, hi) = val["point"], val["epsilons"], val["ratio_window"]
    if not on_circle(s):
        raise ConfigError("evaluation point must lie on the unit circle")
    # the scaling check applies to halving steps only; a NaN step is kept, and fails
    steps = zip(epsilons, epsilons[1:])
    halvings = [(e1, e2) for e1, e2 in steps if not abs(e1 - 2 * e2) > 1e-12 * e1]
    if not halvings:
        raise ConfigError("epsilons must hold a halving step: e followed by e/2")
    degrees = sorted(set(val["degrees"]))
    n_max = degrees[-1]
    size, draw_shape = val["shape"]
    if n_max < size:
        raise ConfigError(f"the largest degree must be >= the shape length {size}")
    shape = draw_shape(np.random.default_rng(seed))
    norm1 = float(np.sum(np.abs(shape)))
    if norm1 == 0:
        raise ConfigError("the F-shape must be nonzero")
    shape = shape / norm1
    s_arr = np.array([s])
    spow = s ** np.arange(1, n_max + 1)
    rows = []
    mism = {}
    for eps in epsilons:
        F = _ladder_coeffs(eps * shape, n_max)
        pair = forward(F)
        ws = density_on_circle(pair.a(s_arr), pair.b(s_arr))[0]
        u, v = ladder_eval(F, s_arr)
        kdiag = np.cumsum(v[:, 0] * np.conj(u[:, 0]))
        fhat_partial = np.concatenate([[0.0j], np.cumsum(F * spow)])  # index j: sum to j
        fhat = fhat_partial[-1]
        for n in degrees:
            nonlinear = abs(kdiag[n] - np.conj(1.0 / ws) * (n + 1)) / (n + 1)
            fejer = abs(np.mean(fhat_partial[: n + 1].imag) - fhat.imag)
            rows.append([eps, n, nonlinear, fejer, abs(nonlinear - 2 * fejer)])
            mism[(eps, n)] = abs(nonlinear - 2 * fejer)
    violated = False
    for e1, e2 in halvings:
        for n in degrees:
            if mism[(e2, n)] < 1e-14:
                continue
            ratio = mism[(e1, n)] / mism[(e2, n)]
            if not lo <= ratio <= hi:
                violated = True
    write_csv(
        os.path.join(outdir, "fejer.csv"),
        ["eps", "n", "nonlinear", "fejer", "mismatch"],
        rows,
        config_hash(cfg),
    )
    return 3 if violated else 0


# -- b-to-measure reconstruction pipeline -----------------------------------

THM5_SCHEMA = {
    "b": (REQUIRED, pairs),
    "grid_m": (8192, power_of_two, MAX_QUAD_NODES),
    "degree_cap": (256, integer, 0, MAX_QUAD_NODES),
    "strip_steps": (32, integer, 1, MAX_QUAD_NODES),
    "bandwidth": (256, integer, 1, MAX_QUAD_NODES),
    "ortho_degree": (6, integer, 0, MAX_LADDER),
    "ortho_quadrature": (4096, integer, 1, MAX_QUAD_NODES),
    "l1_degrees": ([1, 2, 4, 8, 16, 32], list_of, None, integer, 0, MAX_QUAD_NODES),
}


def run_thm5(cfg, outdir, seed: int) -> int:
    """From b to a measure: outer completion, stripping, ladder checks.

    Rejects b with grid sup at or above 2^-1/2 (the threshold is sharp:
    past it the limiting object fails to be a measure) with exit code 3.
    """
    cfg, val = read_config(cfg, THM5_SCHEMA)
    cfg["seed"] = seed
    m, steps, bandwidth = val["grid_m"], val["strip_steps"], val["bandwidth"]
    if len(val["b"]) == 0:
        raise ConfigError("b must have at least one coefficient")
    _within_budget(steps * bandwidth, "strip_steps x bandwidth")
    l1_degrees = sorted(set(val["l1_degrees"]))
    _within_budget((l1_degrees[-1] + 1) * m, "(largest l1_degrees + 1) x grid_m")
    b = LaurentPoly(val["b"], 1)
    nodes = circle_nodes(m)
    bv = b.on_grid(m)
    sup_b = float(np.max(np.abs(bv)))
    report = {"sup_b": sup_b, "accepted": sup_b < B_SUP_THRESHOLD}
    out_json = os.path.join(outdir, "thm5_report.json")
    if not sup_b < B_SUP_THRESHOLD:  # a NaN b is rejected
        report["reason"] = (
            f"sup|b| = {sup_b:.6f} >= 2^-1/2; the threshold is sharp and the "
            "limiting object is not a measure"
        )
        with open(out_json, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return 3
    logmod = 0.5 * np.log1p(-np.abs(bv) ** 2)
    astar, outer_err, clamped = outer_from_modulus(logmod, val["degree_cap"])
    a = astar.star()
    F, strip = layer_strip_truncated(a, b, steps, bandwidth)
    wsamp = w_from_ab(a, b, m)
    mu = CircleMeasure.from_samples(wsamp, kind="thm5")
    c0_err = float(abs(np.mean(wsamp) - 1.0))
    d = min(val["ortho_degree"], len(F))
    ortho = verify_system(ladder_from_coeffs(F[:d]), mu, val["ortho_quadrature"]).orthonormality_max
    u, v = ladder_eval(_ladder_coeffs(F, l1_degrees[-1]), nodes, l1_degrees)
    winv = 1.0 / np.conj(wsamp)
    l1_rows = []
    for n, un, vn in zip(l1_degrees, u, v):
        dist = float(np.mean(np.abs(np.conj(un) * vn - winv)))
        l1_rows.append([n, dist])
    report.update(
        {
            "outer_boundary_err": outer_err,
            "log_clamped": clamped,
            "b_residual_sup": strip["b_residual_sup"],
            "su2_grid_residual": strip["su2_grid_residual"],
            "c0_err": c0_err,
            "orthonormality_max": ortho,
            "coeffs": coeffs_to_json(F),
            "config_hash": config_hash(cfg),
        }
    )
    with open(out_json, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_csv(
        os.path.join(outdir, "thm5_l1.csv"),
        ["n", "l1_distance"],
        l1_rows,
        config_hash(cfg),
    )
    return 0


# -- roundtrip --------------------------------------------------------------

ROUNDTRIP_SCHEMA = {
    "trials": (5, integer, 1, MAX_QUAD_NODES),
    "n": (48, integer, 1, MAX_SERIES),
    "radius": (0.8, real),
    "extract_n": (24, integer, 1, MAX_LADDER),
    "strip_tol": (1e-8, real),
    "extract_tol": (1e-10, real),
}


def run_roundtrip(cfg, outdir, seed: int) -> int:
    """Strip-after-forward and extract-after-build recovery errors.

    Recovery accuracy degrades with the dynamic range prod(1+|F_j|^2), so
    the certification tolerances are config knobs; the actual errors are
    in the CSV either way.
    """
    cfg, val = read_config(cfg, ROUNDTRIP_SCHEMA)
    cfg["seed"] = seed
    rng = np.random.default_rng(seed)
    n = val["n"]
    ne = min(val["extract_n"], n)
    rows = []
    violated = False
    for t in range(val["trials"]):
        F = _random_disk(rng, n, val["radius"])
        pair = forward(F)
        strip_err = float(np.max(np.abs(layer_strip(pair) - F)))
        sys = ladder_from_coeffs(F[:ne])
        Phi = [sys.monic(j) for j in range(ne + 1)]
        PhiT = [sys.monic_tilde(j) for j in range(ne + 1)]
        F2, _, tag, _ = extract_coeffs(Phi, PhiT)
        extract_err = float(np.max(np.abs(F2 - F[:ne])))
        # a NaN error or tolerance fails the certification
        if not strip_err <= val["strip_tol"] or not extract_err <= val["extract_tol"] or tag != "Tminus":
            violated = True
        rows.append([t, n, strip_err, extract_err])
    write_csv(
        os.path.join(outdir, "roundtrip.csv"),
        ["trial", "n", "strip_err", "extract_err"],
        rows,
        config_hash(cfg),
    )
    return 3 if violated else 0


# -- Plancherel -------------------------------------------------------------

# n: the pairs' R rows and companion stacks take about 13 n^3 B, 208 MiB at 256
PLANCHEREL_SCHEMA = {
    "systems": (10, integer, 1, MAX_QUAD_NODES),
    "n": (16, integer, 1, 256),
    "radius": (1.0, real),
    "tol": (1e-8, real),
}


def run_plancherel(cfg, outdir, seed: int) -> int:
    """Log-subharmonicity inequality over all index pairs of random systems.

    ``zeros`` counts the zeros of a_{(l,m]}^* in the disk; the margin is
    0 up to rounding exactly when there are none (a_{(l,m]}^* outer).
    """
    cfg, val = read_config(cfg, PLANCHEREL_SCHEMA)
    cfg["seed"] = seed
    rng = np.random.default_rng(seed)
    rows = []
    violated = False
    for t in range(val["systems"]):
        F = _random_disk(rng, val["n"], val["radius"])
        for l, m_, lhs, rhs, zeros in plancherel_table(ladder_from_coeffs(F)):
            # a NaN side or tolerance fails the certification
            if not lhs <= rhs + val["tol"]:
                violated = True
            rows.append([t, l, m_, lhs, rhs, rhs - lhs, zeros])
    write_csv(
        os.path.join(outdir, "plancherel.csv"),
        ["system", "l", "m", "lhs", "rhs", "margin", "zeros"],
        rows,
        config_hash(cfg),
    )
    return 3 if violated else 0


# -- counterexample family --------------------------------------------------

COUNTEREXAMPLE_SCHEMA = {
    "r_values": ([0.25, 0.5, 0.9], list_of, None, real),
    "growth_r": ([0.9, 0.99, 0.999], list_of, None, real),
    "n_max": (64, integer, 1, MAX_QUAD_NODES),
    "grid": (256, integer, 1, MAX_QUAD_NODES),
}


def run_counterexample(cfg, outdir, seed: int) -> int:
    """The one-coefficient family: closed forms and the r -> 1 blow-up."""
    cfg, val = read_config(cfg, COUNTEREXAMPLE_SCHEMA)
    cfg["seed"] = seed
    n_max, r_values, growth = val["n_max"], val["r_values"], val["growth_r"]
    if not all(0 <= r < 1 for r in r_values + growth):  # a NaN r fails
        raise ConfigError("r_values and growth_r must lie in [0, 1)")
    _within_budget((n_max + 1) * val["grid"], "(n_max + 1) x grid")
    nodes = circle_nodes(val["grid"])
    rows = []
    violated = False
    for r in r_values:
        mu = CircleMeasure.mu_r(r)
        F = np.zeros(n_max, dtype=np.complex128)
        F[0] = r
        u, v = ladder_eval(F, nodes)
        scale = 1.0 / np.sqrt(1.0 + r * r)
        target = np.conj(1.0 / mu.density(nodes))
        # rows n = 1..n_max of the closed forms, all at once
        ns = np.arange(1, n_max + 1)[:, None]
        high, low = nodes ** ns, r * nodes ** (ns - 1)
        ladder_err = max(
            float(np.max(np.abs(u[1:] - scale * (high + low)))),
            float(np.max(np.abs(v[1:] - scale * (high - low)))),
        )
        prod_err = float(np.max(np.abs(np.conj(u[1:]) * v[1:] - target)))
        if ladder_err > 1e-12 or prod_err > 1e-10:
            violated = True
        rows.append([r, ladder_err, prod_err])
    write_csv(
        os.path.join(outdir, "counterexample.csv"),
        ["r", "ladder_err", "prod_err"],
        rows,
        config_hash(cfg),
    )
    grows = []
    prev_max = -np.inf
    for r in growth:
        mu = CircleMeasure.mu_r(r)
        wmax = float(np.max(np.abs(mu.density(nodes))))
        pair = forward(np.array([r], dtype=np.complex128))
        sup_b = float(np.max(np.abs(pair.b.on_grid(len(nodes)))))
        accepted = int(sup_b < B_SUP_THRESHOLD)
        if wmax <= prev_max or not accepted:
            violated = True
        prev_max = wmax
        grows.append([r, wmax, sup_b, accepted])
    write_csv(
        os.path.join(outdir, "counterexample_growth.csv"),
        ["r", "w_max", "sup_b", "accepted"],
        grows,
        config_hash(cfg),
    )
    return 3 if violated else 0


# -- plotting ---------------------------------------------------------------

PLOT_SCHEMA = {
    "csv": (REQUIRED, of_type, str),
    "x": (REQUIRED, of_type, str),
    "y": (REQUIRED, list_of, None, of_type, str),
    "xlog": (False, of_type, bool),
    "ylog": (True, of_type, bool),
    "out_name": ("plot.svg", of_type, str),
}


def run_plot(cfg, outdir, seed: int) -> int:
    """Line chart of named CSV columns as a standalone SVG."""
    _, val = read_config(cfg, PLOT_SCHEMA)
    x, y = val["x"], val["y"]
    columns, rows = read_csv(val["csv"])
    missing = [c for c in [x] + y if c not in columns]
    if missing:
        raise ConfigError(f"columns {missing} not in CSV; available: {columns}")
    idx = {c: columns.index(c) for c in [x] + y}
    xs = [row[idx[x]] for row in rows]
    series = {c: [row[idx[c]] for row in rows] for c in y}
    line_chart(
        xs,
        series,
        os.path.join(outdir, val["out_name"]),
        xlog=val["xlog"],
        ylog=val["ylog"],
        xlabel=x,
        ylabel=", ".join(y),
    )
    return 0


RUNNERS = {
    "universality": run_universality,
    "lacunary": run_lacunary,
    "fejer": run_fejer,
    "thm5": run_thm5,
    "roundtrip": run_roundtrip,
    "plancherel": run_plancherel,
    "counterexample": run_counterexample,
    "plot": run_plot,
}
