"""Experiment harness behind the command line interface.

Each run_* function takes an effective config dict (defaults already
merged), an output directory, and a seeded generator; it writes CSV/JSON
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


def _merge_defaults(cfg: dict, defaults: dict, optional=()) -> dict:
    """The defaults updated by cfg.  A key that is neither a default nor
    one of the runner's optional keys is refused, so that a misspelt or
    retired key cannot run silently and only move the config hash."""
    if cfg is None:
        cfg = {}
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(map(str, set(cfg) - set(defaults) - set(optional)))
    if unknown:
        known = ", ".join(sorted([*defaults, *optional]))
        raise ConfigError(f"unknown config keys {', '.join(unknown)} (known: {known})")
    out = dict(defaults)
    out.update(cfg)
    return out


def _int(value, what: str, lo: int = 1) -> int:
    """An integer config value of at least ``lo``.  A non-integral or
    non-finite float (JSON has Infinity) is refused, not truncated."""
    try:
        if isinstance(value, float) and not value.is_integer():
            raise ValueError(value)
        n = int(value)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{what} must be an integer") from e
    if n < lo:
        raise ConfigError(f"{what} must be >= {lo}")
    return n


def _float(value, what: str) -> float:
    """A real config value.  NaN passes, so that a certification fails on it."""
    try:
        return float(value)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{what} must be a number") from e


def _list(values, what: str, size: int | None = None) -> list:
    """A non-empty list, of exactly ``size`` entries when given."""
    if not isinstance(values, list) or not values or size not in (None, len(values)):
        raise ConfigError(f"{what} must be a non-empty list" + (f" of {size}" if size else ""))
    return values


def _complex_list(items, what: str):
    try:
        return np.array([complex(v[0], v[1]) for v in items], dtype=np.complex128)
    except (TypeError, IndexError) as e:
        raise ConfigError(f"{what} must be a list of [re, im] pairs") from e


def _random_disk(rng, count: int, radius: float) -> np.ndarray:
    r = radius * np.sqrt(rng.uniform(size=count))
    th = rng.uniform(0.0, 2 * np.pi, size=count)
    return r * np.exp(1j * th)


def _sample_points(cfg, rng) -> np.ndarray:
    """Circle points from {"explicit": [[re,im],...]} or {"count": N}."""
    spec = cfg.get("points", {"count": 64})
    if isinstance(spec, dict) and "explicit" in spec:
        pts = _complex_list(_list(spec["explicit"], "points.explicit"), "points.explicit")
        if not on_circle(pts):
            raise ConfigError("explicit points must lie on the unit circle")
        return pts
    if isinstance(spec, dict) and "count" in spec:
        count = _int(spec["count"], "points.count")
        return np.exp(2j * np.pi * rng.uniform(size=count))
    raise ConfigError("points must give 'explicit' pairs or a 'count'")


def _coeff_source(cfg, rng, key="coeffs"):
    """Recursion coefficients from explicit values or a random draw."""
    spec = cfg.get(key)
    if spec is None:
        raise ConfigError(f"config needs a '{key}' entry")
    if isinstance(spec, dict) and "explicit" in spec:
        return _complex_list(spec["explicit"], f"{key}.explicit")
    if isinstance(spec, dict) and "random" in spec:
        rnd = spec["random"]
        if not isinstance(rnd, dict):
            raise ConfigError(f"'{key}.random' must be an object")
        count = _int(rnd.get("count", 256), f"{key}.random.count")
        radius = _float(rnd.get("radius", 0.05), f"{key}.random.radius")
        if radius <= 0:
            raise ConfigError(f"{key}.random needs a positive radius")
        vals = _random_disk(rng, count, radius)
        if rnd.get("real"):
            vals = vals.real.astype(np.complex128)
        return vals
    raise ConfigError(f"'{key}' must give 'explicit' values or a 'random' draw")


def _bounded(degrees: list) -> list:
    """The degrees, refused when the largest exceeds MAX_QUAD_NODES, the
    largest grid a quadrature may build, before anything of that size is
    allocated."""
    if max(degrees) > MAX_QUAD_NODES:
        raise ConfigError(f"degrees must be at most {MAX_QUAD_NODES}, got {max(degrees)}")
    return degrees


def _schedule(cfg) -> list:
    """Degree schedule: explicit list or lacunary base/count/start."""
    spec = cfg.get("degrees", {"base": 1.5, "count": 20, "start": 4})
    if isinstance(spec, list):
        return _bounded([_int(n, "degrees") for n in _list(spec, "degrees")])
    if isinstance(spec, dict):
        base = _float(spec.get("base", 1.5), "degrees.base")
        count = _int(spec.get("count", 20), "degrees.count")
        start = _int(spec.get("start", 4), "degrees.start")
        if not base > 1.0:  # a NaN base fails
            raise ConfigError("lacunary schedule needs base > 1")
        ns = [start]
        try:
            # a schedule stops growing at its first degree past the bound
            while len(ns) < count and ns[-1] <= MAX_QUAD_NODES:
                ns.append(max(int(np.ceil(base * ns[-1])), ns[-1] + 1))
        except OverflowError as e:  # an infinite base * n
            raise ConfigError("lacunary schedule overflows; lower its base or count") from e
        return _bounded(ns)
    raise ConfigError("degrees must be a list or a base/count/start object")


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

UNIVERSALITY_DEFAULTS = {
    "measure": {"kind": "mu_r", "r": 0.5},
    "degrees": [8, 16, 32, 64, 128, 256, 512],
    "points": {"count": 64},
    "C": 2.0,
    "quadrature_m": 65536,
}


def gap_and_bound(ws, kn, dn, n: int, C: float, lval: float):
    """(1/(n+1))|conj(w(s)) K_n - D_n| and the bound exp(30C) L it is held to."""
    return abs(np.conj(ws) * kn - dn) / (n + 1), float(np.exp(30.0 * C)) * lval


def run_universality(cfg, outdir, seed: int) -> int:
    """Diagonal universality gap vs its L-functional bound, per (s, n)."""
    cfg = _merge_defaults(cfg, UNIVERSALITY_DEFAULTS, optional=("coeffs",))
    cfg["seed"] = seed
    rng = np.random.default_rng(seed)
    mu = measure_from_json(cfg["measure"])
    if "coeffs" in cfg:
        F = _coeff_source(cfg, rng)
    elif hasattr(mu, "r"):
        F = np.array([mu.r], dtype=np.complex128)
    elif cfg["measure"]["kind"] == "uniform":
        F = np.zeros(0, dtype=np.complex128)
    else:
        raise ConfigError(
            "this measure has no built-in coefficients; supply 'coeffs'"
        )
    C = _float(cfg["C"], "C")
    degrees = sorted(set(_schedule(cfg)))
    if degrees[0] < 2 * C:
        raise ConfigError(f"smallest degree must satisfy n >= 2C = {2 * C:g}")
    points = _sample_points(cfg, rng)
    m = _int(cfg["quadrature_m"], "quadrature_m")
    u, v = ladder_eval(_ladder_coeffs(F, degrees[-1]), points)
    # K_n(s,s) on the circle: sum_j phitilde_j(s) conj(phi_j(s))
    kdiag = np.cumsum(v * np.conj(u), axis=0)
    lvals = l_functional_table(mu, points, degrees, m)
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

LACUNARY_DEFAULTS = {
    "coeffs": {"random": {"count": 256, "radius": 0.05}},
    "degrees": {"base": 1.5, "count": 20, "start": 4},
    "points": {"count": 64},
}


def run_lacunary(cfg, outdir, seed: int) -> int:
    """Pointwise convergence of (star(phi) phitilde)^2 along a lacunary schedule."""
    cfg = _merge_defaults(cfg, LACUNARY_DEFAULTS)
    cfg["seed"] = seed
    rng = np.random.default_rng(seed)
    degrees = _schedule(cfg)
    for prev, cur in zip(degrees, degrees[1:]):
        if cur <= prev:
            raise ConfigError("degree schedule must be strictly increasing")
    F = _coeff_source(cfg, rng)
    F, pair, sup_b = _rescaled_below_threshold(F)
    points = _sample_points(cfg, rng)
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

FEJER_DEFAULTS = {
    "shape": {"random": {"count": 32, "radius": 1.0, "real": True}},
    "point": [1.0, 0.0],
    "epsilons": [0.1, 0.05, 0.025],
    "degrees": [8, 16, 32],
    "ratio_window": [2.0, 8.0],
}


def run_fejer(cfg, outdir, seed: int) -> int:
    """Nonlinear diagonal expression vs twice the Fejer gap of F-hat.

    The shape is held fixed while epsilon scales it; the mismatch between
    the two columns should shrink by about 4x per halving of epsilon.
    With a complex shape at a generic point the linear term of the
    expansion can cancel and the mismatch drops a full order; the default
    real shape evaluated at s = 1 keeps the quadratic term in front.
    """
    cfg = _merge_defaults(cfg, FEJER_DEFAULTS)
    cfg["seed"] = seed
    rng = np.random.default_rng(seed)
    shape = _coeff_source(cfg, rng, key="shape")
    norm1 = float(np.sum(np.abs(shape)))
    if norm1 == 0:
        raise ConfigError("the F-shape must be nonzero")
    shape = shape / norm1
    s = complex(*(_float(x, "point") for x in _list(cfg["point"], "point", 2)))
    if not on_circle(s):
        raise ConfigError("evaluation point must lie on the unit circle")
    epsilons = [_float(e, "epsilons") for e in _list(cfg["epsilons"], "epsilons")]
    # the scaling check applies to halving steps only; a NaN step is kept, and fails
    pairs = zip(epsilons, epsilons[1:])
    halvings = [(e1, e2) for e1, e2 in pairs if not abs(e1 - 2 * e2) > 1e-12 * e1]
    if not halvings:
        raise ConfigError("epsilons must hold a halving step: e followed by e/2")
    degrees = _bounded(sorted({_int(n, "degrees", 0) for n in _list(cfg["degrees"], "degrees")}))
    lo, hi = (_float(x, "ratio_window") for x in _list(cfg["ratio_window"], "ratio_window", 2))
    n_max = degrees[-1]
    if n_max < len(shape):
        raise ConfigError(f"the largest degree must be >= the shape length {len(shape)}")
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

THM5_DEFAULTS = {
    "grid_m": 8192,
    "degree_cap": 256,
    "strip_steps": 32,
    "bandwidth": 256,
    "ortho_degree": 6,
    "ortho_quadrature": 4096,
    "l1_degrees": [1, 2, 4, 8, 16, 32],
}


def run_thm5(cfg, outdir, seed: int) -> int:
    """From b to a measure: outer completion, stripping, ladder checks.

    Rejects b with grid sup at or above 2^-1/2 (the threshold is sharp:
    past it the limiting object fails to be a measure) with exit code 3.
    """
    cfg = _merge_defaults(cfg, THM5_DEFAULTS, optional=("b",))
    cfg["seed"] = seed
    if "b" not in cfg:
        raise ConfigError("thm5 config needs 'b': [[re,im],...] (frequencies 1..)")
    # CircleMeasure.from_samples needs this at the end of the run; refuse it before any work
    m = _int(cfg["grid_m"], "grid_m", 2)
    if m & (m - 1):
        raise ConfigError("grid_m must be a power of two >= 2")
    bc = _complex_list(cfg["b"], "b")
    if len(bc) == 0:
        raise ConfigError("b must have at least one coefficient")
    steps = _int(cfg["strip_steps"], "strip_steps")
    bandwidth = _int(cfg["bandwidth"], "bandwidth")
    l1_degrees = sorted(
        set(_int(n, "l1_degrees", 0) for n in _list(cfg["l1_degrees"], "l1_degrees"))
    )
    ortho_degree = _int(cfg["ortho_degree"], "ortho_degree", 0)
    ortho_m = _int(cfg["ortho_quadrature"], "ortho_quadrature")
    degree_cap = _int(cfg["degree_cap"], "degree_cap", 0)
    b = LaurentPoly(bc, 1)
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
    astar, outer_err, clamped = outer_from_modulus(logmod, degree_cap)
    a = astar.star()
    F, strip = layer_strip_truncated(a, b, steps, bandwidth)
    wsamp = w_from_ab(a, b, m)
    mu = CircleMeasure.from_samples(wsamp, kind="thm5")
    c0_err = float(abs(np.mean(wsamp) - 1.0))
    d = min(ortho_degree, len(F))
    ortho = verify_system(ladder_from_coeffs(F[:d]), mu, ortho_m).orthonormality_max
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

ROUNDTRIP_DEFAULTS = {
    "trials": 5,
    "n": 48,
    "radius": 0.8,
    "extract_n": 24,
    "strip_tol": 1e-8,
    "extract_tol": 1e-10,
}


def run_roundtrip(cfg, outdir, seed: int) -> int:
    """Strip-after-forward and extract-after-build recovery errors.

    Recovery accuracy degrades with the dynamic range prod(1+|F_j|^2), so
    the certification tolerances are config knobs; the actual errors are
    in the CSV either way.
    """
    cfg = _merge_defaults(cfg, ROUNDTRIP_DEFAULTS)
    cfg["seed"] = seed
    rng = np.random.default_rng(seed)
    trials = _int(cfg["trials"], "trials")
    n = _int(cfg["n"], "n")
    ne = min(_int(cfg["extract_n"], "extract_n"), n)
    radius = _float(cfg["radius"], "radius")
    strip_tol = _float(cfg["strip_tol"], "strip_tol")
    extract_tol = _float(cfg["extract_tol"], "extract_tol")
    rows = []
    violated = False
    for t in range(trials):
        F = _random_disk(rng, n, radius)
        pair = forward(F)
        strip_err = float(np.max(np.abs(layer_strip(pair) - F)))
        sys = ladder_from_coeffs(F[:ne])
        Phi = [sys.monic(j) for j in range(ne + 1)]
        PhiT = [sys.monic_tilde(j) for j in range(ne + 1)]
        F2, _, tag, _ = extract_coeffs(Phi, PhiT)
        extract_err = float(np.max(np.abs(F2 - F[:ne])))
        # a NaN error or tolerance fails the certification
        if not strip_err <= strip_tol or not extract_err <= extract_tol or tag != "Tminus":
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

PLANCHEREL_DEFAULTS = {"systems": 10, "n": 16, "radius": 1.0, "tol": 1e-8}


def run_plancherel(cfg, outdir, seed: int) -> int:
    """Log-subharmonicity inequality over all index pairs of random systems.

    ``zeros`` counts the zeros of a_{(l,m]}^* in the disk; the margin is
    0 up to rounding exactly when there are none (a_{(l,m]}^* outer).
    """
    cfg = _merge_defaults(cfg, PLANCHEREL_DEFAULTS)
    cfg["seed"] = seed
    rng = np.random.default_rng(seed)
    count = _int(cfg["systems"], "systems")
    n = _int(cfg["n"], "n")
    tol = _float(cfg["tol"], "tol")
    radius = _float(cfg["radius"], "radius")
    rows = []
    violated = False
    for t in range(count):
        F = _random_disk(rng, n, radius)
        for l, m_, lhs, rhs, zeros in plancherel_table(ladder_from_coeffs(F)):
            # a NaN side or tolerance fails the certification
            if not lhs <= rhs + tol:
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

COUNTEREXAMPLE_DEFAULTS = {
    "r_values": [0.25, 0.5, 0.9],
    "growth_r": [0.9, 0.99, 0.999],
    "n_max": 64,
    "grid": 256,
}


def run_counterexample(cfg, outdir, seed: int) -> int:
    """The one-coefficient family: closed forms and the r -> 1 blow-up."""
    cfg = _merge_defaults(cfg, COUNTEREXAMPLE_DEFAULTS)
    cfg["seed"] = seed
    n_max = _int(cfg["n_max"], "n_max")
    nodes = circle_nodes(_int(cfg["grid"], "grid"))
    r_values = [_float(r, "r_values") for r in _list(cfg["r_values"], "r_values")]
    growth = [_float(r, "growth_r") for r in _list(cfg["growth_r"], "growth_r")]
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

PLOT_DEFAULTS = {"xlog": False, "ylog": True, "out_name": "plot.svg"}


def run_plot(cfg, outdir, seed: int) -> int:
    """Line chart of named CSV columns as a standalone SVG."""
    cfg = _merge_defaults(cfg, PLOT_DEFAULTS, optional=("csv", "x", "y"))
    if "csv" not in cfg or "x" not in cfg or "y" not in cfg:
        raise ConfigError("plot config needs 'csv', 'x', and 'y' fields")
    columns, rows = read_csv(cfg["csv"])
    wanted = [cfg["x"]] + _list(cfg["y"], "y")
    missing = [c for c in wanted if c not in columns]
    if missing:
        raise ConfigError(
            f"columns {missing} not in CSV; available: {columns}"
        )
    idx = {c: columns.index(c) for c in wanted}
    xs = [row[idx[cfg["x"]]] for row in rows]
    series = {c: [row[idx[c]] for row in rows] for c in cfg["y"]}
    line_chart(
        xs,
        series,
        os.path.join(outdir, cfg["out_name"]),
        xlog=bool(cfg["xlog"]),
        ylog=bool(cfg["ylog"]),
        xlabel=cfg["x"],
        ylabel=", ".join(cfg["y"]),
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
