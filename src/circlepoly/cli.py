"""Command line entry point.

Usage: circlepoly SUBCOMMAND [--config path.json] [--out dir] [--seed u64]

Subcommands: universality, lacunary, fejer, thm5, roundtrip, plancherel,
counterexample, plot.  Exit codes: 0 success, 2 config error, 3 a bound
or invariant the run certifies was violated, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .errors import (
    ConfigError,
    DomainError,
    HypothesisError,
    NearSingularMomentError,
    StrippingError,
    ToleranceError,
)
from .experiments import RUNNERS


@functools.cache
def _parser():
    """The argument parser, built on the first call and reused after."""
    p = argparse.ArgumentParser(
        prog="circlepoly",
        description=(
            "Numerical experiments with orthogonal polynomials of complex "
            "circle measures and their SU(2) nonlinear Fourier series."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name in RUNNERS:
        sp = sub.add_parser(name, help=f"run the {name} experiment")
        sp.add_argument("--config", help="JSON config file; defaults apply if omitted")
        sp.add_argument("--out", default="out", help="output directory (default: out)")
        sp.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")
    return p


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except ValueError as e:  # a JSONDecodeError, or an integer past Python's digit limit
        raise ConfigError(f"config parse error: {e}")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.seed < 0 or args.seed >= 2 ** 64:
        print("error: seed must fit in an unsigned 64-bit integer", file=sys.stderr)
        return 2
    try:
        cfg = _load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        code = RUNNERS[args.command](cfg, args.out, args.seed)
    except (ConfigError, DomainError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except HypothesisError as e:
        print(f"hypothesis violated: {e}", file=sys.stderr)
        return 3
    except (ToleranceError, StrippingError, NearSingularMomentError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 4
    if code == 3:
        print("bound or invariant violated; see output files", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
