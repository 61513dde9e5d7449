"""Command-line entry point for running FMM experiments."""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from .distributions import KINDS
from .harness import ExperimentConfig, run_experiment
from .interpolation import STRATEGIES


def _ncrit(text: str) -> int | str:
    """'auto' or a leaf size of at least 1."""
    if text != "auto" and not (text.isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"expected 'auto' or an integer >= 1, got {text!r}")
    return text if text == "auto" else int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="helmfmm",
        description=(
            "Directional FFT-accelerated fast multipole evaluation of 3D "
            "Helmholtz N-body sums, with timing and accuracy reporting."
        ),
    )
    parser.add_argument(
        "--distribution", choices=KINDS, default="uniform-cube",
        help="particle distribution to generate",
    )
    parser.add_argument("--n", type=int, default=10000, help="particle count")
    parser.add_argument(
        "--kappa-d", type=float, default=0.0,
        help="wavenumber times root box side (0 = Laplace limit)",
    )
    parser.add_argument("--order", type=int, default=5, help="1D interpolation order L")
    parser.add_argument(
        "--ncrit", type=_ncrit, default=64,
        help="max particles per leaf, or 'auto' for a small tuning sweep",
    )
    parser.add_argument("--eta", type=float, default=1.0, help="MAC parameter")
    parser.add_argument(
        "--strategy", choices=STRATEGIES, default="t+s+r",
        help="M2M/L2L application strategy",
    )
    parser.add_argument(
        "--check-error", type=int, default=0, metavar="M",
        help="validate against direct summation on M sampled targets",
    )
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    parser.add_argument("--input", default=None, metavar="FILE",
                        help="particle file ('x y z re_q im_q' per line) instead of a generator")
    parser.add_argument("--output", default=None, metavar="PATH.json",
                        help="write the run record as JSON")
    parser.add_argument("--csv", default=None, metavar="PATH.csv",
                        help="append the run record as one CSV row")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = ExperimentConfig(
        distribution=args.distribution,
        n=args.n,
        kappa_d=args.kappa_d,
        order=args.order,
        ncrit=args.ncrit,
        eta=args.eta,
        strategy=args.strategy,
        check_error=args.check_error,
        seed=args.seed,
        particle_file=args.input,
    )
    record = run_experiment(cfg)
    if args.output:
        record.write_json(args.output)
    if args.csv:
        record.write_csv(args.csv)

    digest = hashlib.sha256(record.potentials.tobytes()).hexdigest()
    summary = record.to_json_dict()
    summary["potentials_sha256"] = digest
    json.dump(summary, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
