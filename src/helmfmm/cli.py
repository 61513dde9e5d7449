"""Command-line entry point for running FMM experiments.

Each ExperimentConfig field has one option, whose destination is the
field's name; the parser's defaults are the dataclass's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, fields

from .distributions import KINDS
from .harness import ExperimentConfig, run_experiment


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
        "--distribution", choices=KINDS, help="particle distribution to generate"
    )
    parser.add_argument("--n", type=int, help="particle count")
    parser.add_argument(
        "--kappa-d", type=float, help="wavenumber times root box side (0 = Laplace limit)"
    )
    parser.add_argument("--order", type=int, help="1D interpolation order L")
    parser.add_argument(
        "--ncrit", type=_ncrit,
        help="max particles per leaf, or 'auto' for a small tuning sweep",
    )
    parser.add_argument("--eta", type=float, help="MAC parameter: bound <= eta * distance")
    parser.add_argument(
        "--check-error", type=int, metavar="M",
        help="validate against direct summation on M sampled targets",
    )
    parser.add_argument("--seed", type=int, help="RNG seed")
    parser.add_argument("--input", dest="particle_file", metavar="FILE",
                        help="particle file ('x y z re_q im_q' per line) instead of a generator")
    parser.add_argument("--output", metavar="PATH.json", help="write the run record as JSON")
    parser.add_argument("--csv", metavar="PATH.csv", help="append the run record as one CSV row")
    parser.set_defaults(**asdict(ExperimentConfig()))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = ExperimentConfig(**{f.name: getattr(args, f.name) for f in fields(ExperimentConfig)})
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
