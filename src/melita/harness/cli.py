"""Command-line entry point."""
from __future__ import annotations

import argparse
import sys

from .config import ConfigError, load_config
from .experiment import (
    analyze_diversity,
    compare,
    compare_summary,
    compare_table,
    medoid_exemplars,
    run_experiment,
)
from .serialize import canonical_json, write_text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="melita",
        description="Quality-diversity experiments over multimodal archives.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute an experiment described by a JSON config")
    p.add_argument("--config", required=True, help="experiment config path")
    p.add_argument("--out", default=None, help="output directory (overrides the config)")
    p.add_argument("--quiet", action="store_true", help="suppress per-run progress lines")

    p = sub.add_parser("compare", help="rank-sum comparison of two methods' metrics")
    p.add_argument("--a", required=True, help="directory of metrics CSVs for method A")
    p.add_argument("--b", required=True, help="directory of metrics CSVs for method B")
    p.add_argument("--out", default="comparison.csv", help="table file to write")

    p = sub.add_parser("diversity", help="per-elite distance report for one modality")
    p.add_argument("--archive", required=True, help="archive JSON path")
    p.add_argument("--modality", type=int, required=True, help="modality index")
    p.add_argument("--distance", required=True, help="distance name")
    p.add_argument("--out", default=None, help="optional report file")

    p = sub.add_parser("medoids", help="k representative elites of an archive")
    p.add_argument("--archive", required=True, help="archive JSON path")
    p.add_argument("-k", dest="k", type=int, required=True, help="cluster count")
    p.add_argument("--weights", default=None, help="comma-separated per-modality weights")
    p.add_argument("--seed", type=int, default=0, help="seed for medoid initialisation")
    p.add_argument("--out", default=None, help="optional report file")
    return parser


def _emit(report: dict, out: str | None) -> None:
    text = canonical_json(report)
    if out is not None:
        write_text(out, text)
    sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = load_config(args.config)
            progress = None if args.quiet else print
            manifest = run_experiment(config, args.out, progress=progress)
            where = args.out if args.out is not None else config.output_dir
            print(f"wrote {len(manifest['runs'])} runs to {where} (manifest.json)")
        elif args.command == "compare":
            report = compare(args.a, args.b)
            write_text(args.out, compare_table(report))
            sys.stdout.write(compare_summary(report))
            print(f"table written to {args.out}")
        elif args.command == "diversity":
            _emit(analyze_diversity(args.archive, args.modality, args.distance), args.out)
        elif args.command == "medoids":
            weights = None
            if args.weights is not None:
                try:
                    weights = tuple(float(w) for w in args.weights.split(","))
                except ValueError as exc:
                    raise ValueError(f"--weights: {exc}") from None
            _emit(medoid_exemplars(args.archive, args.k, weights, args.seed), args.out)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
