"""Command-line entry point wiring the full pipeline.

Subcommands: simulate, fit, diagnose, predict, classify, catalog,
prior-check.  Data goes to stdout, progress and diagnostics to stderr.
Exit codes: 0 success, 1 input/data error, 2 fit finished but failed a
convergence gate.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from importlib import resources

from . import catalog, diagnostics, inference, predict, simulate
from .errors import BytecodeEnergyError, DataError, DomainError
from .ingest import load_measurements, write_measurements

BUNDLED_MODEL = "appendix_a"


def load_model(spec: str) -> inference.PosteriorModel:
    """Load a model from a path, or a bundled model by bare name."""
    if spec != BUNDLED_MODEL:
        return inference.PosteriorModel.load(spec)
    bundle = resources.files("bytecode_energy") / "data" / f"{spec}.json"
    with resources.as_file(bundle) as path:
        return inference.PosteriorModel.load(path)


def _fmt(value, width=14):
    if value is None:
        return "-".rjust(width)
    if isinstance(value, bool):
        return ("pass" if value else "FAIL").rjust(width)
    if isinstance(value, float):
        return f"{value:.6e}".rjust(width)
    return str(value).rjust(width)


def _print_report(rows: list[dict], out) -> None:
    header = ["parameter", "mean", "mcse", "sd", "ess", "rhat", "gate"]
    print(f"{header[0]:<28}" + "".join(h.rjust(14) for h in header[1:]),
          file=out)
    for row in rows:
        cells = (row[k] for k in ("mean", "mcse", "sd", "ess", "rhat", "pass"))
        print(f"{row['parameter']:<28}" + "".join(map(_fmt, cells)), file=out)


def cmd_catalog(args) -> int:
    descriptors = [t.render() for t in catalog.list_catalog()]
    if args.json:
        json.dump(descriptors, sys.stdout, indent=1)
        print()
    else:
        for d in descriptors:
            print(d)
    return 0


def cmd_classify(args) -> int:
    lines = [ln for ln in _read_lines(args.input) if ln.strip()]
    if args.device:
        manifest = catalog.classify_trace(lines, args.device)
        items = sorted((k.render(), c) for k, c in manifest.items())
        if args.json:
            json.dump(dict(items), sys.stdout, indent=1)
            print()
        else:
            for rendered, count in items:
                print(f"{count} {rendered}")
    else:
        results = [catalog.classify_statement(ln).render() for ln in lines]
        if args.json:
            json.dump(results, sys.stdout, indent=1)
            print()
        else:
            for r in results:
                print(r)
    return 0


def cmd_simulate(args) -> int:
    with open(args.truth, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DataError(f"{args.truth} is not a JSON truth file: {exc}") \
                from None
    truth = simulate.GroundTruth.from_json_dict(obj)
    if args.seed is not None:
        truth.seed = args.seed
    samples = simulate.simulate_study(
        truth, cycles=args.cycles, samples_per_cycle=args.samples
    )
    write_measurements(args.out, samples)
    print(f"wrote {len(samples)} samples to {args.out}", file=sys.stderr)
    return 0


def cmd_fit(args) -> int:
    dataset = load_measurements(args.measurements)
    if not dataset.records:
        raise BytecodeEnergyError(
            f"{args.measurements} holds no pattern records")
    corrected = dataset.corrected()
    data = {k: v for k, v in corrected.by_key().items()}
    if args.device:
        data = {k: v for k, v in data.items() if k.device == args.device}
        if not data:
            raise BytecodeEnergyError(f"no records for device {args.device!r}")

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", inference.NonConvergenceWarning)
        model = inference.fit(
            data,
            chains=args.chains,
            warmup=args.warmup,
            draws=args.draws,
            seed=args.seed,
        )
    model.save(args.out, include_draws=args.save_draws)
    _print_report(diagnostics.report(model), sys.stderr)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    print(f"model written to {args.out}", file=sys.stderr)
    return 0 if model.meta["converged"] else 2


def cmd_diagnose(args) -> int:
    model = load_model(args.model)
    rows = diagnostics.report(model)
    if args.json:
        json.dump(rows, sys.stdout, indent=1)
        print()
    else:
        _print_report(rows, sys.stdout)
        passed = all(row["pass"] for row in rows)
        print(f"gates: {'pass' if passed else 'FAIL'}")
    return 0


def _parse_quantiles(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(q) for q in text.split(","))
    except ValueError:
        raise DomainError("--quantiles must be comma-separated numbers, "
                          f"got {text!r}") from None


def cmd_predict(args) -> int:
    quantiles = _parse_quantiles(args.quantiles)
    model = load_model(args.model)
    manifest = predict.ProgramManifest.parse(_read_lines(args.program))
    result = predict.predict_program(model, manifest, quantiles)
    if args.json:
        json.dump(result.to_json_dict(), sys.stdout, indent=1)
        print()
        return 0
    print(f"mean     {result.dist.mean:.9e} J  ({result.dist.mean * 1e6:.6f} uJ)")
    print(f"sd       {result.dist.sd:.9e} J  ({result.dist.sd * 1e6:.6f} uJ)")
    for p, v in result.quantiles.items():
        print(f"q{p:<7g} {v:.9e} J  ({v * 1e6:.6f} uJ)")
    print("contributions:")
    for key, value in result.contributions.items():
        print(f"  {key.render():<50} {value:.9e} J")
    return 0


def cmd_prior_check(args) -> int:
    spec = inference.ModelSpec.from_catalog(["device1", "device2"])
    draws = inference.prior_predictive(spec, args.n, seed=args.seed)
    in_range = float(((draws >= 0.0) & (draws <= 0.050)).mean()) if args.n else 0.0
    payload = {
        "n": args.n,
        "fraction_in_0_to_50_mj": in_range,
        "mean_j": float(draws.mean()) if args.n else None,
        "sd_j": float(draws.std(ddof=1)) if args.n > 1 else None,
    }
    if args.json:
        json.dump(payload, sys.stdout, indent=1)
        print()
    else:
        print(f"draws:               {payload['n']}")
        print(f"fraction in 0-50 mJ: {in_range:.5f}")
        if payload["mean_j"] is not None:
            print(f"mean:                {payload['mean_j'] * 1e3:.4f} mJ")
        if payload["sd_j"] is not None:
            print(f"sd:                  {payload['sd_j'] * 1e3:.4f} mJ")
    return 0


def _read_lines(path):
    """The lines of a UTF-8 text file, or of stdin for '-'."""
    try:
        if path == "-":
            return sys.stdin.read().splitlines()
        with open(path, encoding="utf-8") as fh:
            return fh.read().splitlines()
    except UnicodeDecodeError as exc:
        name = "standard input" if path == "-" else path
        raise DataError(f"{name} is not UTF-8 text: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bytecode-energy",
        description="Bayesian energy model toolkit for JVM bytecode patterns",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list all modeled pattern triples")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("classify", help="classify statements into patterns")
    p.add_argument("input", help="file of statements, one per line ('-' = stdin)")
    p.add_argument("--device", help="aggregate into a manifest for this device")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("simulate", help="generate a synthetic measurement CSV")
    p.add_argument("--truth", required=True, help="ground-truth JSON file")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--cycles", type=int, default=10)
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit the model to a measurement CSV")
    p.add_argument("--measurements", required=True)
    p.add_argument("--out", required=True, help="output model JSON path")
    p.add_argument("--chains", type=int, default=4)
    p.add_argument("--warmup", type=int, default=1000)
    p.add_argument("--draws", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--device", help="fit only this device's records")
    p.add_argument("--save-draws", action="store_true",
                   help="store raw draws in the model JSON (larger file; "
                        "enables covariance-aware prediction)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("diagnose", help="convergence report for a model JSON")
    p.add_argument("model", help=f"model JSON path or '{BUNDLED_MODEL}'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("predict", help="predict a program's energy distribution")
    p.add_argument("--model", required=True,
                   help=f"model JSON path or '{BUNDLED_MODEL}' (the bundled "
                        "model has no draws, so statements are treated as "
                        "independent)")
    p.add_argument("--program", required=True, help="manifest file")
    p.add_argument("--quantiles", default="0.5,0.95,0.99")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("prior-check", help="prior predictive range check")
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_prior_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BytecodeEnergyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
