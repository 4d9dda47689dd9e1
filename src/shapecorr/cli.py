"""Command-line frontend.

Subcommands: generate, evaluate, propagate-annotations, inspect,
validate-network. Exit codes: 0 success, 1 validation failure, 2 usage
error (including unknown config keys).

The instance tree is ``pipeline``'s: ``evaluate`` reads each instance
through ``pipeline.load_instance``, and ``generate`` exits 1 when
``run_generation`` reports a failed instance.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from .config import ConfigError, GenerationConfig
from .corrio import save_correspondence
from .metrics import (aggregate_reports, evaluate_instance, load_prediction,
                      write_report)
from .network import (NetworkError, build_network, correspondence_between,
                      nearest_annotated, propagate_annotation)
from .pairs import ManifestError, default_split_manifest, parse_split_manifest
from .pipeline import (MANIFEST_FILE, META_FILE, load_instance,
                       run_generation)
from .textio import key_value_text, key_values, replace_atomic, write_atomic

DATA_DIR_ENV = "SHAPECORR_DATA"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2


def _log(msg):
    print(f"[{time.strftime('%H:%M:%S')}] {msg}", flush=True)


def _load_config(args):
    try:
        overrides = key_values(getattr(args, "set", None) or [])
    except ValueError as exc:
        raise ConfigError(f"--set: {exc}",
                          known_keys=GenerationConfig.known_keys()) from None
    if getattr(args, "seed", None) is not None:
        overrides["global_seed"] = args.seed
    if args.config:
        return GenerationConfig.from_file(args.config, overrides)
    return GenerationConfig.from_mapping(overrides)


def _data_dir(config):
    env = os.environ.get(DATA_DIR_ENV)
    return Path(env) if env else Path(config.data_dir)


def cmd_generate(args):
    config = _load_config(args)
    net = build_network(args.network or _data_dir(config) /
                        "network.manifest")
    if args.split_manifest:
        split = parse_split_manifest(args.split_manifest)
    else:
        split = default_split_manifest()
    _, failed = run_generation(config, net, split, args.output,
                               limit=args.limit, log=_log)
    return EXIT_VALIDATION if failed else EXIT_OK


def cmd_evaluate(args):
    instances_dir = Path(args.instances)
    names = (instances_dir / MANIFEST_FILE).read_text().split()[:args.limit]
    reports = []
    n_skipped = 0
    out_dir = Path(args.output)
    for name in names:
        pred_path = Path(args.predictions) / f"{name}.txt"
        if not pred_path.exists():
            _log(f"SKIP {name}: no prediction file {pred_path}")
            n_skipped += 1
            continue
        what = "unreadable instance"
        try:
            shape_y, gt, setting, area = load_instance(instances_dir / name)
            what = f"bad prediction file {pred_path}"
            pred = load_prediction(pred_path)
            rep = evaluate_instance(shape_y, gt, pred, setting, area)
        except (OSError, ValueError) as exc:
            _log(f"SKIP {name}: {what}: {exc}")
            n_skipped += 1
            continue
        write_report(rep, out_dir / name)
        reports.append(rep)
        _log(f"eval {name}: auc={rep.auc:.3f}")
    if not reports:
        _log(f"no instances evaluated n_skipped={n_skipped}")
        return EXIT_VALIDATION
    summary = aggregate_reports(reports)
    write_atomic(out_dir / "summary.txt", key_value_text(summary))
    _log(" ".join(f"{k}={v}" for k, v in summary.items())
         + f" n_skipped={n_skipped}")
    return EXIT_VALIDATION if n_skipped else EXIT_OK


def cmd_propagate(args):
    # '/' and ':' become '_' in file names: refuse two ids that then meet
    stems = {}
    for sid in args.shapes:
        stem = sid.replace("/", "_").replace(":", "_")
        if stems.setdefault(stem, sid) != sid:
            _log(f"usage error: shapes {stems[stem]!r} and {sid!r} would "
                 f"both write {stem}.labels")
            return EXIT_USAGE
    net = build_network(args.network)
    out_dir = Path(args.output)
    for stem, sid in stems.items():
        labels = propagate_annotation(net, sid)
        path = out_dir / f"{stem}.labels"
        write_atomic(path, "\n".join(map(str, labels.tolist())) + "\n")
        _log(f"propagated {sid} -> {path}")
        if args.store_correspondence:
            corr = correspondence_between(net, sid, nearest_annotated(net, sid))
            replace_atomic([out_dir / f"{stem}.corr"],
                           lambda tmp: save_correspondence(corr, tmp))
    return EXIT_OK


def cmd_inspect(args):
    meta_path = Path(args.instance) / META_FILE
    if not meta_path.exists():
        _log(f"not an instance directory: {args.instance}")
        return EXIT_VALIDATION
    print(meta_path.read_text(), end="")
    return EXIT_OK


def cmd_validate_network(args):
    try:
        net = build_network(args.network)
    except (NetworkError, OSError) as exc:
        _log(f"network invalid: {exc}")
        return EXIT_VALIDATION
    report = net.connectivity_report()
    print(f"nodes={len(net.nodes)} edges={len(net.edges) // 2} "
          f"components={len(report['components'])} "
          f"templates_connected={report['templates_connected']}")
    for i, comp in enumerate(report["components"]):
        print(f"component {i}: {len(comp)} nodes "
              f"({', '.join(comp[:5])}{', ...' if len(comp) > 5 else ''})")
    return EXIT_OK if report["templates_connected"] else EXIT_VALIDATION


def _limit(text):
    """A ``--limit``: an integer of at least 1 (a slice would drop
    instances from the end on a negative one)."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def build_parser():
    parser = argparse.ArgumentParser(
        prog="shapecorr",
        description="Procedural generation and evaluation of full/partial "
                    "shape-matching instances.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate matching instances")
    gen.add_argument("--config", help="key=value config file")
    gen.add_argument("--output", required=True, help="output directory")
    gen.add_argument("--network",
                     help="network manifest (default: "
                          f"${DATA_DIR_ENV}/network.manifest)")
    gen.add_argument("--split-manifest",
                     help="split manifest (default: shipped)")
    gen.add_argument("--seed", type=int, help="override global_seed")
    gen.add_argument("--limit", type=_limit,
                     help="generate first N pairs only")
    gen.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override a config key")
    gen.set_defaults(func=cmd_generate)

    ev = sub.add_parser("evaluate", help="evaluate predicted matchings")
    ev.add_argument("--instances", required=True)
    ev.add_argument("--predictions", required=True,
                    help="directory of <instance>.txt vertex-map files")
    ev.add_argument("--output", required=True)
    ev.add_argument("--limit", type=_limit,
                    help="evaluate first N instances only")
    ev.set_defaults(func=cmd_evaluate)

    pr = sub.add_parser("propagate-annotations",
                        help="propagate vertex labels through the network")
    pr.add_argument("--network", required=True)
    pr.add_argument("--output", required=True)
    pr.add_argument("--store-correspondence", action="store_true")
    pr.add_argument("shapes", nargs="+")
    pr.set_defaults(func=cmd_propagate)

    ins = sub.add_parser("inspect", help="print instance metadata")
    ins.add_argument("instance")
    ins.set_defaults(func=cmd_inspect)

    val = sub.add_parser("validate-network",
                         help="check network files and connectivity")
    val.add_argument("--network", required=True)
    val.set_defaults(func=cmd_validate_network)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        _log(f"config error: {exc}")
        if exc.known_keys:
            _log("valid keys: " + ", ".join(exc.known_keys))
        return EXIT_USAGE
    except (NetworkError, ManifestError) as exc:
        _log(f"validation error: {exc}")
        return EXIT_VALIDATION
    except FileNotFoundError as exc:
        _log(f"missing file: {exc}")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
