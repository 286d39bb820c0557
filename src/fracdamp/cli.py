"""Command-line interface.

Subcommands: roots, simulate, gap-scan, diagram, counterexample, verify,
recipes.  Exit codes: 0 success, 2 validation error, 3 certification
failure, 4 oracle failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import ExperimentConfig, dump_config, load_config
from .errors import (
    CertificationError,
    ConstructionError,
    OracleFailure,
    OracleRefusal,
    ValidationError,
)
from .harness import run
from .recipes import recipes


def _add_common(sub):
    sub.add_argument("--config", help="experiment config file (INI)")
    sub.add_argument("--out", help="output directory (overrides config)")
    sub.add_argument(
        "--threads", type=int,
        help="worker threads for homogeneous mode sweeps (forced sweeps are not threaded)",
    )
    sub.add_argument("--seed", type=int, help="seed for randomized trials")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fracdamp",
        description="Spectral simulation and verification for damped second-order evolution equations",
    )
    sp = ap.add_subparsers(dest="command", required=True)

    p_roots = sp.add_parser("roots", help="characteristic roots per mode as CSV")
    _add_common(p_roots)
    p_roots.add_argument("--sigma", type=float)
    p_roots.add_argument("--delta", type=float)
    p_roots.add_argument("--modes", type=int)

    p_sim = sp.add_parser("simulate", help="homogeneous or forced mode sweep")
    _add_common(p_sim)
    grp = p_sim.add_mutually_exclusive_group()
    grp.add_argument("--homogeneous", action="store_true")
    grp.add_argument("--forced", action="store_true")

    for name, hlp in (
        ("gap-scan", "phase-space amplification table"),
        ("diagram", "boundedness diagram CSV"),
        ("verify", "oracle cross-check suite"),
    ):
        _add_common(sp.add_parser(name, help=hlp))

    p_ce = sp.add_parser("counterexample", help="counterexample certificates")
    _add_common(p_ce)
    p_ce.add_argument("--statement", type=int, choices=(1, 2, 3, 4))

    p_rec = sp.add_parser("recipes", help="list or run built-in acceptance recipes")
    _add_common(p_rec)
    p_rec.add_argument("--run", metavar="NAME", help="run one recipe by name")
    p_rec.add_argument("--all", action="store_true", help="run every recipe")
    p_rec.add_argument("--write-dir", metavar="DIR", help="dump recipe configs as INI files")
    return ap


def _config_from_args(args, kind: str) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    overrides = {"kind": kind}
    for attr, field in (("out", "out_dir"), ("threads", "threads"), ("seed", "seed")):
        val = getattr(args, attr, None)
        if val is not None:
            overrides[field] = val
    for attr in ("sigma", "delta", "modes", "statement"):
        val = getattr(args, attr, None)
        if val is not None:
            overrides[attr] = val
    return replace(cfg, **overrides).validate()


_EXIT_CODES = (
    ((ValidationError,), 2, "validation error"),
    ((CertificationError, ConstructionError), 3, "certification failure"),
    ((OracleFailure, OracleRefusal), 4, "oracle failure"),
)
_HANDLED = sum((types for types, _, _ in _EXIT_CODES), ())


def _report(exc: Exception) -> int:
    """Print a documented failure and return its exit code."""
    for types, code, label in _EXIT_CODES:
        if isinstance(exc, types):
            print(f"{label}: {exc}", file=sys.stderr)
            return code
    raise exc


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "recipes":
            return _recipes_command(args)
        kind = {
            "roots": "roots",
            "simulate": "simulate-forced" if getattr(args, "forced", False) else "simulate-homogeneous",
            "gap-scan": "gap-scan",
            "diagram": "diagram",
            "counterexample": "counterexample",
            "verify": "verify",
        }[args.command]
        cfg = _config_from_args(args, kind)
        paths = run(cfg)
        for p in paths:
            print(p)
        return 0
    except _HANDLED as exc:
        return _report(exc)


def _recipes_command(args) -> int:
    from .harness import run as run_cfg

    table = recipes()
    if args.write_dir:
        import os

        os.makedirs(args.write_dir, exist_ok=True)
        for name, cfg in table.items():
            dump_config(cfg, os.path.join(args.write_dir, f"{name}.cfg"))
            print(os.path.join(args.write_dir, f"{name}.cfg"))
        return 0
    names = [args.run] if args.run else (list(table) if args.all else [])
    if not names:
        for name in table:
            print(name)
        return 0
    status = 0
    for name in names:
        if name not in table:
            print(f"validation error: unknown recipe {name!r}", file=sys.stderr)
            return 2
        cfg = table[name]
        if args.out:
            cfg = replace(cfg, out_dir=args.out)
        try:
            run_cfg(cfg, out_dir=f"{cfg.out_dir}/{name}")
        except _HANDLED as exc:
            # later recipes still run; the first failure sets the exit code
            code = _report(exc)
            status = status or code
    return status


if __name__ == "__main__":
    raise SystemExit(main())
