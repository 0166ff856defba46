"""Command-line interface: simulate, demodulate, fit, study, estimate, report.

Each command takes only the shared options it reads: --seed, --config and
--out for simulate and study, --out for demod, --format for fit and each
estimate command.  Configs are flat ``section.key = value`` text files
whose sections are applied to library objects (``ramp.*`` ->
SweepProtocol, ``instrument.*`` -> ScanConfig, ``physics.*`` ->
EnsembleParams, ``coupling.*`` -> CouplingParams, ``mix.*`` -> SignalMix
over the StudyPreset reference loop; ``study.*``/``preset.*`` ->
StudyConfig); any other key, such as ``ramp.sample_rate`` (a scan is
sampled at ``instrument.sample_rate``), or a key given twice, is a data
error.  Exit codes: 0 success, 1 usage error, 2 data error, 3 fit
non-convergence, the one way a fit fails (partial output is still
printed); json output writes a missing or non-finite value as null.  The
ALIGNOR_OUT environment variable overrides the base output directory.
"""

import argparse
import json
import math
import os
from pathlib import Path
import sys

from .estimators import (
    DIPOLE_GEOMETRIES,
    BroadeningBudget,
    DipoleConfig,
    broadening_rate,
    cs_number_density,
    dipole_field,
    ensemble_volume,
)
from .fitkit import extract_transition, fit_record
from .instrument import lockin_demodulate, synthesize_record
from .recordio import config_section, load_config, read_record, write_record
from .study import (
    STUDY_KINDS,
    StudyPreset,
    report,
    run_study,
    study_config_from_dict,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_FIT = 3


class _UsageError(Exception):
    """Raised instead of argparse's default SystemExit(2)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}\n{self.format_usage()}")


# ---------------------------------------------------------------------------
# config and output


def _config(args, *sections) -> dict:
    """The --config file's flat dict ({} without one); keys of other
    sections raise ValueError."""
    flat = load_config(args.config) if args.config else {}
    if unread := sorted(k for k in flat if k.partition(".")[0] not in sections):
        raise ValueError(f"{args.config}: {args.command} reads no {unread}")
    return flat


def _out_dir(args) -> Path:
    env = os.environ.get("ALIGNOR_OUT")
    out = Path(args.out) if args.out else None
    if out is None:
        out = Path(env) if env else Path(".")
    elif env and not out.is_absolute():
        out = Path(env) / out
    return out


def _emit(rows, fmt: str):
    """Print (quantity, value, unit) rows as csv or json (non-finite as null)."""
    if fmt == "json":
        print(json.dumps({name: {"value": value if not isinstance(value, float)
                                 or math.isfinite(value) else None, "unit": unit}
                          for name, value, unit in rows}, indent=2, allow_nan=False))
    else:
        print("quantity,value,unit")
        for name, value, unit in rows:
            if isinstance(value, float):
                value = f"{value:.6g}"
            print(f"{name},{value},{unit}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    flat = _config(args, "ramp", "instrument", "physics", "coupling", "mix")
    if args.seed is not None:
        flat["instrument.seed"] = args.seed
    # defaults: the preset's live-latch loop at its reference ellipticity
    preset = StudyPreset()
    chi = preset.chi_deg
    ramp = config_section(flat, "ramp", preset.loop_ramp(chi, preset.residual_by_nt))
    cfg = config_section(flat, "instrument", preset.scan_config(ramp, seed=0))
    p = config_section(flat, "physics", preset.ensemble(chi))
    c = config_section(flat, "coupling", preset.coupling())
    mix = config_section(flat, "mix", preset.signal_mix())
    rec = synthesize_record(cfg, p, c, mix)
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    path = write_record(rec, out / "scan.txt")
    print(path)
    return EXIT_OK


def cmd_demod(args) -> int:
    rec = read_record(args.record)
    if not hasattr(rec, "sb_raw"):
        raise ValueError(f"{args.record}: expected a raw scan record")
    demod = lockin_demodulate(rec, phase_deg=args.phase_deg,
                              lpf_cutoff=args.lpf_cutoff, gain=args.gain)
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    path = write_record(demod, out / "demod.txt")
    print(path)
    return EXIT_OK


def cmd_fit(args) -> int:
    rec = read_record(args.record)
    if not hasattr(rec, "branch"):
        raise ValueError(f"{args.record}: expected a demodulated record")
    res = fit_record(rec)
    for w in res.warnings:
        print(f"warning: {w}", file=sys.stderr)
    rows = [(n, float(v), "nT" if n in ("w_anti", "w_sym", "center", "hysteresis_h") else "")
            for n, v in zip(res.param_names, res.params)]
    rows.append(("residual_rms", float(res.residual_rms), ""))
    rows.append(("converged", bool(res.converged), ""))
    if args.transition:
        tr = extract_transition(rec)
        rows += [("bx_up", tr.bx_up, "nT"), ("bx_down", tr.bx_down, "nT"),
                 ("loop_hysteresis", tr.hysteresis, "nT"), ("dt", tr.dt, "s")]
    _emit(rows, args.format)
    return EXIT_OK if res.converged else EXIT_FIT


def cmd_study(args) -> int:
    flat = _config(args, "study", "preset")
    if args.kind:
        flat["study.kind"] = args.kind
    if args.seed is not None:
        flat["study.seed"] = args.seed
    cfg = study_config_from_dict(flat)
    res = run_study(cfg, _out_dir(args))
    converged = sum(pt.fit_converged for pt in res.points)
    print(f"study {cfg.kind}: {len(res.points)} points "
          f"({converged} converged), {len(res.trends)} trend fits "
          f"-> {res.out_dir}")
    return EXIT_OK


def cmd_report(args) -> int:
    res = report(args.study_dir)
    print(f"report {res.config.kind}: {len(res.points)} points, "
          f"{len(res.trends)} trend fits -> {res.out_dir}")
    return EXIT_OK


def cmd_estimate(args) -> int:
    what = args.what
    if what == "broadening":
        budget = BroadeningBudget(p_in=args.p_in, k_lb=args.k_lb,
                                  k_serf=args.k_serf, k_ls=args.k_ls)
        rows = [("broadening_rate", broadening_rate(budget), "nT/deg")]
    elif what == "dipole":
        d = DipoleConfig(n_atoms=args.n, distance_mm=args.l_mm,
                         geometry=args.geometry)
        rows = [("dipole_field", dipole_field(d), "nT")]
    elif what == "volume":
        volume_mm3, side_mm = ensemble_volume(args.n, args.density)
        rows = [("volume", volume_mm3, "mm^3"), ("cube_side", side_mm, "mm")]
    else:  # density
        rows = [("number_density", cs_number_density(args.temp_c), "cm^-3")]
    if any(not math.isfinite(v) for _, v, _ in rows
           if isinstance(v, float)):
        raise ValueError("estimate produced a non-finite value")
    _emit(rows, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


# the options shared by name between subcommands; each takes only those
# its handler reads
_COMMON = {
    "--seed": dict(type=int, help="override the simulation seed"),
    "--config": dict(help="flat key=value config file"),
    "--out": dict(help="output directory (default: ALIGNOR_OUT or .)"),
    "--format": dict(choices=("csv", "json"), default="csv",
                     help="result output format"),
}


def _command(sub, name, func, common=(), **kwargs) -> _Parser:
    p = sub.add_parser(name, **kwargs)
    for flag in common:
        p.add_argument(flag, **_COMMON[flag])
    p.set_defaults(func=func)
    return p


def build_parser() -> _Parser:
    parser = _Parser(prog="alignor",
                     description="Simulate and analyze bistable "
                                 "hysteresis scan records.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    _command(sub, "simulate", cmd_simulate, ("--seed", "--config", "--out"),
             help="synthesize one raw scan record")

    p = _command(sub, "demod", cmd_demod, ("--out",),
                 help="lock-in demodulate a raw scan record")
    p.add_argument("record", help="scan record file")
    p.add_argument("--phase-deg", type=float, default=0.0)
    p.add_argument("--lpf-cutoff", type=float, default=0.5)
    p.add_argument("--gain", type=float, default=1.0)

    p = _command(sub, "fit", cmd_fit, ("--format",),
                 help="fit the composite contour to a demod record")
    p.add_argument("record", help="demodulated record file")
    p.add_argument("--transition", action="store_true",
                   help="also report transition fields and flip duration")

    p = _command(sub, "study", cmd_study, ("--seed", "--config", "--out"),
                 help="run a parameter-sweep study")
    p.add_argument("--kind", choices=STUDY_KINDS)

    p = _command(sub, "report", cmd_report,
                 help="regenerate tables/figures from a study directory")
    p.add_argument("study_dir", help="directory containing points.txt")

    p = sub.add_parser("estimate", help="physical back-of-the-envelope estimates")
    est = p.add_subparsers(dest="what", required=True, parser_class=_Parser)
    e = _command(est, "broadening", cmd_estimate, ("--format",))
    e.add_argument("--p-in", type=float, default=BroadeningBudget.p_in,
                   help="pump power, mW")
    e.add_argument("--k-lb", type=float, default=BroadeningBudget.k_lb)
    e.add_argument("--k-serf", type=float, default=BroadeningBudget.k_serf)
    e.add_argument("--k-ls", type=float, default=BroadeningBudget.k_ls)
    e = _command(est, "dipole", cmd_estimate, ("--format",))
    e.add_argument("--n", type=float, required=True, help="number of atoms")
    e.add_argument("--l-mm", type=float, required=True, help="distance, mm")
    e.add_argument("--geometry", choices=DIPOLE_GEOMETRIES,
                   default=DipoleConfig.geometry)
    e = _command(est, "volume", cmd_estimate, ("--format",))
    e.add_argument("--n", type=float, required=True, help="number of atoms")
    e.add_argument("--density", type=float, default=2e14,
                   help="number density, cm^-3")
    e = _command(est, "density", cmd_estimate, ("--format",))
    e.add_argument("--temp-c", type=float, required=True,
                   help="cell temperature, deg C")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(e, file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as e:  # the --help path
        return int(e.code or 0)
    try:
        return args.func(args)
    # OverflowError: an integer setting or meta value too large for a float
    except (ValueError, KeyError, TypeError, OSError, OverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
