"""The benchmark's workloads: inputs built from a seed, one timed pass, checks.

Each workload is built from the benchmark seed alone (``__init__``; this is
the part ``setup_s`` times), runs one closed-loop pass into a fresh output
directory (``run``), and checks a pass's outputs (``check``) against the
first pass of the same run (determinism), against brackets that hold at
every seed, and, at ``DEFAULT_SEED``, against reference outputs stored in
``reference/``.  ``check`` returns ``(op, message)`` problems, where ``op``
indexes the pass's operations; a failed operation counts once however many
problems it has.
"""

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

import alignor.cli
import alignor.study
from alignor.dynamics import SweepProtocol
from alignor.instrument import ScanConfig, synthesize_record
from alignor.recordio import read_record
from alignor.study import DEFAULT_GRIDS, POINT_COLUMNS, StudyConfig, StudyPreset

DEFAULT_SEED = 3
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-6  # stored-reference agreement for study points and CLI fit


def _load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


def _close(a, b) -> bool:
    return bool(np.all(np.isclose(np.asarray(a, float), np.asarray(b, float),
                                  rtol=REL_TOL, atol=0.0, equal_nan=True)))


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class StudyChi:
    """``run_study`` over the default ellipticity grid: 7 points x 3 scans."""

    name = "study_chi"
    samples_per_pass = 1_050_021   # 14 envelope scans x 37,501 + 7 loops x 75,001

    def __init__(self, seed: int):
        self.seed = seed
        self.config = StudyConfig(kind="chi_grid", grid=DEFAULT_GRIDS["chi_grid"],
                                  seed=seed)
        self.ops_per_pass = len(self.config.grid)

    def prepare(self):
        self.reference = _load_reference(self.name) \
            if self.seed == DEFAULT_SEED else None

    def run(self, out_dir: Path):
        res = alignor.study.run_study(self.config, out_dir / "study")
        return {"points": [pt.row() for pt in res.points],
                "converged": [pt.fit_converged for pt in res.points],
                "trends": res.trends,
                "points_txt": (res.out_dir / "points.txt").read_bytes(),
                "trends_txt": (res.out_dir / "trends.txt").read_bytes()}

    def reference_of(self, out) -> dict:
        return {"seed": self.seed, "columns": list(POINT_COLUMNS),
                "points": out["points"]}

    def check(self, out, first):
        every = range(self.ops_per_pass)
        problems = []
        if len(out["points"]) != self.ops_per_pass:
            return [(i, "wrong number of study points") for i in every]
        for i, ok in enumerate(out["converged"]):
            if not ok:
                problems.append((i, "fit did not converge"))
        if first is not None:
            rows = out["points_txt"].splitlines()
            first_rows = first["points_txt"].splitlines()
            if len(rows) != len(first_rows):
                problems += [(i, "points.txt differs from the first pass")
                             for i in every]
            else:
                header = len(rows) - self.ops_per_pass
                problems += [(i, "points.txt row differs from the first pass")
                             for i in every
                             if rows[header + i] != first_rows[header + i]]
            if out["trends_txt"] != first["trends_txt"]:
                problems += [(i, "trends.txt differs from the first pass")
                             for i in every]
        # criterion-10 brackets: linear width slopes and a hyperbolic loop width
        slopes = {t.quantity: t.params[0] for t in out["trends"]
                  if t.kind == "linear" and t.quantity in ("w_anti", "w_sym")}
        hyp = [t for t in out["trends"]
               if t.quantity == "loop_hysteresis" and t.kind == "hyperbola"]
        if len(slopes) != 2 or not all(4.0 <= s <= 6.0 for s in slopes.values()):
            problems += [(i, f"width slopes {slopes} outside [4, 6] nT/deg")
                         for i in every]
        if len(hyp) != 1 or not hyp[0].converged or not hyp[0].params[1] > 0:
            problems += [(i, "hyperbolic loop-width fit missing or b <= 0")
                         for i in every]
        if self.reference is not None:
            problems += [(i, "points row differs from the stored reference")
                         for i, (row, ref) in enumerate(
                             zip(out["points"], self.reference["points"]))
                         if not _close(row, ref)]
        return problems


# fit parameters compared with the stored reference and between passes
FIT_KEYS = ("a_anti", "w_anti", "a_sym", "w_sym", "center", "hysteresis_h",
            "offset", "residual_rms", "bx_up", "bx_down", "loop_hysteresis", "dt")


class CliRoundtrip:
    """``simulate -> demod -> fit`` through ``alignor.cli.main`` in-process."""

    name = "cli_roundtrip"
    samples_per_pass = 75_001   # one triangle scan at the reference preset
    ops_per_pass = 3

    def __init__(self, seed: int):
        self.seed = seed

    def commands(self, out_dir: Path):
        return (["simulate", "--seed", str(self.seed), "--out", str(out_dir)],
                ["demod", str(out_dir / "scan.txt"), "--lpf-cutoff", "2.0",
                 "--out", str(out_dir)],
                ["fit", str(out_dir / "demod.txt"), "--transition",
                 "--format", "json"])

    def prepare(self):
        self.reference = _load_reference(self.name) \
            if self.seed == DEFAULT_SEED else None
        # the scan `simulate` must write, built here from the same preset
        preset = StudyPreset()
        ramp = SweepProtocol(
            bx_start=-preset.bx_span_nt, bx_end=preset.bx_span_nt,
            rate=preset.ramp_rate, direction_pattern="triangle",
            static_by=preset.residual_by_nt, static_bz=preset.residual_bz_nt,
            ellipticity_deg=preset.chi_deg)
        cfg = ScanConfig(ramp=ramp, mod_amplitude=preset.mod_amplitude,
                         mod_freq=preset.mod_freq, sample_rate=preset.sample_rate,
                         noise_rms=preset.noise_rms, seed=self.seed)
        self.expected_scan = synthesize_record(
            cfg, preset.ensemble(preset.chi_deg), preset.coupling(),
            preset.signal_mix())

    def run(self, out_dir: Path):
        codes, stdout = [], []
        for argv in self.commands(out_dir):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                codes.append(alignor.cli.main(argv))
            stdout.append(buf.getvalue())
        return {"codes": codes, "fit_json": stdout[2], "dir": out_dir}

    def reference_of(self, out) -> dict:
        fit = json.loads(out["fit_json"])
        return {"seed": self.seed,
                "fit": {k: fit[k]["value"] for k in FIT_KEYS}}

    def _scan_matches(self, path: Path) -> bool:
        rec, exp = read_record(path), self.expected_scan
        return rec.meta == exp.meta and all(
            np.asarray(getattr(rec, f)).tobytes()
            == np.asarray(getattr(exp, f), float).tobytes()
            for f in ("t", "bx_ramp", "st_raw", "sb_raw", "direction"))

    def check(self, out, first):
        problems = [(i, f"exit code {code}") for i, code in enumerate(out["codes"])
                    if code != 0]
        scan, demod = out["dir"] / "scan.txt", out["dir"] / "demod.txt"
        if out["codes"][0] == 0:
            out["scan_sha"] = _digest(scan)
            # the first pass re-reads the scan against the in-memory record;
            # later passes must then write the very same bytes
            if first is None:
                if not self._scan_matches(scan):
                    problems.append((0, "re-read scan.txt differs from synthesize_record"))
            elif out["scan_sha"] != first.get("scan_sha"):
                problems.append((0, "scan.txt differs from the first pass"))
        if out["codes"][1] == 0:
            out["demod_sha"] = _digest(demod)
            if first is not None and out["demod_sha"] != first.get("demod_sha"):
                problems.append((1, "demod.txt differs from the first pass"))
        if out["codes"][2] == 0:
            fit = json.loads(out["fit_json"])
            values = [fit[k]["value"] for k in FIT_KEYS]
            if not fit["converged"]["value"] or not all(map(math.isfinite, values)):
                problems.append((2, "fit not converged or not finite"))
            elif not (fit["w_anti"]["value"] > 0 and fit["w_sym"]["value"] > 0
                      and fit["bx_up"]["value"] > fit["bx_down"]["value"]
                      and fit["loop_hysteresis"]["value"] > 0):
                problems.append((2, "fit outside the bistable-loop brackets"))
            if first is not None and out["fit_json"] != first["fit_json"]:
                problems.append((2, "fit output differs from the first pass"))
            if self.reference is not None and not _close(
                    values, [self.reference["fit"][k] for k in FIT_KEYS]):
                problems.append((2, "fit differs from the stored reference"))
        return problems


WORKLOADS = {w.name: w for w in (StudyChi, CliRoundtrip)}
