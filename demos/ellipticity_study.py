"""Narrative demo: sweep the pump ellipticity and fit the trends.

Runs the chi-grid study (width and amplitude growth of both contour
components, hyperbolic shrinking of the hysteresis loop), prints each
fitted trend parameter as value ± standard error, and leaves all tables,
records, and SVG figures in demos/output/chi_study/.
"""

from pathlib import Path

from alignor import StudyConfig, run_study
from alignor.study import DEFAULT_GRIDS

OUT = Path(__file__).parent / "output" / "chi_study"

# the study runs only as a script: importing the demo must not run a study
if __name__ == "__main__":
    cfg = StudyConfig(kind="chi_grid", grid=DEFAULT_GRIDS["chi_grid"], seed=3)
    res = run_study(cfg, OUT)

    print(f"{'chi (deg)':>10} {'w_anti':>8} {'w_sym':>8} {'H loop':>8} "
          f"{'B_yEff':>8} {'ok':>4}")
    for pt in res.points:
        print(f"{pt.x:10.2f} {pt.w_anti:8.2f} {pt.w_sym:8.2f} "
              f"{pt.loop_hysteresis:8.2f} {pt.b_yeff:8.2f} "
              f"{'yes' if pt.fit_converged else 'NO':>4}")

    print("\ntrend fits:")
    for tr in res.trends:
        pstr = ", ".join(f"{n}={v:.3g} ± {se:.2g}"
                         for n, v, se in zip(tr.param_names, tr.params, tr.stderr))
        print(f"  {tr.quantity:16s} ~ {tr.kind:10s} [{pstr}]  "
              f"rms {tr.residual_rms:.3g}")

    slopes = {t.quantity: f"{t.params[0]:.2f} ± {t.stderr[0]:.2f}" for t in res.trends
              if t.kind == "linear" and t.quantity.startswith("w_")}
    print(f"\nwidth growth: antisymmetric {slopes['w_anti']} nT/deg, "
          f"symmetric {slopes['w_sym']} nT/deg")
    hyp = next(t for t in res.trends
               if t.quantity == "loop_hysteresis" and t.kind == "hyperbola")
    print(f"hysteresis vs chi: H = ({hyp.params[0]:.2f} ± {hyp.stderr[0]:.2f}) "
          f"+ ({hyp.params[1]:.2f} ± {hyp.stderr[1]:.2f})/chi")
    print(f"\nall outputs in {OUT}")
