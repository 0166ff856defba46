"""Narrative demo: one bistable scan from field sweep to fitted contour.

Measures the reference operating point with ``measure_point`` -- a
live-latch triangle loop plus the two prepared-state envelope scans,
demodulated, fitted with the composite contour and timed at the flip --
which returns the point and its three demod records, then plots the
overlaid branches.  Outputs land in demos/output/.
"""

from pathlib import Path

from alignor import Series, StudyPreset, emit_plot, measure_point, write_record

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

preset = StudyPreset()
p = preset.ensemble(preset.chi_deg)
c = preset.coupling()

print(f"operating point: chi = {preset.chi_deg} deg, "
      f"latched field = {c.latched_field:.2f} nT, "
      f"resonance width = {p.width_nt:.2f} nT")

pt, recs = measure_point(preset, preset.chi_deg, preset.residual_by_nt, 0.0, seed=0)
loop, env_plus, env_minus = recs["loop"], recs["env_plus"], recs["env_minus"]
write_record(loop, OUT / "loop.txt")

print(f"transitions at B_x = {pt.bx_up:+.2f} / {pt.bx_down:+.2f} nT, "
      f"loop hysteresis {pt.loop_hysteresis:.2f} nT")
print(f"flip duration {pt.dt * 1e3:.0f} ms -> effective transverse field "
      f"{pt.b_yeff:.2f} nT (configured {c.latched_field:.2f} nT)")
print(f"composite fit (converged={pt.fit_converged}): "
      f"antisymmetric a={pt.a_anti:.3f}, w={pt.w_anti:.2f} nT; "
      f"symmetric a={pt.a_sym:.3f}, w={pt.w_sym:.2f} nT; "
      f"H={pt.hysteresis_h:.2f} nT")

# a demod record holds both branches, the up rows (branch +1) first; the
# envelopes sweep up only
up, down = loop.branch > 0, loop.branch < 0
emit_plot([Series("loop up", loop.bx[up], loop.s[up]),
           Series("loop down", loop.bx[down], loop.s[down]),
           Series("envelope +", env_plus.bx, env_plus.s, dashed=True),
           Series("envelope -", env_minus.bx, env_minus.s, dashed=True)],
          OUT / "hysteresis_loop.svg", title="bistable scan contour",
          xlabel="B_x (nT)", ylabel="demodulated signal")
print(f"wrote {OUT / 'loop.txt'} and {OUT / 'hysteresis_loop.svg'}")
