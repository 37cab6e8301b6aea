"""
Monte-Carlo cross-check
=======================

Draws the empirical output moments of 200,000 phase-space samples of a
machine's inputs pushed through its symplectic matrix, and compares
each output mode's moments against the analytic noise report.  The
moments come straight from their exact law (a normal mean and a
Wishart covariance), so no sample is drawn one by one, yet every
z-score has the law it would have if each sample were.  Agreement is
scored in standard errors; anything beyond five would be flagged.
"""

from pciclone import (
    CloningConfig,
    SampleConfig,
    build_machine,
    compare_to_analytic,
    noise_report,
    simulate,
)

config = CloningConfig(n_inputs=2, n_conj=1, m_clones=3)
transform, layout = build_machine(config)
samples = SampleConfig(sample_count=200_000, seed=42, psi=0.8 - 0.3j)

moments = simulate(transform, layout, samples)
summary = compare_to_analytic(moments, noise_report(config), layout)

print(f"(2,1) -> 3 clones + 2 anticlones, {samples.sample_count} samples, "
      f"psi = {samples.psi}")
print(f"{'mode':>4} {'role':>10} {'z mean x':>9} {'z mean p':>9} "
      f"{'z var x':>9} {'z var p':>9} {'z fid':>9}")
for row in summary.rows:
    print(f"{row.mode:>4} {row.role:>10} {row.z_mean_x:>9.2f} "
          f"{row.z_mean_p:>9.2f} {row.z_var_x:>9.2f} {row.z_var_p:>9.2f} "
          f"{row.z_fidelity:>9.2f}")
print(f"\nlargest |z| = {summary.max_abs_z:.2f}, "
      f"{'consistent' if summary.passed else 'INCONSISTENT'} "
      f"at the {summary.threshold:.0f} sigma level")
