"""Desk-scale coverage experiment: estimated-vs-true standard error ratios.

The pseudo-true standard error comes from Monte Carlo refits on a frozen
design, which the truth keeps; each bootstrap method is then scored on that
same design by how close its SE estimate lands and how often its intervals
cover the pseudo-true slope. Demo sizes are deliberately small; scale reps/B
up for publication-quality numbers.
"""

from lrboot import simlab
from lrboot.bootstrap import BootstrapMethod

truth = simlab.pseudo_truth("SC1_probit", n=500, reps=2000, seed=42)
slope = truth.first_slope
print(
    f"pseudo-true slope {truth.beta_dagger[slope]:.4f} "
    f"(psi = {truth.psi[slope]:.5f}) from {truth.reps} Monte Carlo refits"
)

report = simlab.run_experiment(
    [BootstrapMethod.lrb("surrogate", 10), BootstrapMethod.parametric()],
    truth,
    B=200,
    replications=30,
    levels=(0.95, 0.90),
    seed=7,
)

print(f"\n{'method':<16} {'se ratio':>9} {'cover 95%':>10} {'cover 90%':>10} {'width 95%':>10}")
for label, st in report.methods.items():
    print(
        f"{label:<16} {st.se_ratio:>9.3f} "
        f"{st.coverage[('nor', 0.95)]:>10.2f} {st.coverage[('nor', 0.90)]:>10.2f} "
        f"{st.width_mean[('nor', 0.95)]:>10.4f}"
    )

simlab.report_to_csv(report, "sc1_coverage_demo.csv", extra={"seed": 7})
print("\nwrote sc1_coverage_demo.csv")

# the quadratic coefficient controls the misspecification severity; positive
# values push the success probability to 1 everywhere, so sweep downward
sweep = simlab.sweep_param(
    "SC1_probit", "beta2", (-2.0, -1.0, -0.5),
    [BootstrapMethod.lrb("surrogate", 10), BootstrapMethod.parametric()],
    n=500, B=100, replications=10, reps_truth=800, seed=3,
)
simlab.sweep_to_csv(sweep, "beta2", "sc1_ratio_sweep_demo.csv")
print("wrote sc1_ratio_sweep_demo.csv (misspecification sweep)")
for beta2, ratios in sorted(sweep.items()):
    print(f"  beta2={beta2:+.0f}: " + "  ".join(f"{k}={v:.2f}" for k, v in ratios.items()))
