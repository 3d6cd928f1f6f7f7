"""Standard errors under misspecification: local residual bootstrap against
the classical alternatives.

On a quadratic-in-disguise binary process fitted with a straight-line probit,
the parametric bootstrap badly overstates the slope's standard error while
resampling residuals within covariate neighborhoods stays on target.
"""

from lrboot import simlab
from lrboot.bootstrap import BootstrapMethod, p_value, run

ds = simlab.generate("SC1_probit", n=2000, seed=3)
spec = simlab.get_scenario("SC1_probit").assumed

methods = [
    BootstrapMethod.lrb("surrogate", 10),
    BootstrapMethod.lrb("sbs", 10),
    BootstrapMethod.lrb("pearson", 10),
    BootstrapMethod.classical_residual("surrogate"),
    BootstrapMethod.parametric(),
    BootstrapMethod.pairwise(),
    BootstrapMethod.wild(),
    BootstrapMethod.multiplier(),
]

print(f"{'method':<22} {'se(slope)':>10} {'95% CI (normal)':>24} {'p (b1=0)':>9}")
for method in methods:
    out = run(ds, spec, method, B=500, seed=11)
    slope = out.provenance["first_slope"]
    lo, hi = out.ci_normal[slope]
    p = p_value(out.replicates[:, slope], 0.0, "two_sided")
    print(
        f"{method.label:<22} {out.se_hat[slope]:>10.5f} "
        f"{f'[{lo:.4f}, {hi:.4f}]':>24} {p:>9.3f}"
    )

print(
    "\nThe local methods agree with each other; the global ones inflate the "
    "uncertainty because they destroy the residual-vs-covariate pattern."
)
