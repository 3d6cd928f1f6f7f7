"""Fit a deliberately misspecified probit model and look at its residuals.

The data come from an irregular nonlinear binary process; the working model
is a straight-line probit. Surrogate, Pearson, and SBS residuals all carry
the lack-of-fit signature, and each panel is exported as CSV for plotting.
"""

import numpy as np

import lrboot as lb
from lrboot import residuals, simlab
from lrboot.rng import substream

ds = simlab.generate("Example1", seed=1)
spec = simlab.get_scenario("Example1").assumed
fit = lb.fit_qmle(ds, spec)

print(f"n = {ds.n}, fitted coefficients (standardized x):")
for name, value in zip(fit.coef_names, fit.coef):
    print(f"  {name:>10} = {value: .4f}")
print(f"converged in {fit.iterations} Newton iterations, "
      f"max |score| = {fit.grad_norm:.2e}")

sur = residuals.compute(fit, ds, "surrogate", rng=substream(7))
pea = residuals.compute(fit, ds, "pearson")
sbs = residuals.compute(fit, ds, "sbs")

for res in (sur, pea, sbs):
    path = f"example1_{res.kind}_residuals.csv"
    residuals.to_csv(res, path)
    print(f"wrote {path}  (range {res.values.min():.2f} .. {res.values.max():.2f})")

# a well-specified model would leave surrogate residuals looking N(0,1);
# here the gaps and skew betray the misspecification
hist, edges = np.histogram(sur.values, bins=12, range=(-3, 3))
print("\nsurrogate residual histogram (-3..3):")
for count, lo, hi in zip(hist, edges[:-1], edges[1:]):
    print(f"  [{lo: .1f},{hi: .1f}) {'#' * int(60 * count / max(hist.max(), 1))}")
