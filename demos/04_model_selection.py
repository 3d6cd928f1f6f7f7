"""Ranking candidate models by bootstrapped loss and prediction error.

Four working models compete for data whose truth none of them contains; the
in-sample loss and the optimism-corrected prediction error both identify the
least misspecified candidate when the bootstrap recreates responses locally.
"""

from lrboot import simlab
from lrboot.bootstrap import BootstrapMethod
from lrboot.selection import CandidateSet, cr1, cr2, rank_models

ds = simlab.generate("CaseII", seed=3)
cands = CandidateSet(
    simlab.case2_candidates(), ds, BootstrapMethod.parse("lrb-surrogate", l=13), B=500
)

true_ranks = {
    "probit-(x1,x2)": 4,
    "logit-(x1,x2,x1^2)": 3,
    "logit-(x1,x2,x1x2)": 2,
    "probit-(x1,x2,x1x2)": 1,
}

for criterion in ("L", "Gamma"):
    report = rank_models(cands, criterion, seed=11)
    print(f"\ncriterion {criterion}:")
    print(report.to_table())
    est = dict(zip(report.labels, report.ranks))
    t = [true_ranks[k] for k in report.labels]
    e = [est[k] for k in report.labels]
    print(f"CR1 = {cr1(t, e):.2f}   CR2 = {cr2(t, e):.2f}")
