"""Choosing the neighborhood size by subsample matching.

Candidate sizes are scored by how closely their subsample standard-error
estimates track the full-data estimate; the winner is rescaled by the
(n/m)^(1/3) law and iterated until stable. Demo-scale settings keep this
under a minute; drop the overrides for the full defaults.
"""

from lrboot import simlab
from lrboot.neighborhood import select_size

ds = simlab.generate("SC1_probit", n=800, seed=5)
spec = simlab.get_scenario("SC1_probit").assumed

trace = select_size(
    ds, spec, "surrogate",
    grid=(2, 4, 6, 8, 10, 12),
    K=8, B_inner=120, seed=9,
)

print(f"subsamples: K={trace.K} of size m={trace.m}, inner B={trace.B_inner}")
print(f"{'candidate':>10} {'mean subsample se':>18}")
for q, l_q in enumerate(trace.grid):
    print(f"{l_q:>10} {trace.subsample_se[:, q].mean():>18.5f}")

print("\niteration trail:")
for it in trace.per_iteration:
    print(
        f"  l={it['l_hat']:>3} -> full-data se {it['psi_hat']:.5f}; "
        f"best grid match {it['chosen_grid']} -> next l={it['l_next']}"
    )
print(f"\nselected neighborhood size: {trace.final_l} "
      f"({'converged' if trace.converged else 'iteration cap hit'})")
