"""Regularize a single element: from a random tangle to the optimal shape.

Draws a seeded random tetrahedron, integrates the normalized
volume-gradient flow on the configuration sphere, and reports how the
edge-length spread collapses along the way.  The same recipe works for
any supported kind; swap the kind string below.
"""

import numpy as np

import polyflow as pf

KIND = "tetrahedron"
SEED = 42

p0 = pf.pi(pf.random_configuration(KIND, SEED))
f0 = pf.f_value(KIND, pf.GRADIENT, p0)
m0 = pf.shape_metrics(KIND, p0)
print(f"seed {SEED}: f = {f0:+.6f}, edge spread = {m0['edge_length_spread']:.3f}")

traj = pf.integrate(KIND, pf.GRADIENT, p0, pf.FlowSettings(step=0.05))

# milestones: every ~25th recorded iteration
for row in traj.points[:: max(1, len(traj.points) // 8)]:
    it, p, f, res, lam = row
    spread = pf.shape_metrics(KIND, p)["edge_length_spread"]
    print(f"  iter {it:4d}  f {f:+.6f}  residual {res:.2e}  spread {spread:.2e}")

cls = pf.classify(KIND, pf.GRADIENT, traj.p_final)
mf = pf.shape_metrics(KIND, traj.p_final)
print(f"converged: {traj.converged} after {traj.iterations} iterations "
      f"({traj.monotone_breaks} downhill steps)")
print(f"classification: {cls.tag} (lambda = {cls.lam:+.6f})")
print(f"final edge spread: {mf['edge_length_spread']:.2e}  "
      f"(a regular tetrahedron has spread 0)")

# negatively oriented seeds ascend through the flat set and regularize too
for seed in range(20):
    q = pf.pi(pf.random_configuration(KIND, seed))
    if pf.f_value(KIND, pf.GRADIENT, q) < 0:
        t = pf.integrate(KIND, pf.GRADIENT, q, pf.FlowSettings())
        print(f"negative seed {seed}: ends {pf.classify(KIND, pf.GRADIENT, t.p_final).tag} "
              f"after {t.iterations} iterations")
        break
