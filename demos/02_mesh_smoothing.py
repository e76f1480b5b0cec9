"""Smooth meshes by scatter-averaged element fields.

Two scenarios: a free-floating perturbed cube that recovers its shape,
and a two-tetrahedron mesh with a fixed boundary whose free apexes are
pushed toward the regular height.  Quality q is the mean volume of
the centered, unit-norm shape over the kind's optimum (q = 1 at the
optimal shape).
"""

import numpy as np

import polyflow as pf

rng = np.random.default_rng(11)

# scenario 1: perturbed unit cube, all vertices free
cube = pf.reference_optimal("hexahedron")
mesh = pf.Mesh(vertices=cube + rng.uniform(-0.1, 0.1, (8, 3)),
               elements=(("hexahedron", tuple(range(8))),),
               fixed=frozenset())
start = pf.quality_report(mesh)
smoothed, reports = pf.smooth(mesh, pf.SmoothSettings(step=0.05))
print("perturbed cube, all free:")
print(f"  min_q {start.min_q:.4f} -> {reports[-1].min_q:.10f} "
      f"in {len(reports) - 1} sweeps")
one = pf.smooth_step(mesh, pf.SmoothSettings(step=0.05))
print(f"  per-sweep centroid drift "
      f"{np.abs(one.vertices.mean(0) - mesh.vertices.mean(0)).max():.1e} "
      f"(zero-sum fields preserve it exactly)")
scale = np.abs(smoothed.vertices).max()
drift = np.abs(smoothed.vertices.mean(0) - mesh.vertices.mean(0)).max()
print(f"  free-floating volume ascent also inflates the scale (x{scale:.1e}); "
      f"relative centroid drift stays {drift / scale:.1e}")

# scenario 2: two tetrahedra over a fixed shared base
base = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                 [0.5, np.sqrt(3.0) / 2.0, 0.0]])
verts = np.vstack([base, [[0.5, 0.28, 0.25]], [[0.5, 0.3, -0.2]]])
mesh2 = pf.Mesh(vertices=verts,
                elements=(("tetrahedron", (0, 1, 2, 3)),
                          ("tetrahedron", (1, 0, 2, 4))),
                fixed=frozenset({0, 1, 2}))
start2 = pf.quality_report(mesh2)
smoothed2, reports2 = pf.smooth(mesh2, pf.SmoothSettings(step=0.01))
print("two tets, fixed base triangle:")
print(f"  min_q {start2.min_q:.4f} -> {reports2[-1].min_q:.4f} "
      f"in {len(reports2) - 1} sweeps (stops when min_q stagnates)")
print(f"  apex heights {verts[3, 2]:+.2f} / {verts[4, 2]:+.2f} moved to "
      f"{smoothed2.vertices[3, 2]:+.4f} / {smoothed2.vertices[4, 2]:+.4f}; "
      f"volume ascent keeps pushing apexes out, the quality window stops "
      f"past the peak")
print(f"  base vertices unchanged: "
      f"{np.array_equal(smoothed2.vertices[:3], verts[:3])}")
