"""Linearization spectra at the optimal shapes.

At each kind's optimum the projected-field Jacobian has strictly
negative eigenvalues in all shape directions (the optimum attracts) and
exactly six zero modes from translations and rotations.  Mirroring the
shape negates the spectrum: the mirrored optimum repels the ascent.
Each pair's optimum and its mirror are one batch of
``hessian_spectrum_batch``.
"""

import numpy as np

import polyflow as pf

mirror = np.array([1.0, 1.0, -1.0])
for kind in pf.KINDS:
    p = pf.reference_optimal(kind)
    for variant in pf.VARIANTS_BY_KIND[kind]:
        spec, mirrored = pf.hessian_spectrum_batch(kind, variant, np.stack([p, p * mirror]))
        for name, s in (("optimum", spec), ("mirrored", mirrored)):
            groups = ", ".join(f"{v:+.4f} (x{m})" for v, m in s.groups if abs(v) > 1e-6)
            print(f"{kind:12s} {variant:22s} {name:9s} nonzero: {groups}")
        print(f"{'':12s} {'':22s} {'':9s} zero modes: {spec.zero_count}, "
              f"asymmetry: {spec.asymmetry_ratio:.1e}")

print()
print("the prism y field is the one genuinely non-gradient flow:")
for kind, variant in [("prism", pf.GRADIENT), ("prism", pf.Y_VARIANT),
                      ("hexahedron", pf.Y_VARIANT)]:
    r = pf.asymmetry_ratio(kind, variant,
                           pf.pi(np.random.default_rng(0).normal(size=(pf.VERTEX_COUNT[kind], 3))))
    print(f"  {kind}/{variant}: Jacobian asymmetry {r:.2e}")
