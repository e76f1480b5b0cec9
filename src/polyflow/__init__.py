"""Volume-gradient flow on the configuration sphere.

Polyhedral elements carry closed-form tangent fields that are gradients
of their mean volume on the sphere of configurations modulo translation
and scaling.  Integrating the field regularizes single elements;
scatter-averaging it over a mesh smooths the mesh; the Jacobian spectrum
at the flow's fixed points verifies the critical-manifold structure.
"""

from .chains import cross, nu, tet_signed_volume
from .sphere import (DegenerateConfigurationError, is_collinear, pi, psi,
                     push_tangent, sigma, tau)
from .elements import (EDGES, GRADIENT, KINDS, Q_MAX, QUAD_FACES,
                       TRIANGULATIONS, VARIANTS_BY_KIND, VERTEX_COUNT,
                       Y_VARIANT, collinear_tetrahedron, f_value, field,
                       field_batch, field_from_triangulations, level0_pyramid,
                       mean_volume, mean_volume_batch, reference_optimal,
                       triangulations)
from .flow import (FlowDivergenceError, FlowSettings, SingularityClass,
                   Trajectory, classify, integrate, integrate_batch,
                   shape_metrics, singularity_residual, trajectory_to_csv)
from .spectral import (Spectrum, asymmetry_ratio, collinear_signature,
                       field_jacobian, hessian_spectrum, hessian_spectrum_batch,
                       pushed_field)
from .mesh import (Mesh, MeshFormatError, QualityReport, SmoothSettings,
                   load_mesh, mesh_from_dict, mesh_mean_volume, mesh_to_dict,
                   quality_report, quality_to_csv, save_mesh, smooth,
                   smooth_step)
from .sampling import Lcg, random_configuration

__version__ = "0.1.0"
