"""Colombeau generalized functions as epsilon-parameterized nets.

Subpackage map:

* asymptotic, gnumber, nets: order estimation, generalized numbers,
  function nets and seminorms.
* mollifier, embed: mollifier construction and distribution embedding.
* manifold: charts, atlases, partitions of unity, generalized points.
* gfunc: generalized functions on manifolds and association tests.
* tensor, forms: generalized tensor fields and exterior calculus.
* mechanics: symplectic structure and the singular oscillator.
* cli, experiments: reproducible experiment driver.
"""

from .asymptotic import AsymptoticFit, estimate_order
from .gnumber import GeneralizedNumber, gn_equal
from .grid import dyadic_grid
from .nets import Net, classify_net, sup_norm_on_box
from .smooth import SmoothFn

__all__ = [
    "AsymptoticFit",
    "estimate_order",
    "GeneralizedNumber",
    "gn_equal",
    "dyadic_grid",
    "Net",
    "classify_net",
    "sup_norm_on_box",
    "SmoothFn",
]

__version__ = "0.1.0"
