"""Exact computations for group-graded fusion categories and their modules."""

from . import errors  # noqa: F401
from .scalar import (Scalar, Unit, cyclotomic_polynomial, scalar_arith,  # noqa: F401
                     unit_roots)
from .algebra import (FiniteGroup, GSet, Subgroup, coset_gset, cyclic_group,  # noqa: F401
                      direct_product, disjoint_union_gset, orbits, point_gset,
                      product_embeddings, regular_gset, restrict_gset,
                      smith_normal_form, solve_mod, stabilizer)
from .cohomology import (UnitCochain, cohomologous, deligne_omega,  # noqa: F401
                         differential, inflate, is_coboundary, is_cocycle,
                         normalize, omega_bar, omega_cyclic, shapiro_restrict)
from .fusion import (FusionData, dim, fusion_6j, pivotal_structures,  # noqa: F401
                     spherical_structures)
from .modcat import (BimoduleCategoryData, IndecomposableClass,  # noqa: F401
                     ModuleCategoryData, ModuleTrace, ValidationReport,
                     bimod_to_deligne, bimodule_trace, classify_indecomposable,
                     deligne_to_bimod, equivalent_modcats, is_indecomposable,
                     make_modcat, modcats_for, module_trace,
                     regular_module_category, validate_bimodcat,
                     validate_modcat)
from .modfun import (BimoduleFunctorData, ModuleFunctorData, NatTransData,  # noqa: F401
                     SimpleFunctorClass, action_functor, adjoint,
                     bimodfun_to_deligne, classify_simple_cyclic,
                     count_simple_cyclic, deligne_to_bimodfun, direct_sum,
                     functor_from_equivariant, hom_basis, hom_dimension,
                     identity_functor, invertible_hom, orbit_decompose,
                     validate_bimodfun, validate_modfun, validate_nat_trans)
from .sixj import (KINDS, SixJContext, SixJQuery, SixJValue,  # noqa: F401
                   bimodule_context, functor_context, fusion_context, sixj,
                   sixj_table, verify_biedenharn_elliott, verify_orthogonality)

__version__ = "0.1.0"


# The command-line layer loads on first use, so that ``python -m twistcat.cli``
# runs cli.py once, as __main__, instead of importing it first as a submodule.
def __getattr__(name):
    if name in ("SessionConfig", "parse_config"):
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
