"""Numerical laboratory for truncated Toeplitz operators on model spaces."""

__version__ = "0.1.0"

from .circle import (BoundaryGrid, CircleFunction, FourierPolynomial,
                     inner_product, lp_norm)
from .inner import (Atom, BlaschkeProduct, BlaschkeZero, BoundaryPoint,
                    InnerFunction, Monomial, PowerInner, ProductInner,
                    SingularAtomic, cohn_sum, divides, from_json,
                    has_angular_derivative, power)
from .modelspace import ModelFunction, ModelSpace, tm_basis
from .operators import (BoundarySymbol, MeasureSymbol, PairSymbol, SampleSet,
                        TTOperator, adjoint, build, decompose,
                        measure_operator, operator_norm, rank_one_operator,
                        rho, rho_d, rho_r, rho_scan_rows, standard_symbol,
                        write_rho_scan_csv)
from .recovery import (KernelActionOracle, RecoveredSymbol, rank_one_symbol,
                       recover, recover_via_k0)
from .boundedsym import (BoundedSymbolResult, CFExtension, FejerWindowSet,
                         assemble_bounded_symbol, blaschke_transport,
                         central_bound_check, fejer_kernel, fejer_split,
                         minimal_analytic_extension)
from .counterex import (CounterexampleFamily, cls_ratio_scan,
                        counterex_theorem_check, gen_blaschke_counterexample,
                        gen_singular_counterexample, growth_ratio,
                        rkt_failure_scan)
