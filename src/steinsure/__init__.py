"""steinsure: unbiased risk estimation with second-order refinements.

Core pieces: reproducible streams and chi-square quantiles (``core``),
l1/ridged-l1 coordinate descent and singular value thresholding with
analytic divergences (``solvers``), the risk-identity estimators,
verifiers and confidence machinery (``stein``), risk-estimate tuning and
its adversarial pair (``selection``), Monte Carlo divergences
(``divergence_mc``), de-biased linear contrasts (``debias``), and the
experiment harness with serialization (``harness``).
"""

from .core import (RegressionProblem, RngStream, chi_square_quantile,
                   gaussian_design)
from .solvers import (BatchUnconverged, FitResult, KktReport, SvtResult,
                      check_kkt, fit_lasso, fit_lasso_batch, soft_threshold,
                      support_spectrum, svt, svt_jacobian_eigenvalues)
from .stein import (ConfidenceInterval, IdentityReport, SureReport,
                    data_driven_confidence, divergence_variance_bound,
                    loss_confidence_region, model_size_ci,
                    model_size_variance_bound, sure, sure_diff,
                    sure_for_sure, sure_from_fit, verify_sos_identity)
from .selection import (adversarial_pair, max_gap_bound,
                        selection_gap_bound, squared_risk_gap_bound,
                        sure_tune)
from .divergence_mc import DivergenceEstimate, mc_divergence
from .debias import DebiasReport, Direction, debias_theta, direction_setup

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
