"""grwlab: a numerical laboratory for reweighted gradient-descent training.

Train linear models, wide NTK-parameterized networks and their
linearizations under ERM, importance weighting, Group DRO and CVaR
reweighting, and check the outcomes against independent closed-form oracles:
the minimum-norm interpolator, the weighted-ridge optimum, the hard-margin
direction and the infinite-width erf kernel.
"""

from .data_io import (
    Dataset,
    export_trace,
    load_mnist_idx,
    margin_probe_set,
    paper_subset,
    read_trace_csv,
    synth_groups,
)
from .errors import (
    DivergedError,
    FormatError,
    GrwLabError,
    InvalidArgumentError,
    NoConvergenceError,
    NotSeparableError,
    RankDeficientError,
    TraceIoError,
    UnsupportedError,
)
from .losses import Logistic, PolyTailed, Squared, loss_grad, loss_value, parse_loss
from .models import (
    Architecture,
    LinearizedNet,
    LinearModel,
    ModelParams,
    WideNet,
    linearize,
    nn_init,
    parse_model,
)
from .oracles import (
    KernelSpec,
    MarginSolution,
    max_margin_bruteforce,
    max_margin_direction,
    min_norm_interpolator,
    ntk_limiting_kernel,
    ntk_limiting_kernel_mc,
    ridge_closed_form,
    robust_risks,
)
from .reweighting import (
    GroupInfo,
    WeightState,
    check_assumption1,
    cvar_weights,
    erm_weights,
    gdro_step,
    iw_weights,
    parse_scheme,
)
from .trainer import TrainConfig, TrainTrace, compare_runs, safe_learning_rate, train

__version__ = "0.1.0"
