"""Contract design against experts who can learn before advising.

The library computes how much a testable-announcement contract is worth to
an expert who may acquire information first (by concavifying the payoff net
of learning costs over the belief simplex), the fallback values of
uninformed experts, and contracts that separate the two.
"""

from .costs import (
    CostModel,
    FixedMenu,
    PosteriorSeparable,
    Potential,
    distribution_cost,
    neg_entropy,
    potential_by_name,
    quadratic,
)
from .envelopes import Envelope1d, SimplexEnvelope, concavify_1d, concavify_lp
from .errors import (
    AssumptionViolated,
    BoundaryPrior,
    CavscreenError,
    ConfigError,
    DimensionMismatch,
    EmptyGrid,
    EmptySupport,
    InfeasibleBarycenter,
    InfinitePotential,
    NoFeasibleU,
    NotCertified,
    SearchExhausted,
    ZeroProbabilitySignal,
)
from .experiments import (
    Experiment,
    fully_informative,
    induced_posterior_distribution,
    null_experiment,
    posterior,
    symmetric_binary,
    upsilon,
    upsilon_batch,
)
from .informed import (
    InformedResult,
    informed_value,
    informed_value_sweep,
)
from .oracle import (
    MaximinSolution,
    brute_force_two_point_search,
    lp_maximin,
)
from .screening import (
    AssumptionCertificate,
    Construction,
    ScreeningReport,
    XiScreenResult,
    assumption_probe,
    construct_screening_contract,
    design_binary_contract,
    prop2_contract,
    rejection_measure,
    screens,
    uninformed_maximin,
    xi_screen_search,
)
from .simplex import (
    Belief,
    Contract,
    PosteriorDistribution,
    ball_grid,
    belief2,
    default_resolution,
    degenerate,
    simplex_grid_array,
    uniform_belief,
)
from .traces import (
    FigureTraces,
    binary_figure_traces,
    figure_table,
    learning_regions,
    write_csv,
    write_svg,
)
from .values import DecisionProblem, SimpleAnnouncement, UrnDraw

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
