"""Debiased explicit-feedback rating prediction.

Estimates observation propensities from logged ratings (popularity,
rating-value, joint item/rating, learned, or exact simulator tables), trains
inverse-propensity-weighted matrix factorization with concurrent or
alternating gradient descent, and ships a semi-synthetic bias generator plus
an experiment CLI.
"""

from .data import (
    RatingDataset,
    SplitBundle,
    RatingDataError,
    SplitError,
    load_ratings,
    save_ratings,
    split_biased,
    split_unbiased,
)
from .model import (
    MFParameters,
    init_params,
    predict_many,
    fit_avg,
    save_checkpoint,
    load_checkpoint,
)
from .propensity import (
    PropensityModel,
    PropensityError,
    uniform_propensities,
    estimate_positivity,
    estimate_popularity,
    estimate_multifactorial,
    estimate_mf_propensity,
    clip,
    normalize,
    prepare,
    score_many,
    save_propensity,
    load_propensity,
)
from .optim import (
    TrainConfig,
    AdamState,
    TrainResult,
    TrainingDivergedError,
    ips_loss,
    ips_gradient,
    adam_step,
    init_adam_state,
    train,
)
from .metrics import MetricReport, evaluate, summarize_runs, bootstrap_interval
from .sim import (
    SimulationSpec,
    SimulationResult,
    simulate,
    generate_engagement,
    convert_to_ratings,
    build_item_propensities,
    sample_observations,
    sample_unbiased,
)

__version__ = "0.1.0"
