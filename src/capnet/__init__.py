"""CAPTCHA vulnerability analysis: generator, from-scratch CNN solver, reports."""

from .capgen import (
    CaptchaSample,
    Charset,
    Dataset,
    DistortionSpec,
    generate_dataset,
    render_captcha,
    sample_text,
)
from .datapipe import (
    encode_label,
    load_dataset,
    normalize,
    read_pgm,
    save_dataset,
    write_pgm,
)
from .errors import (
    CapacityError,
    CapnetError,
    ConfigError,
    DatasetIOError,
    DimensionError,
    DomainError,
    ModelFormatError,
    ParameterError,
    ValidationError,
)
from .model import (
    CapNet,
    History,
    Metrics,
    ModelConfig,
    TrainConfig,
    build_model,
    emit_history,
    evaluate,
    load_model,
    save_model,
    train,
)
from .optim import AdamHyper, AdamOptimizer, SgdOptimizer, adam_step, bce_loss
from .tensor import Rng
from .vulnscan import (
    OracleModel,
    UncertaintyScore,
    VulnReport,
    analyze,
    emit_report,
    uncertainty,
)

__version__ = "0.1.0"
