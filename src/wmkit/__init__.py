"""Toolkit for green/red-list watermarking of token-sequence generators.

Decoders couple the model's next-token distribution with a keyed
restriction so the token marginal is unchanged while keyed pivot uniforms
become detectably small.  The package bundles the decoders, the detection
tests (sum, higher criticism, order-statistic max, plus scheme-specific
baselines), key handling, post-generation attacks, synthetic model
sources, and the sparse-mixture power-study harness behind the ``wmkit``
command-line tool.
"""

from .core import (
    GOLDEN,
    EmptyVector,
    GeneratedText,
    NegativeEntry,
    NotNormalized,
    RngStream,
    fold64,
    make_ntp,
    mix64,
)
from .keying import (
    KeyFormatError,
    WatermarkKey,
    derive_seed,
    derive_zeta,
    format_key,
    green_mask,
    is_green,
    keyed_permutation,
    parse_key,
)
from .decoders import (
    Branch,
    DecoderConfig,
    GenerationResult,
    Scheme,
    StepResult,
    VocabMismatch,
    generate,
    sample_rejection_coupling,
)
from .detection import (
    DetectionReport,
    HcDenom,
    Side,
    Statistic,
    calibrate_null,
    detect,
    detect_baseline,
    extract_scores,
    hc_statistic,
    irwin_hall_cdf,
    max_test,
    sum_test,
)
from .lm import (
    EndOfTrace,
    MalformedTrace,
    MarkovSource,
    TraceSource,
    load_trace,
    parse_model_spec,
    save_trace,
)
from .attacks import (
    AttackConfig,
    SpecDecStats,
    specdec_postprocess,
    substitute,
)
from .simulation import (
    PowerCurve,
    Regime,
    RegimeConfig,
    boundary_scan,
    run_power,
)

__version__ = "0.1.0"
