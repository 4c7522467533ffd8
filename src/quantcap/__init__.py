"""Capacity tools for the power-constrained AWGN channel with quantized output."""

__version__ = "0.1.0"

from .channel import (
    ChannelSpec,
    InputDistribution,
    OutputBinZeroError,
    OutputPmf,
    Quantizer,
    mutual_information,
)
from .bounds import minimize_max_affine
from .optimize import (
    CapacityResult,
    GridConfig,
    duality_upper_bound,
    onebit_capacity,
    optimize_input_blahut_arimoto,
    optimize_input_cutting_plane,
)
from .quantopt import (
    BenchmarkScheme,
    JointResult,
    benchmark_error_probability,
    benchmark_fano_lower_bound,
    benchmark_mutual_information,
    optimize_quantizer,
    snr_for_spectral_efficiency,
    unquantized_capacity,
)
from .report import ReportTable, RunManifest, render_report, write_csv, write_jsonl
from .special import (
    binary_entropy,
    convexity_witness,
    gaussian_q,
    hq_of_sqrt,
    second_derivative_scan,
)

__all__ = [
    "__version__",
    "gaussian_q",
    "binary_entropy",
    "hq_of_sqrt",
    "convexity_witness",
    "second_derivative_scan",
    "Quantizer",
    "ChannelSpec",
    "InputDistribution",
    "OutputPmf",
    "OutputBinZeroError",
    "mutual_information",
    "GridConfig",
    "CapacityResult",
    "onebit_capacity",
    "optimize_input_cutting_plane",
    "optimize_input_blahut_arimoto",
    "minimize_max_affine",
    "duality_upper_bound",
    "BenchmarkScheme",
    "JointResult",
    "benchmark_mutual_information",
    "benchmark_error_probability",
    "benchmark_fano_lower_bound",
    "optimize_quantizer",
    "unquantized_capacity",
    "snr_for_spectral_efficiency",
    "RunManifest",
    "ReportTable",
    "write_csv",
    "write_jsonl",
    "render_report",
]
