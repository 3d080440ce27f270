"""Twin-beam photocurrent simulation and mutual-information delay analysis.

Library layout:

    trace      domain types (DigitizerSpec, Trace, TracePair, MICurve, ...)
    source     synthetic twin / split-thermal / split-coherent generation
    channel    loss + integrating-sphere delay kernel + electronic noise
    dsp        zero-phase band-pass, Welch difference spectra
    mi         histogram MI, incremental-histogram delay scan, curve utilities
    model      analytic channel model (closed form + quadrature oracle), fits
    design     in-band predictor, eta-matched transmission
    io         TWBM container and CSV formats
    config     run configuration and its JSON schema
    pipeline   end-to-end reproducible runs
    cli        command-line interface
"""

from .trace import (
    ChannelParams,
    DigitizerSpec,
    FitResult,
    MICurve,
    SourceParams,
    Trace,
    TracePair,
    validate_pair,
)
from .source import (
    NoiseBudget,
    gen_split_coherent,
    gen_split_thermal,
    gen_twin,
)
from .channel import apply_channel, apply_electronic_noise, apply_is_delay, apply_loss
from .dsp import SpectrumEstimate, bandpass, difference_spectrum
from .mi import (
    JointHistogram,
    average_curves,
    fwhm,
    histogram2d,
    mi_delay_scan,
    mi_from_hist,
    miller_madow_correction,
    normalize_curve,
)
from .model import (
    G_closed,
    G_numeric,
    exp_kernel_p,
    fit_channel,
    fit_gaussian,
    gaussian_g,
    model_fwhm,
    peak_value,
)
from .design import matched_transmission
from .config import RunConfig
from .pipeline import run_pipeline

__version__ = "0.1.0"

__all__ = [
    "ChannelParams", "DigitizerSpec", "FitResult", "MICurve", "SourceParams",
    "Trace", "TracePair", "validate_pair",
    "NoiseBudget", "gen_split_coherent", "gen_split_thermal", "gen_twin",
    "apply_channel", "apply_electronic_noise", "apply_is_delay", "apply_loss",
    "SpectrumEstimate", "bandpass", "difference_spectrum",
    "JointHistogram", "average_curves", "fwhm", "histogram2d", "mi_delay_scan",
    "mi_from_hist", "miller_madow_correction", "normalize_curve",
    "G_closed", "G_numeric", "exp_kernel_p", "fit_channel", "fit_gaussian",
    "gaussian_g", "model_fwhm", "peak_value",
    "matched_transmission", "RunConfig", "run_pipeline",
    "__version__",
]
