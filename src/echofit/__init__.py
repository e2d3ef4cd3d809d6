"""Forward models and nonlinear least-squares fitting for photon-echo
decay and linewidth data."""

from .constants import MU_B_OVER_K_B
from .models import (
    field_linewidth,
    field_linewidth_minimum,
    gamma_eff_from_tm,
    mims_intensity,
    sd_linewidth,
    sech2_sd_amplitude,
    stimulated_echo_intensity,
    temp_linewidth,
    three_level_population_factor,
    tm_from_gamma_eff,
)
from .catalog import CATALOG, get_model, gradient_check
from .fitting import FitConfig, FitError, FitResult, fit, fit_trials, multi_start_fit
from .guesses import GuessResult, initial_guess
from .synth import Modulation, SynthSpec, synth_scan, synth_trace
from .trace import EchoTrace, ScanTable, load_table, load_trace, write_table, write_trace
from .pipeline import batch_fit_2ppe, batch_fit_3ppe, emit_report, fit_table, run_demo
from . import presets

__version__ = "0.1.0"
