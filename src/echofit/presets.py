"""Bundled reference parameter sets.

These are the fitted values for the erbium-doped-fiber system the models
describe, at the named measurement conditions, together with their quoted
one-sigma uncertainties.  They drive the CLI presets, the demo pipeline
and the round-trip recovery studies.
"""

from .params import (
    FieldModelParams,
    SpectralDiffusionParams,
    TempModelParams,
    ThreeLevelParams,
)

# Field dependence of the effective linewidth at 7 mK.
FIELD_7MK = FieldModelParams(
    gamma0_khz=7.42,
    alpha1_khz=32.60,
    alpha2_khz=17.62,
    g1=0.3507,
    g2=0.0064,
)
FIELD_7MK_SIGMA = {
    "gamma0_khz": 0.14,
    "alpha1_khz": 0.32,
    "alpha2_khz": 0.49,
    "g1": 0.0092,
    "g2": 0.0004,
}

# Stimulated-echo spectral diffusion at 7 mK and 0.09 T; t0 is the
# smallest measured waiting time there.
SD_7MK_009T = SpectralDiffusionParams(
    gamma0_khz=7.96,
    gamma_sd_khz=37.77,
    r_sd_khz=1.02,
    gamma_tls_khz=12.24,
    t0_us=50.0,
)
SD_7MK_009T_SIGMA = {
    "gamma0_khz": 0.48,
    "gamma_sd_khz": 4.18,
    "r_sd_khz": 0.25,
    "gamma_tls_khz": 0.90,
}

# Population dynamics at the same condition: excited-state lifetime from
# an independent measurement, sublevel lifetime of order seconds.
THREE_LEVEL_7MK_009T = ThreeLevelParams(i0=1.0, t1_ms=9.0, tz_s=2.0, beta=0.2)

# Illustrative temperature law near 0.09 T (exponent from the measured
# fit; floor and amplitude chosen to match the observed scale).
TEMP_009T = TempModelParams(floor_khz=7.5, amp_khz=45.0, exponent_n=1.34)

# Fixed t12 values (microseconds) of the waiting-time scans.
T12_SET_US = (0.09, 0.33, 1.068)

# Named CLI presets: model id, parameter dict, and the fixed quantities
# needed to evaluate or synthesize at that condition.
PRESETS = {
    "field-7mK": {
        "model_id": "field",
        "params": FIELD_7MK.to_dict(),
    },
    "3ppe-7mK-0.09T": {
        "model_id": "echo3",
        "params": {
            "i0": THREE_LEVEL_7MK_009T.i0,
            "beta": THREE_LEVEL_7MK_009T.beta,
            "gamma0_khz": SD_7MK_009T.gamma0_khz,
            "gamma_sd_khz": SD_7MK_009T.gamma_sd_khz,
            "r_sd_khz": SD_7MK_009T.r_sd_khz,
            "gamma_tls_khz": SD_7MK_009T.gamma_tls_khz,
        },
        "fixed": {
            "t1_ms": THREE_LEVEL_7MK_009T.t1_ms,
            "tz_s": THREE_LEVEL_7MK_009T.tz_s,
            "t0_us": SD_7MK_009T.t0_us,
        },
    },
}


def get_preset(name):
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; "
                         f"known: {', '.join(sorted(PRESETS))}") from None
