"""Bundled reference parameter sets.

These are the fitted values for the erbium-doped-fiber system the models
describe, at the named measurement conditions, together with their quoted
one-sigma uncertainties.  They drive the CLI presets, the demo pipeline
and the round-trip recovery studies.  Each set is a read-only mapping
keyed by the names of a model's spec in :mod:`echofit.catalog`: its
parameters, and apart from them its fixed values.
"""


class Values(dict):
    """A dict that no caller can change, so that a preset stays as defined."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("a preset is read-only; copy it with dict() to change it")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):   # copy and pickle would set the items one by one
        return Values, (dict(self),)

    # Kept for bench/workloads.py, which calls FIELD_7MK.to_dict().
    def to_dict(self):
        return dict(self)


# Field dependence of the effective linewidth at 7 mK.
FIELD_7MK = Values(
    gamma0_khz=7.42,
    alpha1_khz=32.60,
    alpha2_khz=17.62,
    g1=0.3507,
    g2=0.0064,
)
FIELD_7MK_FIXED = Values(temp_k=0.007)
FIELD_7MK_SIGMA = {
    "gamma0_khz": 0.14,
    "alpha1_khz": 0.32,
    "alpha2_khz": 0.49,
    "g1": 0.0092,
    "g2": 0.0004,
}

# Stimulated-echo spectral diffusion at 7 mK and 0.09 T; t0 is the
# smallest measured waiting time there.
SD_7MK_009T = Values(
    gamma0_khz=7.96,
    gamma_sd_khz=37.77,
    r_sd_khz=1.02,
    gamma_tls_khz=12.24,
)
SD_7MK_009T_FIXED = Values(t0_us=50.0)
SD_7MK_009T_SIGMA = {
    "gamma0_khz": 0.48,
    "gamma_sd_khz": 4.18,
    "r_sd_khz": 0.25,
    "gamma_tls_khz": 0.90,
}

# Population dynamics at the same condition, echo3's other parameters and
# fixed values: excited-state lifetime from an independent measurement,
# sublevel lifetime of order seconds.
THREE_LEVEL_7MK_009T = Values(i0=1.0, beta=0.2)
THREE_LEVEL_7MK_009T_FIXED = Values(t1_ms=9.0, tz_s=2.0)

# Illustrative temperature law near 0.09 T (exponent from the measured
# fit; floor and amplitude chosen to match the observed scale).
TEMP_009T = Values(floor_khz=7.5, amp_khz=45.0, exponent_n=1.34)

# Fixed t12 values (microseconds) of the waiting-time scans.
T12_SET_US = (0.09, 0.33, 1.068)

# Named CLI presets: model id, parameters, and the fixed values needed to
# evaluate or synthesize at that condition.
PRESETS = Values(**{
    "field-7mK": Values(model_id="field", params=FIELD_7MK, fixed=FIELD_7MK_FIXED),
    "3ppe-7mK-0.09T": Values(
        model_id="echo3",
        params=Values(**THREE_LEVEL_7MK_009T, **SD_7MK_009T),
        fixed=Values(**THREE_LEVEL_7MK_009T_FIXED, **SD_7MK_009T_FIXED),
    ),
})


def get_preset(name):
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; "
                         f"known: {', '.join(sorted(PRESETS))}") from None
