"""Physical constants used by the linewidth models.

Only the ratio of the Bohr magneton to the Boltzmann constant enters any
model, so it is stored as a single number in kelvin per tesla.
"""

# CODATA 2018 values, J/T and J/K.
MU_B = 9.2740100783e-24
K_B = 1.380649e-23

# Ratio in K/T; the only way field and temperature enter the models.
MU_B_OVER_K_B = MU_B / K_B

# Largest magnitude allowed inside exp(); keeps asymptotes exact without
# overflow at millikelvin temperatures and tesla-scale fields.
EXP_CLAMP = 700.0
