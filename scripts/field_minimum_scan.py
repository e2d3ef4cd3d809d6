#!/usr/bin/env python3
"""Track the optimal operating field versus temperature.

The linewidth-versus-field model has a single interior minimum whenever
both quenching terms are active: the fast-decaying term wants more field,
the slow-rising term wants less.  Both exponents scale with B/T, so the
minimum position grows linearly with temperature while the minimum
linewidth stays put.  This script tabulates B*(T) and gamma*(T) for the
millikelvin reference parameters.  The closed-form B* is proportional
to T, so B*/T is constant by construction; its printed spread is
rounding only.
"""

import argparse
import sys

import numpy as np

from echofit import models
from echofit.presets import FIELD_7MK


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--t-min", type=float, default=0.007, help="kelvin")
    ap.add_argument("--t-max", type=float, default=0.5, help="kelvin")
    ap.add_argument("--points", type=int, default=12)
    ap.add_argument("--b-max", type=float, default=20.0, help="tesla")
    args = ap.parse_args(argv)

    for k, v in sorted(vars(args).items()):
        print(f"# config {k} = {v}")

    temps = np.geomspace(args.t_min, args.t_max, args.points)
    print(f"{'T_K':>10} {'B*_T':>12} {'gamma*_kHz':>12} {'B*/T':>12}")
    ratios = []
    for t in temps:
        b_star, g_star, boundary = models.field_linewidth_minimum(
            FIELD_7MK, args.b_max, {"temp_k": t})
        note = f"  ({boundary} boundary)" if boundary else ""
        print(f"{t:10.4g} {b_star:12.6g} {g_star:12.6g} "
              f"{b_star / t:12.6g}{note}")
        if boundary is None:
            ratios.append(b_star / t)

    ratios = np.array(ratios)
    spread = np.ptp(ratios) / ratios.mean() if ratios.size else float("nan")
    print(f"\nB*/T constant to {spread * 100:.2g}% across interior minima "
          f"(exponent arguments depend on B and T only through B/T)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
