#!/usr/bin/env python3
"""End-to-end demonstration on the built-in model scenario.

Validates the covering, classifies every overlap's decay level from its
consecutive-difference cascade, fits certified constants on both ladders,
and re-checks the restriction corollary, printing one line per stage.
"""

import argparse
import sys
import time

from qasym import default_scenario, verify_two_level_theorem


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fast", action="store_true",
                    help="smaller j/N ranges for a quicker run")
    args = ap.parse_args()

    scn = default_scenario()
    js = range(3, 9) if args.fast else range(3, 11)
    N_range = range(0, 5) if args.fast else range(0, 7)

    t0 = time.perf_counter()
    rep = verify_two_level_theorem(scn, js=js, N_range=N_range)
    dt = time.perf_counter() - t0

    print(f"covering valid            : {rep.covering_ok}")
    for p, level, target, fitted, rel in rep.dichotomy.entries:
        print(f"overlap {p}: level {level}  rate {fitted:.6f} "
              f"(target {target:.1f}, rel err {rel:.2e})")
    print(f"fast-ladder fit certified : {rep.fast_fit.certified}  "
          f"C={rep.fast_fit.C_cert:.4g} A={rep.fast_fit.A_fit:.4g}")
    print(f"slow-ladder fit certified : {rep.slow_fit.certified}  "
          f"C={rep.slow_fit.C_cert:.4g} A={rep.slow_fit.A_fit:.4g}")
    print(f"restriction corollary     : certified={rep.corollary_fit.certified} "
          f"rows kept={rep.corollary_rows_kept}")
    print(f"overall                   : {'PASS' if rep.ok else 'FAIL'}  ({dt:.1f}s)")
    return 0 if rep.ok else 1


if __name__ == "__main__":
    sys.exit(main())
