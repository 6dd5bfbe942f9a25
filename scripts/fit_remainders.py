#!/usr/bin/env python3
"""Build remainder tables for one overlap of the model family and fit
certified zero-Gevrey constants on both radius ladders.

Rows sample |t| = frac * q^{-(N+1)/(2k)} for each truncation order N, so
every row of the fine (level-2) table lies inside its ladder radius; the
restriction refit then keeps only rows that also fit the coarse ladder.
"""

import argparse
import sys

from qasym import (default_scenario, difference_remainder_table,
                   fit_zero_gevrey_relative, restrict_and_refit)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--overlap", type=int, default=0)
    ap.add_argument("--level", type=int, default=2, choices=[1, 2])
    ap.add_argument("--n-max", type=int, default=6)
    ap.add_argument("--t-frac", type=float, default=0.7)
    ap.add_argument("--csv", metavar="PATH", default=None,
                    help="also write the remainder table as CSV")
    args = ap.parse_args()

    scn = default_scenario()
    fr = scn.frame
    k = fr.k2 if args.level == 2 else fr.k1
    table = difference_remainder_table(scn, args.overlap, k,
                                       range(0, args.n_max + 1),
                                       t_frac=args.t_frac)
    print(f"overlap {args.overlap}, level k={k}: {len(table.rows)} rows")
    fit = fit_zero_gevrey_relative(table, fr.q, k)
    print(f"fit: C_cert={fit.C_cert:.6g} A={fit.A_fit:.6g} "
          f"certified={fit.certified} max_violation={fit.max_violation:.3e}")

    ok = fit.certified
    if args.level == 2:
        fit2, fit1, kept = restrict_and_refit(table, fr.q, fr.k2, fr.k1)
        print(f"restricted to coarse ladder: kept {len(kept.rows)} rows, "
              f"C_cert={fit1.C_cert:.6g} A={fit1.A_fit:.6g} "
              f"certified={fit1.certified}")
        ok = ok and fit1.certified

    if args.csv:
        table.write_csv(args.csv)
        print(f"wrote table to {args.csv}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
