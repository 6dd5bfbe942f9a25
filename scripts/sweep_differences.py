#!/usr/bin/env python3
"""Sweep consecutive differences of the sectorial kernel family over a
geometric ladder |T| = (1/8) q^{-(j-3)/k1} (ModelScenario.probe_T) and
fit the decay level of each overlap.

Each overlap's difference is the "rotated" route of
qasym.model.consecutive_difference: the residue sum over its wedge poles,
plus, where the two sectors use different logarithm branches, one whole
ray of the branch discrepancy along the wedge mid-direction (the
"decomposed" contour pieces stay its oracle in the tests).
The fitted log-quadratic rate separates the fast overlaps (rate k2) from
the slow ones (rate k1).
"""

import argparse
import csv
import sys

from qasym import default_scenario, overlap_rate


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--j-min", type=int, default=3)
    ap.add_argument("--j-max", type=int, default=10)
    ap.add_argument("--overlaps", nargs="+", type=int, default=None,
                    help="overlap indices (default: all)")
    ap.add_argument("--emit-plot-data", metavar="PATH", default=None,
                    help="write the sweep as CSV for plotting")
    args = ap.parse_args()

    scn = default_scenario()
    js = range(args.j_min, args.j_max + 1)
    overlaps = args.overlaps if args.overlaps is not None else list(range(scn.n))

    rows = []
    ok = True
    for p in overlaps:
        table, fit, target, rel = overlap_rate(scn, p, js, tol=1e-11)
        ok = ok and rel <= 0.15
        print(f"overlap {p} level {table.level}: "
              f"rate {fit.rate:.6f} target {target:.1f} rel_err {rel:.2e}")
        for r in table.rows:
            rows.append((p, table.level, r.j, r.absT, r.norm))

    if args.emit_plot_data:
        with open(args.emit_plot_data, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["overlap", "level", "j", "absT", "norm"])
            for row in rows:
                w.writerow([repr(x) if isinstance(x, float) else x for x in row])
        print(f"wrote {len(rows)} rows to {args.emit_plot_data}")

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
