#!/usr/bin/env python3
"""Compare synthetic-day mid-price statistics against the profile targets.

Generates one day per ticker profile (or a chosen subset), replays it through
the matching engine with full invariant and conservation checking, and
prints realized mid-price mean/std/min/max next to the profile's calibration
targets.

Usage:
    python3 scripts/calibration_report.py [--seed N] [--profiles P [P ...]]
"""

import argparse

from lobkit.book import mid_prices
from lobkit.synth import PROFILES, generate_day, replay_check


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--profiles", nargs="+", default=sorted(PROFILES),
                    choices=sorted(PROFILES))
    args = ap.parse_args()

    hdr = (f"{'profile':<10} {'orders':>7} {'snaps':>5} "
           f"{'mean':>8} {'(tgt)':>8} {'std':>7} {'(tgt)':>7} "
           f"{'min':>8} {'(tgt)':>8} {'max':>8} {'(tgt)':>8}")
    print(hdr)
    print("-" * len(hdr))
    for name in args.profiles:
        p = PROFILES[name]
        stream = generate_day(p, args.seed)
        data, _ = replay_check(stream)
        mids = mid_prices(data)
        print(f"{name:<10} {len(stream.orders):>7} {len(data):>5} "
              f"{mids.mean():>8.2f} {p.mid_mean:>8.2f} "
              f"{mids.std():>7.2f} {p.mid_std:>7.2f} "
              f"{mids.min():>8.2f} {p.price_min:>8.2f} "
              f"{mids.max():>8.2f} {p.price_max:>8.2f}")


if __name__ == "__main__":
    main()
