"""The full scenario grid: parity shares, box statistics, best sizes.

Six countries, three prosumer types with their PV size ranges, three
battery ratios and two storage prices give 612 scenarios. The sweep is
deterministic and takes a few seconds; the summaries below are the
API-level equivalents of the ``storparity sweep`` and ``report`` commands.
"""

import time

from storparity import (
    EconomicParams,
    best_pv_size,
    box_stats,
    build_grid,
    load_country_data,
    parity_share,
    run_sweep,
)

countries = load_country_data()
econ = EconomicParams()
grid = build_grid(list(countries))
print(f"grid: {len(grid)} scenarios, discount rate {econ.discount_rate:.0%}, "
      f"horizon {econ.horizon_years} years")

start = time.perf_counter()
results = run_sweep(grid, countries, econ)  # a ResultsTable: one column per results field
print(f"swept in {time.perf_counter() - start:.1f} s\n")

# --- Grid-parity shares per country and storage price --------------------
print(f"{'country':<10} {'@500':>7} {'@150':>7} {'pooled':>7}")
for name in countries:
    at_500 = parity_share(results, country=name, bess_price=500.0)
    at_150 = parity_share(results, country=name, bess_price=150.0)
    pooled = parity_share(results, country=name)
    print(f"{name:<10} {at_500:6.1f}% {at_150:6.1f}% {pooled:6.1f}%")

# --- LCOU spread at the future storage price ------------------------------
print(f"\nLCOU spread at 150 EUR/kWh (EUR/kWh):")
print(f"{'country':<10} {'min':>7} {'q1':>7} {'median':>7} {'q3':>7} {'max':>7}")
for name in countries:
    s = box_stats(results.lcou[results.where(country=name, bess_price_eur_per_kwh=150.0)])
    print(f"{name:<10} {s.minimum:7.4f} {s.q1:7.4f} {s.median:7.4f} {s.q3:7.4f} {s.maximum:7.4f}")

# --- Which PV size minimizes the LCOU? ------------------------------------
# For low-consumption households the smallest array wins; larger consumers
# tolerate more PV before the falling self-consumption rate bites.
print("\nbest PV size (kWp) at ratio 1, 150 EUR/kWh:")
print(f"{'country':<10} {'type A':>7} {'type B':>7} {'type C':>7}")
for name in countries:
    sizes = [best_pv_size(results, name, t, 1.0, 150.0) for t in ("A", "B", "C")]
    print(f"{name:<10} {sizes[0]:>7} {sizes[1]:>7} {sizes[2]:>7}")
