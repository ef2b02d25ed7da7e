"""Walk through one hybrid PV + battery system, end to end.

A type B household in Cyprus (7500 kWh per year) considers a 3 kWp array
with a 3 kWh battery at the future storage price of 150 EUR/kWh. We build
the annual profiles, dispatch the battery hour by hour, and ask whether
the levelized cost of the self-consumed energy beats the retail tariff.
"""

import numpy as np

from storparity import (
    BatterySpec,
    EconomicParams,
    align,
    annual_balance,
    financial_result,
    load_country_data,
    scr_no_storage,
    simulate,
    synthesize_load_profile,
    synthesize_pv_profile,
)

cyprus = load_country_data()["Cyprus"]
print(f"Cyprus: retail {cyprus.retail_price_eur_per_kwh} EUR/kWh, "
      f"specific yield {cyprus.annual_yield_kwh_per_kwp} kWh/kWp\n")

# --- 1. One representative year of load and PV generation ----------------
load = synthesize_load_profile(7500.0)
pv = synthesize_pv_profile(3.0, cyprus.annual_yield_kwh_per_kwp, step_hours=load.step_hours)
pv, load = align(pv, load)
print(f"load profile : {len(load)} steps of {load.step_hours} h, "
      f"{load.year_energy_kwh:.1f} kWh/year")
print(f"pv profile   : {pv.year_energy_kwh:.1f} kWh/year "
      f"(peak {pv.values.max():.2f} kW)\n")

# Without storage, how much of the PV energy is used on site?
print(f"SCR with no storage: {scr_no_storage(pv, load):.3f}")

# --- 2. Greedy self-consumption dispatch of a 3 kWh battery --------------
battery = BatterySpec(capacity_kwh=3.0)
trace = simulate(pv, load, battery)
balance = annual_balance(trace, load.step_hours)
print(f"SCR with 3 kWh BESS: {balance.scr:.3f}  (SSR {balance.ssr:.3f})")
print(f"  direct use {balance.e_direct:7.1f} kWh, battery delivered {balance.e_delivered:6.1f} kWh")
print(f"  imported   {balance.e_import:7.1f} kWh, curtailed         {balance.e_curtail:6.1f} kWh")

# A mid-June day, hour by hour (day 165 of the year):
day = slice(165 * 24, 166 * 24)
print("\nmid-June day (kW per hour):")
print("  pv     ", np.array2string(trace.p_pv[day], precision=2))
print("  load   ", np.array2string(trace.p_load[day], precision=2))
print("  soc kWh", np.array2string(trace.soc_kwh[day], precision=2))

# --- 3. From energy flows to money ---------------------------------------
econ = EconomicParams(bess_price_eur_per_kwh=150.0, vat_rate=cyprus.vat_rate)
result = financial_result(3.0, 3.0, econ, balance.e_produced, balance.scr,
                          cyprus.retail_price_eur_per_kwh)
print(f"\nCAPEX incl. VAT : {result.capex_eur:8.2f} EUR")
print(f"LCOE            : {result.lcoe_eur_per_kwh:8.4f} EUR/kWh (all produced energy)")
print(f"LCOU            : {result.lcou_eur_per_kwh:8.4f} EUR/kWh (self-consumed energy only)")
print(f"NPV             : {result.npv_eur:8.2f} EUR over {econ.horizon_years} years")
print(f"grid parity     : {'reached' if result.grid_parity else 'not reached'} "
      f"(retail {cyprus.retail_price_eur_per_kwh} EUR/kWh)")
