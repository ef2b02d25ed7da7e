"""Discounted cash-flow evaluation: CAPEX, LCOE, LCOU, NPV, grid parity.

Levelized cost of electricity divides lifetime discounted costs by
lifetime discounted production:

    LCOE = (CAPEX + sum C_n / (1+r)^n) / (sum E_n / (1+r)^n),  n = 1..N

Levelized cost of use keeps the same cost side but counts only the energy
actually used on site:

    LCOU = (CAPEX + sum C_n / (1+r)^n) / (sum E_n * SCR_n / (1+r)^n)

with E_n the annual production (optionally degraded year over year), C_n a
flat yearly maintenance cost derived from the pre-VAT CAPEX, r the
discount rate and N the horizon. Grid parity of the hybrid system means
LCOU strictly below the retail electricity price, which is equivalent to a
positive NPV of the avoided-cost cash flows under the same assumptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ZeroEnergyError, ZeroSelfConsumptionError, check_finite

DEFAULT_PV_PRICE_EUR_PER_KWP = 1300.0
BESS_PRICE_CURRENT_EUR_PER_KWH = 500.0
BESS_PRICE_FUTURE_EUR_PER_KWH = 150.0
DEFAULT_HORIZON_YEARS = 20

# Household discount rate. Chosen at the upper end of the usual 3..7%
# range so that the zero-remuneration baseline stays conservative; fully
# configurable, and every CLI run echoes the value actually used.
DEFAULT_DISCOUNT_RATE = 0.07

DEFAULT_MAINTENANCE_RATE = 0.01

COUNTRY_CSV_HEADER = "country,retail_eur_per_kwh,annual_yield_kwh_per_kwp,vat_rate"


@dataclass(frozen=True)
class EconomicParams:
    """Unit prices and discounting assumptions for one evaluation.

    vat_rate of None means "use the country's VAT" in pipeline code; the
    plain finance operations below treat None as zero VAT. maintenance_rate
    is a fraction of the pre-VAT CAPEX per year. No battery replacement is
    modeled within the horizon (battery service life exceeds it).
    """

    pv_price_eur_per_kwp: float = DEFAULT_PV_PRICE_EUR_PER_KWP
    bess_price_eur_per_kwh: float = BESS_PRICE_CURRENT_EUR_PER_KWH
    vat_rate: float | None = None
    maintenance_rate: float = DEFAULT_MAINTENANCE_RATE
    discount_rate: float = DEFAULT_DISCOUNT_RATE
    horizon_years: int = DEFAULT_HORIZON_YEARS
    pv_degradation_rate: float = 0.0

    def __post_init__(self) -> None:
        check_finite(self)
        if self.pv_price_eur_per_kwp < 0.0 or self.bess_price_eur_per_kwh < 0.0:
            raise ValueError("unit prices must be >= 0")
        if self.vat_rate is not None and not 0.0 <= self.vat_rate < 1.0:
            raise ValueError(f"vat_rate must be in [0, 1), got {self.vat_rate}")
        if not 0.0 <= self.maintenance_rate < 1.0:
            raise ValueError(f"maintenance_rate must be in [0, 1), got {self.maintenance_rate}")
        if self.discount_rate < 0.0:
            raise ValueError(f"discount_rate must be >= 0, got {self.discount_rate}")
        if int(self.horizon_years) != self.horizon_years or self.horizon_years < 1:
            raise ValueError(f"horizon_years must be an integer >= 1, got {self.horizon_years}")
        object.__setattr__(self, "horizon_years", int(self.horizon_years))
        if not 0.0 <= self.pv_degradation_rate < 1.0:
            raise ValueError(
                f"pv_degradation_rate must be in [0, 1), got {self.pv_degradation_rate}"
            )

    @property
    def vat(self) -> float:
        """VAT fraction applied to CAPEX, 0 when unset."""
        return 0.0 if self.vat_rate is None else self.vat_rate


@dataclass(frozen=True)
class CountryData:
    """Per-country retail price, specific PV yield and VAT rate."""

    name: str
    retail_price_eur_per_kwh: float
    annual_yield_kwh_per_kwp: float
    vat_rate: float

    def __post_init__(self) -> None:
        check_finite(self)
        if not self.name:
            raise ValueError("country name must be non-empty")
        if self.retail_price_eur_per_kwh <= 0.0:
            raise ValueError(f"{self.name}: retail price must be positive")
        if self.annual_yield_kwh_per_kwp <= 0.0:
            raise ValueError(f"{self.name}: annual yield must be positive")
        if not 0.0 <= self.vat_rate < 1.0:
            raise ValueError(f"{self.name}: vat_rate must be in [0, 1)")


@dataclass(frozen=True)
class FinancialResult:
    """Outcome of evaluating one system configuration."""

    capex_eur: float
    lcoe_eur_per_kwh: float
    lcou_eur_per_kwh: float
    npv_eur: float
    grid_parity: bool


def capex(pv_kwp: float, bess_kwh: float, econ: EconomicParams) -> float:
    """Upfront cost of the hybrid system including VAT, no subsidies."""
    if pv_kwp < 0.0 or bess_kwh < 0.0:
        raise ValueError("system sizes must be >= 0")
    pre_vat = pv_kwp * econ.pv_price_eur_per_kwp + bess_kwh * econ.bess_price_eur_per_kwh
    return pre_vat * (1.0 + econ.vat)


def annual_maintenance_cost(capex_eur: float, econ: EconomicParams) -> float:
    """Yearly maintenance C_n, a fraction of the pre-VAT CAPEX."""
    return econ.maintenance_rate * capex_eur / (1.0 + econ.vat)


def discount_factors(econ: EconomicParams) -> np.ndarray:
    """(1+r)^-n for n = 1..N."""
    n = np.arange(1, econ.horizon_years + 1, dtype=float)
    return (1.0 + econ.discount_rate) ** (-n)


def degraded_energy(annual_energy_kwh: float, econ: EconomicParams) -> np.ndarray:
    """E_n = E * (1 - deg)^(n-1) for n = 1..N."""
    n = np.arange(econ.horizon_years, dtype=float)
    return annual_energy_kwh * (1.0 - econ.pv_degradation_rate) ** n


def _lifetime_cost(capex_eur: float, econ: EconomicParams, factors: np.ndarray) -> float:
    return capex_eur + annual_maintenance_cost(capex_eur, econ) * float(factors.sum())


def lcoe(capex_eur: float, econ: EconomicParams, annual_energy_kwh: float) -> float:
    """Levelized cost of the produced electricity, in EUR/kWh."""
    if annual_energy_kwh <= 0.0:
        raise ZeroEnergyError(f"annual energy must be positive, got {annual_energy_kwh}")
    factors = discount_factors(econ)
    denominator = float(np.sum(degraded_energy(annual_energy_kwh, econ) * factors))
    return _lifetime_cost(capex_eur, econ, factors) / denominator


def _as_year_series(values, econ: EconomicParams, what: str) -> np.ndarray:
    if np.isscalar(values):
        return np.full(econ.horizon_years, float(values))
    arr = np.asarray(values, dtype=float)
    if arr.shape != (econ.horizon_years,):
        raise ValueError(
            f"{what} must be a scalar or a sequence of length {econ.horizon_years}, "
            f"got shape {arr.shape}"
        )
    return arr


def lcou(
    capex_eur: float,
    econ: EconomicParams,
    annual_energy_kwh: float,
    scr_per_year: float | Sequence[float],
) -> float:
    """Levelized cost of the self-consumed electricity, in EUR/kWh.

    scr_per_year may be a scalar (replicated over the horizon, the
    representative-year case) or one value per year.
    """
    scr = _as_year_series(scr_per_year, econ, "scr_per_year")
    if np.any(scr < 0.0) or np.any(scr > 1.0):
        raise ValueError("SCR values must lie in [0, 1]")
    if annual_energy_kwh < 0.0:
        raise ZeroEnergyError(f"annual energy must be >= 0, got {annual_energy_kwh}")
    factors = discount_factors(econ)
    denominator = float(np.sum(degraded_energy(annual_energy_kwh, econ) * scr * factors))
    if denominator <= 0.0:
        raise ZeroSelfConsumptionError("no self-consumed energy over the horizon")
    return _lifetime_cost(capex_eur, econ, factors) / denominator


def npv(
    capex_eur: float,
    econ: EconomicParams,
    annual_self_consumed_kwh: float | Sequence[float],
    retail_price_eur_per_kwh: float,
) -> float:
    """Net present value of avoided imports at the flat retail tariff."""
    self_consumed = _as_year_series(annual_self_consumed_kwh, econ, "annual_self_consumed_kwh")
    factors = discount_factors(econ)
    maintenance = annual_maintenance_cost(capex_eur, econ)
    yearly = retail_price_eur_per_kwh * self_consumed - maintenance
    return float(-capex_eur + np.sum(yearly * factors))


def grid_parity(lcou_eur_per_kwh: float, retail_price_eur_per_kwh: float) -> bool:
    """True when the LCOU falls strictly below the retail price."""
    if lcou_eur_per_kwh <= 0.0 or retail_price_eur_per_kwh <= 0.0:
        raise ValueError("grid parity needs positive LCOU and retail price")
    return lcou_eur_per_kwh < retail_price_eur_per_kwh


def financial_result(
    pv_kwp: float,
    bess_kwh: float,
    econ: EconomicParams,
    annual_energy_kwh: float,
    scr: float,
    retail_price_eur_per_kwh: float,
) -> FinancialResult:
    """Evaluate one system end to end with a representative-year SCR."""
    capex_eur = capex(pv_kwp, bess_kwh, econ)
    lcoe_value = lcoe(capex_eur, econ, annual_energy_kwh)
    lcou_value = lcou(capex_eur, econ, annual_energy_kwh, scr)
    self_consumed = degraded_energy(annual_energy_kwh, econ) * scr
    npv_value = npv(capex_eur, econ, self_consumed, retail_price_eur_per_kwh)
    return FinancialResult(
        capex_eur=capex_eur,
        lcoe_eur_per_kwh=lcoe_value,
        lcou_eur_per_kwh=lcou_value,
        npv_eur=npv_value,
        grid_parity=grid_parity(lcou_value, retail_price_eur_per_kwh),
    )


def parse_country_csv(text: str) -> dict[str, CountryData]:
    """Parse the country table, keeping the row order of the document."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0].strip().lstrip("﻿") != COUNTRY_CSV_HEADER:
        raise ValueError(f"country CSV must start with header '{COUNTRY_CSV_HEADER}'")
    countries: dict[str, CountryData] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 4:
            raise ValueError(f"line {lineno}: expected 4 fields, got {len(parts)}")
        name = parts[0]
        if name in countries:
            raise ValueError(f"line {lineno}: duplicate country '{name}'")
        try:
            retail, yield_, vat = (float(p) for p in parts[1:])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad numeric field") from exc
        countries[name] = CountryData(
            name=name,
            retail_price_eur_per_kwh=retail,
            annual_yield_kwh_per_kwp=yield_,
            vat_rate=vat,
        )
    if not countries:
        raise ValueError("country CSV has no data rows")
    return countries


def packaged_country_csv_text() -> str:
    return resources.files("storparity.data").joinpath("countries.csv").read_text("utf-8")


def load_country_data(path: str | Path | None = None) -> dict[str, CountryData]:
    """Load country data from a CSV path, or the packaged defaults."""
    if path is None:
        return parse_country_csv(packaged_country_csv_text())
    return parse_country_csv(Path(path).read_text("utf-8"))
