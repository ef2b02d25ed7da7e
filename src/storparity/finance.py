"""Discounted cash-flow evaluation: CAPEX, LCOE, LCOU, NPV, grid parity.

financial_results prices many systems at once and financial_result one;
nothing else computes these values. CAPEX is the PV and battery sizes at
their unit prices, plus VAT. Levelized cost of electricity divides lifetime
discounted costs by lifetime discounted production:

    LCOE = (CAPEX + sum C_n / (1+r)^n) / (sum E_n / (1+r)^n),  n = 1..N

Levelized cost of use keeps the same cost side but counts only the energy
used on site, at the representative year's self-consumption rate SCR:

    LCOU = (CAPEX + sum C_n / (1+r)^n) / (sum E_n * SCR / (1+r)^n)

with E_n = E * (1-d)^(n-1) the production of year n at a degradation rate
d, C_n = M a flat yearly maintenance cost derived from the pre-VAT CAPEX,
r the discount rate and N the horizon. Grid parity of the hybrid system
means LCOU strictly below the retail price p, which is equivalent to a
positive net present value of the avoided imports:

    NPV = -CAPEX + sum (p * E_n * SCR - C_n) / (1+r)^n

Each sum is E, E * SCR or M times one of two constants of the horizon,
F = sum 1/(1+r)^n and G = sum (1-d)^(n-1)/(1+r)^n, and is computed so:
LCOE = (CAPEX + M*F) / (E*G), LCOU = (CAPEX + M*F) / (E*G*SCR) and
NPV = -CAPEX + (p*E*G*SCR - M*F).
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ZeroEnergyError, ZeroSelfConsumptionError, check_finite
from .table import read_rows

DEFAULT_PV_PRICE_EUR_PER_KWP = 1300.0
BESS_PRICE_CURRENT_EUR_PER_KWH = 500.0
BESS_PRICE_FUTURE_EUR_PER_KWH = 150.0
DEFAULT_HORIZON_YEARS = 20
# The longest horizon accepted: pricing allocates a few arrays of this length.
MAX_HORIZON_YEARS = 100_000

# Household discount rate. Chosen at the upper end of the usual 3..7%
# range so that the zero-remuneration baseline stays conservative; fully
# configurable, and every CLI run echoes the value actually used.
DEFAULT_DISCOUNT_RATE = 0.07

DEFAULT_MAINTENANCE_RATE = 0.01

COUNTRY_CSV_HEADER = "country,retail_eur_per_kwh,annual_yield_kwh_per_kwp,vat_rate"


@dataclass(frozen=True)
class EconomicParams:
    """Unit prices and discounting assumptions for one evaluation.

    vat_rate of None means "use the country's VAT" in pipeline code;
    financial_result treats None as zero VAT. maintenance_rate is a
    fraction of the pre-VAT CAPEX per year. No battery replacement is
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
        years = self.horizon_years
        if int(years) != years or not 1 <= years <= MAX_HORIZON_YEARS:
            raise ValueError(f"horizon_years must be an integer in 1..{MAX_HORIZON_YEARS}, "
                             f"got {years}")
        object.__setattr__(self, "horizon_years", int(years))
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


def discount_factors(econ: EconomicParams) -> np.ndarray:
    """(1+r)^-n for n = 1..N."""
    return (1.0 + econ.discount_rate) ** -np.arange(1.0, econ.horizon_years + 1)


@dataclass(frozen=True)
class FinancialResults:
    """Outcomes of evaluating n systems at once, one array entry per system.

    errors maps the index of each system that cannot be evaluated to the
    exception it raises on its own; its array entries are meaningless.
    """

    capex_eur: np.ndarray
    lcoe_eur_per_kwh: np.ndarray
    lcou_eur_per_kwh: np.ndarray
    npv_eur: np.ndarray
    grid_parity: np.ndarray
    errors: dict[int, ValueError]


def financial_results(
    pv_kwp: Sequence[float],
    bess_kwh: Sequence[float],
    bess_price_eur_per_kwh: Sequence[float],
    vat_rate: Sequence[float],
    annual_energy_kwh: Sequence[float],
    scr: Sequence[float],
    retail_price_eur_per_kwh: Sequence[float],
    econ: EconomicParams,
) -> FinancialResults:
    """Evaluate n systems end to end, each with its own BESS price and VAT.

    Each argument but econ is a 1-D column, one entry per system; econ
    supplies the rest, its BESS price and VAT unused. No row depends on
    another. A system that cannot be priced gets in errors the exception of
    the first check it fails, in this order: a BESS price or VAT that
    EconomicParams rejects (not finite, a price below 0, a VAT outside
    [0, 1)), or a size below 0 or NaN; no discounted production; an SCR
    outside [0, 1] or NaN; nothing self-consumed; then an LCOU or retail
    price that is not positive.
    """
    columns = [
        np.asarray(v, dtype=float)
        for v in (pv_kwp, bess_kwh, bess_price_eur_per_kwh, vat_rate, annual_energy_kwh, scr,
                  retail_price_eur_per_kwh)
    ]
    if any(c.ndim != 1 or len(c) != len(columns[0]) for c in columns):
        shapes = ", ".join(str(c.shape) for c in columns)
        raise ValueError(f"columns must be 1-D and of one length, got shapes {shapes}")
    pv_kwp, bess_kwh, bess_price, vat, energy, scr, retail = columns
    factors = discount_factors(econ)
    f_sum = float(factors.sum())
    g_sum = float((factors * (1.0 - econ.pv_degradation_rate) ** np.arange(len(factors))).sum())
    with np.errstate(all="ignore"):  # the values of rejected systems are discarded
        capex_eur = (pv_kwp * econ.pv_price_eur_per_kwp + bess_kwh * bess_price) * (1.0 + vat)
        maintenance = econ.maintenance_rate * capex_eur / (1.0 + vat)
        lifetime_cost = capex_eur + maintenance * f_sum
        self_consumed = energy * g_sum * scr
        lcoe = lifetime_cost / (energy * g_sum)
        lcou = lifetime_cost / self_consumed
        npv = -capex_eur + (retail * self_consumed - maintenance * f_sum)
        # the first year's term is the largest, so each per-year sum is 0 exactly when it is
        first_produced, first_used = energy * factors[0], energy * scr * factors[0]
    checks = (  # the first check a system fails names its error; {price}, {vat}: its values
        (~np.isfinite(bess_price), ValueError,
         "bess_price_eur_per_kwh must be finite, got {price}"),
        (~np.isfinite(vat), ValueError, "vat_rate must be finite, got {vat}"),
        (bess_price < 0.0, ValueError, "unit prices must be >= 0"),
        (~((vat >= 0.0) & (vat < 1.0)), ValueError, "vat_rate must be in [0, 1), got {vat}"),
        (~((pv_kwp >= 0.0) & (bess_kwh >= 0.0)), ValueError, "system sizes must be >= 0"),
        (~(first_produced > 0.0), ZeroEnergyError, "no energy produced over the horizon"),
        (~((scr >= 0.0) & (scr <= 1.0)), ValueError, "SCR values must lie in [0, 1]"),
        (first_used <= 0.0, ZeroSelfConsumptionError, "no self-consumed energy over the horizon"),
        ((lcou <= 0.0) | ~(retail > 0.0), ValueError,
         "grid parity needs positive LCOU and retail price"),
    )
    errors: dict[int, ValueError] = {}
    for failed, kind, message in checks:
        for i in np.flatnonzero(failed).tolist():
            errors.setdefault(i, kind(message.format(price=bess_price[i], vat=vat[i])))
    return FinancialResults(capex_eur, lcoe, lcou, npv, lcou < retail, errors)


def financial_result(
    pv_kwp: float,
    bess_kwh: float,
    econ: EconomicParams,
    annual_energy_kwh: float,
    scr: float,
    retail_price_eur_per_kwh: float,
) -> FinancialResult:
    """Evaluate one system end to end with a representative-year SCR.

    The one-system case of financial_results, at econ's BESS price and VAT.
    """
    batch = financial_results(
        [pv_kwp], [bess_kwh], [econ.bess_price_eur_per_kwh], [econ.vat],
        [annual_energy_kwh], [scr], [retail_price_eur_per_kwh], econ,
    )
    if batch.errors:
        raise batch.errors[0]
    return FinancialResult(
        capex_eur=float(batch.capex_eur[0]),
        lcoe_eur_per_kwh=float(batch.lcoe_eur_per_kwh[0]),
        lcou_eur_per_kwh=float(batch.lcou_eur_per_kwh[0]),
        npv_eur=float(batch.npv_eur[0]),
        grid_parity=bool(batch.grid_parity[0]),
    )


def parse_country_csv(text: str) -> dict[str, CountryData]:
    """Parse the country table, keeping the row order of the document."""
    countries: dict[str, CountryData] = {}
    for lineno, (name, *numbers) in read_rows(text, COUNTRY_CSV_HEADER, "country CSV"):
        if name in countries:
            raise ValueError(f"line {lineno}: duplicate country '{name}'")
        try:
            countries[name] = CountryData(name, *(float(x) for x in numbers))
        except ValueError as exc:  # a bad number, or a value CountryData rejects
            raise ValueError(f"line {lineno}: {exc}") from exc
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
