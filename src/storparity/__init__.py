"""storparity: techno-economic simulation of residential PV + battery systems
operated for pure self-consumption (no remuneration for exported energy).

The package synthesizes or ingests annual PV and load profiles, dispatches a
battery with a greedy self-consumption rule, computes SCR/SSR, levelized
costs (LCOE/LCOU), NPV and grid-parity status, and sweeps the full scenario
grid of countries, prosumer types, system sizes and storage prices.
"""

__version__ = "0.1.0"

from .dispatch import (
    BatterySpec,
    DispatchTrace,
    EnergyBalance,
    annual_balance,
    scr_no_storage,
    simulate,
    simulate_balances,
    simulate_series,
    trace_to_csv,
)
from .errors import (
    EmptyAxisError,
    EmptySelectionError,
    EnergyBooksError,
    IncompatibleProfilesError,
    InvalidShapeError,
    MalformedRowError,
    NegativePowerError,
    NonUniformStepError,
    StorParityError,
    UnalignedProfilesError,
    WorkerError,
    ZeroEnergyError,
    ZeroProductionError,
    ZeroSelfConsumptionError,
)
from .finance import (
    CountryData,
    EconomicParams,
    FinancialResult,
    FinancialResults,
    financial_result,
    financial_results,
    load_country_data,
    parse_country_csv,
)
from .profiles import (
    LoadShapeParams,
    ProfileKind,
    ProfileShapes,
    PvShapeParams,
    TimeSeriesProfile,
    align,
    default_load_shape,
    default_pv_shape,
    default_shapes,
    parse_profile_csv,
    scale_to_annual,
    synthesize_load_profile,
    synthesize_pv_profile,
)
from .sweep import (
    ANNUAL_LOAD_KWH,
    DEFAULT_BESS_PRICES,
    DEFAULT_RATIOS,
    PROSUMER_TYPES,
    PV_RANGE_KWP,
    BoxStats,
    ProfileSource,
    ResultsTable,
    Scenario,
    ScenarioGrid,
    best_pv_size,
    box_stats,
    box_stats_by_country_price,
    build_grid,
    parity_share,
    parity_share_table,
    parse_results_csv,
    results_to_csv,
    run_sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
