"""Command-line interface: single-scenario simulation, sweeps and reports.

Exit codes: 0 on success, 1 on computation failure, 2 on usage or
configuration errors, which main prints as one ``error:`` line (a dispatch
whose energy books do not balance, a bug, is one ``internal error:`` line
with exit 1). Each command lists the files it writes once, checks them all
with _check_outputs before any work and writes them with one _write; a
horizon past finance.MAX_HORIZON_YEARS or a measured year whose energy is
not finite is refused as its input is read. ``simulate`` and ``sweep`` also
write a ``run-manifest.json`` echoing all parameters actually used, so
results are reproducible byte for byte from the same configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import namedtuple
from dataclasses import asdict, dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Mapping, Sequence

from . import __version__, dispatch
# Names imported below that cli itself does not call stay importable from
# it: the benchmark's span recorder (perfbench/spans.py) wraps them here.
from .dispatch import BatterySpec, annual_balance, simulate
from .errors import EnergyBooksError
from .finance import CountryData, EconomicParams, load_country_data
from .profiles import (
    ProfileKind,
    TimeSeriesProfile,
    align,
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
    ProfileSource,
    Scenario,
    _fmt_axis,
    best_pv_size,
    best_pv_sizes,
    box_stats_by_country_price,
    box_stats_to_csv,
    build_grid,
    parity_share_table,
    parity_shares_to_csv,
    parse_results_csv,
    results_to_csv,
    run_sweep,
    simulate_scenario,
)

# The measured-profile sweep's former name; perfbench/spans.py still wraps it.
_sweep_with_profile_overrides = run_sweep

DATA_DIR_ENV = "STORPARITY_DATA_DIR"

MANIFEST_NAME = "run-manifest.json"


class ConfigError(Exception):
    """Bad flags, bad config file, missing/unknown/unreadable referenced data,
    or an output that cannot be written."""


def _items(text: str) -> list[str]:
    return [p.strip() for p in text.split(",") if p.strip()]


def number_list(text: str) -> list[float]:
    return [float(p) for p in _items(text)]


def _of_type(*types):
    """JSON value check: the value must be an instance of types, and not a bool."""

    def check(value):
        if isinstance(value, bool) or not isinstance(value, types):
            raise ValueError(value)
        return value

    return check


def _list_of(check):
    return lambda value: [check(v) for v in _of_type(list)(value)]


#: A setting's type: its name, its flag-text parser and its JSON value check.
Kind = namedtuple("Kind", "label parse from_json")


def _path(text: str) -> Path:
    """text as a Path; "" is a ValueError, not the working directory Path makes of it."""
    if not text:
        raise ValueError("an empty path")
    return Path(text)


def _a(label: str) -> str:
    """label after its indefinite article."""
    return f"{'an' if label[0] in 'aeiou' else 'a'} {label}"


NUMBER = Kind("number", float, _of_type(int, float))
INTEGER = Kind("integer", int, _of_type(int))
PATH = Kind("non-empty path string", _path, lambda value: _path(_of_type(str)(value)))
NAMES = Kind("list of strings", _items, _list_of(_of_type(str)))
NUMBERS = Kind("list of numbers", number_list, _list_of(lambda v: float(_of_type(int, float)(v))))

SHARED, SWEEP = ("simulate", "sweep"), ("sweep",)


@dataclass(frozen=True)
class Option:
    """One setting of the CLI.

    key is the config key and the argparse dest; flag is None for a
    config-only key; target is where the value goes: an EconomicParams field
    ("econ"), a battery setting ("battery"), or the command itself ("run");
    commands are the subcommands that take the flag.
    """

    key: str
    flag: str | None
    kind: Kind
    target: str
    commands: tuple[str, ...] = SHARED
    help: str | None = None


OPTIONS = {
    o.key: o
    for o in (
        Option("pv_price_eur_per_kwp", "--pv-price", NUMBER, "econ"),
        Option("vat_rate", "--vat", NUMBER, "econ", help="override the per-country VAT rate"),
        Option("maintenance_rate", "--maintenance-rate", NUMBER, "econ"),
        Option("discount_rate", "--discount-rate", NUMBER, "econ"),
        Option("horizon_years", "--horizon", INTEGER, "econ"),
        Option("pv_degradation_rate", "--degradation", NUMBER, "econ"),
        Option("round_trip_efficiency", "--round-trip-efficiency", NUMBER, "battery"),
        Option("usable_fraction", "--usable-fraction", NUMBER, "battery"),
        Option("max_charge_kw", "--max-charge-kw", NUMBER, "battery"),
        Option("max_discharge_kw", "--max-discharge-kw", NUMBER, "battery"),
        Option("countries_csv", "--countries", PATH, "run", help="country CSV (default: "
               f"${DATA_DIR_ENV}/countries.csv, else packaged data)"),
        # The config key "countries" is the sweep's country axis, not a path.
        Option("countries", None, NAMES, "run", SWEEP),
        Option("prosumer_types", "--types", NAMES, "run", SWEEP, "prosumer types, e.g. A,B"),
        Option("ratios", "--ratios", NUMBERS, "run", SWEEP, "kWh/kWp ratios, e.g. 0.5,1,2"),
        Option("bess_prices", "--bess-prices", NUMBERS, "run", SWEEP, "EUR/kWh, e.g. 500,150"),
        Option("load_profile_csv", "--load-profile", PATH, "run", help="measured load CSV; "
               "sweep rescales it to each type's annual energy"),
        Option("pv_profile_csv", "--pv-profile", PATH, "run", help="measured PV CSV; "
               "sweep rescales it to kWp times country yield"),
        Option("parallel", "--parallel", INTEGER, "run", SWEEP,
               "workers (default: 1; at most one per CPU)"),
    )
}


@dataclass
class RunConfig:
    values: dict  # each OPTIONS key that is set: its flag's value, else the file's
    countries_source: str
    countries: dict[str, CountryData]
    econ: EconomicParams
    battery_kwargs: dict
    profiles: ProfileSource
    out_dir: Path
    inputs: dict[str, Path | None]  # what each input file is: its path, None if not read


def _path_arg(name: str):
    """The argparse type of the path flag or argument name.

    A bad path is a ConfigError, which argparse lets through, unlike a
    ValueError: main prints it in one line, as it does a bad config key.
    """

    def parse(text: str) -> Path:
        try:
            return PATH.parse(text)
        except ValueError:
            raise ConfigError(f"{name} must be {_a(PATH.label)}, got {text!r}") from None

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="storparity",
        description="Techno-economic evaluation of residential PV plus battery "
        "systems under a pure self-consumption scheme (no export remuneration).",
    )
    parser.add_argument("--version", action="version", version=f"storparity {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "simulate": sub.add_parser("simulate", help="evaluate a single scenario"),
        "sweep": sub.add_parser("sweep", help="run the full scenario grid"),
        "report": sub.add_parser("report", help="summarize a results CSV"),
    }
    for name, command in commands.items():
        command.add_argument("--config", type=_path_arg("--config"),
                             help="flat JSON config file; flags win over it")
        command.add_argument("--out", type=_path_arg("--out"),
                             help="output directory (default: .)")
        for opt in OPTIONS.values():
            if opt.flag is not None and name in opt.commands:
                parse = _path_arg(opt.flag) if opt.kind is PATH else opt.kind.parse
                command.add_argument(opt.flag, dest=opt.key, type=parse, help=opt.help)

    p_sim = commands["simulate"]
    p_sim.add_argument("--country", required=True)
    p_sim.add_argument("--type", required=True, dest="prosumer_type", choices=PROSUMER_TYPES)
    p_sim.add_argument("--pv-kwp", required=True, type=int, dest="pv_kwp")
    p_sim.add_argument("--ratio", required=True, type=float, help="BESS kWh per PV kWp")
    p_sim.add_argument("--bess-price", required=True, type=float, dest="bess_price")
    p_sim.add_argument(
        "--allow-out-of-range",
        action="store_true",
        help="accept PV sizes outside the standard per-type range",
    )
    p_sim.add_argument("--trace", type=_path_arg("--trace"),
                       help="also write the dispatch trace CSV here")
    commands["report"].add_argument("results_csv", type=_path_arg("results_csv"))
    return parser


def _read_text(path: Path, what: str) -> str:
    """The text of a file the user named; one that cannot be read is a ConfigError."""
    try:
        return path.read_text("utf-8")
    except FileNotFoundError as exc:
        raise ConfigError(f"{what} not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:  # a directory, no permission, not UTF-8
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def _check_outputs(outputs: Sequence[tuple[str, Path, Path]],
                   inputs: Mapping[str, Path | None]) -> None:
    """Fail before the work, creating nothing, if an output could not be written.

    outputs are (flag, its value, a path it writes); inputs map what each input
    is to its path, or to None. An output cannot be written when its nearest
    existing ancestor is not a directory, when it is a directory, or when it
    resolves, through symlinks, to an input or another output, to a directory
    one of them needs, or to a path under one of them.
    """
    taken = {path.resolve(): what for what, path in inputs.items() if path is not None}
    for flag, value, path in outputs:
        existing = next((p for p in path.parents if p.exists()), path.parent)
        if not existing.is_dir():
            raise ConfigError(f"cannot write {path}: {existing} is not a directory")
        if path.is_dir():
            raise ConfigError(f"cannot write {path}: it is a directory")
        where = path.resolve()
        for other, what in taken.items():
            if where == other:
                raise ConfigError(f"{flag} {value} would overwrite {path}, {what}")
            if other in where.parents:
                raise ConfigError(f"{flag} {value} would write {path} under {other}, {what}")
            if where in other.parents:
                raise ConfigError(f"{flag} {value} would write {path}, "
                                  f"a directory that {other}, {what}, needs")
        taken[where] = f"an output of {flag}"


def _write(files: Mapping[Path, str]) -> None:
    """Write each text to its path, making its directory first; an OSError is a ConfigError."""
    for path, text in files.items():
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        except OSError as exc:  # a file in the way, no permission, a full disk
            raise ConfigError(f"cannot write {path}: {exc}") from exc


def _load_config_file(path: Path) -> dict:
    """The config file's settings, each type-checked; NaN and infinities fail for every key."""

    def reject(constant: str):
        raise ConfigError(f"config file {path} holds {constant}, which is not a finite number")

    try:
        raw = json.loads(_read_text(path, "config file"), parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a flat JSON object")
    unknown = sorted(set(raw) - OPTIONS.keys())
    if unknown:
        raise ConfigError(f"unknown config keys in {path}: {', '.join(unknown)}")
    config = {}
    for key, value in raw.items():
        kind = OPTIONS[key].kind
        try:
            config[key] = kind.from_json(value)
        except ValueError:
            raise ConfigError(
                f"config key {key} in {path} must be {_a(kind.label)}, got {value!r}"
            ) from None
    return config


def _read_profile(path: Path, kind: ProfileKind, rescale: bool) -> TimeSeriesProfile:
    """The measured profile at path, which must hold energy if it is to be rescaled."""
    text = _read_text(path, "profile CSV")
    try:
        profile = parse_profile_csv(text, kind=kind)
    except ValueError as exc:  # StorParityError, a short year
        raise ConfigError(f"profile CSV {path}: {exc}") from exc
    if rescale and profile.year_energy_kwh <= 0.0:  # scale_to_annual's own condition
        raise ConfigError(f"profile CSV {path}: cannot rescale a profile with zero energy")
    return profile


def _resolve(args: argparse.Namespace) -> RunConfig:
    config = _load_config_file(args.config) if args.config else {}
    flags = {key: getattr(args, key, None) for key in OPTIONS}
    values = config | {key: value for key, value in flags.items() if value is not None}

    countries_path = values.get("countries_csv")
    if countries_path is None and os.environ.get(DATA_DIR_ENV):
        countries_path = Path(os.environ[DATA_DIR_ENV]) / "countries.csv"
    source = "packaged countries.csv" if countries_path is None else str(countries_path)
    try:
        countries = load_country_data(countries_path)
    except FileNotFoundError as exc:
        raise ConfigError(f"country CSV not found: {countries_path}") from exc
    except (OSError, ValueError) as exc:  # a directory, undecodable bytes, bad rows
        raise ConfigError(f"country CSV {source}: {exc}") from exc

    econ_kwargs = {k: v for k, v in values.items() if OPTIONS[k].target == "econ"}
    try:
        econ = EconomicParams(**econ_kwargs)
    except ValueError as exc:
        raise ConfigError(f"bad economic parameters: {exc}") from exc

    battery_kwargs = {k: v for k, v in values.items() if OPTIONS[k].target == "battery"}
    rt = battery_kwargs.pop("round_trip_efficiency", None)
    if rt is not None:
        if not 0.0 < rt <= 1.0:
            raise ConfigError(f"round_trip_efficiency must be in (0, 1], got {rt}")
        battery_kwargs["eta_charge"] = battery_kwargs["eta_discharge"] = math.sqrt(rt)
    try:
        BatterySpec(capacity_kwh=1.0, **battery_kwargs)
    except ValueError as exc:
        raise ConfigError(f"bad battery parameters: {exc}") from exc

    load_path, pv_path = values.get("load_profile_csv"), values.get("pv_profile_csv")
    # simulate runs the measured year as it is; sweep uses it as a shape
    rescale = args.command == "sweep"
    load = _read_profile(load_path, ProfileKind.LOAD, rescale) if load_path else None
    pv = _read_profile(pv_path, ProfileKind.PV, rescale) if pv_path else None
    try:
        profiles = ProfileSource(load=load, pv=pv, rescale=rescale)
    except ValueError as exc:  # IncompatibleProfilesError
        raise ConfigError(f"load and PV profile steps do not align: {exc}") from exc
    inputs = {"the config file": args.config, "the country CSV": countries_path,
              "the load profile CSV": load_path, "the PV profile CSV": pv_path}
    return RunConfig(values, source, countries, econ, battery_kwargs, profiles,
                     args.out or Path("."), inputs)


def _manifest(cfg: RunConfig, command: str, extra: dict) -> str:
    """run-manifest.json's text: every parameter the run used, byte-reproducibly."""
    battery_defaults = BatterySpec(capacity_kwh=1.0, **cfg.battery_kwargs)
    manifest = {
        "tool": "storparity",
        "version": __version__,
        "command": command,
        "countries_source": cfg.countries_source,
        "countries": {
            name: {
                "retail_eur_per_kwh": c.retail_price_eur_per_kwh,
                "annual_yield_kwh_per_kwp": c.annual_yield_kwh_per_kwp,
                "vat_rate": c.vat_rate,
            }
            for name, c in cfg.countries.items()
        },
        "econ": {
            ("vat_rate_override" if key == "vat_rate" else key): getattr(cfg.econ, key)
            for key, opt in OPTIONS.items()
            if opt.target == "econ"
        },
        "battery": {
            "usable_fraction": battery_defaults.usable_fraction,
            "eta_charge": battery_defaults.eta_charge,
            "eta_discharge": battery_defaults.eta_discharge,
            "max_charge_kw": cfg.battery_kwargs.get("max_charge_kw", "0.5C"),
            "max_discharge_kw": cfg.battery_kwargs.get("max_discharge_kw", "0.5C"),
            "soc_init": "soc_min",
        },
        # tuples become lists and the frozenset of weekend days a sorted list
        "shapes": asdict(default_shapes()),
        "grid": {
            "annual_load_kwh": ANNUAL_LOAD_KWH,
            "pv_ranges_kwp": {t: list(PV_RANGE_KWP[t]) for t in PROSUMER_TYPES},
        },
        "profile_overrides": {
            side: str(cfg.values[key]) if key in cfg.values else None
            for side, key in (("load", "load_profile_csv"), ("pv", "pv_profile_csv"))
        },
        **extra,
    }
    return json.dumps(manifest, indent=2, sort_keys=True, default=sorted) + "\n"


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    if args.country not in cfg.countries:
        raise ConfigError(f"country '{args.country}' not found in {cfg.countries_source}")
    try:
        scenario = Scenario(
            country=args.country,
            prosumer_type=args.prosumer_type,
            pv_kwp=args.pv_kwp,
            ratio_kwh_per_kwp=args.ratio,
            bess_price_eur_per_kwh=args.bess_price,
        )
    except ValueError as exc:
        raise ConfigError(exc) from exc
    if not scenario.in_standard_range() and not args.allow_out_of_range:
        lo, hi = PV_RANGE_KWP[scenario.prosumer_type]
        raise ConfigError(
            f"pv_kwp {scenario.pv_kwp} outside the standard range {lo}..{hi} for "
            f"type {scenario.prosumer_type}; pass --allow-out-of-range to override"
        )

    outputs = [("--out", cfg.out_dir, cfg.out_dir / name)
               for name in ("scenario_result.csv", MANIFEST_NAME)]
    if args.trace is not None:
        outputs.append(("--trace", args.trace, args.trace))
    _check_outputs(outputs, cfg.inputs)
    country = cfg.countries[scenario.country]
    try:
        trace, table = simulate_scenario(scenario, country, cfg.econ, cfg.profiles,
                                         cfg.battery_kwargs)
    except ValueError as exc:  # StorParityError and kin
        print(f"computation error: {exc}", file=sys.stderr)
        return 1

    texts = [results_to_csv(table), _manifest(cfg, "simulate", {"scenario": asdict(scenario)})]
    if args.trace is not None:
        # looked up on the module, where the benchmark's span recorder wraps it
        texts.append(dispatch.trace_to_csv(trace))
    _write({path: text for (_, _, path), text in zip(outputs, texts)})

    print(
        f"scenario : {scenario.country} type {scenario.prosumer_type}, "
        f"{scenario.pv_kwp} kWp PV, {_fmt_axis(scenario.bess_kwh)} kWh BESS @ "
        f"{_fmt_axis(scenario.bess_price_eur_per_kwh)} EUR/kWh"
    )
    print(f"SCR      : {table.scr[0]:.6f}")
    print(f"SSR      : {table.ssr[0]:.6f}")
    print(f"LCOE     : {table.lcoe[0]:.6f} EUR/kWh")
    print(f"LCOU     : {table.lcou[0]:.6f} EUR/kWh")
    print(f"NPV      : {table.npv[0]:.2f} EUR")
    verdict = "yes" if table.grid_parity[0] else "no"
    print(f"parity   : {verdict} (retail {country.retail_price_eur_per_kwh:.5f} EUR/kWh)")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    axes = {
        "countries": cfg.values.get("countries", list(cfg.countries)),
        "prosumer_types": cfg.values.get("prosumer_types", list(PROSUMER_TYPES)),
        "ratios": cfg.values.get("ratios", list(DEFAULT_RATIOS)),
        "bess_prices": cfg.values.get("bess_prices", list(DEFAULT_BESS_PRICES)),
    }
    for name in axes["countries"]:
        if name not in cfg.countries:
            raise ConfigError(f"country '{name}' not found in {cfg.countries_source}")
    for t in axes["prosumer_types"]:
        if t not in PROSUMER_TYPES:
            raise ConfigError(f"unknown prosumer type '{t}' (expected one of {PROSUMER_TYPES})")
    parallel = cfg.values.get("parallel", 1)
    if parallel < 1:
        raise ConfigError(f"parallel must be >= 1, got {parallel}")
    try:
        grid = build_grid(*axes.values())
    except ValueError as exc:  # an empty axis, a Scenario out of range
        raise ConfigError(exc) from exc

    outputs = [("--out", cfg.out_dir, cfg.out_dir / name)
               for name in ("results.csv", "parity_shares.csv", "box_stats.csv", MANIFEST_NAME)]
    _check_outputs(outputs, cfg.inputs)
    failures: list = []
    results = run_sweep(
        grid,
        cfg.countries,
        cfg.econ,
        cfg.profiles,
        battery_kwargs=cfg.battery_kwargs,
        parallel=parallel,
        failures=failures,
    )

    # a ResultsTable: one sort serves both summary CSVs and stdout; every file
    # is written, a CSV header-only when nothing was priced, so no file of an
    # earlier run is left beside them
    texts = (results_to_csv(results), parity_shares_to_csv(results), box_stats_to_csv(results),
             _manifest(cfg, "sweep", {"axes": axes}))
    _write({path: text for (_, _, path), text in zip(outputs, texts)})

    print(f"evaluated {len(results)} of {len(grid)} scenarios")
    for country, price_label, share in parity_share_table(results):
        print(f"  parity share {country} @ {price_label}: {share:.1f}%")
    if failures:
        print(f"{len(failures)} scenario(s) failed:", file=sys.stderr)
        for scenario, message in failures:
            print(f"  {scenario.key}: {message}", file=sys.stderr)
        return 1
    return 0


#: The keys of the records in each list of report_summary.json, in row order.
SUMMARY_KEYS = {
    "parity_shares": ("country", "bess_price", "share_percent"),
    "lcou_quartiles": ("country", "bess_price", "min", "q1", "median", "q3", "max"),
    "best_pv_size_kwp": (
        "country", "prosumer_type", "ratio_kwh_per_kwp", "bess_price_eur_per_kwh", "pv_kwp"
    ),
}


def write_json_records(document: Mapping[str, Sequence[dict]]) -> str:
    """``json.dumps(document, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    The document maps names to lists of flat records. The records of one
    list share their keys; their values are strings, numbers, booleans or
    None. Each value is written by the scalar encoders json itself uses, one
    column at a time, instead of by json's pure-Python indenting encoder.
    """
    if not document:
        return "{}\n"
    lists = (f"  {encode_basestring_ascii(name)}: {_json_list(records)}"
             for name, records in sorted(document.items()))
    return "{\n" + ",\n".join(lists) + "\n}\n"


def _json_list(records: Sequence[dict]) -> str:
    if not records:
        return "[]"
    if any(map(records[0].keys().__ne__, map(dict.keys, records))):
        raise ValueError("the records of one list must share their keys")
    keys = sorted(records[0])
    if not keys:
        return "[\n" + ",\n".join(["    {}"] * len(records)) + "\n  ]"
    fields = (f"      {encode_basestring_ascii(key).replace('%', '%%')}: %s" for key in keys)
    template = "    {\n" + ",\n".join(fields) + "\n    }"
    columns = (_json_column([record[key] for record in records]) for key in keys)
    return "[\n" + ",\n".join(map(template.__mod__, zip(*columns))) + "\n  ]"


def _json_column(values: list) -> list[str]:
    """Each value of a column as json writes it, by json's own C encoders."""
    if all(isinstance(value, str) for value in values):
        return list(map(encode_basestring_ascii, values))
    if not any(isinstance(value, str) for value in values):  # so no ", " inside a value
        return json.dumps(values)[1:-1].split(", ")
    return list(map(json.dumps, values))


def cmd_report(args: argparse.Namespace) -> int:
    out_dir = args.out or Path(".")
    summary_json = out_dir / "report_summary.json"
    _check_outputs([("--out", out_dir, summary_json)],
                   {"the config file": args.config, "the results CSV": args.results_csv})
    if args.config:  # type-checked, though no setting changes a report
        _load_config_file(args.config)
    text = _read_text(args.results_csv, "results CSV")
    try:
        table = parse_results_csv(text)
        quartiles = [(country, price, st.minimum, st.q1, st.median, st.q3, st.maximum)
                     for country, price, st in box_stats_by_country_price(table)]
    except ValueError as exc:
        raise ConfigError(f"results CSV {args.results_csv}: {exc}") from exc

    shares = parity_share_table(table)
    best_rows = best_pv_sizes(table)

    print("== Grid-parity shares (% of scenarios with LCOU below retail) ==")
    for country, price_label, share in shares:
        label = price_label if price_label == "pooled" else f"{price_label} EUR/kWh"
        print(f"  {country:<10} {label:<12} {share:6.1f}%")
    print()
    print("== LCOU five-number summary (EUR/kWh) ==")
    print(f"  {'country':<10} {'price':<8} {'min':>8} {'q1':>8} {'median':>8} {'q3':>8} {'max':>8}")
    for country, price, *five in quartiles:
        print(f"  {country:<10} {_fmt_axis(price):<8} " + " ".join(f"{v:8.4f}" for v in five))
    print()
    print("== Best PV size (kWp) minimizing LCOU ==")
    print(f"  {'country':<10} {'type':<5} {'ratio':<6} {'price':<8} {'kWp':>4}")
    for country, ptype, ratio, price, size in best_rows:
        print(f"  {country:<10} {ptype:<5} {_fmt_axis(ratio):<6} {_fmt_axis(price):<8} {size:>4}")

    summary = {name: [dict(zip(keys, row)) for row in rows]
               for (name, keys), rows in zip(SUMMARY_KEYS.items(), (shares, quartiles, best_rows))}
    _write({summary_json: write_json_records(summary)})
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    handlers = {"simulate": cmd_simulate, "sweep": cmd_sweep, "report": cmd_report}
    try:
        args = parser.parse_args(argv)  # raises ConfigError for an empty path
        return handlers[args.command](args)
    except SystemExit as exc:  # argparse's --help, --version and usage errors
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EnergyBooksError as exc:  # a bug: no result is written
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
