"""Deterministic grid / wind-fleet / V2G BEV-fleet scenario simulator."""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .ingest import (
    GridSeries,
    IngestError,
    RawRecord,
    Records,
    WeekSeries,
    canonicalize,
    cut_year,
    parse_csv,
)
from .scaling import (
    NormalizedYear,
    ScalingSpec,
    WindHistogram,
    extrapolate_wind,
    normalize,
    wind_histogram,
)
from .dispatch import (
    DispatchConfig,
    DispatchResult,
    dispatch_week,
)
from .curves import (
    CharacteristicCurve,
    CurveRequest,
    TargetUnreachableError,
    annual_curve,
    curve_from_histogram,
    invert_annual_curve,
    invert_curve,
)
from .bev import (
    BevFleetSpec,
    ChargeSchedule,
    SocTrajectory,
    consumption_profile,
    leveling_schedule,
    soc_trajectory,
    weekly_levels,
)
from .report import (
    FleetSizingRow,
    LullReport,
    ScenarioConstants,
    build_table2,
    lull_report,
)
from .synth import synthetic_year

# the names imported above, in their order; the submodules are not among them
__all__ = ["__version__"] + [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
