"""Non-intrusive routine monitoring from 15-minute electricity readouts.

The package covers the whole desk-scale pipeline: an optical-port readout
codec, a seeded household load simulator, a telemetry store deriving
mean-power series from cumulative registers, daily-profile clustering,
and anomalous-day ranking, surfaced through a CLI and a small HTTP
service.
"""

from .anomaly import AnomalyReport, anomaly_scores, robust_threshold
from .clustering import (
    ClusterModel,
    ClusterSummary,
    KSelectionReport,
    kmeans_fit,
    mean_cluster_profiles,
    select_k,
)
from .personas import (
    AppliancePattern,
    HouseholdPersona,
    PERSONA_IDS,
    RoutineTemplate,
    ScheduleWindow,
    build_persona,
    load_persona,
)
from .pipeline import AnalysisConfig, InsufficientDataError, analyze_meter
from .profiles import DailyProfiles, ExcludedDay, build_daily_profiles
from .protocol import (
    DataLine,
    IdentificationMessage,
    ObisCode,
    ProtocolError,
    ReadoutFrame,
    Unit,
    compute_bcc,
    encode_readout,
    encode_request,
    extract_energy,
    is_sign_on_request,
    parse_identification,
    parse_readout,
)
from .simulator import AnomalyScript, SimOutput, emit_frames, simulate_period
from .store import (
    MeterReading,
    PowerSample,
    StoreStats,
    TelemetryStore,
    read_readings_csv,
    write_readings_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "AnomalyReport",
    "AnomalyScript",
    "AppliancePattern",
    "ClusterModel",
    "ClusterSummary",
    "DailyProfiles",
    "DataLine",
    "ExcludedDay",
    "HouseholdPersona",
    "IdentificationMessage",
    "InsufficientDataError",
    "KSelectionReport",
    "MeterReading",
    "ObisCode",
    "PERSONA_IDS",
    "PowerSample",
    "ProtocolError",
    "ReadoutFrame",
    "RoutineTemplate",
    "ScheduleWindow",
    "SimOutput",
    "StoreStats",
    "TelemetryStore",
    "Unit",
    "analyze_meter",
    "anomaly_scores",
    "build_daily_profiles",
    "build_persona",
    "compute_bcc",
    "emit_frames",
    "encode_readout",
    "encode_request",
    "extract_energy",
    "is_sign_on_request",
    "kmeans_fit",
    "load_persona",
    "mean_cluster_profiles",
    "parse_identification",
    "parse_readout",
    "read_readings_csv",
    "robust_threshold",
    "select_k",
    "simulate_period",
    "write_readings_csv",
    "__version__",
]
