"""Algorithm-based fault tolerance (paper Sec. II-C and Sec. V).

Contains the one-sided checksum mathematics the paper's architecture uses for
detection, the paper's statistical ABFT decision rule with its critical-region
parameterization, and the baseline detectors it is compared against
(classical ABFT, ApproxABFT, DMR, ThunderVolt).
"""

from repro.abft.checksums import (
    ChecksumReport,
    column_checksum,
    input_checksum,
    checksum_report,
)
from repro.abft.region import CriticalRegion, fit_critical_region, theta_mag
from repro.abft.protectors import (
    Protector,
    NoProtection,
    ClassicalABFT,
    ApproxABFT,
    StatisticalABFT,
    LaneProtector,
    ProtectionStats,
)
from repro.abft.baselines import MethodProfile, METHOD_PROFILES

__all__ = [
    "ChecksumReport",
    "column_checksum",
    "input_checksum",
    "checksum_report",
    "CriticalRegion",
    "fit_critical_region",
    "theta_mag",
    "Protector",
    "NoProtection",
    "ClassicalABFT",
    "ApproxABFT",
    "StatisticalABFT",
    "LaneProtector",
    "ProtectionStats",
    "MethodProfile",
    "METHOD_PROFILES",
]
