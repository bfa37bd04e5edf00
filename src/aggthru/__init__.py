"""Maximum MAC throughput of 802.11ax/ac single-user two-level aggregation.

The package models one saturated transmitter: MSDUs packed into MPDUs,
MPDUs packed into one A-MPDU per transmission cycle, each cycle ending in
a block acknowledgment.  It evaluates the exact cycle throughput, finds
the throughput-maximizing aggregation plan under the frame-count, byte and
airtime limits, and carries the continuous model, a ``Link`` without the
symbol ceiling and with real-valued MSDU counts, with its closed-form optimum.
"""
from .params import (
    AC_MCS_RATES,
    AX_MCS_RATES,
    DEFAULT_OVERHEAD,
    OverheadConfig,
    ProtocolConfig,
    ProtocolFlavor,
    Scenario,
    UnsupportedMcsError,
    apply_overrides,
    block_ack_duration,
    cycle_overhead,
    default_config,
    load_override_file,
    parse_override_text,
    phy_rate,
    resolve_config,
)
from .geometry import (
    AggregationPlan,
    AirtimeBreakdown,
    Feasibility,
    Link,
    MsduSlot,
    MsduTooLargeError,
    airtime,
    is_feasible,
    mpdu_bits,
    mpdu_bytes,
    success_probability,
    y_max,
)
from .exact import (
    InfeasiblePlanError,
    MonteCarloResult,
    NoFeasiblePlanError,
    ThroughputResult,
    optimize_exact,
    optimize_exact_batch,
    simulate_throughput,
    throughput_exact,
)
from .approx import (
    CrossoverReport,
    ReliableCrossover,
    crossover_mcs,
    crossover_rate_reliable,
    smallest_mcs_at_least,
    throughput_approx,
    throughput_on_budget,
    x_opt_coefficient,
    y_from_x,
)
from .report import (
    CSV_HEADER,
    ImprovementTable,
    SweepGrid,
    SweepRow,
    improvement,
    rows_to_csv,
    rows_to_json,
    run_sweep,
)

__version__ = "0.1.0"
