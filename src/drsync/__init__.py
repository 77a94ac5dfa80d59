"""Dead-reckoning state synchronization over simulated game networks.

Subpackages by concern:

* :mod:`drsync.core` - positions, snapshots, trajectories.
* :mod:`drsync.protocol` - threshold-driven sender, newest-wins receiver,
  export error.
* :mod:`drsync.netsim` - seeded lossy channel, reliable-ordered vs.
  unreliable transports, de-jitter buffer.
* :mod:`drsync.workload` - synthetic tick-based game traffic.
* :mod:`drsync.analysis` - trace statistics, autocorrelation, periodicity.
* :mod:`drsync.qon` - connection-quality churn model and risk predictor.
* :mod:`drsync.scenario` - end-to-end scenario runner and comparisons.
* :mod:`drsync.cli` - the ``drsync`` command.
"""

from .core import (
    DRVector,
    TimeMs,
    TrajectoryScript,
    Vec3,
    deviation,
    extrapolate,
    sample_trajectory,
)
from .protocol import (
    ExportErrorReport,
    ProtocolConfig,
    ReceiverState,
    SenderState,
    compute_export_error,
    receiver_apply,
    render_position,
    sender_tick,
)
from .netsim import (
    ChannelConfig,
    DejitterConfig,
    DeliveryEvent,
    LatePolicy,
    ReliableOrdered,
    channel_transmit,
    dejitter_deliver,
    reliable_run,
    transmission_rng,
    unreliable_run,
)
from .workload import (
    BurstModel,
    Direction,
    GlobalEventModel,
    PayloadSizeDist,
    TraceRecord,
    WorkloadProfile,
    generate_trace,
    preset,
    preset_names,
)
from .analysis import (
    CountSeries,
    InterarrivalStats,
    PeriodEstimate,
    TraceStats,
    autocorr,
    bucket_counts,
    compute_stats,
    detect_period,
    interarrival_stats,
)
from .qon import (
    Action,
    ChurnModelParams,
    PredictorWeights,
    RiskAssessment,
    SessionMetrics,
    assess,
    decide_action,
    fit_weights,
    ground_truth_quit,
    risk_score,
)
from .scenario import (
    ChannelSpec,
    CompareRow,
    ConfigError,
    RunResult,
    ScenarioConfig,
    TrajectoryGenConfig,
    TrajectorySource,
    comparison_scenario,
    config_from_dict,
    config_from_json,
    config_to_dict,
    generate_trajectory,
    run_compare,
    run_simulation,
    write_run_outputs,
)

__version__ = "0.1.0"
