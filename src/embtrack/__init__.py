"""Speaker embedding-based identity reassignment for intermittent, moving speakers."""

__version__ = "0.1.0"

from .beamforming import beamform_ds, beamform_ideal, beamform_mvdr, steering_vector
from .embedding import (
    Embedding,
    EnrollmentPool,
    build_enrollment,
    embed,
)
from .fragments import DurationPolicy, Fragment, extraction_window, segment
from .geometry import DoA, angular_distance
from .metrics import (
    FrameMatching,
    MetricsReport,
    SceneMetrics,
    aggregate_report,
    assa,
    evaluate_scene,
    le,
    match_frames,
    swap_frag_rates,
)
from .reassignment import AssignmentResult, PipelineResult, reassign, run_pipeline
from .scene import (
    FoaSignal,
    Scene,
    SceneSpec,
    SpeakerGroundTruth,
    VoiceParams,
    generate_diffuse_noise,
    simulate,
    synthesize_voice,
)
from .tracking import (
    NoiseModel,
    ObservationFrame,
    TrackerConfig,
    Trajectory,
    observe_est,
    observe_gt,
    track,
)

__all__ = [
    "AssignmentResult",
    "DoA",
    "DurationPolicy",
    "Embedding",
    "EnrollmentPool",
    "FoaSignal",
    "FrameMatching",
    "Fragment",
    "MetricsReport",
    "NoiseModel",
    "ObservationFrame",
    "PipelineResult",
    "Scene",
    "SceneMetrics",
    "SceneSpec",
    "SpeakerGroundTruth",
    "TrackerConfig",
    "Trajectory",
    "VoiceParams",
    "aggregate_report",
    "angular_distance",
    "assa",
    "beamform_ds",
    "beamform_ideal",
    "beamform_mvdr",
    "build_enrollment",
    "embed",
    "evaluate_scene",
    "extraction_window",
    "generate_diffuse_noise",
    "le",
    "match_frames",
    "observe_est",
    "observe_gt",
    "reassign",
    "run_pipeline",
    "segment",
    "simulate",
    "steering_vector",
    "swap_frag_rates",
    "synthesize_voice",
    "track",
]
