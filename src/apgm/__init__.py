"""Adaptive patched grid mapping with evidential fusion.

A sparse, requirement-driven grid map: geodetically anchored patches hold
typed layers of Dempster-Shafer evidence cells at per-layer power-of-two
resolutions. Measurement grids from lidar and camera models are fused
through a generic cell/layer/patch/grid framework, and layers are merged
or split in measurement space when the demanded resolution changes.
"""

from .errors import (
    CellOutOfBoundsError,
    ConfigError,
    DatumMismatchError,
    EdgeMismatchError,
    FrameMismatchError,
    GridMapError,
    InputShapeError,
    InvariantError,
    MassOverflowError,
    NegativeMassError,
    NonFiniteInputError,
    ResolutionConflictError,
    SnapshotError,
    TotalConflictError,
    UnknownHypothesisError,
    UnsupportedTypeError,
)
from .evidence import (
    BBA,
    ConflictCounter,
    Frame,
    belief,
    combine_dst,
    combine_mass_arrays,
    discount,
    make_bba,
    pignistic,
    plausibility,
    vacuous,
)
from .fusion import (
    discount_grid,
    fuse_cells,
    fuse_grids,
    fuse_layers,
    fuse_patches,
)
from .grid import (
    FREE,
    OCCUPANCY_FRAME,
    OCCUPIED,
    SEMANTIC_FRAME,
    GridConfig,
    GridMap,
    Layer,
    Patch,
)
from .requirements import (
    MutationReport,
    RequirementProfile,
    TypeRequirement,
    apply_requirements,
    patch_in_horizon,
    required_step,
    required_steps,
)
from .resample import (
    merge_occ,
    merge_sem,
    resample_layer,
    split_occ,
    split_sem,
)
from .scenario import (
    CameraConfig,
    LidarConfig,
    MetricsRecord,
    ScenarioConfig,
    ScenarioScript,
    default_scenario,
    map_step,
    run_scenario,
    simulate_camera,
    simulate_lidar,
    write_metrics,
)
from .sensors import (
    PointCloud,
    SemanticObservation,
    SensorModelParams,
    load_point_file,
    measurement_grid_occupancy,
    measurement_grid_semantic,
    occupancy_evidence,
    ray_traverse,
)
from .snapshot import load_grid, save_grid
from .world import WorldModel, default_world

__version__ = "0.1.0"
