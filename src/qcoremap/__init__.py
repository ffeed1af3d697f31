"""qcoremap: map kernelized quantum programs onto a multi-core,
ancilla-sharing quantum processor model."""

__version__ = "0.1.0"

from .errors import ConfigError, NetlistError
from .ir import (
    Kernel,
    KernelCatalog,
    KernelProgram,
    QuantumOp,
    StageSequence,
    identify_kernels,
    parse_program,
)
from .qodg import Qodg, build_qodg, critical_path, level_graph, render_dot
from .partition import (
    Partition,
    WeightAnnotation,
    assign_weight_vectors,
    kway_partition,
    traffic_matrix,
)
from .fabric import (
    CoreGeometry,
    FabricParams,
    OpCost,
    QecProfile,
    bundled_profile,
    compute_dmax,
    compute_geometry,
    delay_matrix,
    grid_layout,
    load_qec_profile,
)
from .binding import Binding, bind_parts
from .scheduling import (
    LevelizedDurations,
    MappedSchedule,
    ScheduleConfig,
    ScheduledOp,
    list_schedule,
    quantize,
    verify_schedule,
)
from .driver import (
    MappingReport,
    SweepPoint,
    SweepResult,
    map_program,
    render_report,
    render_sweep_csv,
    sweep_budget,
    sweep_cores,
)
