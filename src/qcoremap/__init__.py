"""qcoremap: map kernelized quantum programs onto a multi-core,
ancilla-sharing quantum processor model."""

__version__ = "0.1.0"

from .errors import ConfigError, NetlistError
from .ir import (
    Kernel,
    KernelCatalog,
    KernelProgram,
    LogicalQubit,
    QuantumOp,
    StageSequence,
    flat_expansion,
    flat_op_count,
    identify_kernels,
    parse_program,
    serialize_program,
)
from .qodg import Qodg, QodgEdge, build_qodg, critical_path, dump_dot, level_graph
from .partition import (
    Partition,
    WeightAnnotation,
    assign_weight_vectors,
    kway_partition,
    traffic_matrix,
)
from .fabric import (
    CoreGeometry,
    DelayMatrix,
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
from .binding import Binding, bind_parts, binding_cost
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
    sweep_budget,
    sweep_cores,
    write_sweep_csv,
)
