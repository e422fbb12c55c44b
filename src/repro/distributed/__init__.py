"""Distributed-memory substrate (paper §6.2, Figure 10).

mpi4py is unavailable offline, so the distributed design is reproduced with
a **simulated MPI communicator** (:class:`~repro.distributed.comm.SimComm`):
the per-rank algorithm code is real and runs for real — row-wise 1-D
partitioning, distributed Δ-stepping with owner-routed relaxation requests,
a distributed sample sort — and the communicator charges every message
through a BSP α/β cost model, so the Figure 10 scaling curves derive from
the *actual* communication volume of the actual algorithm on the actual
partition.  Results are bit-identical to the serial kernels (tested).
"""

from repro.distributed.comm import CommModel, DistReport, SimComm
from repro.distributed.checkpoint import CheckpointStore
from repro.distributed.partition import RowPartition
from repro.distributed.dist_sssp import distributed_delta_stepping
from repro.distributed.sample_sort import distributed_sample_sort
from repro.distributed.supervisor import DistSupervisor, RecoveryConfig
from repro.distributed.dist_peek import DistributedPeeK, distributed_peek
from repro.serve.faults import FaultPlan

__all__ = [
    "CommModel",
    "SimComm",
    "DistReport",
    "FaultPlan",
    "CheckpointStore",
    "DistSupervisor",
    "RecoveryConfig",
    "RowPartition",
    "distributed_delta_stepping",
    "distributed_sample_sort",
    "DistributedPeeK",
    "distributed_peek",
]
