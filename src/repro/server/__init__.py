"""Deployment substrate: collection, querying, persistence, and the
Appendix A server."""

from .collector import (
    AlignedColumns,
    SketchColumn,
    SketchStore,
    attribute_subsets,
    per_bit_subsets,
    prefix_subsets,
    publish_database,
)
from .engine import MissingSketchError, QueryEngine
from .evaluation_cache import SketchEvaluationCache, store_content_hash
from .remote import RemoteQueryEngine, RemoteServer, serve_in_thread
from .resilience import (
    CircuitBreaker,
    CircuitOpenError,
    Deadline,
    DeadlineExceeded,
    RetryPolicy,
    current_deadline,
    deadline_scope,
)
from .serialization import (
    dumps_store,
    load_store,
    loads_store,
    save_store,
)
from .shard_coordinator import ShardCoordinator
from .shard_service import ShardedService, sharded_service
from .shard_worker import ShardWorkerEngine, run_shard_worker
from .sharded import ShardMap, ShardSpec, ShardUnavailableError
from .streaming import StreamingEstimator, merge_stores
from .sulq import DualModeServer, QueryBudgetExhausted, QueryRecord, SulqServer

__all__ = [
    "AlignedColumns",
    "CircuitBreaker",
    "CircuitOpenError",
    "Deadline",
    "DeadlineExceeded",
    "DualModeServer",
    "MissingSketchError",
    "QueryBudgetExhausted",
    "QueryEngine",
    "QueryRecord",
    "RemoteQueryEngine",
    "RemoteServer",
    "RetryPolicy",
    "ShardCoordinator",
    "ShardMap",
    "ShardSpec",
    "ShardUnavailableError",
    "ShardWorkerEngine",
    "ShardedService",
    "SketchColumn",
    "SketchEvaluationCache",
    "SketchStore",
    "StreamingEstimator",
    "SulqServer",
    "attribute_subsets",
    "current_deadline",
    "deadline_scope",
    "dumps_store",
    "load_store",
    "loads_store",
    "merge_stores",
    "per_bit_subsets",
    "prefix_subsets",
    "publish_database",
    "run_shard_worker",
    "save_store",
    "serve_in_thread",
    "sharded_service",
    "store_content_hash",
]
