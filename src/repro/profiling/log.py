"""Transaction-log capture and writeset extraction (§4.1.1).

On a real deployment the workload is captured from the database log (full
SQL statements, session id, start timestamp — e.g. PostgreSQL's
``log_statement``/``log_line_prefix``) and writesets are extracted by
triggers on all tables.  Here the "standalone database" is simulated, so
:func:`capture_log` records the same information from a simulated client
population, and :func:`extract_writesets` replays the update transactions
against a real :class:`~repro.sidb.engine.SIDatabase` whose commit path
plays the role of the triggers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..core import rng as rng_util
from ..core.errors import ConfigurationError, ProfilingError, TransactionAborted
from ..core.params import WorkloadMix
from ..sidb.engine import SIDatabase
from ..sidb.writeset import Writeset
from ..workloads.spec import WorkloadSpec

#: Transaction kinds recorded in the log.
READ_ONLY = "read-only"
UPDATE = "update"

#: Reads a transaction performs per written row in the synthetic operation
#: stream (update transactions read the rows they modify, plus browsing).
_READS_PER_WRITE = 2


@dataclass(frozen=True)
class LogRecord:
    """One captured transaction: what the database log would show."""

    txn_id: int
    kind: str
    session_id: int
    start_time: float
    #: Operation stream: ("read", key) and ("write", key, value) tuples —
    #: the semantic content of the logged SQL statements.
    operations: Tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in (READ_ONLY, UPDATE):
            raise ConfigurationError(f"unknown transaction kind {self.kind!r}")
        if self.start_time < 0:
            raise ConfigurationError("start_time must be non-negative")


@dataclass
class TransactionLog:
    """A captured standalone workload trace."""

    workload: str
    records: List[LogRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def read_only_count(self) -> int:
        """Number of read-only transactions in the log."""
        return sum(1 for r in self.records if r.kind == READ_ONLY)

    @property
    def update_count(self) -> int:
        """Number of update transactions in the log."""
        return sum(1 for r in self.records if r.kind == UPDATE)

    def measured_mix(self) -> WorkloadMix:
        """Pr/Pw estimated by counting log records (§4.1.1)."""
        total = len(self.records)
        if total == 0:
            raise ProfilingError("cannot estimate a mix from an empty log")
        read_fraction = self.read_only_count / total
        return WorkloadMix(
            read_fraction=read_fraction, write_fraction=1.0 - read_fraction
        )

    def updates(self) -> List[LogRecord]:
        """The update transactions, in capture order."""
        return [r for r in self.records if r.kind == UPDATE]


def capture_log(
    spec: WorkloadSpec,
    transactions: int,
    seed: int = rng_util.DEFAULT_SEED,
    sessions: Optional[int] = None,
) -> TransactionLog:
    """Capture a workload trace of *transactions* transactions.

    Sessions model the concurrent client connections; timestamps advance
    with exponential think times per session, interleaved in time order as
    a database log would be.
    """
    if transactions < 1:
        raise ConfigurationError("need at least one transaction")
    sessions = sessions or spec.clients_per_replica
    if sessions < 1:
        raise ConfigurationError("need at least one session")

    rng = rng_util.spawn(seed, "log-capture", spec.name)
    clocks = [0.0] * sessions
    records: List[LogRecord] = []
    for txn_id in range(1, transactions + 1):
        session = int(rng.integers(0, sessions))
        clocks[session] += rng_util.exponential(rng, spec.think_time)
        start = clocks[session]
        is_update = (
            spec.mix.write_fraction > 0.0 and rng.random() < spec.mix.write_fraction
        )
        if is_update:
            operations = _update_operations(spec, rng, txn_id)
            kind = UPDATE
        else:
            operations = _read_operations(spec, rng)
            kind = READ_ONLY
        records.append(
            LogRecord(
                txn_id=txn_id,
                kind=kind,
                session_id=session,
                start_time=start,
                operations=tuple(operations),
            )
        )
    records.sort(key=lambda r: (r.start_time, r.txn_id))
    return TransactionLog(workload=spec.name, records=records)


def _update_operations(spec: WorkloadSpec, rng, txn_id: int) -> List[Tuple]:
    conflict = spec.conflict
    if conflict is None:
        raise ConfigurationError(f"{spec.name} has no conflict profile")
    rows = rng_util.sample_rows(
        rng, conflict.db_update_size, conflict.updates_per_transaction
    )
    operations: List[Tuple] = []
    for row in sorted(rows):
        key = ("updatable", row)
        for _ in range(_READS_PER_WRITE):
            operations.append(("read", key))
        operations.append(("write", key, txn_id))
    return operations


def _read_operations(spec: WorkloadSpec, rng) -> List[Tuple]:
    # Read-only transactions browse a few rows; the exact keys are
    # irrelevant to conflicts (SI reads never conflict) but exercising the
    # snapshot-read path keeps the replay honest.
    count = 1 + int(rng.integers(0, 4))
    size = spec.conflict.db_update_size if spec.conflict else 10_000
    return [
        ("read", ("updatable", int(rng.integers(0, size)))) for _ in range(count)
    ]


def extract_writesets(
    log: TransactionLog, database: Optional[SIDatabase] = None
) -> List[Writeset]:
    """Replay the log's update transactions and capture their writesets.

    This is the trigger-based extraction step of §4.1.1: every update
    transaction is executed against a snapshot-isolated database and its
    writeset is recorded at commit.  Aborted replays (possible if the log
    interleaving conflicts) are skipped, as the paper's trigger capture
    only sees committed writesets.
    """
    database = database or SIDatabase()
    writesets: List[Writeset] = []
    for record in log.updates():
        try:
            writeset = database.run(record.operations)
        except TransactionAborted:
            continue
        if writeset is not None:
            writesets.append(writeset)
    return writesets
