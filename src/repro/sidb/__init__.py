"""An in-memory snapshot-isolated (SI/GSI) database engine (§2 of the paper)."""

from .certifier import GlobalCertifier
from .certifier_api import (
    CERTIFIER_KINDS,
    CertificationOutcome,
    CertifierProtocol,
    CertifierSpec,
    UnknownCertifierError,
    resolve_certifier_spec,
)
from .engine import SIDatabase
from .sharded import ShardedCertifier
from .tables import Catalog, Table, TableSchema
from .transaction import Transaction, TransactionStatus
from .versionstore import VersionedStore
from .writeset import Writeset

__all__ = [
    "CERTIFIER_KINDS",
    "CertificationOutcome",
    "CertifierProtocol",
    "CertifierSpec",
    "Catalog",
    "GlobalCertifier",
    "SIDatabase",
    "ShardedCertifier",
    "Table",
    "TableSchema",
    "Transaction",
    "TransactionStatus",
    "UnknownCertifierError",
    "VersionedStore",
    "Writeset",
    "resolve_certifier_spec",
]
