"""HDFS-like distributed filesystem substrate.

Provides the storage layer the paper's pipeline runs against: a namenode
namespace, replicated block storage with checksums, byte-level I/O accounting
(Tables 1/2 reason about bytes read/written/transferred), and the binary
matrix codec of Table 3.
"""

from .blocks import BlockCorruptionError, BlockMissingError, BlockStore, DataNode
from .cache import DEFAULT_BLOCK_CACHE_BYTES, BlockCache
from .commit import (
    STAGING_ROOT,
    CommitLog,
    CommitScope,
    manifest_path,
    mirrored_path,
    staging_dir,
    staging_path,
)
from .filesystem import DFS
from .fsck import FsckIssue, FsckReport, fsck
from .health import HealthMonitor, HealthReport, RepairReport
from .iostats import IOSnapshot, IOStats
from .namenode import (
    DFSError,
    DirectoryNotEmpty,
    FileAlreadyExists,
    FileNotFound,
    IsADirectory,
    NameNode,
    NotADirectory,
)
from . import formats

__all__ = [
    "DEFAULT_BLOCK_CACHE_BYTES",
    "DFS",
    "DFSError",
    "DataNode",
    "BlockCache",
    "BlockStore",
    "BlockCorruptionError",
    "BlockMissingError",
    "CommitLog",
    "CommitScope",
    "DirectoryNotEmpty",
    "FileAlreadyExists",
    "FileNotFound",
    "FsckIssue",
    "FsckReport",
    "HealthMonitor",
    "HealthReport",
    "RepairReport",
    "IOSnapshot",
    "IOStats",
    "IsADirectory",
    "NameNode",
    "NotADirectory",
    "STAGING_ROOT",
    "formats",
    "fsck",
    "manifest_path",
    "mirrored_path",
    "staging_dir",
    "staging_path",
]
