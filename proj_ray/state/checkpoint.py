"""Per-partition checkpointing for resumable runs.

Output layout (SURVEY.md §7.9): one directory per partition, written
atomically (temp dir + rename), plus one manifest JSON per finished
partition recording lineage (input fragment ids), row/tile metrics and
the kernel-config hash.  Resume = skip every partition whose manifest is
already present and valid — the anti-join of the manifest list against
the partition list.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from typing import Dict, List, Optional

import pyarrow as pa
import pyarrow.parquet as pq


def config_hash(config: Dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]


class CheckpointWriter:
    """Partition-wise parquet writer with manifests."""

    def __init__(self, root: str, config: Optional[Dict] = None):
        self.root = root
        self.config = config or {}
        self.cfg_hash = config_hash(self.config)
        os.makedirs(root, exist_ok=True)

    def _manifest_path(self, partition_id: str) -> str:
        return os.path.join(self.root, f"_manifest_{partition_id}.json")

    def is_done(self, partition_id: str) -> bool:
        """Done = valid manifest for THIS config AND the data file it
        promises actually on disk (a deleted part dir must re-run, a
        stale-config manifest must not mask a re-run)."""
        path = self._manifest_path(partition_id)
        if not os.path.exists(path):
            return False
        data = os.path.join(self.root, f"part={partition_id}", "data.parquet")
        if not os.path.exists(data):
            return False
        try:
            with open(path) as f:
                man = json.load(f)
            return man.get("config_hash") == self.cfg_hash
        except (json.JSONDecodeError, OSError):
            return False

    def pending(self, partition_ids: List[str]) -> List[str]:
        return [p for p in partition_ids if not self.is_done(p)]

    def write_partition(self, partition_id: str, table: pa.Table,
                        lineage: Optional[Dict] = None,
                        metrics: Optional[Dict] = None) -> None:
        """Atomic write: temp dir -> rename, manifest last.  A failed
        write removes its temp dir before re-raising."""
        final_dir = os.path.join(self.root, f"part={partition_id}")
        tmp_dir = os.path.join(self.root, f".tmp_{partition_id}_{os.getpid()}")
        if os.path.exists(tmp_dir):
            shutil.rmtree(tmp_dir)
        os.makedirs(tmp_dir)
        try:
            pq.write_table(table, os.path.join(tmp_dir, "data.parquet"))
            if os.path.exists(final_dir):
                shutil.rmtree(final_dir)
            os.rename(tmp_dir, final_dir)
        except BaseException:
            shutil.rmtree(tmp_dir, ignore_errors=True)
            raise
        manifest = {
            "partition_id": partition_id,
            "config_hash": self.cfg_hash,
            "rows": table.num_rows,
            "written_at": time.time(),
            "lineage": lineage or {},
            "metrics": metrics or {},
        }
        tmp_man = self._manifest_path(partition_id) + ".tmp"
        with open(tmp_man, "w") as f:
            json.dump(manifest, f)
        os.replace(tmp_man, self._manifest_path(partition_id))

    def manifests(self) -> List[Dict]:
        out = []
        for name in sorted(os.listdir(self.root)):
            if name.startswith("_manifest_") and name.endswith(".json"):
                with open(os.path.join(self.root, name)) as f:
                    out.append(json.load(f))
        return out

    def read_all(self) -> pa.Table:
        """Concatenate only partitions that pass the same validation as
        is_done — a part dir without a current-config manifest (orphaned
        or from an older config) is not part of this run's output."""
        parts = []
        for name in sorted(os.listdir(self.root)):
            if not name.startswith("part="):
                continue
            pid = name[len("part="):]
            if self.is_done(pid):
                # ParquetFile reads the one file directly, where
                # read_table would run dataset discovery on it first
                with pq.ParquetFile(os.path.join(
                        self.root, name, "data.parquet")) as f:
                    parts.append(f.read())
        return pa.concat_tables(parts) if parts else pa.table({})
