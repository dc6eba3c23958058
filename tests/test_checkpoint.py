"""Checkpoint/resume: partitioned writes, manifests, skip-on-resume,
config-hash invalidation, and no torn output from a failed write."""

import os

import pyarrow as pa
import pytest

from proj_ray.state.checkpoint import CheckpointWriter


def make_table(pid: str) -> pa.Table:
    n = int(pid) + 1
    return pa.table({"x": list(range(n)), "part": [pid] * n})


def run_pending(parts, make, root, config):
    """Write every pending partition; returns (writer, computed, skipped)."""
    w = CheckpointWriter(root, config)
    pending = w.pending(parts)
    for pid in pending:
        w.write_partition(pid, make(pid), lineage={"partition": pid})
    return w, len(pending), len(parts) - len(pending)


def test_write_resume_skip(tmp_path):
    root = str(tmp_path / "out")
    parts = [str(i) for i in range(5)]
    calls = []

    def tracked(pid):
        calls.append(pid)
        return make_table(pid)

    w, computed, skipped = run_pending(parts, tracked, root, {"v": 1})
    assert computed == 5 and skipped == 0
    # resume: nothing recomputed
    calls.clear()
    w, computed, skipped = run_pending(parts, tracked, root, {"v": 1})
    assert computed == 0 and skipped == 5 and calls == []
    # config change invalidates
    w, computed, skipped = run_pending(parts, tracked, root, {"v": 2})
    assert computed == 5
    # data integrity
    total = w.read_all()
    assert total.num_rows == sum(range(1, 6))
    assert len(w.manifests()) == 5


def test_partial_failure_resume(tmp_path):
    root = str(tmp_path / "out")
    parts = [str(i) for i in range(4)]

    def flaky(pid):
        if pid == "2":
            raise RuntimeError("boom")
        return make_table(pid)

    with pytest.raises(RuntimeError):
        run_pending(parts, flaky, root, {"v": 1})
    w = CheckpointWriter(root, {"v": 1})
    assert w.pending(parts) == ["2", "3"]
    # no torn output for the failed partition
    assert not os.path.exists(os.path.join(root, "part=2"))
    w2, computed, skipped = run_pending(parts, make_table, root, {"v": 1})
    assert computed == 2 and skipped == 2


def test_read_all_matches_read_table(tmp_path):
    """read_all returns what pq.read_table gives for every valid part:
    the same schema (metadata included) and the same rows, in
    partition order; an orphaned part is left out."""
    import pyarrow.parquet as pq

    root = str(tmp_path / "out")
    w, _, _ = run_pending([str(i) for i in range(4)], make_table, root,
                          {"v": 1})
    os.remove(os.path.join(root, "_manifest_3.json"))
    want = pa.concat_tables([
        pq.read_table(os.path.join(root, f"part={i}", "data.parquet"))
        for i in range(3)])
    got = w.read_all()
    assert got.schema.equals(want.schema, check_metadata=True)
    assert got.equals(want)


def assert_tiles_match_oneshot(tiles, n_docs):
    """The checkpointed tile table equals one-shot flagship()'s."""
    import pandas as pd

    from proj_ray.pipelines.flagship import flagship

    want = flagship(n_docs=n_docs, parallelism=4).to_pandas() \
        .sort_values("tile").reset_index(drop=True)
    got = tiles.to_pandas().sort_values("tile").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[want.columns.tolist()], want, check_exact=False, rtol=1e-12)


def test_resumable_flagship_matches_oneshot_and_skips(tmp_path,
                                                      ray_session):
    import os

    from proj_ray.pipelines.flagship import resumable_flagship

    root = str(tmp_path / "ckpt")
    n_docs, n_shards = 4000, 4

    tiles, computed, skipped = resumable_flagship(n_docs, n_shards, root)
    assert (computed, skipped) == (4, 0)

    # the sharded, checkpointed answer equals the one-shot pipeline
    assert_tiles_match_oneshot(tiles, n_docs)

    # resume: nothing recomputes
    _, computed, skipped = resumable_flagship(n_docs, n_shards, root)
    assert (computed, skipped) == (0, 4)

    # kill one shard's manifest -> exactly that shard recomputes and
    # the combined answer is unchanged
    victim = [f for f in os.listdir(root) if f.endswith(".json")][1]
    os.remove(os.path.join(root, victim))
    tiles2, computed, skipped = resumable_flagship(n_docs, n_shards, root)
    assert (computed, skipped) == (1, 3)
    assert_tiles_match_oneshot(tiles2, n_docs)


def test_resumable_flagship_failed_shard_leaves_no_torn_output(
        tmp_path, ray_session):
    """A shard whose write fails in its worker raises out of the run
    with its own error type, leaves neither a manifest nor a temp dir,
    and raises only after every other shard has checkpointed, also
    the 12 queued behind the fixture's 4 CPUs; the re-run computes only
    the failed shard."""
    from proj_ray.pipelines.flagship import resumable_flagship

    root = str(tmp_path / "ckpt")
    n_docs, n_shards = 8000, 16
    pids = [f"shard-{i:05d}" for i in range(n_shards)]
    os.makedirs(root)
    blocker = os.path.join(root, "part=shard-00000")
    with open(blocker, "w") as f:
        f.write("not a partition dir")

    with pytest.raises(NotADirectoryError, match="Not a directory"):
        resumable_flagship(n_docs, n_shards, root)
    names = os.listdir(root)
    assert "_manifest_shard-00000.json" not in names
    assert not [n for n in names if n.startswith(".tmp_")], names
    w = CheckpointWriter(root, {"n_docs": n_docs, "n_shards": n_shards,
                                "zoom": 8, "n_polygons": 64})
    assert w.pending(pids) == ["shard-00000"]

    os.remove(blocker)
    tiles, computed, skipped = resumable_flagship(n_docs, n_shards, root)
    assert (computed, skipped) == (1, n_shards - 1)
    assert_tiles_match_oneshot(tiles, n_docs)


class _GroupSpy:
    """Stands in for the group task: records each launch's shard ids
    on the driver, then launches the real task."""

    def __init__(self, task):
        self.task = task
        self.groups = []

    def remote(self, shards, *args):
        self.groups.append([int(i) for i in shards])
        return self.task.remote(shards, *args)


def test_resumable_flagship_one_task_per_cpu(tmp_path, ray_session,
                                             monkeypatch):
    """The task count is min(pending shards, cluster CPUs), each task a
    contiguous run of pending shards; the shard count still sets the
    checkpoints: one part and one manifest per shard."""
    from proj_ray.pipelines import flagship as fl

    spy = _GroupSpy(fl._checkpoint_group_task)
    monkeypatch.setattr(fl, "_checkpoint_group_task", spy)
    root = str(tmp_path / "ckpt")
    n_docs, n_shards = 8000, 16

    # the fixture's cluster has 4 CPUs
    tiles, computed, skipped = fl.resumable_flagship(n_docs, n_shards, root)
    assert (computed, skipped) == (16, 0)
    assert spy.groups == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11],
                          [12, 13, 14, 15]]
    names = os.listdir(root)
    pids = [f"shard-{i:05d}" for i in range(n_shards)]
    assert sorted(n for n in names if n.startswith("part=")) == \
        [f"part={p}" for p in pids]
    assert sorted(n for n in names if n.startswith("_manifest_")) == \
        [f"_manifest_{p}.json" for p in pids]
    assert_tiles_match_oneshot(tiles, n_docs)

    spy.groups.clear()
    for i in (5, 11):
        os.remove(os.path.join(root, f"_manifest_shard-{i:05d}.json"))
    tiles2, computed, skipped = fl.resumable_flagship(n_docs, n_shards,
                                                      root)
    assert (computed, skipped) == (2, 14)
    assert spy.groups == [[5], [11]]
    assert len(os.listdir(root)) == 2 * n_shards
    assert_tiles_match_oneshot(tiles2, n_docs)


def test_checkpoint_group_skips_finished_shards(tmp_path, ray_session):
    """A group that meets an already checkpointed shard (a Ray retry
    after a worker crash) leaves it as it is and writes the others;
    the resulting tiles equal the one-shot run's."""
    import json

    import numpy as np

    from proj_ray.pipelines.flagship import (_checkpoint_group,
                                             _polygon_index,
                                             resumable_flagship)

    root = str(tmp_path / "ckpt")
    n_docs, n_shards = 4000, 4
    config = {"n_docs": n_docs, "n_shards": n_shards, "zoom": 8,
              "n_polygons": 64}
    bounds = np.linspace(0, n_docs, n_shards + 1).astype(np.int64)
    index = _polygon_index(64)

    def written_at(i):
        with open(os.path.join(root, f"_manifest_shard-{i:05d}.json")) as f:
            return json.load(f)["written_at"]

    assert _checkpoint_group([1], bounds, root, config, index, 8) == [1]
    first = written_at(1)
    assert _checkpoint_group([0, 1, 2, 3], bounds, root, config, index,
                             8) == [0, 2, 3]
    assert written_at(1) == first
    tiles, computed, skipped = resumable_flagship(n_docs, n_shards, root)
    assert (computed, skipped) == (0, n_shards)
    assert_tiles_match_oneshot(tiles, n_docs)


@pytest.mark.parametrize("n_docs,n_shards", [(4000, 0), (4000, -1),
                                             (-1, 4)])
def test_resumable_flagship_rejects_bad_sizes(tmp_path, n_docs, n_shards):
    """A shard count below 1 or a negative doc count raises ValueError
    before the checkpoint root is created or written."""
    from proj_ray.pipelines.flagship import resumable_flagship

    root = str(tmp_path / "ckpt")
    with pytest.raises(ValueError, match="n_shards|n_docs"):
        resumable_flagship(n_docs, n_shards, root)
    assert not os.path.exists(root)
    os.makedirs(root)
    with pytest.raises(ValueError, match="n_shards|n_docs"):
        resumable_flagship(n_docs, n_shards, root)
    assert os.listdir(root) == []


def test_polygon_index_cache_matches_fresh_build(tmp_path, ray_session):
    """The driver's cached broadcast index is built once, equals a
    fresh build, and is left intact by the runs that probe it."""
    import numpy as np

    from proj_ray.pipelines.flagship import (_polygon_index,
                                             resumable_flagship)
    from proj_ray.spatial.pip import PolygonIndex, make_polygons

    cached = _polygon_index(64)
    assert _polygon_index(64) is cached
    tiles, _, _ = resumable_flagship(4000, 4, str(tmp_path / "ckpt"))
    fresh = PolygonIndex(make_polygons(64), 5.0)
    assert cached.polygon_id == fresh.polygon_id
    for name in ("cell_keys", "cell_start", "cell_poly"):
        np.testing.assert_array_equal(getattr(cached, name),
                                      getattr(fresh, name), err_msg=name)
    for name in ("xi", "yi", "xj", "yj", "x0", "x1", "y0", "y1"):
        np.testing.assert_array_equal(getattr(cached.edges, name),
                                      getattr(fresh.edges, name),
                                      err_msg=name)
    # the one-shot flagship probes the same cached index afterwards
    assert_tiles_match_oneshot(tiles, 4000)


def test_resumable_flagship_more_shards_than_docs(tmp_path, ray_session):
    """Empty doc-id shards still checkpoint, so the run completes and
    its tiles equal the one-shot pipeline's."""
    from proj_ray.pipelines.flagship import resumable_flagship

    tiles, computed, skipped = resumable_flagship(
        3, 4, str(tmp_path / "ckpt"))
    assert (computed, skipped) == (4, 0)
    assert_tiles_match_oneshot(tiles, 3)


def test_job_entrypoint_resume(tmp_path, ray_session, capsys):
    """python -m proj_ray.job flagship: fresh run computes all shards,
    re-submission skips them all (the ray-job-submit resume story)."""
    import json

    from proj_ray.job import main

    root = str(tmp_path / "jobckpt")
    assert main(["flagship", "--n-docs", "1500", "--shards", "3",
                 "--root", root]) == 0
    first = json.loads(capsys.readouterr().out.strip())
    assert (first["shards_computed"], first["shards_skipped"]) == (3, 0)

    assert main(["flagship", "--n-docs", "1500", "--shards", "3",
                 "--root", root]) == 0
    second = json.loads(capsys.readouterr().out.strip())
    assert (second["shards_computed"], second["shards_skipped"]) == (0, 3)
    assert second["tiles"] == first["tiles"]


def test_job_entrypoint_query_writes_parquet(tmp_path, ray_session,
                                             capsys):
    import json
    import os

    import pyarrow.parquet as pq

    from proj_ray.job import main

    out_dir = str(tmp_path / "out")
    assert main(["query", "--name", "lineitem_agg",
                 "--sf-dir", "/root/testdata/sf0.001",
                 "--output", out_dir]) == 0
    res = json.loads(capsys.readouterr().out.strip())
    assert res["rows"] == 6
    files = [f for f in os.listdir(out_dir) if f.endswith(".parquet")]
    assert files
    total = sum(pq.ParquetFile(os.path.join(out_dir, f))
                .metadata.num_rows for f in files)
    assert total == 6
