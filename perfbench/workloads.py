"""The two benchmark workloads.

Every input is derived from the ``--seed`` argument, where proj_ray's
entry point takes it: flagship gets a seeded doc-id offset.
``_tile_partials`` fixes its polygons and ``resumable_flagship`` its
doc ids, so flagship_resume's seed only picks the crash set.  proj_ray
only ever receives the generated inputs.

A workload object is used in this order:

``prepare()``  build-side prep in a fresh Ray session (timed as set-up)
``warm()``     the workload's job on a tiny input (timed as set-up)
``load()``     places inputs and computes driver-side references (untimed)
``run()``      one timed job, submission to last output row consumed
``check(r)``   output checks for one job
``check_once()`` checks that need one extra job or scan per run
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from contextlib import nullcontext
from typing import Dict, List

import numpy as np
import pyarrow as pa


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _collect(ds) -> pa.Table:
    """Consume a Dataset to its last row on the driver."""
    batches = list(ds.iter_batches(batch_format="pyarrow", batch_size=None))
    if not batches:
        return pa.table({})
    return pa.concat_tables(batches, promote_options="default")


class _Clock:
    """Wall time and process-tree CPU time (``host.tree_cpu_s``: the
    driver plus the Ray session) since construction."""

    def __init__(self):
        from perfbench.host import tree_cpu_s

        self._cpu = tree_cpu_s
        self.cpu0 = tree_cpu_s()
        self.wall0 = time.perf_counter()

    def read(self):
        """(wall_s, cpu_s) so far."""
        wall = time.perf_counter() - self.wall0
        return wall, self._cpu() - self.cpu0


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def _udf(fn, name, tracer):
    if tracer is None:
        return fn
    from perfbench.trace import traced_udf

    return traced_udf(fn, name, tracer.current, tracer.span_dir)


def corpus_coords(doc_ids: np.ndarray):
    """(lon, lat) of every coord span of the docs, in span order: the
    numbers ``make_doc_batch`` writes as text, without the text."""
    from proj_ray.docs.synth import span_layout

    lay = span_layout(doc_ids)
    m = lay["kind_code"] == 1
    return lay["lon"][m], lay["lat"][m], lay["doc_idx"][m], lay["offset"][m]


def doc_dataset_at(n_docs: int, offset: int, blocks: int, tracer=None):
    """Seeded doc corpus from doc id ``offset`` on: proj_ray's
    ``doc_dataset`` (same range source, synth UDF and batch size), which
    itself always starts at id 0."""
    import ray.data as rd

    from proj_ray.docs.synth import make_doc_batch

    def synth(b, off=offset):
        return make_doc_batch(b["id"].to_numpy() + off)

    return rd.range(n_docs, override_num_blocks=blocks).map_batches(
        _udf(synth, "docs.make_doc_batch", tracer),
        batch_format="pyarrow", batch_size=65536)


def flagship_blocks() -> int:
    """The block count proj_ray's ``flagship()`` gives its doc dataset
    by default, so that a change of it shows in the benchmark."""
    import inspect

    from proj_ray.pipelines.flagship import flagship

    p = inspect.signature(flagship).parameters.get("parallelism")
    # 32 is the default this benchmark was written against
    return p.default if p is not None and isinstance(p.default, int) else 32


def brute_pip_count(lon, lat, polygons) -> int:
    """Point-polygon match pairs by testing every polygon against every
    point (bbox-prefiltered)."""
    from proj_ray.spatial.pip import points_in_polygon

    total = 0
    for ring in polygons["rings"]:
        ring = np.asarray(ring, dtype=np.float64)
        m = ((lon >= ring[:, 0].min()) & (lon <= ring[:, 0].max())
             & (lat >= ring[:, 1].min()) & (lat <= ring[:, 1].max()))
        if m.any():
            total += int(points_in_polygon(lon[m], lat[m], ring).sum())
    return total


class Workload:
    name = ""

    def __init__(self, seed: int, smoke: bool, tmp_dir: str):
        self.seed = seed
        self.smoke = smoke
        self.tmp_dir = tmp_dir

    def prepare(self) -> None:
        pass

    def warm(self) -> None:
        pass

    def load(self) -> None:
        pass

    def run(self, tracer=None) -> dict:
        raise NotImplementedError

    def check(self, r: dict) -> List[tuple]:
        return []

    def check_once(self) -> List[tuple]:
        return []


# ---------------------------------------------------------------------------
# flagship: the paper's fused pipeline
# ---------------------------------------------------------------------------


class Flagship(Workload):
    """Offset doc corpus -> proj_ray's flagship chain: span extraction ->
    webmerc + UTM -> broadcast PIP against 64 polygons -> tile partials
    (``_tile_partials``) -> ``tree_aggregate``, as ``flagship()`` runs
    it, block count included."""

    name = "flagship"
    zoom = 8
    n_polygons = 64

    def __init__(self, seed, smoke, tmp_dir):
        super().__init__(seed, smoke, tmp_dir)
        rng = _rng(seed, 1)
        self.n_docs = 4_000 if smoke else 125_000
        self.offset = int(rng.integers(1, 10**9))

    def job(self, n_docs, offset, tracer=None):
        """``flagship(n_docs)`` but from doc id ``offset``; the polygon
        index is built and broadcast inside, as proj_ray does it."""
        from proj_ray.pipelines.flagship import _TILE_AGGS, _tile_partials
        from proj_ray.stages.agg import tree_aggregate

        docs = doc_dataset_at(n_docs, offset, flagship_blocks(), tracer)
        return tree_aggregate(_tile_partials(docs, self.zoom,
                                             self.n_polygons),
                              ["tile"], _TILE_AGGS)

    def warm(self):
        _collect(self.job(2_000, self.offset))

    def load(self):
        from proj_ray.spatial.pip import make_polygons
        from proj_ray.spatial.tiles import tile_xy

        ids = self.offset + np.arange(self.n_docs, dtype=np.int64)
        lon, lat, _, _ = corpus_coords(ids)
        self.n_coords = len(lon)
        tx, ty = tile_xy(lon, lat, self.zoom)
        self.ref_tiles, self.ref_counts = np.unique(
            ty * (1 << self.zoom) + tx, return_counts=True)
        # _tile_partials always uses make_polygons' default seed
        self.ref_joined = brute_pip_count(
            lon, lat, make_polygons(self.n_polygons))

    def run(self, tracer=None):
        with _span(tracer, "pipeline.flagship"):
            clock = _Clock()
            out = _collect(self.job(self.n_docs, self.offset, tracer))
            wall, cpu = clock.read()
        return {"wall_s": wall, "cpu_s": cpu, "docs": self.n_docs,
                "coords": self.n_coords, "out": out}

    def check(self, r):
        out = r["out"].sort_by("tile")
        tiles = out.column("tile").to_numpy()
        n_points = out.column("n_points").to_numpy()
        n_joined = int(out.column("n_joined").to_numpy().sum())
        return [
            ("flagship.n_points_total",
             int(n_points.sum()) == self.n_coords,
             f"{int(n_points.sum())} vs {self.n_coords} coord spans"),
            ("flagship.n_points_per_tile",
             np.array_equal(tiles, self.ref_tiles)
             and np.array_equal(n_points, self.ref_counts), ""),
            ("flagship.n_joined_total", n_joined == self.ref_joined,
             f"{n_joined} vs brute {self.ref_joined}"),
        ]


# ---------------------------------------------------------------------------
# flagship_resume: checkpointed shards, crash, resume
# ---------------------------------------------------------------------------


class FlagshipResume(Workload):
    """``resumable_flagship`` into a fresh directory: compute every
    shard, delete half the manifests (a crash), resume."""

    name = "flagship_resume"
    n_shards = 4

    def __init__(self, seed, smoke, tmp_dir):
        super().__init__(seed, smoke, tmp_dir)
        rng = _rng(seed, 4)
        self.n_docs = 4_000 if smoke else 16_000
        self.crashed = sorted(int(i) for i in rng.choice(
            self.n_shards, self.n_shards // 2, replace=False))

    def _pass(self, root):
        from proj_ray.pipelines.flagship import resumable_flagship

        return resumable_flagship(self.n_docs, self.n_shards, root)

    def job(self, tracer=None):
        root = tempfile.mkdtemp(prefix="resume-", dir=self.tmp_dir)
        try:
            clock = _Clock()
            with _span(tracer, "checkpoint.compute_pass"):
                tiles1, c1, s1 = self._pass(root)
            wall1, cpu1 = clock.read()
            written = sum(os.path.getsize(os.path.join(d, f))
                          for d, _, fs in os.walk(root) for f in fs)
            for i in self.crashed:
                os.remove(os.path.join(root, f"_manifest_shard-{i:05d}.json"))
            clock = _Clock()
            with _span(tracer, "checkpoint.resume_pass"):
                tiles2, c2, s2 = self._pass(root)
            wall2, cpu2 = clock.read()
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return {"wall_s": wall1 + wall2, "cpu_s": cpu1 + cpu2,
                "tiles1": tiles1, "tiles2": tiles2,
                "counts": (c1, s1, c2, s2),
                "layers": {"checkpoint.compute_pass_s": wall1,
                           "checkpoint.resume_pass_s": wall2,
                           "checkpoint.bytes_written": written,
                           "checkpoint.partitions_computed": c2,
                           "checkpoint.partitions_skipped": s2}}

    def warm(self):
        from proj_ray.pipelines.flagship import resumable_flagship

        root = tempfile.mkdtemp(prefix="warm-", dir=self.tmp_dir)
        try:
            resumable_flagship(400, 2, root)
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def load(self):
        self.n_coords = len(corpus_coords(
            np.arange(self.n_docs, dtype=np.int64))[0])

    def run(self, tracer=None):
        with _span(tracer, "pipeline.flagship_resume"):
            r = self.job(tracer)
        r.update(docs=self.n_docs, coords=self.n_coords)
        self.last = r
        return r

    def check(self, r):
        c1, s1, c2, s2 = r["counts"]
        n_crash = len(self.crashed)
        a = r["tiles1"].sort_by("tile")
        b = r["tiles2"].sort_by("tile")
        return [
            ("flagship_resume.compute_counts",
             (c1, s1) == (self.n_shards, 0), f"computed {c1} skipped {s1}"),
            ("flagship_resume.resume_counts",
             (c2, s2) == (n_crash, self.n_shards - n_crash),
             f"computed {c2} skipped {s2}"),
            ("flagship_resume.resume_equals_compute", _tiles_match(a, b),
             ""),
        ]

    def check_once(self):
        """Tile totals equal proj_ray's one-shot ``flagship()`` on the
        same doc ids (resumable_flagship takes no offset: ids 0.. and
        make_polygons' default seed)."""
        from proj_ray.pipelines.flagship import flagship

        want = _collect(flagship(n_docs=self.n_docs)).sort_by("tile")
        got = self.last["tiles2"].sort_by("tile")
        return [("flagship_resume.matches_flagship", _tiles_match(got, want),
                 f"{got.num_rows} vs {want.num_rows} tiles")]


def _tiles_match(a: pa.Table, b: pa.Table) -> bool:
    if a.num_rows != b.num_rows:
        return False
    for c in ("tile", "n_points", "n_joined"):
        if not np.array_equal(a.column(c).to_numpy(), b.column(c).to_numpy()):
            return False
    for c in ("x_sum", "y_sum", "utmx_sum"):
        if not np.allclose(a.column(c).to_numpy(), b.column(c).to_numpy(),
                           rtol=1e-9, atol=1e-3):
            return False
    return True


WORKLOADS: Dict[str, type] = {w.name: w for w in
                              (Flagship, FlagshipResume)}
