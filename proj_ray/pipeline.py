"""Proj-string parsing, pipeline composition, and the Dataset transform API.

Mirrors the reference's operation-construction path
(src/init.cpp:434-640: tokenize +key=value, locate constructor, datum /
ellipsoid resolution) and the `pipeline` operation
(src/pipeline.cpp:110-260: sequential steps, +inv per step,
+omit_fwd/+omit_inv, global arguments shared across steps, I/O units
propagated from first/last step).

The Ray Data surface is `transform(ds, pipeline, ...)`: ONE fused
``map_batches`` call running every step of the pipeline vectorized over
Arrow columns — the engine's analogue of `proj_trans_generic`
(src/4D_api.cpp:609-762), but batched and streaming.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from proj_ray.core import mathops as m
from proj_ray.core.coords import Coords
from proj_ray.ops.base import (
    DEGREES,
    RADIANS,
    WHATEVER,
    Operation,
    Params,
    ProjError,
    apply_fwd,
    apply_inv,
)


class Step:
    __slots__ = ("op", "inverted", "omit_fwd", "omit_inv", "meta_left",
                 "meta_right")

    def __init__(self, op: Operation, inverted: bool, omit_fwd: bool,
                 omit_inv: bool):
        self.op = op
        self.inverted = inverted
        self.omit_fwd = omit_fwd
        self.omit_inv = omit_inv
        # metadata units (may be refined by neighbor propagation without
        # changing execution semantics)
        self.meta_left = self.left
        self.meta_right = self.right

    @property
    def left(self):
        return self.op.right if self.inverted else self.op.left

    @property
    def right(self):
        return self.op.left if self.inverted else self.op.right


class Pipeline:
    """A multi-step operation (also wraps a single op as one step)."""

    def __init__(self, steps: List[Step], defn: str = "",
                 inverted: bool = False):
        if not steps:
            raise ProjError("pipeline has no steps")
        self.steps = steps
        self.defn = defn
        self.inverted = inverted  # global +inv: whole pipeline runs mirrored
        self._propagate_units()
        left = steps[0].meta_left
        right = steps[-1].meta_right
        self.left, self.right = (right, left) if inverted else (left, right)

    def _propagate_units(self) -> None:
        """Refine WHATEVER I/O units from neighbouring steps for the
        pipeline's boundary metadata (reference pipeline.cpp:571-610).
        Metadata only: execution prepare/finalize keeps each op's own
        declared units (a units=m->km converter after a CLASSIC step must
        not inherit the CLASSIC x a scaling)."""
        steps = self.steps
        n = len(steps)
        for i in range(n - 2, -1, -1):
            st = steps[i]
            if st.meta_left == WHATEVER and st.meta_right == WHATEVER:
                rl = steps[i + 1].meta_left
                rr = steps[i + 1].meta_right
                if rl != rr or rl != WHATEVER:
                    st.meta_left = rl
                    st.meta_right = rl
        for i in range(1, n):
            st = steps[i]
            if st.meta_left == WHATEVER and st.meta_right == WHATEVER:
                ll = steps[i - 1].meta_left
                lr = steps[i - 1].meta_right
                if ll != lr or lr != WHATEVER:
                    st.meta_left = lr
                    st.meta_right = lr

    @property
    def angular_input(self) -> bool:
        return self.left == RADIANS

    @property
    def angular_output(self) -> bool:
        return self.right == RADIANS

    @property
    def degree_input(self) -> bool:
        return self.left == DEGREES

    @property
    def degree_output(self) -> bool:
        return self.right == DEGREES

    def fwd(self, c: Coords) -> Coords:
        return self._run(c, inverse=self.inverted)

    def inv(self, c: Coords) -> Coords:
        return self._run(c, inverse=not self.inverted)

    def _run(self, c: Coords, inverse: bool) -> Coords:
        from proj_ray.ops.pushpop import _PushPopBase

        stack = [[], [], [], []]
        seq = reversed(self.steps) if inverse else self.steps
        for st in seq:
            if (st.omit_inv if inverse else st.omit_fwd):
                continue
            run_inv = st.inverted != inverse
            if isinstance(st.op, _PushPopBase):
                pushes = st.op.fwd_is_push != run_inv
                if pushes:
                    st.op.do_push(c, stack)
                else:
                    st.op.do_pop(c, stack)
                continue
            c = apply_inv(st.op, c) if run_inv else apply_fwd(st.op, c)
        return c

    def trans(self, c: Coords, direction: str = "forward") -> Coords:
        if direction in ("forward", "fwd", "+"):
            return self.fwd(c)
        if direction in ("inverse", "inv", "-"):
            return self.inv(c)
        raise ValueError(f"bad direction {direction!r}")


def _make_op(params: Params) -> Operation:
    from proj_ray.ops import REGISTRY  # populated by package import

    name = params.s("proj")
    if not name:
        raise ProjError("missing proj parameter")
    cls = REGISTRY.get(name)
    if cls is None:
        raise ProjError(f"unknown or unsupported projection {name!r}")
    return cls(params)


def expand_definition(defn: str) -> str:
    """A proj string after the URN, init and datum shims
    (proj_ray/epsg_init.py); a URN not in the shim comes back as is."""
    from proj_ray.epsg_init import expand_datum, expand_init, expand_urn

    # OGC URN shim (nkg.gie-style coordinateOperation URNs) runs first:
    # a URN is a whole-operation name, not a +key=value string
    defn = expand_urn(defn)
    if defn.strip().startswith("urn:"):
        return defn
    # EPSG init shim + datum table expansion; anything not in the shim
    # is out of scope (no EPSG database)
    return expand_datum(expand_init(Params.normalize(defn)))


def create_operation(defn: str) -> Pipeline:
    """Build an executable operation from a proj string.

    Handles both single operations ("+proj=utm +zone=32 +ellps=GRS80")
    and pipelines ("+proj=pipeline +step +proj=... +step +inv +proj=...").
    """
    defn = expand_definition(defn)
    if defn.strip().startswith("urn:"):
        raise ProjError(f"unknown or unsupported: URN not in the shim "
                        f"table: {defn.strip()!r}")
    # +nadgrids=@null is an explicit no-op marker; real grid catalogs are
    # out of scope
    defn = defn.replace("nadgrids=@null", "")
    tokens = defn.split()
    kvs = [t.lstrip("+") for t in tokens if t.lstrip("+")]
    if any(t.startswith("init=") for t in kvs):
        raise ProjError("unknown or unsupported: init code not in the "
                        "EPSG shim table")
    if any(t.startswith("datum=") for t in kvs):
        raise ProjError("unknown or unsupported: datum/grid catalog lookups")
    for t in kvs:
        if t.startswith(("nadgrids=", "geoidgrids=", "grids=")):
            from proj_ray.ops.gridshift import validate_grid_spec_shallow

            spec = t.split("=", 1)[1]
            if not validate_grid_spec_shallow(spec):
                raise ProjError(
                    "unknown or unsupported: datum/grid catalog lookups")
    # split into global / step token groups
    if any(t == "proj=pipeline" for t in kvs):
        groups: List[List[str]] = []
        cur: Optional[List[str]] = None
        globs: List[str] = []
        for t in kvs:
            if t == "step":
                if cur is not None:
                    groups.append(cur)
                cur = []
                continue
            if cur is None:
                if t != "proj=pipeline":
                    globs.append(t)
            else:
                cur.append(t)
        if cur is not None:
            groups.append(cur)
        if not groups:
            raise ProjError("pipeline has no steps")
        glob_params = Params.parse(" ".join(globs))
        # a global +inv inverts the whole pipeline (P->inverted)
        pipeline_inverted = glob_params.b("inv")
        glob_params.kv.pop("inv", None)
        steps = []
        for g in groups:
            sp = Params.parse(" ".join(g)).with_overrides(glob_params)
            inverted = sp.b("inv")
            omit_fwd = sp.b("omit_fwd")
            omit_inv = sp.b("omit_inv")
            if sp.s("proj") == "pipeline":
                raise ProjError("nested pipelines are not supported")
            op = _make_op(sp)
            steps.append(Step(op, inverted, omit_fwd, omit_inv))
        return Pipeline(steps, defn, inverted=pipeline_inverted)
    params = Params.parse(" ".join(kvs))
    inverted = params.b("inv")
    op = _make_op(params)
    return Pipeline([Step(op, inverted, False, False)], defn)


# ---------------------------------------------------------------------------
# Array-level API (the unit every Ray stage uses)
# ---------------------------------------------------------------------------


def transform_arrays(
    pipeline: Pipeline,
    x: np.ndarray,
    y: np.ndarray,
    z: Optional[np.ndarray] = None,
    t: Optional[np.ndarray] = None,
    direction: str = "forward",
    angular_in_degrees: bool = True,
    angular_out_degrees: bool = True,
):
    """Transform coordinate arrays through a pipeline.

    When the pipeline's input (output) is angular and
    angular_in_degrees/angular_out_degrees is set, degrees are converted
    at the boundary — the batched analogue of proj_trans_generic's
    caller-side deg/rad handling.
    """
    c = Coords(np.asarray(x, dtype=np.float64).copy(),
               np.asarray(y, dtype=np.float64).copy(),
               None if z is None else np.asarray(z, dtype=np.float64).copy(),
               None if t is None else np.asarray(t, dtype=np.float64).copy())
    fwd = direction in ("forward", "fwd", "+")
    in_units = pipeline.left if fwd else pipeline.right
    out_units = pipeline.right if fwd else pipeline.left
    if in_units == RADIANS and angular_in_degrees:
        c.x = c.x * m.DEG_TO_RAD
        c.y = c.y * m.DEG_TO_RAD
    c = pipeline.fwd(c) if fwd else pipeline.inv(c)
    if out_units == RADIANS and angular_out_degrees:
        c.x = c.x * m.RAD_TO_DEG
        c.y = c.y * m.RAD_TO_DEG
    return c


def transform(
    ds,
    defn: str,
    direction: str = "forward",
    in_cols: Sequence[str] = ("x", "y"),
    out_cols: Optional[Sequence[str]] = None,
    z_col: Optional[str] = None,
    t_col: Optional[str] = None,
    err_col: Optional[str] = "trans_err",
    batch_size: int = 65536,
    degrees: bool = True,
):
    """Apply a coordinate operation to a ray.data.Dataset.

    One fused map_batches over Arrow batches; the whole pipeline of
    steps runs inside a single stage (mirroring the reference's design
    where a pipeline is ONE PJ, src/pipeline.cpp:163-176) so no
    intermediate blocks hit the object store.
    """
    import pyarrow as pa

    pipeline = create_operation(defn) if isinstance(defn, str) else defn
    out_cols = tuple(out_cols or in_cols)
    in_cols = tuple(in_cols)

    def _batch_fn(batch: "pa.Table") -> "pa.Table":
        x = batch.column(in_cols[0]).to_numpy(zero_copy_only=False)
        y = batch.column(in_cols[1]).to_numpy(zero_copy_only=False)
        z = (batch.column(z_col).to_numpy(zero_copy_only=False)
             if z_col else None)
        t = (batch.column(t_col).to_numpy(zero_copy_only=False)
             if t_col else None)
        c = transform_arrays(pipeline, x, y, z, t, direction,
                             angular_in_degrees=degrees,
                             angular_out_degrees=degrees)
        cols = dict(zip(batch.column_names, batch.columns))
        cols[out_cols[0]] = pa.array(c.x)
        cols[out_cols[1]] = pa.array(c.y)
        if z_col:
            cols[z_col if len(out_cols) < 3 else out_cols[2]] = pa.array(c.z)
        if err_col:
            cols[err_col] = pa.array(c.err)
        return pa.table(cols)

    return ds.map_batches(_batch_fn, batch_format="pyarrow",
                          batch_size=batch_size)
