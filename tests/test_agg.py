"""stages/agg.py: the combine-tree and hash-partitioned aggregates
(including the `count` spec at every combine level), the grouping-sets
expander and their guards."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _rows(seed: int, n: int) -> pa.Table:
    rng = np.random.default_rng(seed)
    return pa.table({
        "k": rng.choice(["a", "b", "c", "d"], n),
        "j": rng.choice(["x", "y", "z"], n),
        "v": rng.integers(-50, 50, n).astype(np.int64)})


def _want_counts(tbl: pa.Table) -> pd.DataFrame:
    df = tbl.to_pandas()
    g = df.groupby(["k", "j"])
    return pd.DataFrame({"n": g.size(), "v": g["v"].sum()}).reset_index()


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.mark.parametrize("helper", ["tree0", "tree3", "hash"])
def test_count_at_every_level(ray_session, helper):
    """(col, "count") is count(*) whatever the block layout: several
    blocks, a 0-row block, a fan-in level and the hash buckets' combine
    all give pandas' groupby().size()."""
    import ray.data as rd

    from proj_ray.stages.agg import hash_shuffle_aggregate, tree_aggregate

    parts = [_rows(1, 700), _rows(2, 0), _rows(3, 450), _rows(4, 900)]
    ds = rd.from_arrow(parts)
    aggs = [("n", "count"), ("v", "sum")]
    if helper == "hash":
        out = hash_shuffle_aggregate(ds, ["k", "j"], aggs, num_buckets=3)
    else:
        out = tree_aggregate(ds, ["k", "j"], aggs,
                             fanout=3 if helper == "tree3" else 0)
    got = out.to_pandas()[["k", "j", "n", "v"]]
    want = _want_counts(pa.concat_tables(parts))
    assert got["n"].dtype == np.int64
    pd.testing.assert_frame_equal(_sorted(got), _sorted(want),
                                  check_dtype=False)
    assert int(got["n"].sum()) == 2050


def test_count_only_spec_ignores_other_columns(ray_session):
    import ray.data as rd

    from proj_ray.stages.agg import tree_aggregate

    tbl = _rows(5, 1_000)
    got = tree_aggregate(rd.from_arrow(tbl).repartition(4), ["k"],
                         [("n", "count")]).to_pandas()
    want = tbl.to_pandas().groupby("k").size()
    assert list(got.columns) == ["k", "n"]
    assert dict(zip(got["k"], got["n"])) == want.to_dict()


def _finest():
    import ray.data as rd

    from proj_ray.stages.agg import tree_aggregate

    tbl = _rows(6, 1_500)
    finest = tree_aggregate(rd.from_arrow(tbl).repartition(3), ["k", "j"],
                            [("v", "sum"), ("n", "count")])
    return finest, tbl.to_pandas()


def _want_sets(df: pd.DataFrame, sets) -> pd.DataFrame:
    outs = []
    for keys in sets:
        if keys:
            g = df.groupby(list(keys)).agg(v=("v", "sum"),
                                           n=("v", "size")).reset_index()
        else:
            g = pd.DataFrame({"v": [df["v"].sum()], "n": [len(df)]})
        for d in ("k", "j"):
            if d not in keys:
                g[d] = "ALL"
        outs.append(g[["k", "j", "v", "n"]])
    return pd.concat(outs, ignore_index=True)


@pytest.mark.parametrize("sets", [
    [("k", "j"), ("k",), ()],               # ROLLUP(k, j)
    [("k", "j"), ("k",), ("j",), ()],       # CUBE(k, j)
    [()],                                   # grand total only
])
def test_grouping_sets_from_finest(ray_session, sets):
    from proj_ray.stages.agg import grouping_sets_from_finest

    finest, df = _finest()
    got = grouping_sets_from_finest(finest, ["k", "j"], sets,
                                    ["v", "n"]).to_pandas()
    want = _want_sets(df, sets)
    assert list(got.columns) == ["k", "j", "v", "n"]
    assert got["n"].dtype == np.int64 and got["v"].dtype == np.int64
    pd.testing.assert_frame_equal(_sorted(got), _sorted(want),
                                  check_dtype=False)


def test_grouping_sets_unknown_key(ray_session):
    from proj_ray.stages.agg import grouping_sets_from_finest

    finest, _ = _finest()
    with pytest.raises(ValueError, match="unknown keys"):
        grouping_sets_from_finest(finest, ["k", "j"], [("x",)], ["v"])


# ------------------------ tree_aggregate guard -------------------------


def test_tree_aggregate_max_keys_guard(ray_session):
    import ray.data as rd

    from proj_ray.stages.agg import tree_aggregate

    ds = rd.from_arrow(pa.table({
        "k": np.arange(5_000, dtype=np.int64),
        "v": np.ones(5_000, dtype=np.int64)}))
    with pytest.raises(Exception, match="max_keys"):
        tree_aggregate(ds, ["k"], [("v", "sum")], max_keys=100).take_all()
    # bounded keys pass untouched
    ds2 = rd.from_arrow(pa.table({
        "k": np.arange(5_000, dtype=np.int64) % 7,
        "v": np.ones(5_000, dtype=np.int64)}))
    out = tree_aggregate(ds2, ["k"], [("v", "sum")],
                         max_keys=100).take_all()
    assert len(out) == 7


def test_hash_distinct(ray_session):
    import ray.data as rd

    from proj_ray.stages.agg import hash_distinct

    vals = np.array([5, 1, 5, 2, 2, 9, 1, 5], dtype=np.int64)
    ds = rd.from_arrow(pa.table({"k": vals})).repartition(3)
    got = sorted(r["k"] for r in hash_distinct(ds, "k").take_all())
    assert got == [1, 2, 5, 9]
