"""Relational joins (broadcast, co-partitioned, interval), set ops and
melt against pandas merges and brute force."""

import itertools

import numpy as np
import pandas as pd
import pyarrow as pa


def _run(big: pd.DataFrame, small: pa.Table, how: str, **kw):
    import ray.data as rd

    from proj_ray.stages.relational import broadcast_join

    out = broadcast_join(rd.from_pandas(big), small, how=how, **kw)
    return out.to_pandas().sort_values("row_id").reset_index(drop=True)


def _frames(seed=7, n=400, n_keys=25):
    rng = np.random.default_rng(seed)
    big = pd.DataFrame({
        "row_id": np.arange(n, dtype=np.int64),
        # keys 0..n_keys+4: the top 5 have no small-side match
        "k": rng.integers(0, n_keys + 5, n),
        "v": rng.normal(size=n),
    })
    small = pa.table({
        "sk": pa.array(rng.permutation(n_keys).astype(np.int64)),
        "label": [f"g{i % 4}" for i in range(n_keys)],
    })
    return big, small


def test_inner_matches_pandas():
    big, small = _frames()
    got = _run(big, small, "inner", key="k", right_key="sk")
    want = big.merge(small.to_pandas(), left_on="k", right_on="sk")
    want = want.drop(columns=["sk"]).sort_values("row_id")
    want = want.reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["row_id", "k", "v", "label"]],
        want[["row_id", "k", "v", "label"]])


def test_left_keeps_unmatched_with_nulls():
    big, small = _frames()
    got = _run(big, small, "left", key="k", right_key="sk")
    assert len(got) == len(big)
    unmatched = got[got["k"] >= 25]
    assert len(unmatched) > 0
    assert unmatched["label"].isna().all()
    matched = got[got["k"] < 25]
    want = big.merge(small.to_pandas(), left_on="k", right_on="sk")
    lut = dict(zip(want["k"], want["label"]))
    assert (matched["label"] == matched["k"].map(lut)).all()


def _interval_reference(big, iv):
    rows = []
    for _, r in big.iterrows():
        for _, w in iv.iterrows():
            if w["ws"] <= r["x"] <= w["we"]:
                rows.append({**r.to_dict(), "win_id": w["win_id"]})
    return pd.DataFrame(rows)


def test_interval_join_overlapping_matches_bruteforce():
    import ray.data as rd

    from proj_ray.stages.relational import interval_join

    rng = np.random.default_rng(5)
    big = pd.DataFrame({
        "row_id": np.arange(300, dtype=np.int64),
        "x": rng.integers(0, 1000, 300),
    })
    iv = pd.DataFrame({
        "win_id": np.arange(12, dtype=np.int64),
        "ws": np.arange(12, dtype=np.int64) * 80,
        "we": np.arange(12, dtype=np.int64) * 80 + 130,  # overlapping
    })
    out = interval_join(rd.from_pandas(big), pa.Table.from_pandas(iv),
                        on="x", start="ws", end="we")
    got = out.to_pandas().sort_values(["row_id", "win_id"]) \
        .reset_index(drop=True)
    want = _interval_reference(big, iv) \
        .sort_values(["row_id", "win_id"]).reset_index(drop=True)
    assert len(got) == len(want)
    pd.testing.assert_frame_equal(got[["row_id", "x", "win_id"]],
                                  want[["row_id", "x", "win_id"]])


def test_interval_join_inclusive_bounds_and_timestamps():
    import ray.data as rd

    from proj_ray.stages.relational import interval_join

    ts = pd.to_datetime(["2024-01-01", "2024-01-05", "2024-01-10",
                         "2024-02-01"])
    big = pd.DataFrame({"row_id": np.arange(4, dtype=np.int64),
                        "ts": ts})
    iv = pa.table({
        "win_id": pa.array([0], type=pa.int64()),
        "ws": pa.array([pd.Timestamp("2024-01-01")]),
        "we": pa.array([pd.Timestamp("2024-01-10")]),
    })
    out = interval_join(rd.from_pandas(big), iv,
                        on="ts", start="ws", end="we")
    got = out.to_pandas()
    # both endpoints inclusive, the February point excluded
    assert sorted(got["row_id"]) == [0, 1, 2]


def test_all_miss_batch_keeps_schema():
    """A batch with zero matches must emit the same schema/types as a
    hitting batch (the empty-batch bug class from VERDICT r2 item 3)."""
    import ray.data as rd

    from proj_ray.stages.relational import broadcast_join

    big = pd.DataFrame({"row_id": np.arange(5, dtype=np.int64),
                        "k": np.full(5, 999, dtype=np.int64)})
    small = pa.table({"sk": pa.array([1, 2], type=pa.int64()),
                      "label": ["a", "b"]})
    out = broadcast_join(rd.from_pandas(big), small,
                         key="k", right_key="sk", how="inner")
    tbl = pa.concat_tables(
        [b for b in out.iter_batches(batch_format="pyarrow")],
        promote_options="none") if out.count() else None
    schema = out.schema()
    assert out.count() == 0
    assert schema.names == ["row_id", "k", "label"]
    assert tbl is None


def test_semi_and_anti_partition_the_stream():
    import ray.data as rd

    from proj_ray.stages.relational import broadcast_join

    big, small = _frames(seed=13)
    semi = broadcast_join(rd.from_pandas(big), small, key="k",
                          right_key="sk", how="semi").to_pandas()
    anti = broadcast_join(rd.from_pandas(big), small, key="k",
                          right_key="sk", how="anti").to_pandas()
    # no payload columns attached, schema preserved
    assert list(semi.columns) == list(big.columns)
    assert list(anti.columns) == list(big.columns)
    # semi + anti = the whole stream, disjoint
    assert len(semi) + len(anti) == len(big)
    assert set(semi["row_id"]).isdisjoint(set(anti["row_id"]))
    member = set(small.to_pandas()["sk"])
    assert semi["k"].isin(member).all()
    assert (~anti["k"].isin(member)).all()


def test_anti_with_empty_small_side_keeps_everything():
    import ray.data as rd

    from proj_ray.stages.relational import broadcast_join

    big, _ = _frames(seed=2, n=50)
    empty = pa.table({"sk": pa.array([], type=pa.int64()),
                      "label": pa.array([], type=pa.string())})
    anti = broadcast_join(rd.from_pandas(big), empty, key="k",
                          right_key="sk", how="anti").to_pandas()
    assert len(anti) == len(big)


def test_set_ops_match_python_sets():
    import ray.data as rd

    from proj_ray.stages.relational import set_except, set_intersect

    rng = np.random.default_rng(23)
    a = pd.DataFrame({"k": rng.integers(0, 300, 800)})
    b = pd.DataFrame({"k": rng.integers(150, 450, 800)})
    dsa = rd.from_pandas(a).repartition(4)
    dsb = rd.from_pandas(b).repartition(3)
    inter = set(set_intersect(dsa, dsb, "k").to_pandas()["k"])
    exc = set(set_except(dsa, dsb, "k").to_pandas()["k"])
    sa, sb = set(a["k"]), set(b["k"])
    assert inter == sa & sb
    assert exc == sa - sb


def test_interval_join_property_random_layouts():
    """Property test: arbitrary (possibly nested/duplicate/point)
    intervals against brute force."""
    import ray.data as rd
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    from proj_ray.stages.relational import interval_join

    @settings(max_examples=15, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(
        ivs=st.lists(st.tuples(st.integers(-50, 50),
                               st.integers(0, 30)),
                     min_size=1, max_size=10),
        xs=st.lists(st.integers(-60, 90), min_size=1, max_size=40),
    )
    def check(ivs, xs):
        iv = pd.DataFrame({
            "win_id": np.arange(len(ivs), dtype=np.int64),
            "ws": np.array([s for s, _ in ivs], dtype=np.int64),
            "we": np.array([s + w for s, w in ivs], dtype=np.int64),
        })
        big = pd.DataFrame({
            "row_id": np.arange(len(xs), dtype=np.int64),
            "x": np.array(xs, dtype=np.int64),
        })
        got = interval_join(rd.from_pandas(big),
                            pa.Table.from_pandas(iv),
                            on="x", start="ws", end="we").to_pandas()
        want = {(r, w) for r, x in zip(big["row_id"], big["x"])
                for w, s, e in zip(iv["win_id"], iv["ws"], iv["we"])
                if s <= x <= e}
        if len(got) == 0:
            # Ray's to_pandas drops columns on a fully-empty Dataset
            assert want == set()
        else:
            assert set(zip(got["row_id"], got["win_id"])) == want
            assert len(got) == len(want)

    check()


def test_melt_inverts_wide_table():
    import ray.data as rd

    from proj_ray.stages.relational import melt

    wide = pd.DataFrame({
        "id": np.arange(4, dtype=np.int64),
        "a": [1.0, 2.0, 3.0, 4.0],
        "b": [10.0, 20.0, 30.0, 40.0],
    })
    out = melt(rd.from_pandas(wide), id_cols=["id"],
               value_cols=["a", "b"]).to_pandas()
    want = wide.melt(id_vars=["id"], value_vars=["a", "b"]) \
        .sort_values(["id", "variable"]).reset_index(drop=True)
    got = out.sort_values(["id", "variable"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got[["id", "variable", "value"]],
                                  want[["id", "variable", "value"]])


def test_copartition_join_matches_pandas(ray_session):
    import ray.data as rd

    from proj_ray.stages.relational import copartition_join

    rng = np.random.default_rng(19)
    left = pd.DataFrame({
        "k": rng.integers(0, 80, 4_000).astype(np.int64),
        "lv": rng.normal(size=4_000)})
    # duplicate right keys -> fan-out multiplicity must match SQL
    right = pd.DataFrame({
        "rk": rng.integers(0, 100, 250).astype(np.int64),
        "rv": rng.normal(size=250)})
    as_str = "key-{}".format
    big, small = _frames(seed=3, n=600, n_keys=40)
    inputs = [
        (left, right, ("inner", "left")),
        # an int32 right key against the int64 left key
        (left, right.astype({"rk": np.int32}), ("inner", "left")),
        # string keys on both sides
        (left.assign(k=left["k"].map(as_str)),
         right.assign(rk=right["rk"].map(as_str)), ("inner", "left")),
        # a string payload
        (big, small.to_pandas().rename(columns={"sk": "rk"}), ("inner",)),
    ]
    for lf, rf, hows in inputs:
        for how in hows:
            got = copartition_join(
                rd.from_pandas(lf).repartition(6),
                rd.from_pandas(rf).repartition(3),
                on="k", right_on="rk", how=how,
                num_partitions=5).to_pandas()
            want = lf.merge(rf.rename(columns={"rk": "k"}),
                            on="k", how=how)
            by = list(want.columns)
            gs = got.sort_values(by, na_position="last") \
                .reset_index(drop=True)
            ws = want.sort_values(by, na_position="last") \
                .reset_index(drop=True)
            pd.testing.assert_frame_equal(gs, ws[gs.columns],
                                          check_dtype=False)


def test_copartition_join_empty_right(ray_session):
    import ray.data as rd

    from proj_ray.stages.relational import copartition_join

    left = pd.DataFrame({"k": np.arange(10, dtype=np.int64),
                         "lv": np.ones(10)})
    right = pd.DataFrame({"rk": np.array([], dtype=np.int64),
                          "rv": np.array([], dtype=np.float64)})
    inner = copartition_join(rd.from_pandas(left), rd.from_pandas(right),
                             on="k", right_on="rk", how="inner",
                             num_partitions=3).to_pandas()
    assert len(inner) == 0
    lft = copartition_join(rd.from_pandas(left), rd.from_pandas(right),
                           on="k", right_on="rk", how="left",
                           num_partitions=3).to_pandas()
    assert len(lft) == 10 and lft["rv"].isna().all()


def test_copartition_join_full_outer_both_sides(ray_session):
    import ray.data as rd

    from proj_ray.stages.relational import copartition_join

    left = pd.DataFrame({"k": [1, 2, 2, 5], "lv": [10, 20, 21, 50]})
    right = pd.DataFrame({"rk": [2, 3, 3, 7], "rv": ["a", "b", "c",
                                                     "d"]})
    out = copartition_join(rd.from_arrow(pa.Table.from_pandas(left)),
                           rd.from_arrow(pa.Table.from_pandas(right)),
                           on="k", right_on="rk",
                           how="full").to_pandas()
    want = left.merge(right, how="outer", left_on="k", right_on="rk")
    want["k"] = want["k"].fillna(want["rk"])
    want = want.drop(columns=["rk"])
    o = out.sort_values(["k", "lv", "rv"], na_position="first") \
        .reset_index(drop=True)
    w = want.sort_values(["k", "lv", "rv"], na_position="first") \
        .reset_index(drop=True)
    assert len(o) == len(w) == 7
    np.testing.assert_array_equal(o["k"].to_numpy(dtype=float),
                                  w["k"].to_numpy(dtype=float))
    np.testing.assert_array_equal(
        o["lv"].fillna(-1).to_numpy(dtype=float),
        w["lv"].fillna(-1).to_numpy(dtype=float))
    assert list(o["rv"].fillna("")) == list(w["rv"].fillna(""))


def test_copartition_agg_join_modes(ray_session):
    import ray.data as rd

    from proj_ray.stages.relational import copartition_agg_join

    left = pa.table({"k": pa.array([1, 2, 5], type=pa.int64()),
                     "name": ["a", "b", "e"]})
    # right partials: key 2 split across rows (partial aggregation),
    # key 7 has no left row
    right = pa.table({"rk": pa.array([2, 2, 7], type=pa.int64()),
                      "s": [10.0, 5.0, 3.0],
                      "n": pa.array([2, 1, 4], type=pa.int64())})
    # the same right side with an int32 key
    right32 = right.set_column(0, "rk", right.column("rk").cast(pa.int32()))
    for (how, want_rows), r in itertools.product(
            (("inner", 1), ("left", 3), ("full", 4)), (right, right32)):
        out = copartition_agg_join(
            rd.from_arrow(left), rd.from_arrow(r), on="k",
            right_on="rk", agg_cols=("s", "n"), how=how).to_pandas()
        assert len(out) == want_rows, how
        row2 = out[out["k"] == 2].iloc[0]
        assert row2["s"] == 15.0 and row2["n"] == 3
        if how != "inner":
            row1 = out[out["k"] == 1].iloc[0]
            assert pd.isna(row1["s"]) and pd.isna(row1["n"])
        if how == "full":
            row7 = out[out["k"] == 7].iloc[0]
            assert row7["s"] == 3.0 and row7["n"] == 4
            assert pd.isna(row7["name"])


def test_copartition_agg_join_property_random(ray_session):
    """Property check: fused agg-join == pandas groupby-sum + merge on
    randomized inputs across all three modes (hypothesis-style sweep
    with fixed seeds for determinism)."""
    import ray.data as rd

    rng = np.random.default_rng(21)
    from proj_ray.stages.relational import copartition_agg_join

    for trial in range(6):
        nl = int(rng.integers(0, 40))
        nr = int(rng.integers(0, 120))
        left = pd.DataFrame({
            "k": rng.integers(0, 12, nl).astype("int64"),
            "payload": rng.normal(size=nl),
        }).drop_duplicates("k")
        right = pd.DataFrame({
            "rk": rng.integers(0, 15, nr).astype("int64"),
            "s": rng.normal(size=nr),
            "n": rng.integers(1, 5, nr).astype("int64"),
        })
        want_agg = right.groupby("rk", as_index=False)[["s", "n"]].sum()
        for how in ("inner", "left", "full"):
            got = copartition_agg_join(
                rd.from_arrow(pa.Table.from_pandas(left)),
                rd.from_arrow(pa.Table.from_pandas(right)),
                on="k", right_on="rk", agg_cols=("s", "n"),
                how=how, num_partitions=3).to_pandas()
            pd_how = {"inner": "inner", "left": "left",
                      "full": "outer"}[how]
            want = left.merge(want_agg, how=pd_how, left_on="k",
                              right_on="rk")
            want["k"] = want["k"].fillna(want["rk"])
            want = want.drop(columns=["rk"])
            assert len(got) == len(want), (trial, how)
            g = got.sort_values("k").reset_index(drop=True)
            w = want.sort_values("k").reset_index(drop=True)
            np.testing.assert_allclose(
                g["k"].to_numpy(dtype=float),
                w["k"].to_numpy(dtype=float), err_msg=f"{trial}/{how}")
            np.testing.assert_allclose(
                g["s"].fillna(np.inf), w["s"].fillna(np.inf),
                atol=1e-12, err_msg=f"{trial}/{how}")
            np.testing.assert_allclose(
                g["n"].fillna(-1).astype(float),
                w["n"].fillna(-1).astype(float),
                err_msg=f"{trial}/{how}")


def test_copartition_agg_join_int_sums_exact_past_2_53(ray_session):
    """int64 partial sums beyond 2^53 must stay exact (the float64
    cumsum path silently rounded them)."""
    import ray.data as rd

    from proj_ray.stages.relational import copartition_agg_join

    big = 2**60
    left = pa.table({"k": pa.array([1, 2], type=pa.int64()),
                     "name": ["a", "b"]})
    right = pa.table({
        "rk": pa.array([1, 1, 2], type=pa.int64()),
        "n": pa.array([big, 1, 7], type=pa.int64())})
    out = copartition_agg_join(
        rd.from_arrow(left), rd.from_arrow(right), on="k",
        right_on="rk", agg_cols=("n",), how="inner").to_pandas()
    got = dict(zip(out["k"], out["n"]))
    assert got[1] == big + 1          # float64 would round to big
    assert got[2] == 7
    assert out["n"].dtype == np.int64


def test_copartition_agg_join_left_null_semantics(ray_session):
    """The left-join null path still yields null (not 0) for keys
    with no right rows after the int-path change."""
    import ray.data as rd

    from proj_ray.stages.relational import copartition_agg_join

    left = pa.table({"k": pa.array([1, 9], type=pa.int64()),
                     "name": ["a", "z"]})
    right = pa.table({"rk": pa.array([1], type=pa.int64()),
                      "n": pa.array([5], type=pa.int64()),
                      "s": pa.array([2.5], type=pa.float64())})
    out = copartition_agg_join(
        rd.from_arrow(left), rd.from_arrow(right), on="k",
        right_on="rk", agg_cols=("n", "s"), how="left").to_pandas()
    r9 = out[out["k"] == 9].iloc[0]
    assert pd.isna(r9["n"]) and pd.isna(r9["s"])
    r1 = out[out["k"] == 1].iloc[0]
    assert r1["n"] == 5 and r1["s"] == 2.5
