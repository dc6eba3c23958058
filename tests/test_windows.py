"""Sessionization, grouped top-k and the keyed window functions vs
driver-side pandas references."""

import numpy as np
import pandas as pd
import pyarrow as pa


def _events(n=800, users=15, seed=3):
    rng = np.random.default_rng(seed)
    return pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "user_id": rng.integers(0, users, n),
        "ts": pd.to_datetime(np.sort(rng.integers(0, 10**6, n)),
                             unit="s"),
        "value": rng.normal(size=n),
    })


def _ref_sessions(df: pd.DataFrame, gap_s: float) -> pd.DataFrame:
    df = df.sort_values(["user_id", "ts", "event_id"]).copy()
    new = (df.groupby("user_id")["ts"].diff()
           > pd.Timedelta(seconds=gap_s))
    new |= df.groupby("user_id").cumcount() == 0
    df["session_id"] = new.groupby(df["user_id"]).cumsum() - 1
    df["session_seq"] = df.groupby(["user_id", "session_id"]).cumcount()
    return df


def test_sessionize_matches_pandas(ray_session):
    import ray.data as rd

    from proj_ray.stages.windows import sessionize

    df = _events()
    out = sessionize(rd.from_pandas(df[["event_id", "user_id", "ts"]]),
                     key="user_id", time="ts", gap_s=900,
                     tiebreak="event_id", num_partitions=8).to_pandas()
    want = _ref_sessions(df, 900)
    merged = out.merge(
        want[["event_id", "session_id", "session_seq"]],
        on="event_id", suffixes=("", "_want"))
    assert (merged["session_id"] == merged["session_id_want"]).all()
    assert (merged["session_seq"] == merged["session_seq_want"]).all()


def test_sessionize_gap_boundary(ray_session):
    """Distance EXACTLY equal to the gap stays in-session (strictly
    greater starts a new one) — the `> INTERVAL` SQL semantics."""
    import ray.data as rd

    from proj_ray.stages.windows import sessionize

    df = pd.DataFrame({
        "event_id": np.arange(3, dtype=np.int64),
        "user_id": np.zeros(3, dtype=np.int64),
        "ts": pd.to_datetime([0, 100, 201], unit="s"),
    })
    out = sessionize(rd.from_pandas(df), key="user_id", time="ts",
                     gap_s=100, tiebreak="event_id").to_pandas() \
        .sort_values("event_id")
    assert out["session_id"].tolist() == [0, 0, 1]
    assert out["session_seq"].tolist() == [0, 1, 0]


def test_grouped_top_k(ray_session):
    import ray.data as rd

    from proj_ray.stages.windows import grouped_top_k

    df = _events(600, users=10, seed=9)
    out = grouped_top_k(
        rd.from_pandas(df[["event_id", "user_id", "value"]]),
        key="user_id", score="value", k=4, tiebreak="event_id",
        num_partitions=8).to_pandas()
    want = df.sort_values(["value", "event_id"],
                          ascending=[False, True]) \
        .groupby("user_id").head(4)
    assert sorted(out["event_id"]) == sorted(want["event_id"])


def test_grouped_top_k_fewer_than_k(ray_session):
    import ray.data as rd

    from proj_ray.stages.windows import grouped_top_k

    df = pd.DataFrame({
        "event_id": np.arange(2, dtype=np.int64),
        "user_id": np.array([1, 2], dtype=np.int64),
        "value": [0.5, 0.7],
    })
    out = grouped_top_k(rd.from_pandas(df), key="user_id",
                        score="value", k=10).to_pandas()
    assert sorted(out["event_id"]) == [0, 1]


def test_sliding_window_fanout_and_membership():
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from proj_ray.stages.windows import assign_sliding_windows

    rng = np.random.default_rng(9)
    ts = pd.Timestamp("2024-03-01") + pd.to_timedelta(
        rng.integers(0, 72 * 3600, 200), unit="s")
    df = pd.DataFrame({"eid": np.arange(200, dtype=np.int64), "ts": ts})
    out = assign_sliding_windows(rd.from_pandas(df), "ts",
                                 width_s=6 * 3600, hop_s=3600)
    got = out.to_pandas()
    # exact fan-out factor
    assert len(got) == 200 * 6
    assert got.groupby("eid").size().eq(6).all()
    # every emitted window actually contains its event
    w = got["window_start"]
    assert (w <= got["ts"]).all()
    assert (got["ts"] < w + pd.Timedelta(hours=6)).all()
    # window starts are hop-aligned
    us = w.to_numpy().astype("datetime64[us]").view("int64")
    assert (us % (3600 * 10**6) == 0).all()


def test_sliding_window_rejects_nonmultiple():
    import pytest as _pytest
    import ray.data as rd
    import pandas as pd

    from proj_ray.stages.windows import assign_sliding_windows

    ds = rd.from_pandas(pd.DataFrame({"ts": pd.to_datetime(["2024-01-01"])}))
    with _pytest.raises(ValueError):
        assign_sliding_windows(ds, "ts", width_s=5000, hop_s=3600)


def test_keyed_lag_matches_pandas_shift():
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from proj_ray.stages.windows import keyed_lag

    rng = np.random.default_rng(4)
    n = 500
    df = pd.DataFrame({
        "rid": np.arange(n, dtype=np.int64),
        "k": rng.integers(0, 12, n),
        "t": rng.integers(0, 10_000, n),
        "v": rng.normal(size=n),
    })
    out = keyed_lag(rd.from_pandas(df), key="k", time="t",
                    value_cols=["v"], tiebreak="rid")
    got = out.to_pandas().sort_values("rid").reset_index(drop=True)
    want = df.sort_values(["k", "t", "rid"])
    want = want.assign(v_lag=want.groupby("k")["v"].shift(1))
    want = want.sort_values("rid").reset_index(drop=True)
    pd.testing.assert_series_equal(got["v_lag"], want["v_lag"],
                                   check_names=False)


def test_keyed_cumsum_matches_pandas():
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from proj_ray.stages.windows import keyed_cumsum

    rng = np.random.default_rng(8)
    n = 600
    df = pd.DataFrame({
        "rid": np.arange(n, dtype=np.int64),
        "k": rng.integers(0, 15, n),
        "t": rng.integers(0, 5_000, n),
        "v": rng.normal(size=n),
    })
    out = keyed_cumsum(rd.from_pandas(df), key="k", time="t",
                       value_cols=["v"], tiebreak="rid")
    got = out.to_pandas().sort_values("rid").reset_index(drop=True)
    want = df.sort_values(["k", "t", "rid"])
    want = want.assign(v_cum=want.groupby("k")["v"].cumsum())
    want = want.sort_values("rid").reset_index(drop=True)
    assert np.allclose(got["v_cum"], want["v_cum"], rtol=0, atol=1e-12)


def test_keyed_ntile_matches_sql_semantics():
    """NTILE bucket sizes differ by at most one, larger first; exact
    match against a reference implementing SQL's definition."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from proj_ray.stages.windows import keyed_ntile

    rng = np.random.default_rng(12)
    n = 700
    df = pd.DataFrame({
        "rid": np.arange(n, dtype=np.int64),
        "k": rng.integers(0, 9, n),
        "v": rng.normal(size=n),
    })
    out = keyed_ntile(rd.from_pandas(df), key="k", order_col="v",
                      n_tiles=4, tiebreak="rid").to_pandas() \
        .sort_values("rid").reset_index(drop=True)

    def ref_ntile(g):
        m = len(g)
        q, rem = divmod(m, 4)
        sizes = [q + 1] * rem + [q] * (4 - rem)
        buckets = np.repeat(np.arange(1, 5), sizes[:4])[:m]
        g = g.sort_values(["v", "rid"]).copy()
        g["want"] = buckets
        return g

    want = df.groupby("k", group_keys=False).apply(ref_ntile) \
        .sort_values("rid").reset_index(drop=True)
    assert (out["tile_no"].to_numpy() == want["want"].to_numpy()).all()


def test_keyed_string_agg_matches_pandas(ray_session):
    """string_agg(value, sep ORDER BY time) per key, timestamp ties
    broken by `tiebreak`, against a pandas groupby join."""
    import ray.data as rd

    from proj_ray.stages.windows import keyed_string_agg

    rng = np.random.default_rng(21)
    n = 600
    df = pd.DataFrame({
        "rid": np.arange(n, dtype=np.int64),
        "k": rng.integers(0, 25, n),
        "t": rng.integers(0, 40, n),          # plenty of time ties
        "w": [f"w{i}" for i in rng.integers(0, 1000, n)],
    })
    out = keyed_string_agg(rd.from_pandas(df).repartition(4), key="k",
                           time="t", value_col="w", sep="|",
                           num_partitions=5, tiebreak="rid").to_pandas() \
        .sort_values("k").reset_index(drop=True)
    want = df.sort_values(["k", "t", "rid"]).groupby("k")["w"] \
        .apply("|".join).reset_index(name="agg")
    assert out["k"].tolist() == want["k"].tolist()
    assert out["agg"].tolist() == want["agg"].tolist()

    empty = keyed_string_agg(rd.from_pandas(df.iloc[:0]), key="k",
                             time="t", value_col="w", num_partitions=5,
                             tiebreak="rid").to_pandas()
    assert len(empty) == 0


def test_keyed_dense_rank_matches_pandas(ray_session):
    import ray.data as rd

    from proj_ray.stages.windows import keyed_dense_rank

    rng = np.random.default_rng(13)
    n = 5_000
    df = pd.DataFrame({
        "k": rng.integers(0, 40, n).astype(np.int64),
        "v": rng.integers(0, 25, n).astype(np.int64),  # plenty of ties
        "rid": np.arange(n, dtype=np.int64)})
    got = keyed_dense_rank(rd.from_pandas(df).repartition(7),
                           key="k", order_col="v",
                           num_partitions=5).to_pandas() \
        .sort_values("rid").reset_index(drop=True)
    want = df.groupby("k")["v"].rank(method="dense").astype(np.int64)
    assert (got["drank"].to_numpy() == want.to_numpy()).all()


def test_keyed_lead_matches_pandas_shift(ray_session):
    import ray.data as rd

    from proj_ray.stages.windows import keyed_lead

    rng = np.random.default_rng(11)
    n = 500
    df = pd.DataFrame({
        "k": rng.integers(0, 20, n),
        "t": rng.integers(0, 10_000, n),
        "v": rng.normal(size=n),
        "id": np.arange(n),
    })
    # unique (k, t) so the ordering is unambiguous
    df = df.drop_duplicates(subset=["k", "t"]).reset_index(drop=True)
    out = keyed_lead(rd.from_pandas(df).repartition(5), key="k",
                     time="t", value_cols=["v"]).to_pandas()
    want = df.sort_values(["k", "t"]).copy()
    want["v_lead"] = want.groupby("k")["v"].shift(-1)
    merged = out.sort_values("id").reset_index(drop=True)
    wanted = want.sort_values("id").reset_index(drop=True)
    pd.testing.assert_series_equal(merged["v_lead"], wanted["v_lead"],
                                   check_names=False)


def test_keyed_percent_rank_with_ties(ray_session):
    import ray.data as rd

    from proj_ray.stages.windows import keyed_percent_rank

    df = pd.DataFrame({
        "k": [1, 1, 1, 1, 2, 2, 3],
        "v": [5.0, 1.0, 5.0, 9.0, 2.0, 2.0, 7.0],
        "id": range(7),
    })
    out = keyed_percent_rank(rd.from_pandas(df).repartition(3),
                             key="k", order_col="v").to_pandas() \
        .sort_values("id").reset_index(drop=True)
    # pandas rank(method="min"): prank = (rank-1)/(n-1), 0 for n==1
    want = df.copy()
    r = df.groupby("k")["v"].rank(method="min")
    nn = df.groupby("k")["v"].transform("size")
    want["prank"] = np.where(nn > 1, (r - 1) / (nn - 1), 0.0)
    np.testing.assert_allclose(out["prank"], want["prank"])


def test_keyed_funnel_strict_ordering(ray_session):
    import ray.data as rd

    from proj_ray.stages.windows import keyed_funnel

    # user 1: full funnel in order; user 2: B before A (depth 1 only
    # after A appears later with no B after it); user 3: A only;
    # user 4: none of the stages
    t = pa.table({
        "u": [1, 1, 1, 2, 2, 3, 4],
        "ts": pa.array([10, 20, 30, 5, 8, 7, 9], type=pa.int64()),
        "typ": ["A", "B", "C", "B", "A", "A", "X"],
    })
    out = {r["u"]: (r["depth"], r["t_complete"])
           for r in keyed_funnel(rd.from_arrow(t), key="u", time="ts",
                                 type_col="typ",
                                 stages=["A", "B", "C"]).take_all()}
    assert out[1] == (3, 30)
    assert out[2] == (1, 8)   # B at 5 precedes first A -> not counted
    assert out[3] == (1, 7)
    assert out[4] == (0, -1)


def test_keyed_rolling_mean_matches_pandas(ray_session):
    import ray.data as rd

    from proj_ray.stages.windows import keyed_rolling_mean

    rng = np.random.default_rng(5)
    n = 400
    df = pd.DataFrame({
        "k": rng.integers(0, 15, n),
        "t": np.arange(n),
        "v": rng.normal(size=n),
        "id": np.arange(n),
    })
    out = keyed_rolling_mean(
        rd.from_arrow(pa.Table.from_pandas(df)), key="k", time="t",
        value_col="v", window_rows=4).to_pandas() \
        .sort_values("id").reset_index(drop=True)
    want = df.sort_values(["k", "t"]).copy()
    want["rmean"] = want.groupby("k")["v"].transform(
        lambda s: s.rolling(4, min_periods=1).mean())
    want = want.sort_values("id").reset_index(drop=True)
    np.testing.assert_allclose(out["rmean"], want["rmean"],
                               atol=1e-12)


def test_keyed_rolling_mean_window_sums_only_its_rows(ray_session):
    """A huge value elsewhere in the partition (another key's, or an
    earlier row of the same key) must not cost a window precision, and
    the result must not depend on which keys share a partition."""
    import ray.data as rd

    from proj_ray.stages.windows import keyed_rolling_mean

    rng = np.random.default_rng(13)
    n, w = 4000, 4
    v = rng.normal(size=n)
    big = np.arange(n) % 50 == 7   # 1 value in 50 scaled by 1e12
    v[big] *= 1e12
    df = pd.DataFrame({"k": rng.integers(0, 50, n), "t": np.arange(n),
                       "v": v, "id": np.arange(n)})

    def run(parts):
        return keyed_rolling_mean(
            rd.from_arrow(pa.Table.from_pandas(df)), key="k", time="t",
            value_col="v", window_rows=w, num_partitions=parts) \
            .to_pandas().sort_values("id")["rmean"].to_numpy()

    one, many = run(1), run(64)
    assert np.array_equal(one.view(np.int64), many.view(np.int64))

    srt = df.sort_values(["k", "t"])
    want, scale = np.empty(n), np.empty(n)
    for _, g in srt.groupby("k", sort=False):
        vals, ids = g["v"].to_numpy(), g["id"].to_numpy()
        for j in range(len(g)):
            win = vals[max(0, j - w + 1):j + 1]
            want[ids[j]] = win.mean()
            scale[ids[j]] = np.abs(win).mean()
    # relative to the window's magnitude: a mean near 0 cancels
    small = scale < 1e3
    assert small.sum() > n // 2
    assert (np.abs(one - want)[small] <= 1e-12 * scale[small]).all()
