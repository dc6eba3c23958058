"""Round-4 coverage additions: grouped mode, tile pyramid / regex scan
queries."""

import numpy as np
import pandas as pd


def test_grouped_mode_matches_pandas(ray_session):
    import ray.data as rd

    from proj_ray.stages.frequent import grouped_mode

    rng = np.random.default_rng(17)
    n = 8_000
    df = pd.DataFrame({
        "k": rng.integers(0, 30, n).astype(np.int64),
        "v": rng.choice(list("abcde"), n)})
    got = grouped_mode(rd.from_pandas(df).repartition(6),
                       key="k", value="v").to_pandas() \
        .sort_values("k").reset_index(drop=True)
    counts = df.groupby(["k", "v"]).size().reset_index(name="n")
    counts = counts.sort_values(["k", "n", "v"],
                                ascending=[True, False, True])
    want = counts.groupby("k").head(1).sort_values("k") \
        .reset_index(drop=True)
    assert (got["k"].to_numpy() == want["k"].to_numpy()).all()
    assert (got["v"].to_numpy() == want["v"].to_numpy()).all()
    assert (got["n"].to_numpy() == want["n"].to_numpy()).all()


def test_tile_pyramid_levels_consistent(ray_session, sf_dir):
    """Coarser levels must re-aggregate exactly from the finest."""
    from proj_ray.pipelines.queries import q_tile_pyramid

    df = q_tile_pyramid(sf_dir).to_pandas()
    t10 = df[df["zoom"] == 10]
    t8 = df[df["zoom"] == 8]
    roll = t10.assign(tx=t10["tx"].to_numpy() >> 2,
                      ty=t10["ty"].to_numpy() >> 2) \
        .groupby(["tx", "ty"], as_index=False)["n"].sum()
    merged = roll.merge(t8[["tx", "ty", "n"]], on=["tx", "ty"],
                        suffixes=("_roll", "_q"))
    assert len(merged) == len(t8) == len(roll)
    assert (merged["n_roll"] == merged["n_q"]).all()
    assert df[df["zoom"] == 6]["n"].sum() == t10["n"].sum()


def test_doc_regex_matches_python_re(ray_session, sf_dir):
    import re

    import pyarrow.parquet as pq

    from proj_ray.pipelines.queries import _DOC_REGEX, q_doc_regex

    got = q_doc_regex(sf_dir).to_pandas().set_index("lang")["n_match"]
    t = pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["text", "lang"]).to_pandas()
    pat = re.compile(_DOC_REGEX)
    want = t[t["text"].map(lambda s: pat.search(s) is not None)] \
        .groupby("lang").size()
    assert got.sort_index().to_dict() == want.sort_index().to_dict()
    assert got.sum() > 0  # the pattern actually matches the corpus
