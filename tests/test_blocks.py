"""Block counts of the flagship doc source: the default is Ray Data's
read autodetection (override_num_blocks=-1), not a literal."""

import inspect

import pytest

from test_checkpoint import assert_tiles_match_oneshot


@pytest.mark.parametrize("n", [500, 125_000])
def test_minus_one_is_ray_autodetect(ray_session, n):
    """-1 must plan what Ray Data plans when no count is given, so that
    a Ray upgrade that stops reading -1 as autodetect fails here
    instead of quietly resizing the flagship."""
    import ray.data as rd

    got = rd.range(n, override_num_blocks=-1).materialize().num_blocks()
    assert got == rd.range(n).materialize().num_blocks()


def test_doc_dataset_default_blocks_same_rows(ray_session):
    from proj_ray.docs.synth import doc_dataset

    def rows(ds):
        return sorted(ds.take_all(), key=lambda r: r["doc_id"])

    auto = rows(doc_dataset(3000))
    assert len(auto) == 3000
    assert auto == rows(doc_dataset(3000, parallelism=4))


def test_flagship_default_blocks_same_tiles(ray_session):
    from proj_ray.pipelines.flagship import flagship

    assert_tiles_match_oneshot(flagship(n_docs=4000), 4000)


def test_flagship_parallelism_default_is_int():
    """perfbench's flagship_blocks() reads this default from the
    signature and measures 32 blocks unless it is an int."""
    from proj_ray.pipelines.flagship import flagship

    default = inspect.signature(flagship).parameters["parallelism"].default
    assert isinstance(default, int) and default == -1
