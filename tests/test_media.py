"""Media-stage plumbing: frame sampling fan-out and the decode
pipeline's payload-drop contract."""

import json
import os
import signal
import subprocess
import sys

import numpy as np
import pandas as pd
import pytest

from proj_ray.stages.media import FakeImageDecoder, FrameSampler


def test_frame_sampler_fanout():
    b = pd.DataFrame({
        "media_ref": ["a", "b", "c", "d"],
        "media_type": ["video", "image", "video", "video"],
        "duration_ms": [2500, 0, 1000, 0],
    })
    out = FrameSampler(stride_ms=1000)(b)
    # ceil(2500/1000)=3 frames for a, image skipped, 1 for c, 0 for d
    assert out["media_ref"].tolist() == ["a", "a", "a", "c"]
    assert out["frame_ts_ms"].tolist() == [0, 1000, 2000, 0]


def test_frame_sampler_empty():
    b = pd.DataFrame({"media_ref": [], "media_type": [],
                      "duration_ms": []})
    out = FrameSampler()(b)
    assert list(out.columns) == ["media_ref", "frame_ts_ms"]
    assert len(out) == 0


def test_decoder_drops_payload_keeps_features():
    dec = FakeImageDecoder(feature_dim=4)
    b = pd.DataFrame({
        "media_ref": ["x", "y"],
        "payload": [b"abc" * 30, b"def" * 30],
    })
    out = dec(b.copy())
    assert "payload" not in out.columns
    f = np.stack(out["features"].to_numpy())
    assert f.shape == (2, 4)
    # deterministic
    again = np.stack(dec(b.copy())["features"].to_numpy())
    assert (f == again).all()


def test_audio_chunker_fanout_and_rms():
    from proj_ray.stages.media import AudioChunker

    # two audio payloads and one image row (skipped)
    p1 = bytes(range(10)) * 5          # 50 bytes
    p2 = bytes([100]) * 12             # constant signal, 12 bytes
    b = pd.DataFrame({
        "media_ref": ["a1", "img", "a2"],
        "media_type": ["audio", "image", "audio"],
        "payload": [p1, b"\xff" * 9, p2],
    })
    # chunk_bytes = 8000 * 2 // 1000 = 16
    out = AudioChunker(chunk_ms=2, sample_rate_hz=8000)(b)
    # ceil(50/16)=4 chunks for a1, ceil(12/16)=1 for a2
    assert out["media_ref"].tolist() == ["a1"] * 4 + ["a2"]
    assert out["chunk_idx"].tolist() == [0, 1, 2, 3, 0]
    assert out["chunk_ts_ms"].tolist() == [0, 2, 4, 6, 0]
    # exact RMS per chunk vs direct computation
    arr1 = np.frombuffer(p1, dtype=np.uint8).astype(np.float64)
    for i in range(4):
        seg = arr1[i * 16:(i + 1) * 16]
        want = np.sqrt(np.mean(seg * seg))
        assert abs(out["rms"].iloc[i] - want) < 1e-12
    assert abs(out["rms"].iloc[4] - 100.0) < 1e-12


def test_audio_chunker_no_audio_keeps_schema():
    from proj_ray.stages.media import AudioChunker

    b = pd.DataFrame({"media_ref": ["x"], "media_type": ["image"],
                      "payload": [b"abc"]})
    out = AudioChunker()(b)
    assert len(out) == 0
    assert list(out.columns) == ["media_ref", "chunk_idx",
                                 "chunk_ts_ms", "rms"]


def test_image_resizer_known_grid():
    import numpy as np
    import pandas as pd

    from proj_ray.stages.media import ImageResizer

    # 4x4 gradient grid downsampled to 2x2 nearest-neighbor
    grid = np.arange(16, dtype=np.uint8).reshape(4, 4)
    b = pd.DataFrame({
        "media_ref": ["img-1", "aud-1"],
        "media_type": ["image", "audio"],
        "payload": [grid.tobytes(), b"\x00" * 10],
        "width": [4, 0],
        "height": [4, 0],
        "duration_ms": [0, 1000],
    })
    out = ImageResizer(target=2)(b)
    assert len(out) == 1  # audio rows pass through untouched
    thumb = np.frombuffer(out["thumb"].iloc[0],
                          dtype=np.uint8).reshape(2, 2)
    # rows 0,2 and cols 0,2 of the 4x4 grid
    np.testing.assert_array_equal(thumb, [[0, 2], [8, 10]])
    assert out["mean_luma"].iloc[0] == (0 + 2 + 8 + 10) / 4


_ONE_CPU_MEDIA = """
import json

import ray

ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
from proj_ray.pipelines.queries import q_media_features, q_video_frames

print(json.dumps([q_media_features({sf!r}).count(),
                  q_video_frames({sf!r}).count()]))
"""


def test_media_queries_finish_on_one_cpu(sf_dir):
    """The media stages on a 1-CPU cluster of their own must finish
    with the row counts they give on 4 CPUs (sf0.001).  A fixed-size
    actor pool there holds the only CPU slot, and the read task
    feeding it never schedules."""
    root = os.path.join(os.path.dirname(__file__), "..")
    proc = subprocess.Popen([sys.executable, "-c",
                             _ONE_CPU_MEDIA.format(sf=sf_dir)], cwd=root,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("media queries did not finish in 120 s on 1 CPU")
    assert proc.returncode == 0, err[-2000:]
    assert json.loads(out.strip().splitlines()[-1]) == [350, 1721]
