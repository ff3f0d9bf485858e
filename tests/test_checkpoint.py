import numpy as np
import pytest

from maskaug import checkpoint
from maskaug.checkpoint import (
    CheckpointError, MAGIC, load_arrays, load_model, save_arrays, save_model,
)
from maskaug.tensor import Tensor


@pytest.fixture
def arrays():
    rng = np.random.default_rng(0)
    return {
        "token_emb": rng.normal(size=(11, 4)),
        "bias": rng.normal(size=7),
        "scalar": np.asarray(rng.normal()),
        "cube": rng.normal(size=(2, 3, 4)),
    }


def test_round_trip_is_byte_exact(tmp_path, arrays):
    path = tmp_path / "model.ckpt"
    save_arrays(arrays, path)
    loaded = load_arrays(path)
    assert list(loaded) == list(arrays)
    for name, original in arrays.items():
        assert loaded[name].shape == original.shape
        assert np.array_equal(loaded[name], original)
        assert loaded[name].tobytes() == original.tobytes()

    save_arrays(loaded, tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


def test_views_save_as_their_c_order_copies(tmp_path):
    base = np.arange(12.0).reshape(3, 4)
    views = {"transposed": base.T, "strided": base[:, ::2], "scalar": np.asarray(2.5)}
    save_arrays(views, tmp_path / "views.ckpt")
    save_arrays({k: np.array(v, order="C") for k, v in views.items()}, tmp_path / "copies.ckpt")
    assert (tmp_path / "views.ckpt").read_bytes() == (tmp_path / "copies.ckpt").read_bytes()
    loaded = load_arrays(tmp_path / "views.ckpt")
    for name, view in views.items():
        assert loaded[name].shape == view.shape and np.array_equal(loaded[name], view)


def test_accepts_tensors(tmp_path):
    path = tmp_path / "t.ckpt"
    save_arrays({"w": Tensor([[1.0, 2.0]])}, path)
    assert np.array_equal(load_arrays(path)["w"], [[1.0, 2.0]])


def test_truncated_file(tmp_path, arrays):
    path = tmp_path / "model.ckpt"
    save_arrays(arrays, path)
    blob = path.read_bytes()
    for cut in (len(MAGIC) - 2, len(MAGIC) + 1, len(blob) // 2, len(blob) - 3):
        clipped = tmp_path / "clipped.ckpt"
        clipped.write_bytes(blob[:cut])
        with pytest.raises(CheckpointError):
            load_arrays(clipped)


def test_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint at all, sorry")
    with pytest.raises(CheckpointError):
        load_arrays(path)


def test_trailing_garbage(tmp_path, arrays):
    path = tmp_path / "model.ckpt"
    save_arrays(arrays, path)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(CheckpointError):
        load_arrays(path)


def test_missing_file(tmp_path):
    with pytest.raises(CheckpointError):
        load_arrays(tmp_path / "nope.ckpt")


@pytest.mark.parametrize("failure", ["array-write", "array-rename"])
def test_failed_model_write_keeps_the_previous_pair(tmp_path, arrays, monkeypatch, failure):
    path = tmp_path / "model.ckpt"
    save_model(arrays, {"format": "test v1", "step": 1}, path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(before) == ["model.ckpt", "model.ckpt.json"]

    if failure == "array-write":
        def broken_write(values, target):
            target.write_bytes(MAGIC)  # a partial payload, then the failure
            raise OSError("disk full")

        monkeypatch.setattr(checkpoint, "save_arrays", broken_write)
    else:  # the sidecar is already renamed into place when the arrays rename fails
        real_replace = checkpoint.os.replace

        def broken_replace(src, dst):
            if dst == path:
                raise OSError("disk full")
            real_replace(src, dst)

        monkeypatch.setattr(checkpoint.os, "replace", broken_replace)
    newer = {name: value + 1.0 for name, value in arrays.items()}
    with pytest.raises(OSError, match="disk full"):
        save_model(newer, {"format": "test v1", "step": 2}, path)

    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    reference = {name: Tensor(value) for name, value in arrays.items()}
    meta, loaded = load_model(path, "test v1", lambda meta: (meta, reference))
    assert meta["step"] == 1
    for name, original in arrays.items():
        assert loaded[name].data.tobytes() == original.tobytes()


def test_model_write_bytes_match_plain_writes(tmp_path, arrays):
    path = tmp_path / "model.ckpt"
    meta = {"format": "test v1", "step": 1}
    save_model(arrays, meta, path)
    save_arrays(arrays, tmp_path / "plain.ckpt")
    assert path.read_bytes() == (tmp_path / "plain.ckpt").read_bytes()
    assert (tmp_path / "model.ckpt.json").read_text() == '{\n  "format": "test v1",\n  "step": 1\n}\n'
