import struct

import numpy as np
import pytest

from maskaug import checkpoint
from maskaug.augment import AugmentationPolicy
from maskaug.checkpoint import (
    CheckpointError, MAGIC, draw_params, load_arrays, load_model, save_arrays, save_model,
)
from maskaug.classify import Classifier, CnnConfig, RnnConfig
from maskaug.encoder import EncoderConfig
from maskaug.tensor import Tensor
from maskaug.training import MaskPolicy, TrainConfig


@pytest.fixture
def arrays():
    rng = np.random.default_rng(0)
    return {
        "token_emb": rng.normal(size=(11, 4)),
        "bias": rng.normal(size=7),
        "scalar": np.asarray(rng.normal()),
        "cube": rng.normal(size=(2, 3, 4)),
    }


def _layout_of(arrays):
    return {name: (value.shape, np.zeros) for name, value in arrays.items()}


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


def test_name_that_is_not_utf8_is_a_checkpoint_error_naming_the_path(tmp_path, arrays):
    path = tmp_path / "model.ckpt"
    save_arrays(arrays, path)
    blob = bytearray(path.read_bytes())
    blob[len(MAGIC) + 4 + 2] = 0xFF  # first byte of the first name, after count and length
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="not UTF-8") as info:
        load_arrays(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize(
    "extents, message",
    [
        ((2**16,) * 4, "truncated checkpoint"),
        ((2**31, 2**31, 3), "truncated checkpoint"),
        ((0, 2**32 - 1, 2**32 - 1, 2**32 - 1), "array extents too large"),
    ],
    ids=["wraps-to-zero", "past-int64", "zero-beside-huge"],
)
def test_extents_past_int64_are_a_checkpoint_error(tmp_path, extents, message):
    # an int64 product of the first two wraps around, once to 0 bytes; the
    # third holds 0 bytes, but NumPy cannot index an array of its extents
    path = tmp_path / "huge.ckpt"
    header = struct.pack(f"<IH1sB{len(extents)}I", 1, 1, b"w", len(extents), *extents)
    path.write_bytes(MAGIC + header + bytes(64))
    with pytest.raises(CheckpointError, match=message) as info:
        load_arrays(path)
    assert str(path) in str(info.value)


def test_a_name_stored_twice_is_a_checkpoint_error_naming_it(tmp_path):
    path = tmp_path / "twice.ckpt"
    entry = struct.pack("<H1sBI", 1, b"w", 1, 2) + np.arange(2.0).tobytes()
    path.write_bytes(MAGIC + struct.pack("<I", 2) + entry + entry)
    with pytest.raises(CheckpointError, match="parameter 'w' is stored twice") as info:
        load_arrays(path)
    assert str(path) in str(info.value)


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
    meta, loaded = load_model(path, "test v1", lambda meta, stored: (meta, _layout_of(arrays)))
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


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(lambda layout: layout.pop("bias"),
                     r"do not match the architecture: missing 0 \[\], unexpected 1 \['bias'\]$",
                     id="missing-name"),
        pytest.param(lambda layout: layout.update(extra=((2,), np.zeros)),
                     r"do not match the architecture: missing 1 \['extra'\], unexpected 0 \[\]$",
                     id="extra-name"),
        pytest.param(lambda layout: layout.update({f"w{i}": ((1,), np.zeros) for i in range(5)}),
                     r"missing 5 \['w0', 'w1', 'w2'\], unexpected 0 \[\]$", id="five-extra-names"),
        pytest.param(lambda layout: layout.update(cube=((2, 4, 3), 0.02)),
                     "parameter 'cube' in .* has shape \\(2, 3, 4\\), expected \\(2, 4, 3\\)",
                     id="wrong-shape"),
    ],
)
def test_load_model_checks_names_and_shapes_against_the_layout(tmp_path, arrays, edit, message):
    path = tmp_path / "model.ckpt"
    save_model(arrays, {"format": "test v1"}, path)
    layout = _layout_of(arrays)
    edit(layout)
    with pytest.raises(CheckpointError, match=message):
        load_model(path, "test v1", lambda meta, stored: (meta, layout))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_load_model_rejects_a_non_finite_value_naming_its_parameter(tmp_path, arrays, value):
    path = tmp_path / "model.ckpt"
    arrays["cube"][1, 2, 3] = value
    save_model(arrays, {"format": "test v1"}, path)
    with pytest.raises(CheckpointError, match=f"^parameter 'cube' in {path} holds NaN or inf$"):
        load_model(path, "test v1", lambda meta, stored: (meta, _layout_of(arrays)))
    assert np.array_equal(load_arrays(path)["cube"], arrays["cube"], equal_nan=True)


def test_load_model_reads_shapes_without_drawing(tmp_path, arrays, monkeypatch):
    path = tmp_path / "model.ckpt"
    save_model(arrays, {"format": "test v1"}, path)

    def refuse(*args, **kwargs):
        raise AssertionError("a load built a parameter")

    # a layout far too large to allocate, whose init functions must never run
    layout = {name: (value.shape, refuse) for name, value in arrays.items()}
    layout["token_emb"] = ((2**50, 4), refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    with pytest.raises(CheckpointError, match=r"expected \(1125899906842624, 4\)"):
        load_model(path, "test v1", lambda meta, stored: (meta, layout))
    layout["token_emb"] = ((11, 4), refuse)
    _, loaded = load_model(path, "test v1", lambda meta, stored: (meta, layout))
    assert all(loaded[name].data.tobytes() == arrays[name].tobytes() for name in arrays)


def test_draw_params_follows_the_layout_order():
    layout = {
        "a": ((2, 3), 0.5),
        "gain": ((3,), np.ones),
        "b": ((4,), 2.0),
        "bias": ((3,), lambda shape: np.full(shape, -0.0)),
    }
    params = draw_params(layout, np.random.default_rng(3))
    rng = np.random.default_rng(3)
    want = {
        "a": rng.normal(0.0, 0.5, size=(2, 3)),
        "gain": np.ones(3),
        "b": rng.normal(0.0, 2.0, size=(4,)),
        "bias": np.full(3, -0.0),
    }
    assert list(params) == list(want)
    for name, value in want.items():
        assert params[name].requires_grad
        assert params[name].data.shape == value.shape
        assert params[name].data.tobytes() == value.tobytes()


def _encoder(**fields):
    return EncoderConfig(**{"vocab_size": 9, **fields})


def _classifier(**fields):
    return Classifier({}, CnnConfig(), **{"vocab_size": 9, "num_labels": 2, **fields})


def _name(make, field):
    return f"{make.__name__.strip('_')}-{field}"


# every config field that check_field_types bounds below, with its least value
LEAST = [
    *[(_encoder, name, n) for name, n in [("vocab_size", 1), ("ff", 1), ("layers", 0),
                                          ("hidden", 2), ("heads", 1), ("num_conditions", 1),
                                          ("max_len", 2)]],
    (TrainConfig, "batch_size", 1),
    (TrainConfig, "patience", 1),
    (MaskPolicy, "k", 1),
    (AugmentationPolicy, "top_k", 1),
    (AugmentationPolicy, "multiplier", 1),
    *[(CnnConfig, name, 1) for name in
      ("num_filters", "emb_dim", "hidden_dim", "max_epochs", "batch_size", "patience")],
    *[(RnnConfig, name, 1) for name in
      ("emb_dim", "state_dim", "max_epochs", "batch_size", "patience")],
    *[(_classifier, name, n) for name, n in [("vocab_size", 1), ("num_labels", 1),
                                             ("epochs_used", 0)]],
]


@pytest.mark.parametrize(
    "make, field, least",
    [pytest.param(*row, id=_name(*row[:2])) for row in LEAST],
)
def test_each_bounded_config_field_rejects_one_below_its_least_value(make, field, least):
    with pytest.raises(ValueError) as info:
        make(**{field: least - 1})
    assert str(info.value) == f"{field} must be >= {least}, got {least - 1}"
    assert getattr(make(**{field: least}), field) == least


INF, NAN = float("inf"), float("nan")

# every config field that check_field_types keeps in an interval, as its
# message prints it; its closed ends, accepted, and values outside it,
# rejected; epochs is an int, so NaN and infinities are type errors there,
# and its neighbours stand outside
INTERVALS = [
    (_encoder, "dropout", "[0, 1)", [0.0], [1.0, -0.1, NAN, -INF, INF]),
    *[(make, "dropout", "[0, 1)", [0.0], [1.0, -0.1, NAN, -INF, INF])
      for make in (CnnConfig, RnnConfig)],
    *[(make, "lr", "(0, inf)", [], [0.0, -1.0, NAN, -INF, INF])
      for make in (CnnConfig, RnnConfig, TrainConfig)],
    (TrainConfig, "epochs", "[1, 50]", [1, 50], [0, 51]),
    (TrainConfig, "clip_norm", "(0, inf] or be null", [INF, None], [0.0, -1.0, NAN, -INF]),
    (MaskPolicy, "ratio", "(0, 1]", [1.0], [0.0, 1.5, NAN, -INF, INF]),
    (AugmentationPolicy, "temperature", "(0, inf]", [INF], [0.0, -1.0, NAN, -INF]),
]
# every config field that check_field_types keeps to a list of choices
CHOICES = [
    (MaskPolicy, "mode", ("ratio", "fixed_k")),
    (AugmentationPolicy, "sampler", ("greedy", "top_k", "temperature")),
]


@pytest.mark.parametrize(
    "make, field, accepted",
    [pytest.param(make, field, value, id=f"{_name(make, field)}-{value}")
     for make, field, _, closed, _ in INTERVALS for value in closed]
    + [pytest.param(make, field, value, id=f"{_name(make, field)}-{value}")
       for make, field, choices in CHOICES for value in choices],
)
def test_each_closed_end_and_choice_is_accepted(make, field, accepted):
    assert getattr(make(**{field: accepted}), field) == accepted


@pytest.mark.parametrize(
    "make, field, value, message",
    [pytest.param(make, field, value, f"{field} must lie in {interval}, got {value}",
                  id=f"{_name(make, field)}-{value}")
     for make, field, interval, _, outside in INTERVALS for value in outside]
    + [pytest.param(make, field, "beam",
                    f"{field} must be one of {', '.join(map(repr, choices))}, got 'beam'",
                    id=f"{_name(make, field)}-beam")
       for make, field, choices in CHOICES],
)
def test_each_open_end_nan_infinity_and_wrong_choice_is_rejected(make, field, value, message):
    with pytest.raises(ValueError) as info:
        make(**{field: value})
    assert str(info.value) == message


def test_bounds_are_checked_after_every_type():
    # a bound is only compared once every field has its declared type
    with pytest.raises(ValueError, match="^max_len must be an int, got '2'$"):
        EncoderConfig(vocab_size=0, max_len="2")
