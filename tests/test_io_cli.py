"""Container format and command line flows."""

import argparse
import csv
import json
import re
import tracemalloc
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dgd import cli, evaluation, io_dgt
from dgd.baselines import METHODS
from dgd.cli import main
from dgd.datagen import SwDynSpec
from dgd.io_dgt import KINDS, DgtError, DgtSlices, load_dgt, save_dgt
from dgd.model import Hyperparams

from helpers import set_cpus

# the file format, written out: cli derives its header from ObjectiveBreakdown's fields
HISTORY_LINE = "iter,total,fit,sparsity,smoothness,temporal,overlap,ridge_c,ridge_a"
RANK_GRID = "--grid values of a rank sweep"


def _header_and_payload(path):
    data = path.read_bytes()
    nl = data.index(b"\n")
    return json.loads(data[:nl].decode()), data[nl + 1 :]


@pytest.mark.parametrize(
    "kind,shape",
    [
        ("adjacency", (2, 2, 2)),
        ("mask", (3, 4, 4)),
        ("signals", (2, 3, 5)),
        ("latents", (2, 4, 4)),
        ("signatures", (6, 2)),
    ],
)
def test_round_trip_is_bit_exact(tmp_path, kind, shape):
    rng = np.random.default_rng(sum(map(ord, kind)))
    arr = rng.standard_normal(shape)
    arr.flat[0] = -0.0
    arr.flat[1] = 5e-324  # subnormal survives
    path = tmp_path / f"{kind}.dgt"
    save_dgt(path, arr, kind)
    back, found = load_dgt(path)
    assert found == kind
    assert back.shape == arr.shape
    assert back.tobytes() == arr.tobytes()


@st.composite
def _kind_and_array(draw):
    kind = draw(st.sampled_from(sorted(KINDS)))
    shape = draw(hnp.array_shapes(min_dims=KINDS[kind], max_dims=KINDS[kind], max_side=5))
    # NaN and inf included: the payload is raw little-endian float64
    specials = st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, np.inf, -np.inf, np.nan])
    arr = draw(hnp.arrays(np.float64, shape, elements=specials | st.floats(allow_subnormal=True)))
    return kind, arr


@settings(max_examples=200, deadline=None)
@given(_kind_and_array())
def test_round_trip_any_shape_and_value(tmp_path_factory, case):
    kind, arr = case
    path = tmp_path_factory.mktemp("dgt") / f"{kind}.dgt"
    save_dgt(path, arr, kind)
    back, found = load_dgt(path)
    assert found == kind
    assert back.shape == arr.shape
    assert back.tobytes() == arr.tobytes()


def test_header_layout(tmp_path):
    path = tmp_path / "x.dgt"
    save_dgt(path, np.zeros((3, 4, 4)), "adjacency")
    header, payload = _header_and_payload(path)
    assert header == {"magic": "DGT1", "kind": "adjacency", "dims": [4, 4, 3], "dtype": "f64le"}
    assert len(payload) == 3 * 4 * 4 * 8


def test_save_rejects_bad_kind_and_order(tmp_path):
    with pytest.raises(ValueError, match="kind"):
        save_dgt(tmp_path / "x.dgt", np.zeros((2, 2, 2)), "bogus")
    with pytest.raises(ValueError):
        save_dgt(tmp_path / "x.dgt", np.zeros((2, 2)), "adjacency")
    with pytest.raises(ValueError):
        save_dgt(tmp_path / "x.dgt", np.zeros((2, 2, 2)), "signatures")


def _write_raw(tmp_path, header_bytes, payload):
    path = tmp_path / "raw.dgt"
    path.write_bytes(header_bytes + b"\n" + payload)
    return path


def _header_bytes(**overrides):
    header = {"magic": "DGT1", "kind": "signatures", "dims": [2, 2], "dtype": "f64le"}
    header.update(overrides)
    header = {k: v for k, v in header.items() if v is not None}
    return json.dumps(header, separators=(",", ":")).encode()


def test_load_rejects_corruption(tmp_path):
    good_payload = np.zeros(4).tobytes()

    path = _write_raw(tmp_path, _header_bytes(magic="DGT9"), good_payload)
    with pytest.raises(DgtError, match="magic"):
        load_dgt(path)

    path = _write_raw(tmp_path, _header_bytes(kind="bogus"), good_payload)
    with pytest.raises(DgtError, match="kind"):
        load_dgt(path)

    path = _write_raw(tmp_path, _header_bytes(dtype="f32le"), good_payload)
    with pytest.raises(DgtError, match="dtype"):
        load_dgt(path)

    path = _write_raw(tmp_path, _header_bytes(dims=[2, 2, 2]), good_payload)
    with pytest.raises(DgtError, match="dims"):
        load_dgt(path)

    path = _write_raw(tmp_path, _header_bytes(dims=[2, -2]), good_payload)
    with pytest.raises(DgtError, match="dims"):
        load_dgt(path)

    path = _write_raw(tmp_path, _header_bytes(dims=[True, 4]), good_payload)
    with pytest.raises(DgtError, match="dims"):
        load_dgt(path)

    path = _write_raw(tmp_path, _header_bytes(extra=1), good_payload)
    with pytest.raises(DgtError, match="unknown header field"):
        load_dgt(path)

    path = _write_raw(tmp_path, _header_bytes(dtype=None), good_payload)
    with pytest.raises(DgtError, match="missing header field"):
        load_dgt(path)

    path = tmp_path / "nojson.dgt"
    path.write_bytes(b"not json\n" + good_payload)
    with pytest.raises(DgtError, match="JSON"):
        load_dgt(path)

    path = tmp_path / "nonewline.dgt"
    path.write_bytes(b"{}")
    with pytest.raises(DgtError, match="newline"):
        load_dgt(path)


def test_load_reports_payload_offsets(tmp_path):
    header = _header_bytes(kind="adjacency", dims=[2, 2, 2])
    short = np.zeros(7).tobytes()
    path = _write_raw(tmp_path, header, short)
    with pytest.raises(DgtError, match="truncated") as excinfo:
        load_dgt(path)
    assert excinfo.value.byte_offset == len(header) + 1 + len(short)

    long = np.zeros(9).tobytes()
    path = _write_raw(tmp_path, header, long)
    with pytest.raises(DgtError, match="trailing") as excinfo:
        load_dgt(path)
    assert excinfo.value.byte_offset == len(header) + 1 + 8 * 8
    assert "byte offset" in str(excinfo.value)


def test_header_scan_stops_at_64_kib(tmp_path):
    # JSON allows leading blanks: pad the header so its newline is the
    # last byte of the 64 KiB scan, then one byte past it
    header = _header_bytes(kind="signatures", dims=[2, 2])
    payload = np.arange(4.0).tobytes()
    pad = b" " * (65535 - len(header))
    back, _ = load_dgt(_write_raw(tmp_path, pad + header, payload))
    assert np.array_equal(back, [[0.0, 1.0], [2.0, 3.0]])
    with pytest.raises(DgtError, match="newline") as excinfo:
        load_dgt(_write_raw(tmp_path, b" " + pad + header, payload))
    assert excinfo.value.byte_offset == 0


def test_load_and_save_hold_one_payload(tmp_path):
    # numpy allocations are traced: a load owns the payload and little else,
    # a save of a contiguous float64 array copies nothing
    arr = np.random.default_rng(5).standard_normal((16, 256, 256))
    assert arr.nbytes >= 8 * 2**20
    path = tmp_path / "big.dgt"
    tracemalloc.start()
    try:
        save_dgt(path, arr, "adjacency")
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back, _ = load_dgt(path)
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert save_peak <= 2**20
    assert load_peak <= arr.nbytes + 2**20
    assert back.tobytes() == arr.tobytes()


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_loaded_arrays_are_writable_native_and_contiguous(tmp_path, kind):
    shape = (3, 4, 4)[: KINDS[kind]]
    path = tmp_path / f"{kind}.dgt"
    save_dgt(path, np.arange(np.prod(shape), dtype=">f8").reshape(shape), kind)
    back, _ = load_dgt(path)
    assert back.dtype == np.float64 and back.dtype.isnative
    assert back.flags.writeable and back.flags.c_contiguous
    back.flat[0] = -1.0
    assert np.array_equal(back.ravel()[1:], np.arange(1, back.size))


@st.composite
def _stack_kind_and_array(draw):
    kind = draw(st.sampled_from(sorted(k for k, order in KINDS.items() if order == 3)))
    shape = draw(hnp.array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=4))
    specials = st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, np.inf, -np.inf, np.nan])
    arr = draw(hnp.arrays(np.float64, shape, elements=specials | st.floats(allow_subnormal=True)))
    return kind, arr


@settings(max_examples=200, deadline=None)
@given(_stack_kind_and_array())
def test_slice_reader_matches_load_bit_for_bit(tmp_path_factory, case):
    kind, arr = case
    path = tmp_path_factory.mktemp("dgt") / f"{kind}.dgt"
    save_dgt(path, arr, kind)
    whole, _ = load_dgt(path)
    with DgtSlices(path, kind) as reader:
        assert reader.kind == kind
        assert reader.shape == arr.shape
        # backwards too: each read seeks to its own slice
        for t in reversed(range(len(arr))):
            got = reader[t]
            assert got.dtype == np.float64 and got.shape == arr.shape[1:]
            assert got.tobytes() == whole[t].tobytes()
        for t in (-1, len(arr)):
            with pytest.raises(IndexError):
                reader[t]


def _open_error(opener, path, kind):
    with pytest.raises(DgtError) as excinfo:
        opener(path, kind)
    return str(excinfo.value), excinfo.value.byte_offset


@pytest.mark.parametrize(
    "case,message",
    [
        ("truncated", "payload truncated"),
        ("oversized", "trailing data"),
        ("wrong kind", "expected kind 'adjacency', found 'signals'"),
        ("order 2", "expected kind 'adjacency', found 'signatures'"),
        ("bad dims", "dims must be 3 positive integers"),
    ],
)
def test_slice_reader_fails_at_open_like_load(tmp_path, case, message):
    header = _header_bytes(kind="signals", dims=[2, 3, 2])
    payload = np.zeros(12).tobytes()
    kind = "adjacency" if case in ("wrong kind", "order 2") else "signals"
    if case == "truncated":
        path = _write_raw(tmp_path, header, payload[:-3])
    elif case == "oversized":
        path = _write_raw(tmp_path, header, payload + b"\0")
    elif case == "order 2":
        path = _write_raw(tmp_path, _header_bytes(), np.zeros(4).tobytes())
    elif case == "bad dims":
        path = _write_raw(tmp_path, _header_bytes(kind="signals", dims=[2, 3]), payload)
    else:
        path = _write_raw(tmp_path, header, payload)
    expected = _open_error(load_dgt, path, kind)
    assert message in expected[0]
    assert _open_error(DgtSlices, path, kind) == expected
    if case == "truncated":
        assert expected[1] == len(header) + 1 + len(payload) - 3


def test_slice_reader_rejects_order2_without_kind(tmp_path):
    path = _write_raw(tmp_path, _header_bytes(), np.zeros(4).tobytes())
    with pytest.raises(DgtError, match="not a slice stack"):
        DgtSlices(path)


def test_order3_dims_follow_rows_cols_slices(tmp_path):
    arr = np.arange(24, dtype=np.float64).reshape(2, 3, 4)  # (T, N, M)
    path = tmp_path / "x.dgt"
    save_dgt(path, arr, "signals")
    header, _ = _header_and_payload(path)
    assert header["dims"] == [3, 4, 2]
    back, _ = load_dgt(path)
    assert np.array_equal(back, arr)


# --- command line ---


def _write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _generate(tmp_path, seed=0, extra=None):
    tmp_path.mkdir(parents=True, exist_ok=True)
    spec = {"n_nodes": 8, "n_steps": 6, "n_signals": 5, "observed_frac": 0.8}
    spec.update(extra or {})
    spec_path = _write_json(tmp_path / "spec.json", spec)
    data_dir = tmp_path / f"data{seed}"
    code = main(["generate", "--spec", spec_path, "--out-dir", str(data_dir), "--seed", str(seed)])
    assert code == 0
    return data_dir


def test_generate_decompose_evaluate_smoke(tmp_path, capsys):
    data = _generate(tmp_path)
    for name, kind in (
        ("adjacency.dgt", "adjacency"),
        ("mask.dgt", "mask"),
        ("signals.dgt", "signals"),
        ("truth_latents.dgt", "latents"),
        ("truth_signatures.dgt", "signatures"),
    ):
        arr, found = load_dgt(data / name)
        assert found == kind

    cfg = _write_json(tmp_path / "cfg.json", {"inner_iters": 3, "outer_iters": 4})
    out = tmp_path / "fit"
    code = main(
        [
            "decompose",
            "--adj", str(data / "adjacency.dgt"),
            "--mask", str(data / "mask.dgt"),
            "--signals", str(data / "signals.dgt"),
            "--config", cfg,
            "--out-dir", str(out),
            "--seed", "1",
        ]
    )
    assert code == 0
    latents, _ = load_dgt(out / "latents.dgt")
    assert latents.shape == (2, 8, 8)
    history = (out / "history.csv").read_text(encoding="utf-8").splitlines()
    assert history[0] == HISTORY_LINE
    assert len(history) == 1 + 4
    assert all(len(line.split(",")) == 9 for line in history[1:])

    capsys.readouterr()
    code = main(
        [
            "evaluate",
            "--est-dir", str(out),
            "--truth", str(data / "adjacency.dgt"),
            "--mask", str(data / "mask.dgt"),
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {
        "re", "f1", "precision", "recall", "threshold", "per_component_re", "per_component_f1",
    }
    assert len(report["per_component_re"]) == 2
    assert report["re"] >= 0.0


def test_history_terms_add_up_to_total_with_ridge_a(tmp_path):
    data = _generate(tmp_path)
    cfg = _write_json(tmp_path / "cfg.json", {"inner_iters": 3, "outer_iters": 3, "eta": 2.0})
    out = tmp_path / "fit"
    code = main(["decompose", "--adj", str(data / "adjacency.dgt"), "--mask", str(data / "mask.dgt"),
                 "--signals", str(data / "signals.dgt"), "--config", cfg, "--out-dir", str(out),
                 "--seed", "1"])
    assert code == 0
    header, *rows = (out / "history.csv").read_text(encoding="utf-8").splitlines()
    assert header.split(",")[-1] == "ridge_a"
    for row in rows:
        _, total, *terms = (float(v) for v in row.split(","))
        assert terms[-1] > 0.0
        # the terms in the order ObjectiveBreakdown declares and adds them, so the sum is exact
        assert sum(terms) == total


@pytest.mark.parametrize("method", ["nsdgd", "unc", "cpd"])
def test_decompose_runs_every_method(tmp_path, method):
    data = _generate(tmp_path)
    out = tmp_path / f"fit_{method}"
    cfg = _write_json(tmp_path / "cfg.json", {"inner_iters": 2, "outer_iters": 2})
    code = main(
        [
            "decompose",
            "--adj", str(data / "adjacency.dgt"),
            "--mask", str(data / "mask.dgt"),
            "--method", method,
            "--config", cfg,
            "--out-dir", str(out),
            "--seed", "2",
        ]
    )
    assert code == 0
    history = (out / "history.csv").read_text(encoding="utf-8").splitlines()
    assert history[0] == HISTORY_LINE
    assert len(history) > 1
    load_dgt(out / "latents.dgt")
    load_dgt(out / "signatures.dgt")


def test_decompose_negative_delta_names_the_key(tmp_path, capsys):
    data = _generate(tmp_path)
    cfg = _write_json(tmp_path / "bad.json", {"delta": -1.0})
    code = main(
        [
            "decompose",
            "--adj", str(data / "adjacency.dgt"),
            "--mask", str(data / "mask.dgt"),
            "--config", cfg,
            "--out-dir", str(tmp_path / "out"),
            "--seed", "0",
        ]
    )
    assert code == 1
    assert "delta" in capsys.readouterr().err


def test_decompose_nan_gamma_names_the_key(tmp_path, capsys):
    data = _generate(tmp_path)
    cfg = _write_json(tmp_path / "bad.json", {"gamma": float("nan")})
    code = main(
        [
            "decompose",
            "--adj", str(data / "adjacency.dgt"),
            "--mask", str(data / "mask.dgt"),
            "--config", cfg,
            "--out-dir", str(tmp_path / "out"),
            "--seed", "0",
        ]
    )
    assert code == 1
    assert "gamma" in capsys.readouterr().err


def test_nan_at_unobserved_entries_matches_zeros(tmp_path):
    # NaN is the usual encoding of "missing"; entries where the mask is 0 are never read
    data = _generate(tmp_path)
    adj, _ = load_dgt(data / "adjacency.dgt")
    mask, _ = load_dgt(data / "mask.dgt")
    assert not mask.all()
    for fill in (0.0, np.nan):
        save_dgt(tmp_path / f"adj_{fill}.dgt", np.where(mask > 0, adj, fill), "adjacency")
    cfg = _write_json(tmp_path / "cfg.json", {"inner_iters": 3, "outer_iters": 3})
    for method in ("dgd", "unc", "cpd"):
        outputs = []
        for fill in (0.0, np.nan):
            out = tmp_path / f"fit_{method}_{fill}"
            code = main(
                [
                    "decompose",
                    "--adj", str(tmp_path / f"adj_{fill}.dgt"),
                    "--mask", str(data / "mask.dgt"),
                    "--signals", str(data / "signals.dgt"),
                    "--method", method,
                    "--config", cfg,
                    "--out-dir", str(out),
                    "--seed", "0",
                ]
            )
            assert code == 0
            outputs.append([(out / name).read_bytes() for name in ("latents.dgt", "signatures.dgt")])
        assert outputs[0] == outputs[1], method


def test_nonfinite_observed_entry_exits_one(tmp_path, capsys):
    data = _generate(tmp_path)
    adj, _ = load_dgt(data / "adjacency.dgt")
    mask, _ = load_dgt(data / "mask.dgt")
    t, i, j = np.argwhere(mask > 0)[0]
    adj[t, i, j] = adj[t, j, i] = np.nan
    save_dgt(tmp_path / "bad.dgt", adj, "adjacency")
    for method in ("dgd", "nsdgd", "unc", "cpd"):
        code = main(
            [
                "decompose",
                "--adj", str(tmp_path / "bad.dgt"),
                "--mask", str(data / "mask.dgt"),
                "--signals", str(data / "signals.dgt"),
                "--method", method,
                "--out-dir", str(tmp_path / "out"),
                "--seed", "0",
            ]
        )
        assert code == 1, method
        assert f"(t, i, j) = ({t}, {i}, {j})" in capsys.readouterr().err, method


def _decompose_args(data, out, method="dgd", signals=None, config=None):
    args = [
        "decompose",
        "--adj", str(data / "adjacency.dgt"),
        "--mask", str(data / "mask.dgt"),
        "--signals", str(signals or data / "signals.dgt"),
        "--method", method,
        "--out-dir", str(out),
        "--seed", "0",
    ]
    return args + (["--config", config] if config else [])


def test_nonfinite_signal_exits_one_naming_the_entry(tmp_path, capsys):
    data = _generate(tmp_path)
    signals, _ = load_dgt(data / "signals.dgt")
    t, i, q = 4, 2, 3
    signals[t, i, q] = np.nan
    save_dgt(tmp_path / "bad.dgt", signals, "signals")
    cfg = _write_json(tmp_path / "cfg.json", {"inner_iters": 2, "outer_iters": 1})
    code = main(_decompose_args(data, tmp_path / "out", signals=tmp_path / "bad.dgt", config=cfg))
    assert code == 1
    assert f"signal entry (t, i, q) = ({t}, {i}, {q}) is not finite" in capsys.readouterr().err
    # methods without the smoothness term never read the signals
    for method in ("nsdgd", "unc", "cpd"):
        args = _decompose_args(data, tmp_path / method, method, tmp_path / "bad.dgt", cfg)
        assert main(args) == 0, method


def test_decompose_holds_packed_rows_and_target_entries(tmp_path):
    # streamed set-up: the run holds the packed rows (upper triangle and
    # diagonal) of the fit weight W and the smoothness slices Z, about half a
    # stack each, and the nonzero entries of the target Y at 12 bytes each;
    # never a dense Y, the mask, the adjacency or the (T, N, Q) signals
    n_steps, n, q = 40, 64, 256
    spec = {"n_nodes": n, "n_steps": n_steps, "n_signals": q, "observed_frac": 0.5}
    data = _generate(tmp_path, extra=spec)
    adj, mask = load_dgt(data / "adjacency.dgt")[0], load_dgt(data / "mask.dgt")[0]
    entries = np.count_nonzero(mask * adj)
    del adj, mask
    cfg = _write_json(tmp_path / "cfg.json", {"inner_iters": 2, "outer_iters": 1})
    tracemalloc.start()
    try:
        code = main(_decompose_args(data, tmp_path / "out", config=cfg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    nn = n * n * 8
    rows = 2 * n_steps * (n * (n + 1) // 2) * 8
    # beyond them: the R N^2 solve state (Omega, V, Xi, the gradient terms and
    # their temporaries, about 20 N x N planes at R = 2) and one (N, Q) signal
    # slice, 4 planes; a loaded signal stack alone is 4 * T planes
    assert peak <= rows + 12 * entries + 32 * nn


@pytest.mark.parametrize("method", ["dgd", "nsdgd", "unc", "cpd"])
def test_decompose_streams_the_mask(tmp_path, monkeypatch, method):
    # every method reads the mask slice by slice; none loads the file whole
    data = _generate(tmp_path)
    want = tmp_path / "want"
    assert main(_decompose_args(data, want, method)) == 0
    loaded = []
    original = io_dgt.load_dgt

    def load_dgt(path, kind=None):
        loaded.append(kind)
        return original(path, kind)

    monkeypatch.setattr(cli, "load_dgt", load_dgt)
    monkeypatch.setattr(io_dgt, "load_dgt", load_dgt)
    assert main(_decompose_args(data, tmp_path / "got", method)) == 0
    assert loaded == []
    for name in ("latents.dgt", "signatures.dgt", "history.csv"):
        assert (tmp_path / "got" / name).read_bytes() == (want / name).read_bytes()


def test_bad_mask_exits_one_for_every_method(tmp_path, capsys):
    data = _generate(tmp_path)
    mask, _ = load_dgt(data / "mask.dgt")
    half = mask.copy()
    half[0, 0, 1] = half[0, 1, 0] = 0.5
    skew = mask.copy()
    skew[1, 2, 3] = 1.0 - skew[1, 3, 2]
    for name, bad, message in (
        ("half", half, "mask entries must be 0 or 1"),
        ("skew", skew, "mask slices must be symmetric"),
    ):
        save_dgt(tmp_path / f"{name}.dgt", bad, "mask")
        for method in sorted(METHODS):
            code = main(
                [
                    "decompose",
                    "--adj", str(data / "adjacency.dgt"),
                    "--mask", str(tmp_path / f"{name}.dgt"),
                    "--signals", str(data / "signals.dgt"),
                    "--method", method,
                    "--out-dir", str(tmp_path / "out"),
                    "--seed", "0",
                ]
            )
            assert code == 1, (name, method)
            assert message in capsys.readouterr().err, (name, method)


def test_unknown_config_key_named(tmp_path, capsys):
    data = _generate(tmp_path)
    cfg = _write_json(tmp_path / "bad.json", {"bogus_knob": 1})
    code = main(
        [
            "decompose",
            "--adj", str(data / "adjacency.dgt"),
            "--mask", str(data / "mask.dgt"),
            "--config", cfg,
            "--out-dir", str(tmp_path / "out"),
            "--seed", "0",
        ]
    )
    assert code == 1
    assert "bogus_knob" in capsys.readouterr().err


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 1
    with pytest.raises(SystemExit) as excinfo:
        main(["decompose", "--adj", "x.dgt"])  # missing required flags
    assert excinfo.value.code == 1
    with pytest.raises(SystemExit) as excinfo:
        main(["generate", "--out-dir", "d", "--seed", "0", "--no-such-flag"])
    assert excinfo.value.code == 1
    capsys.readouterr()


def test_missing_input_file_exits_one(tmp_path, capsys):
    code = main(
        [
            "decompose",
            "--adj", str(tmp_path / "absent.dgt"),
            "--mask", str(tmp_path / "absent.dgt"),
            "--out-dir", str(tmp_path / "out"),
            "--seed", "0",
        ]
    )
    assert code == 1
    capsys.readouterr()


@pytest.mark.parametrize("method", sorted(METHODS))
def test_decompose_rejects_negative_seed_before_reading(tmp_path, capsys, method):
    # no input exists: the seed fails first, naming the flag
    args = _decompose_args(tmp_path / "absent", tmp_path / "out", method)
    args[args.index("--seed") + 1] = "-1"
    assert main(args) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "--seed must be >= 0, got -1" in err
    assert not (tmp_path / "out").exists()


def test_kind_mismatch_exits_one(tmp_path, capsys):
    data = _generate(tmp_path)
    code = main(
        [
            "decompose",
            "--adj", str(data / "mask.dgt"),
            "--mask", str(data / "mask.dgt"),
            "--out-dir", str(tmp_path / "out"),
            "--seed", "0",
        ]
    )
    assert code == 1
    assert "expected kind" in capsys.readouterr().err


def test_generate_rejects_bad_observed_frac(tmp_path, capsys):
    spec = _write_json(tmp_path / "spec.json", {"observed_frac": 0.0})
    code = main(["generate", "--spec", spec, "--out-dir", str(tmp_path / "d"), "--seed", "0"])
    assert code == 1
    assert "observed_frac" in capsys.readouterr().err


def test_generate_spec_holding_clip_negative_exits_one(tmp_path, capsys):
    spec = _write_json(tmp_path / "spec.json", {"n_nodes": 8, "clip_negative": False})
    code = main(["generate", "--spec", spec, "--out-dir", str(tmp_path / "d"), "--seed", "0"])
    assert code == 1
    assert "dgd: error: unknown generator setting 'clip_negative'" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize(
    "setting", [{"n_nodes": 40.0}, {"n_signals": True}, {"alpha": "x"}], ids=["float", "bool", "str"]
)
def test_mistyped_generator_setting_exits_one(tmp_path, capsys, setting):
    # generate and sweep read the same settings; each names the mistyped field
    spec = _write_json(tmp_path / "spec.json", setting)
    (name,) = setting
    code = main(["generate", "--spec", spec, "--out-dir", str(tmp_path / "d"), "--seed", "0"])
    assert code == 1
    assert f"dgd: error: {name} must be" in capsys.readouterr().err
    out = tmp_path / "r.csv"
    code = main(["sweep", "--kind", "rank", "--grid", "1", "--spec", spec, "--out", str(out),
                 "--seed", "0", "--repeats", "1", "--methods", "cpd"])
    assert code == 1
    assert f"dgd: error: {name} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "payload,found",
    [([1, 2], "an array"), ("x", "a string"), (3, "a number")],
    ids=["array", "string", "number"],
)
def test_settings_file_that_is_not_an_object_exits_one(tmp_path, capsys, payload, found):
    data = _generate(tmp_path / "ok")
    capsys.readouterr()
    path = _write_json(tmp_path / "bad.json", payload)
    out = tmp_path / "out"
    commands = {
        "generate --spec": ["generate", "--spec", path, "--out-dir", str(out), "--seed", "0"],
        "sweep --spec": ["sweep", "--kind", "rank", "--grid", "1", "--spec", path,
                         "--out", str(out / "r.csv"), "--seed", "0", "--repeats", "1"],
        "sweep --config": ["sweep", "--kind", "rank", "--grid", "1", "--config", path,
                           "--out", str(out / "r.csv"), "--seed", "0", "--repeats", "1"],
        "decompose --config": _decompose_args(data, out, config=path),
    }
    for name, argv in commands.items():
        assert main(argv) == 1, name
        flag = name.split()[1]
        err = capsys.readouterr().err
        assert f"dgd: error: {flag} {path} must hold a JSON object, found {found}" in err, name
        assert not out.exists(), name


def test_numerical_abort_exits_two(tmp_path, capsys):
    data = _generate(tmp_path)
    adj, _ = load_dgt(data / "adjacency.dgt")
    save_dgt(tmp_path / "zero_mask.dgt", np.zeros_like(adj), "mask")
    code = main(
        [
            "decompose",
            "--adj", str(data / "adjacency.dgt"),
            "--mask", str(tmp_path / "zero_mask.dgt"),
            "--signals", str(data / "signals.dgt"),
            "--out-dir", str(tmp_path / "out"),
            "--seed", "0",
        ]
    )
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


def test_full_mask_evaluation_exits_two(tmp_path, capsys):
    data = _generate(tmp_path, extra={"observed_frac": 1.0})
    cfg = _write_json(tmp_path / "cfg.json", {"inner_iters": 2, "outer_iters": 2})
    out = tmp_path / "fit"
    assert 0 == main(
        [
            "decompose",
            "--adj", str(data / "adjacency.dgt"),
            "--mask", str(data / "mask.dgt"),
            "--signals", str(data / "signals.dgt"),
            "--config", cfg,
            "--out-dir", str(out),
            "--seed", "3",
        ]
    )
    code = main(
        [
            "evaluate",
            "--est-dir", str(out),
            "--truth", str(data / "adjacency.dgt"),
            "--mask", str(data / "mask.dgt"),
        ]
    )
    assert code == 2
    capsys.readouterr()


def _fit_for_evaluation(tmp_path):
    data = _generate(tmp_path)
    cfg = _write_json(tmp_path / "cfg.json", {"inner_iters": 2, "outer_iters": 2})
    assert main(_decompose_args(data, tmp_path / "fit", config=cfg)) == 0
    return data, tmp_path / "fit"


def _evaluate(fit, truth, mask):
    return main(["evaluate", "--est-dir", str(fit), "--truth", str(truth), "--mask", str(mask)])


def test_evaluate_rejects_nonfinite_truth_even_where_observed(tmp_path, capsys):
    data, fit = _fit_for_evaluation(tmp_path)
    truth, _ = load_dgt(data / "adjacency.dgt")
    mask, _ = load_dgt(data / "mask.dgt")
    t, i, j = np.argwhere(mask > 0)[0]
    truth[t, i, j] = np.nan
    save_dgt(tmp_path / "truth.dgt", truth, "adjacency")
    capsys.readouterr()
    assert _evaluate(fit, tmp_path / "truth.dgt", data / "mask.dgt") == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"truth entry (t, i, j) = ({t}, {i}, {j}) is not finite" in err


@pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
def test_evaluate_rejects_bad_threshold_before_reading(tmp_path, capsys, value):
    # no input exists: the threshold fails first, naming the flag
    absent = tmp_path / "absent"
    args = ["evaluate", "--est-dir", str(absent), "--truth", str(absent / "t.dgt"),
            "--mask", str(absent / "m.dgt"), "--threshold", value]
    assert main(args) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "--threshold must be" in err


def test_evaluate_rejects_nonfinite_estimate(tmp_path, capsys):
    data, fit = _fit_for_evaluation(tmp_path)
    latents, _ = load_dgt(fit / "latents.dgt")
    latents[1, 2, 3] = np.inf
    save_dgt(fit / "latents.dgt", latents, "latents")
    capsys.readouterr()
    assert _evaluate(fit, data / "adjacency.dgt", data / "mask.dgt") == 1
    assert "estimate entry (t, i, j) = (0, 2, 3) is not finite" in capsys.readouterr().err


def test_evaluate_rejects_non_binary_mask(tmp_path, capsys):
    data, fit = _fit_for_evaluation(tmp_path)
    mask, _ = load_dgt(data / "mask.dgt")
    mask[2, 0, 1] = mask[2, 1, 0] = 0.5
    save_dgt(tmp_path / "half.dgt", mask, "mask")
    capsys.readouterr()
    assert _evaluate(fit, data / "adjacency.dgt", tmp_path / "half.dgt") == 1
    assert "mask entries must be 0 or 1 (slice 2)" in capsys.readouterr().err


def test_evaluate_names_both_files_on_shape_mismatch(tmp_path, capsys):
    data, fit = _fit_for_evaluation(tmp_path)
    truth, _ = load_dgt(data / "adjacency.dgt")
    mask, _ = load_dgt(data / "mask.dgt")
    save_dgt(tmp_path / "short_mask.dgt", mask[:-1], "mask")
    save_dgt(tmp_path / "short_truth.dgt", truth[:-1], "adjacency")
    for truth_path, mask_path, other in (
        (data / "adjacency.dgt", tmp_path / "short_mask.dgt", tmp_path / "short_mask.dgt"),
        (tmp_path / "short_truth.dgt", tmp_path / "short_mask.dgt", fit),
    ):
        capsys.readouterr()
        assert _evaluate(fit, truth_path, mask_path) == 1
        err = capsys.readouterr().err
        assert str(other) in err and str(truth_path) in err
        assert "broadcast" not in err


def test_evaluate_names_both_estimate_files_on_rank_mismatch(tmp_path, capsys):
    data, fit = _fit_for_evaluation(tmp_path)
    signatures, _ = load_dgt(fit / "signatures.dgt")
    save_dgt(fit / "signatures.dgt", np.hstack([signatures, signatures[:, :1]]), "signatures")
    capsys.readouterr()
    assert _evaluate(fit, data / "adjacency.dgt", data / "mask.dgt") == 1
    err = capsys.readouterr().err
    assert f"{fit / 'signatures.dgt'} holds 3 signatures" in err
    assert f"{fit / 'latents.dgt'} holds 2 latents" in err


def test_generate_is_deterministic_per_seed(tmp_path):
    d1 = _generate(tmp_path / "a", seed=5)
    d2 = _generate(tmp_path / "b", seed=5)
    d3 = _generate(tmp_path / "c", seed=6)
    for name in ("adjacency.dgt", "mask.dgt", "signals.dgt"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    assert (d1 / "adjacency.dgt").read_bytes() != (d3 / "adjacency.dgt").read_bytes()


def test_generate_writes_the_same_bytes_pooled_and_serial(tmp_path, monkeypatch):
    files = ("adjacency.dgt", "mask.dgt", "signals.dgt", "truth_latents.dgt", "truth_signatures.dgt")
    written = []
    for cpus in ({0, 1}, {0}):
        set_cpus(monkeypatch, cpus)
        data = _generate(tmp_path / str(len(cpus)), seed=3, extra={"noise_sigma": 0.2})
        written.append([(data / name).read_bytes() for name in files])
    assert written[0] == written[1]


def test_sweep_cli_rank_rows(tmp_path, capsys):
    spec = _write_json(
        tmp_path / "spec.json", {"n_nodes": 8, "n_steps": 6, "n_signals": 4}
    )
    out = tmp_path / "results.csv"
    with pytest.warns(RuntimeWarning, match="unc: ridged"):
        code = main(
            [
                "sweep",
                "--kind", "rank",
                "--grid", "1,2,3",
                "--spec", spec,
                "--out", str(out),
                "--seed", "0",
                "--repeats", "1",
                "--methods", "unc",
            ]
        )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "method,param,seed,re,f1,precision,recall,seconds"
    assert len(lines) == 1 + 3
    capsys.readouterr()


@pytest.mark.parametrize("cpus", [{0, 1}, {0}], ids=["pool", "one_cpu"])
def test_sweep_cli_cell_error_exits_one(tmp_path, capsys, monkeypatch, cpus):
    set_cpus(monkeypatch, cpus)
    spec = _write_json(tmp_path / "spec.json", {"n_nodes": 8, "n_steps": 6, "n_signals": 4})
    cfg = _write_json(tmp_path / "cfg.json", {"inner_iters": 2, "outer_iters": 2})
    code = main(
        [
            "sweep",
            "--kind", "rank",
            "--grid", "1,0",
            "--spec", spec,
            "--config", cfg,
            "--out", str(tmp_path / "r.csv"),
            "--seed", "0",
            "--repeats", "1",
            "--methods", "nsdgd",
        ]
    )
    assert code == 1
    # the rank 0 is named by the flag that gave it, before any cell runs
    assert f"dgd: error: {RANK_GRID} must be integers >= 1, got '0'" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_sweep_cli_cell_without_a_threshold_exits_zero(tmp_path, capsys):
    # the 0.01 cell observes no positive truth entry: a NaN row, not an error
    spec = _write_json(tmp_path / "spec.json", {"n_nodes": 8, "n_steps": 3, "n_signals": 4})
    cfg = _write_json(tmp_path / "cfg.json", {"outer_iters": 2})
    out = tmp_path / "s.csv"
    with pytest.warns(UserWarning) as record:
        code = main(["sweep", "--kind", "observed", "--grid", "0.01,0.9", "--spec", spec,
                     "--config", cfg, "--out", str(out), "--seed", "0", "--repeats", "1",
                     "--methods", "cpd"])
    assert code == 0
    # each NaN row comes with its reason
    assert [str(w.message).partition(":")[0] for w in record] == [
        "sweep cell 0.01, seed 0", "sweep cell 0.9, seed 0"]
    rows = list(csv.DictReader(out.read_text(encoding="utf-8").splitlines()))
    assert [row["param"] for row in rows] == ["0.01", "0.9"]
    assert rows[0]["re"] == "nan"
    capsys.readouterr()


def test_sweep_cli_rejects_fractional_rank(tmp_path, capsys):
    # and every other value that is not an integer >= 1, named by its flag
    # before any cell runs, not by the library's n_latents
    for grid in ("1.5", "inf", "nan", "abc", "0", "-1"):
        code = main(
            [
                "sweep",
                "--kind", "rank",
                "--grid", grid,
                "--out", str(tmp_path / "r.csv"),
                "--seed", "0",
            ]
        )
        assert code == 1, grid
        err = capsys.readouterr().err
        assert f"dgd: error: {RANK_GRID} must be integers >= 1, got {grid!r}" in err
        assert not (tmp_path / "r.csv").exists()


def test_sweep_cli_rejects_the_observed_frac_flag(tmp_path, capsys):
    # the spec's observed_frac is the one source of a rank sweep's fraction
    out = tmp_path / "r.csv"
    for kind, grid in (("rank", "1"), ("observed", "0.5")):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--kind", kind, "--grid", grid, "--out", str(out), "--seed", "0",
                  "--methods", "cpd", "--observed-frac", "0.5"])
        assert excinfo.value.code == 1
        assert "dgd: error: unrecognized arguments: --observed-frac 0.5" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "flag,value,name",
    [("--repeats", "0", "repeats"), ("--repeats", "-2", "repeats"),
     ("observed_frac", "0", "observed_frac")],
)
def test_sweep_cli_rejects_bad_repeats_and_observed_frac(tmp_path, capsys, flag, value, name):
    # a flag, named as typed, or a setting of the spec, named by its key
    out = tmp_path / "r.csv"
    named = flag if flag.startswith("--") else name
    if not flag.startswith("--"):
        flag, value = "--spec", _write_json(tmp_path / "s.json", {flag: float(value)})
    code = main(["sweep", "--kind", "rank", "--grid", "1", "--out", str(out), "--seed", "0",
                 "--methods", "cpd", flag, value])
    assert code == 1
    err = capsys.readouterr().err
    assert f"dgd: error: {named}" in err
    if name == "observed_frac":
        assert "observed fraction must lie in (0, 1]" in err
    assert not out.exists()


def _observed_sweep_fails_before_any_cell(tmp_path, capsys, monkeypatch, *flags):
    """The stderr of a `dgd sweep --kind observed` with flags that exits 1,
    having run no cell and written no CSV."""
    monkeypatch.setattr(evaluation, "swdyn", _never("a sweep cell"))
    out = tmp_path / "r.csv"
    code = main(["sweep", "--kind", "observed", "--out", str(out), "--seed", "0",
                 "--methods", "cpd", *flags])
    assert code == 1
    assert not out.exists()
    return capsys.readouterr().err


def test_observed_sweep_names_a_grid_fraction_outside_the_unit_interval(tmp_path, capsys, monkeypatch):
    for grid, bad in (("0", 0.0), ("0.5,1.5", 1.5), ("-0.2", -0.2)):
        err = _observed_sweep_fails_before_any_cell(tmp_path, capsys, monkeypatch, "--grid", grid)
        assert f"dgd: error: --grid: observed fraction must lie in (0, 1], got {bad}" in err
    err = _observed_sweep_fails_before_any_cell(tmp_path, capsys, monkeypatch, "--grid", "abc")
    assert "dgd: error: --grid values of an observed sweep must be finite numbers, got 'abc'" in err


def test_observed_sweep_names_repeats_below_one(tmp_path, capsys, monkeypatch):
    for repeats in ("0", "-3"):
        err = _observed_sweep_fails_before_any_cell(tmp_path, capsys, monkeypatch,
                                                    "--grid", "0.5", "--repeats", repeats)
        assert f"dgd: error: --repeats must be >= 1, got {repeats}" in err


def _rank_sweep_csv(tmp_path, spec, *flags):
    """The sweep.csv bytes of a one-cell cpd rank sweep of spec."""
    spec_path, out = _write_json(tmp_path / "s.json", spec), tmp_path / "r.csv"
    code = main(["sweep", "--kind", "rank", "--grid", "1", "--spec", spec_path, "--out", str(out),
                 "--seed", "0", "--repeats", "1", "--methods", "cpd", *flags])
    assert code == 0
    return out.read_bytes()


def test_rank_sweep_observes_the_spec_observed_frac(tmp_path, capsys):
    spec = {"n_nodes": 8, "n_steps": 6, "n_signals": 4}
    from_spec = _rank_sweep_csv(tmp_path, {**spec, "observed_frac": 0.3})
    assert from_spec != _rank_sweep_csv(tmp_path, spec)
    # without one in the spec, a rank sweep observes 0.9
    assert _rank_sweep_csv(tmp_path, spec) == _rank_sweep_csv(tmp_path, {**spec, "observed_frac": 0.9})
    capsys.readouterr()


def test_sweep_cli_spec_observed_frac_of_observed_sweep_exits_one(tmp_path, capsys):
    spec = _write_json(tmp_path / "s.json", {"n_nodes": 8, "n_steps": 6, "observed_frac": 0.8})
    out = tmp_path / "r.csv"
    code = main(["sweep", "--kind", "observed", "--grid", "1", "--spec", spec, "--out", str(out),
                 "--seed", "0", "--methods", "cpd"])
    assert code == 1
    err = capsys.readouterr().err
    assert f"dgd: error: observed_frac in --spec {spec}" in err and "--kind observed" in err
    assert not out.exists()


@pytest.mark.parametrize("methods", ["", ",", " , "])
def test_sweep_cli_without_methods_exits_one_before_any_cell(tmp_path, capsys, monkeypatch, methods):
    def cell_ran(*args):
        raise AssertionError("a sweep cell ran")

    monkeypatch.setattr(evaluation, "swdyn", cell_ran)
    out = tmp_path / "r.csv"
    code = main(["sweep", "--kind", "observed", "--grid", "0.5,0.9", "--out", str(out),
                 "--seed", "0", "--repeats", "2", "--methods", methods])
    assert code == 1
    assert "dgd: error: --methods names no method" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_cell_matches_generate_decompose_evaluate(tmp_path, capsys):
    # the two copies of the mask_seed rule agree: a cell scores as the pipeline does
    seed, frac = 3, 0.6
    spec = {"n_nodes": 8, "n_steps": 6, "n_signals": 5}
    cfg = _write_json(tmp_path / "cfg.json", {"inner_iters": 3, "outer_iters": 4})
    spec_path = _write_json(tmp_path / "spec.json", spec)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--kind", "observed", "--grid", str(frac), "--spec", spec_path,
                 "--config", cfg, "--out", str(out), "--seed", str(seed), "--repeats", "1",
                 "--methods", "cpd,dgd"]) == 0
    rows = list(csv.DictReader(out.read_text(encoding="utf-8").splitlines()))
    assert [row["method"] for row in rows] == ["cpd", "dgd"]
    data = _generate(tmp_path, seed=seed, extra={**spec, "observed_frac": frac})
    for row in rows:
        fit = tmp_path / row["method"]
        assert main(["decompose", "--adj", str(data / "adjacency.dgt"), "--mask", str(data / "mask.dgt"),
                     "--signals", str(data / "signals.dgt"), "--config", cfg,
                     "--method", row["method"], "--out-dir", str(fit), "--seed", str(seed)]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--est-dir", str(fit), "--truth", str(data / "adjacency.dgt"),
                     "--mask", str(data / "mask.dgt")]) == 0
        report = json.loads(capsys.readouterr().out)
        for metric in ("re", "f1", "precision", "recall"):
            assert float(row[metric]) == report[metric], (row["method"], metric)


def test_spec_seed_exits_one_naming_the_seed_flag(tmp_path, capsys):
    spec = _write_json(tmp_path / "s.json", {"n_nodes": 8, "n_steps": 6, "seed": 7})
    out = tmp_path / "out"
    for argv in (["generate", "--out-dir", str(out)],
                 ["sweep", "--kind", "rank", "--grid", "1", "--out", str(out), "--methods", "cpd"]):
        assert main([*argv, "--spec", spec, "--seed", "0"]) == 1
        assert f"dgd: error: --spec {spec} sets seed; give the seed as --seed" in capsys.readouterr().err
        assert not out.exists()


def test_sweep_cli_rejects_negative_seed_before_any_cell(tmp_path, capsys, monkeypatch):
    def cell_ran(*args):
        raise AssertionError("a sweep cell ran")

    monkeypatch.setattr(evaluation, "swdyn", cell_ran)
    out = tmp_path / "r.csv"
    code = main(["sweep", "--kind", "rank", "--grid", "1", "--out", str(out), "--seed", "-1",
                 "--repeats", "2", "--methods", "cpd"])
    assert code == 1
    assert "dgd: error: --seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()
    # generate reads the seed by the same rule, before any generation
    monkeypatch.setattr(cli, "swdyn", cell_ran)
    assert main(["generate", "--out-dir", str(out), "--seed", "-1"]) == 1
    assert "dgd: error: --seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def _never(what):
    def ran(*args):
        raise AssertionError(f"{what} ran")

    return ran


@pytest.mark.parametrize("where", ["file", "under_file"])
def test_out_dir_that_is_no_directory_exits_one_before_any_work(tmp_path, capsys, monkeypatch, where):
    # generate and decompose used to run all their work, then fail on mkdir
    data = _generate(tmp_path)
    capsys.readouterr()
    held = tmp_path / "taken"
    held.write_text("not a directory", encoding="utf-8")
    out = held if where == "file" else held / "sub"
    monkeypatch.setattr(cli, "swdyn", _never("generation"))
    monkeypatch.setitem(METHODS, "dgd", _never("a fit"))
    before = sorted(tmp_path.rglob("*"))
    for argv in (["generate", "--out-dir", str(out), "--seed", "0"], _decompose_args(data, out)):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"dgd: error: --out-dir {out}: {held} is not a directory" in captured.err
    assert sorted(tmp_path.rglob("*")) == before
    assert held.read_text(encoding="utf-8") == "not a directory"


@pytest.mark.parametrize("where", ["missing_dir", "a_dir"])
def test_sweep_out_path_outside_a_directory_fails_before_any_cell(tmp_path, capsys, monkeypatch, where):
    # sweep used to run every cell, then fail to open its CSV
    monkeypatch.setattr(evaluation, "swdyn", _never("a sweep cell"))
    out = tmp_path / "nodir" / "s.csv" if where == "missing_dir" else tmp_path
    message = f"out_path {out} must name a file in an existing directory"
    before = sorted(tmp_path.rglob("*"))
    assert main(["sweep", "--kind", "rank", "--grid", "1", "--out", str(out), "--seed", "0",
                 "--repeats", "1", "--methods", "cpd"]) == 1
    assert f"dgd: error: {message}" in capsys.readouterr().err
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        evaluation.sweep("rank", [1], SwDynSpec(), Hyperparams(), 0, repeats=1, methods=("cpd",),
                         out_path=out)
    assert sorted(tmp_path.rglob("*")) == before


def test_kinds_registry_is_complete():
    assert KINDS == {
        "adjacency": 3,
        "mask": 3,
        "signals": 3,
        "latents": 3,
        "signatures": 2,
    }


def test_readme_flags_exist_on_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (subparsers,) = (a for a in cli.build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction))
    flags = {name: set(p._option_string_actions) for name, p in subparsers.choices.items()}
    # a dgd command line, in a code block or in backticks, runs to the end of
    # its line or span; a trailing backslash continues it
    joined = readme.replace("\\\n", " ")
    commands = re.findall(rf"\bdgd ({'|'.join(flags)})\b([^`\n]*)", joined)
    assert commands
    for sub, rest in commands:
        for flag in re.findall(r"(?<![\w-])--[a-z][\w-]*", rest):
            assert flag in flags[sub], f"dgd {sub} has no {flag}"
    # every flag written in backticks in the prose belongs to some subcommand
    prose = re.sub(r"```.*?```", "", readme, flags=re.DOTALL)
    known = set().union(*flags.values())
    for span in re.findall(r"`([^`]+)`", prose):
        for flag in re.findall(r"(?<![\w-])--[a-z][\w-]*", span):
            assert flag in known, f"no dgd subcommand has {flag}"
