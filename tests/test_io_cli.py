"""Container format and command line flows."""

import json

import numpy as np
import pytest

from dgd.cli import HISTORY_HEADER, main
from dgd.io_dgt import KINDS, DgtError, load_dgt, save_dgt


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
    assert history[0] == HISTORY_HEADER
    assert len(history) == 1 + 4
    assert all(len(line.split(",")) == 8 for line in history[1:])

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
    assert history[0] == HISTORY_HEADER
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


def test_numerical_abort_exits_two(tmp_path, capsys):
    data = _generate(tmp_path)
    adj, _ = load_dgt(data / "adjacency.dgt")
    save_dgt(tmp_path / "zero_mask.dgt", np.zeros_like(adj), "mask")
    code = main(
        [
            "decompose",
            "--adj", str(data / "adjacency.dgt"),
            "--mask", str(tmp_path / "zero_mask.dgt"),
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


def test_generate_is_deterministic_per_seed(tmp_path):
    d1 = _generate(tmp_path / "a", seed=5)
    d2 = _generate(tmp_path / "b", seed=5)
    d3 = _generate(tmp_path / "c", seed=6)
    for name in ("adjacency.dgt", "mask.dgt", "signals.dgt"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    assert (d1 / "adjacency.dgt").read_bytes() != (d3 / "adjacency.dgt").read_bytes()


def test_sweep_cli_rank_rows(tmp_path, capsys):
    spec = _write_json(
        tmp_path / "spec.json", {"n_nodes": 8, "n_steps": 6, "n_signals": 4}
    )
    out = tmp_path / "results.csv"
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


def test_sweep_cli_rejects_fractional_rank(tmp_path, capsys):
    code = main(
        [
            "sweep",
            "--kind", "rank",
            "--grid", "1.5",
            "--out", str(tmp_path / "r.csv"),
            "--seed", "0",
        ]
    )
    assert code == 1
    assert "integer" in capsys.readouterr().err


def test_kinds_registry_is_complete():
    assert KINDS == {
        "adjacency": 3,
        "mask": 3,
        "signals": 3,
        "latents": 3,
        "signatures": 2,
    }
