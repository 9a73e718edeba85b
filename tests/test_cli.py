"""End-to-end checks for the crossalign command line.

Everything runs through main(argv) with a tiny noiseless dataset so the whole
file stays fast. File outputs are compared byte for byte where the contract
promises determinism.
"""

import json
import os
import shutil
import struct
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossalign.cli import main
from crossalign.errors import DataError, NumericError
from crossalign.synthdata import _b64, make_forward_model
from crossalign.trainer import CHECKPOINT_MAGIC, load_checkpoint

S, N, T = 20, 8, 2  # 4 test stimuli after the 0.2 split


def _gen_args(out):
    return [
        "gen-data", "--stimuli", str(S), "--neurons", str(N), "--trials", str(T),
        "--noise", "0.0", "--seed", "0", "--out", str(out),
    ]


def _train_args(data, out, method="vna", epochs="2"):
    return [
        "train", "--method", method, "--data", str(data), "--out", str(out),
        "--d", "4", "--batch-size", "8", "--epochs", epochs, "--seed", "0",
    ]


def _schema(name):
    return json.loads((resources.files("crossalign") / "schemas" / name).read_text())


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds") / "data"
    assert main(_gen_args(out)) == 0
    return out


@pytest.fixture(scope="module")
def ckpt(tmp_path_factory, data_dir):
    path = tmp_path_factory.mktemp("ck") / "vna.ckpt"
    assert main(_train_args(data_dir, path)) == 0
    return path


@pytest.fixture(scope="module")
def ckpts(tmp_path_factory, data_dir, ckpt):
    """A 2-epoch checkpoint per method, so each stores its Adam moments."""
    out = {"vna": ckpt}
    for method in ("direct-encode", "direct-decode"):
        path = tmp_path_factory.mktemp("ck") / f"{method}.ckpt"
        assert main(_train_args(data_dir, path, method=method)) == 0
        out[method] = path
    return out


# -- gen-data -------------------------------------------------------------------


def test_gen_data_writes_all_files(data_dir, capsys):
    for name in ("manifest.json", "images.bin", "responses.bin", "splits.json",
                 "stats.json", "forward_model.json"):
        assert (data_dir / name).exists()


def test_gen_data_prints_summary(tmp_path, capsys):
    assert main(_gen_args(tmp_path / "d")) == 0
    line = capsys.readouterr().out
    assert f"S={S}" in line and f"n={N}" in line and "train=16 test=4" in line


def test_gen_data_rerun_is_byte_identical(data_dir, tmp_path):
    again = tmp_path / "again"
    assert main(_gen_args(again)) == 0
    for name in ("manifest.json", "images.bin", "responses.bin", "splits.json",
                 "stats.json", "forward_model.json"):
        assert (again / name).read_bytes() == (data_dir / name).read_bytes(), name


def test_gen_data_rejects_negative_noise(tmp_path):
    args = _gen_args(tmp_path / "d")
    args[args.index("--noise") + 1] = "-1"
    assert main(args) == 1


def test_gen_data_rejects_oversized_subsample(tmp_path):
    assert main(_gen_args(tmp_path / "d") + ["--subsample", "9999"]) == 1


# -- exit codes -----------------------------------------------------------------


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


def test_unknown_method_is_usage_error(tmp_path, data_dir, capsys):
    args = _train_args(data_dir, tmp_path / "c", method="bogus")
    assert main(args) == 1


def test_missing_dataset_is_data_error(tmp_path, capsys):
    assert main(_train_args(tmp_path / "nope", tmp_path / "c")) == 2


def test_corrupt_checkpoint_is_data_error(tmp_path, data_dir, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint at all")
    args = ["eval", "--checkpoint", str(bad), "--data", str(data_dir), "--K", "4"]
    assert main(args) == 2


def test_checkpoint_shorter_than_its_header_is_data_error(tmp_path, data_dir, capsys):
    bad = tmp_path / "short.ckpt"
    bad.write_bytes(CHECKPOINT_MAGIC + b"\x01")
    args = ["eval", "--checkpoint", str(bad), "--data", str(data_dir), "--K", "4"]
    assert main(args) == 2
    assert "truncated checkpoint header" in capsys.readouterr().err


def _blob_size(spec):
    return np.dtype(spec["dtype"]).itemsize * abs(int(np.prod(spec["shape"])))


def _rewritten(ckpt, out, edit):
    """Write ``ckpt`` to ``out`` with its JSON header replaced by ``edit(header)``.

    Each entry of the new array manifest gets the blob its name had, cut or
    zero-padded to the size the entry declares, in manifest order. A manifest
    the edit left unreadable keeps the old blobs.
    """
    raw = ckpt.read_bytes()
    (meta_len,) = struct.unpack("<Q", raw[8:16])
    meta = json.loads(raw[16:16 + meta_len])
    blobs, offset = {}, 16 + meta_len
    for spec in meta["arrays"]:
        blobs[spec["name"]] = raw[offset:offset + _blob_size(spec)]
        offset += _blob_size(spec)
    meta = edit(meta)
    try:
        body = b"".join(blobs.get(spec["name"], b"").ljust(_blob_size(spec), b"\0")[:_blob_size(spec)]
                        for spec in meta["arrays"])
    except (KeyError, TypeError):
        body = raw[16 + meta_len:]
    blob = json.dumps(meta).encode()
    out.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + body)
    return out


@pytest.mark.parametrize("key", ["method", "config", "arrays", "adam", "history", "arch"])
def test_checkpoint_header_without_a_section_is_data_error(tmp_path, ckpt, data_dir, key, capsys):
    bad = _rewritten(ckpt, tmp_path / "partial.ckpt", _header((key,), None))
    args = ["eval", "--checkpoint", str(bad), "--data", str(data_dir), "--K", "4"]
    assert main(args) == 2
    assert key in capsys.readouterr().err


def _forward_model_doc(channels):
    """A well-formed forward-model document for ``channels``-channel images."""
    model = make_forward_model(seed=0, n=N, c=channels, noise=0.0)
    return {
        "schema_version": 1, "seed": 0, "channels": channels, "neurons": N, "noise": 0.0,
        "proj": _b64(model.proj), "tuning": _b64(model.tuning), "baseline": _b64(model.baseline),
    }


def _edited(doc, path, value):
    """``doc`` with the entry at ``path`` deleted (value None) or replaced."""
    if not path:
        return value
    *outer, last = path
    inner = doc
    for key in outer:
        inner = inner[key]
    if value is None:
        del inner[last]
    else:
        inner[last] = value
    return doc


@pytest.mark.parametrize("path, value", [
    (("adam", "lr"), None),
    (("history", "losses"), None),
    (("arrays", 0, "dtype"), None),
    (("arrays", 0, "dtype"), "banana"),
    (("arrays", 0, "shape"), "ab"),
    (("method",), "foo"),
    (("config", "method"), "foo"),
    ((), [1, 2]),
], ids=["adam-without-lr", "history-without-losses", "array-without-dtype",
        "unknown-dtype", "shape-not-a-list", "unknown-method", "config-unknown-method", "header-is-a-list"])
def test_malformed_checkpoint_header_is_data_error(tmp_path, ckpt, data_dir, path, value, capsys):
    bad = _rewritten(ckpt, tmp_path / "malformed.ckpt", _header(path, value))
    args = ["eval", "--checkpoint", str(bad), "--data", str(data_dir), "--K", "4"]
    assert main(args) == 2
    assert "data error" in capsys.readouterr().err


def _header(path, value):
    """A header edit: delete (value None) or replace the entry at ``path``."""
    return lambda meta: _edited(meta, path, value)


def _array(name, key, value):
    """A header edit of array ``name``'s manifest entry: set ``key``, or drop the entry if key is None."""
    def edit(meta):
        i = next(i for i, spec in enumerate(meta["arrays"]) if spec["name"] == name)
        return _edited(meta, ("arrays", i) + ((key,) if key else ()), value)
    return edit


# id -> (method, header edit, whether the checkpoint is resumed rather than evaluated)
_MISFIT_CHECKPOINTS = {
    "param-missing": ("vna", _array("param:visual.conv1.weight", None, None), False),
    "decoder-weight-1d": ("direct-decode", _array("param:hidden.weight", "shape", [512 * N]), False),
    "buffer-too-short": ("vna", _array("buffer:visual.bn1.running_mean", "shape", [3]), False),
    "buffer-broadcast": ("vna", _array("buffer:visual.bn1.running_mean", "shape", [1]), False),
    "shape-of-floats": ("vna", _array("param:visual.conv1.weight", "shape", [16.0, 1.0, 4.0, 4.0]), False),
    "shape-negative": ("vna", _array("buffer:visual.bn1.running_var", "shape", [-2, -8]), False),
    "param-integer-dtype": ("vna", _array("param:visual.conv1.weight", "dtype", "<i8"), False),
    "moment-missing": ("direct-encode", _array("adam_m:proj.weight", None, None), True),
    "moment-broadcast": ("direct-encode", _array("adam_m:proj.weight", "shape", [1]), True),
    "adam-t-a-string": ("direct-encode", _header(("adam", "t"), "4"), True),
    "adam-lr-a-string": ("direct-encode", _header(("adam", "lr"), "0.01"), True),
    "adam-eps-a-bool": ("direct-encode", _header(("adam", "eps"), True), True),
    "arch-zero-neurons": ("vna", _header(("arch", "neurons"), 0), False),
    "config-d-fractional": ("vna", _header(("config", "d"), 4.5), False),
    "array-repeated": ("vna", lambda m: _edited(m, ("arrays",), m["arrays"] + m["arrays"][:1]), False),
    "version-1": ("vna", _header(("schema_version",), 1), False),
}


@pytest.mark.parametrize("method, edit, resume", _MISFIT_CHECKPOINTS.values(), ids=_MISFIT_CHECKPOINTS.keys())
def test_checkpoint_that_does_not_fit_its_model_is_data_error(
        tmp_path, ckpts, data_dir, method, edit, resume, capsys):
    bad = _rewritten(ckpts[method], tmp_path / "misfit.ckpt", edit)
    if resume:
        args = _train_args(data_dir, tmp_path / "resumed.ckpt", method=method, epochs="4")
        args += ["--resume", str(bad)]
    else:
        args = ["eval", "--checkpoint", str(bad), "--data", str(data_dir), "--K", "4"]
    assert main(args) == 2
    assert "data error" in capsys.readouterr().err


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzzed_checkpoint_is_data_error_or_loads(tmp_path_factory, ckpt, data):
    """A truncated checkpoint, or one with a byte replaced, fails cleanly or loads."""
    raw = ckpt.read_bytes()
    (meta_len,) = struct.unpack("<Q", raw[8:16])
    # half the draws land in the magic, length and header, where the checks are
    offset = data.draw(st.one_of(st.integers(0, 16 + meta_len), st.integers(0, len(raw) - 1)))
    if data.draw(st.booleans()):
        fuzzed = raw[:offset]
    else:
        fuzzed = raw[:offset] + bytes([data.draw(st.integers(0, 255))]) + raw[offset + 1:]
    path = tmp_path_factory.getbasetemp() / "fuzzed.ckpt"
    path.write_bytes(fuzzed)
    try:
        load_checkpoint(path)
    except DataError:
        pass


@pytest.mark.parametrize("file, path, value", [
    ("forward_model.json", ("proj",), None),
    ("forward_model.json", ("proj",), "not a blob"),
    ("forward_model.json", ("neurons",), "x"),
    ("forward_model.json", ("proj", "shape"), [256, 64]),
    ("forward_model.json", (), [1, 2]),
    ("manifest.json", ("neuron_ids",), list(range(N - 1))),
    ("forward_model.json", (), _forward_model_doc(channels=2)),
    ("manifest.json", ("neuron_ids",), list(range(N - 1)) + [99]),
    ("manifest.json", ("neuron_ids",), [0] * N),
], ids=["missing-proj", "proj-not-a-blob", "neurons-not-a-number", "proj-transposed",
        "document-is-a-list", "rates-narrower-than-dataset", "model-for-two-channels",
        "neuron-id-past-the-model", "neuron-ids-repeat"])
def test_forward_model_that_does_not_fit_is_data_error(tmp_path, data_dir, file, path, value, capsys):
    copy = tmp_path / "data"
    shutil.copytree(data_dir, copy)
    doc = _edited(json.loads((copy / file).read_text()), path, value)
    (copy / file).write_text(json.dumps(doc))
    assert main(["eval", "--oracle", "--data", str(copy), "--K", "4"]) == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("file, edit", [
    ("manifest.json", lambda m: m.update(S="abc")),
    ("manifest.json", lambda m: m.update(S=-5)),
    ("manifest.json", lambda m: m.update(T=1.5)),
    ("splits.json", lambda s: s["test"].append("x")),
], ids=["S-not-an-integer", "S-negative", "T-fractional", "split-id-not-an-integer"])
def test_malformed_dataset_json_is_data_error(tmp_path, data_dir, file, edit, capsys):
    copy = tmp_path / "data"
    copy.mkdir()
    for name in os.listdir(data_dir):
        (copy / name).write_bytes((data_dir / name).read_bytes())
    doc = json.loads((copy / file).read_text())
    edit(doc)
    (copy / file).write_text(json.dumps(doc))
    assert main(["eval", "--oracle", "--data", str(copy), "--K", "4"]) == 2
    err = capsys.readouterr().err
    assert "expected an integer" in err or "must be >= 0" in err


def test_numeric_failure_is_exit_3(tmp_path, data_dir, monkeypatch, capsys):
    def boom(*a, **kw):
        raise NumericError("gradient blew up")

    monkeypatch.setattr("crossalign.cli.train", boom)
    assert main(_train_args(data_dir, tmp_path / "c")) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_eval_without_checkpoint_or_oracle(data_dir, capsys):
    assert main(["eval", "--data", str(data_dir), "--K", "4"]) == 1


# -- train ----------------------------------------------------------------------


def test_train_flag_defaults():
    # the canonical run configuration with no overrides
    from crossalign.cli import build_parser

    args = build_parser().parse_args(["train", "--method", "vna", "--data", "d", "--out", "o"])
    assert (args.d, args.batch_size, args.lr, args.epochs) == (64, 256, 0.01, 100)
    assert args.dtype == "float64"
    assert args.temperature is None


def test_train_epoch_zero_writes_untrained_checkpoint(tmp_path, data_dir, capsys):
    out = tmp_path / "zero.ckpt"
    assert main(_train_args(data_dir, out, epochs="0")) == 0
    result = load_checkpoint(out)
    assert result.history.losses == []
    assert result.history.steps == 0
    assert result.history.method == "vna"


def test_train_history_echoes_config(tmp_path, data_dir, capsys):
    out = tmp_path / "m.ckpt"
    hist_path = tmp_path / "hist.json"
    args = _train_args(data_dir, out) + ["--history", str(hist_path)]
    assert main(args) == 0
    hist = json.loads(hist_path.read_text())
    assert hist["config"]["d"] == 4
    assert hist["config"]["batch_size"] == 8
    assert hist["config"]["lr"] == 0.01  # untouched default
    assert hist["method"] == "vna"
    assert len(hist["losses"]) == 2
    assert hist["wall_clock_seconds"] > 0


def test_train_default_history_path(tmp_path, data_dir, capsys):
    out = tmp_path / "m.ckpt"
    assert main(_train_args(data_dir, out)) == 0
    assert (tmp_path / "m.ckpt.history.json").exists()


def test_train_resume_roundtrip(tmp_path, data_dir, capsys):
    first = tmp_path / "a.ckpt"
    assert main(_train_args(data_dir, first)) == 0
    second = tmp_path / "b.ckpt"
    args = _train_args(data_dir, second, epochs="4") + ["--resume", str(first)]
    assert main(args) == 0
    straight = tmp_path / "c.ckpt"
    assert main(_train_args(data_dir, straight, epochs="4")) == 0
    resumed = load_checkpoint(second)
    direct = load_checkpoint(straight)
    assert resumed.history.losses == direct.history.losses


def test_train_resume_method_mismatch(tmp_path, data_dir, capsys):
    first = tmp_path / "a.ckpt"
    assert main(_train_args(data_dir, first)) == 0
    args = _train_args(data_dir, tmp_path / "b.ckpt", method="direct-encode")
    assert main(args + ["--resume", str(first)]) == 2


# -- eval -----------------------------------------------------------------------


def _eval_args(ckpt, data, json_out=None, csv_out=None, mode="both"):
    args = ["eval", "--checkpoint", str(ckpt), "--data", str(data),
            "--mode", mode, "--K", "4", "--seed", "0"]
    if json_out:
        args += ["--json", str(json_out)]
    if csv_out:
        args += ["--csv", str(csv_out)]
    return args


def test_eval_json_matches_schema(tmp_path, ckpt, data_dir, capsys):
    out = tmp_path / "report.json"
    assert main(_eval_args(ckpt, data_dir, json_out=out)) == 0
    report = json.loads(out.read_text())
    jsonschema.validate(report, _schema("eval_report.schema.json"))
    assert report["method"] == "vna"
    assert report["k_effective"] == {"encoding": 4, "decoding": 4}


def test_eval_csv_layout(tmp_path, ckpt, data_dir, capsys):
    out = tmp_path / "report.csv"
    assert main(_eval_args(ckpt, data_dir, csv_out=out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "dataset,method,mode,K,seed,auc"
    assert len(lines) == 4  # encoding, decoding, average
    assert [ln.split(",")[2] for ln in lines[1:]] == ["encoding", "decoding", "average"]


def test_eval_single_mode_drops_other_rows(tmp_path, ckpt, data_dir, capsys):
    out = tmp_path / "enc.json"
    assert main(_eval_args(ckpt, data_dir, json_out=out, mode="encoding")) == 0
    report = json.loads(out.read_text())
    jsonschema.validate(report, _schema("eval_report.schema.json"))
    assert report["decoding_auc"] is None
    assert report["average_auc"] == report["encoding_auc"]


def test_eval_repeat_is_byte_identical(tmp_path, ckpt, data_dir, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(_eval_args(ckpt, data_dir, json_out=a)) == 0
    assert main(_eval_args(ckpt, data_dir, json_out=b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_eval_minimal_k2(tmp_path, ckpt, data_dir, capsys):
    out = tmp_path / "k2.json"
    args = ["eval", "--checkpoint", str(ckpt), "--data", str(data_dir),
            "--K", "2", "--json", str(out)]
    assert main(args) == 0
    report = json.loads(out.read_text())
    jsonschema.validate(report, _schema("eval_report.schema.json"))
    assert report["k_effective"] == {"encoding": 2, "decoding": 2}
    assert 0.0 <= report["average_auc"] <= 1.0


def test_eval_oracle_is_perfect_on_noiseless_data(tmp_path, data_dir, capsys):
    out = tmp_path / "oracle.json"
    args = ["eval", "--oracle", "--data", str(data_dir), "--K", "4",
            "--json", str(out)]
    assert main(args) == 0
    report = json.loads(out.read_text())
    assert report["method"] == "oracle"
    assert report["encoding_auc"] == 1.0
    assert report["decoding_auc"] == 1.0


# -- compare --------------------------------------------------------------------


def _compare_args(data, out):
    return ["compare", "--data", str(data), "--out", str(out),
            "--d", "4", "--batch-size", "8", "--epochs", "2",
            "--seed", "0", "--K", "4"]


def test_compare_outputs(tmp_path, data_dir, capsys):
    out = tmp_path / "cmp"
    assert main(_compare_args(data_dir, out)) == 0

    doc = json.loads((out / "compare.json").read_text())
    jsonschema.validate(doc, _schema("compare_report.schema.json"))
    assert set(doc["methods"]) == {"vna", "direct-encode", "direct-decode"}

    lines = (out / "compare.csv").read_text().splitlines()
    assert len(lines) == 10  # header + 3 methods x 3 modes
    assert lines[0] == "dataset,method,mode,K,seed,auc"
    methods = [ln.split(",")[1] for ln in lines[1:]]
    assert methods == ["vna"] * 3 + ["direct-encode"] * 3 + ["direct-decode"] * 3

    header = (out / "compare.txt").read_text().splitlines()[0]
    assert set(header.split()) == {"Encoding", "Decoding", "Average"}

    for method in doc["methods"]:
        assert (out / f"{method}.ckpt").exists()


def test_compare_rerun_is_byte_identical(tmp_path, data_dir, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(_compare_args(data_dir, a)) == 0
    assert main(_compare_args(data_dir, b)) == 0
    names = ["compare.json", "compare.csv", "compare.txt"]
    names += [f"{m}.ckpt" for m in ("vna", "direct-encode", "direct-decode")]
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_compare_easy_dataset_all_methods_strong(tmp_path, capsys):
    """With clean data and a real training budget every method retrieves well.

    The slowest test in this file (trains three models for 30 epochs); the
    thresholds have a wide margin over the observed values.
    """
    data = tmp_path / "easy"
    gen = ["gen-data", "--stimuli", "60", "--neurons", "32", "--trials", "2",
           "--noise", "0.0", "--seed", "0", "--out", str(data)]
    assert main(gen) == 0
    out = tmp_path / "cmp"
    cmp_args = ["compare", "--data", str(data), "--out", str(out), "--d", "16",
                "--batch-size", "16", "--epochs", "30", "--seed", "0", "--K", "12"]
    assert main(cmp_args) == 0
    doc = json.loads((out / "compare.json").read_text())
    for method, report in doc["methods"].items():
        assert report["average_auc"] >= 0.9, (method, report["average_auc"])


def test_compare_table_printed(tmp_path, data_dir, capsys):
    out = tmp_path / "cmp"
    assert main(_compare_args(data_dir, out)) == 0
    printed = capsys.readouterr().out
    assert "vna" in printed and "direct-decode" in printed
    assert (out / "compare.txt").read_text() in printed
