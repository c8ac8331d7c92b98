"""End-to-end CLI runs: manifests, file inventories, determinism, cleanup."""

import dataclasses
import json
import os
import warnings

import numpy as np
import pytest

from conftest import NON_INTEGER_SIZES, seeded_tokens, write_trace_file
from corm.cli import main
from corm.manifest import ExperimentManifest, InputSpec, load_manifest
from corm.model import ToyTransformer
from corm.policies import Corm, Full, parse_policy
from corm.trace import load


def write_model_config(path, **overrides):
    cfg = dict(n_layers=1, n_heads=2, d_model=16, vocab_size=64, seed=3)
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def write_tokens(path, tokens):
    path.write_text(" ".join(str(int(t)) for t in tokens))
    return path


def tree(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            p = os.path.join(dirpath, name)
            out[os.path.relpath(p, root)] = open(p, "rb").read()
    return out


@pytest.fixture
def workspace(tmp_path):
    write_model_config(tmp_path / "model.json")
    write_tokens(tmp_path / "input.txt", seeded_tokens(1, 40, vocab=64))
    return tmp_path


class TestGenerate:
    def run_generate(self, ws, out_name):
        manifest = {
            "model_config": "model.json",
            "policies": ["full", "corm:8+8"],
            "input": {"kind": "token_ids", "path": "input.txt"},
            "out": out_name,
            "seed": 0,
            "generate_steps": 12,
            "checkpoints": [20, 40, 52],
        }
        mpath = ws / f"{out_name}.json"
        mpath.write_text(json.dumps(manifest))
        assert main(["generate", "--manifest", str(mpath)]) == 0
        return ws / out_name

    def test_file_inventory(self, workspace):
        out = self.run_generate(workspace, "run1")
        files = set(tree(out))
        assert files == {
            "manifest.json",
            os.path.join("full", "tokens.txt"),
            os.path.join("full", "compression.csv"),
            os.path.join("corm_8+8", "tokens.txt"),
            os.path.join("corm_8+8", "compression.csv"),
            os.path.join("corm_8+8", "divergence_vs_full.csv"),
        }
        full_curve = (out / "full" / "compression.csv").read_text().splitlines()
        assert full_curve[0] == "step,compression_rate"
        assert all(line.endswith(",0.0") for line in full_curve[1:])
        gen = (out / "full" / "tokens.txt").read_text().splitlines()
        assert len(gen) == 12

    # Written by the token-by-token decode, before prompts ran in 64-token chunks.
    CHUNK_EDGE_CURVES = {
        "full": "step,compression_rate\n1,0.0\n63,0.0\n64,0.0\n65,0.0\n80,0.0\n",
        "corm_8+8": "step,compression_rate\n1,0.0\n63,0.24206349206349206\n64,0.23828125\n"
        "65,0.23846153846153845\n80,0.321875\n",
        "h2o_8+8": "step,compression_rate\n1,0.0\n63,0.746031746031746\n64,0.75\n65,0.7538461538461538\n80,0.8\n",
        "streaming_2+6": "step,compression_rate\n1,0.0\n63,0.873015873015873\n64,0.875\n"
        "65,0.8769230769230769\n80,0.9\n",
    }

    def test_compression_curve_across_chunk_edges(self, tmp_path):
        write_model_config(tmp_path / "model.json", n_layers=2)
        write_tokens(tmp_path / "input.txt", seeded_tokens(1, 70, vocab=64))
        manifest = {
            "model_config": "model.json",
            "policies": ["full", "corm:8+8", "h2o:8+8", "streaming:2+6"],
            "input": {"kind": "token_ids", "path": "input.txt"},
            "out": "edges",
            "generate_steps": 10,
            "checkpoints": [80, 65, 64, 64, 63, 1],
        }
        (tmp_path / "m.json").write_text(json.dumps(manifest))
        assert main(["generate", "--manifest", str(tmp_path / "m.json")]) == 0
        for label, curve in self.CHUNK_EDGE_CURVES.items():
            assert (tmp_path / "edges" / label / "compression.csv").read_text() == curve

    def test_rerun_is_byte_identical(self, workspace):
        a = tree(self.run_generate(workspace, "runA"))
        b = tree(self.run_generate(workspace, "runB"))
        assert set(a) == set(b)
        for name in a:
            if name != "manifest.json":
                assert a[name] == b[name], f"{name} differs between reruns"

    def test_manifest_copied_verbatim(self, workspace):
        out = self.run_generate(workspace, "runC")
        assert (out / "manifest.json").read_bytes() == (workspace / "runC.json").read_bytes()

    def test_flags_that_change_the_manifest_write_its_merged_form(self, workspace):
        out = self.run_generate(workspace, "runD")
        overrides = ["--steps", "3", "--policy", "corm:4+4", "--checkpoints", "43"]
        assert main(["generate", "--manifest", str(workspace / "runD.json"), *overrides]) == 0
        written = json.loads((out / "manifest.json").read_text())
        assert written == {**load_manifest(workspace / "runD.json").to_dict(),
                           "generate_steps": 3, "policies": ["corm:4+4"], "checkpoints": [43]}
        assert len((out / "corm_4+4" / "tokens.txt").read_text().splitlines()) == 3
        # a flag that restates the file's value changes nothing: the file is copied as it is
        assert main(["generate", "--manifest", str(workspace / "runD.json"), "--steps", "12", "--seed", "0"]) == 0
        assert (out / "manifest.json").read_bytes() == (workspace / "runD.json").read_bytes()

    def test_merged_manifest_does_not_depend_on_the_working_directory(self, tmp_path, monkeypatch):
        # the same flag-overridden run, made in two directories, writes the same merged manifest.json
        written = []
        for name in ("a", "b"):
            ws = tmp_path / name
            ws.mkdir()
            write_model_config(ws / "model.json")
            write_tokens(ws / "input.txt", seeded_tokens(1, 40, vocab=64))
            manifest = {
                "model_config": "model.json",
                "policies": ["corm:4+4"],
                "input": {"kind": "token_ids", "path": "input.txt"},
                "out": "run",
            }
            (ws / "run.json").write_text(json.dumps(manifest))
            monkeypatch.chdir(ws)
            assert main(["generate", "--manifest", "run.json", "--steps", "3"]) == 0
            written.append((ws / "run" / "manifest.json").read_bytes())
        assert written[0] == written[1]
        assert json.loads(written[0]) == {**ExperimentManifest().to_dict(), **manifest, "generate_steps": 3}
        # a manifest named through a directory names its paths through it, as flags would
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "--manifest", os.path.join("a", "run.json"), "--steps", "2"]) == 0
        merged = json.loads((tmp_path / "a" / "run" / "manifest.json").read_text())
        paths = (merged["model_config"], merged["input"]["path"], merged["out"])
        assert paths == tuple(os.path.join("a", name) for name in ("model.json", "input.txt", "run"))

    def test_flags_without_manifest(self, workspace, capsys):
        rc = main(
            [
                "generate",
                "--model-config", str(workspace / "model.json"),
                "--policy", "full",
                "--policy", "tova:8",
                "--input", str(workspace / "input.txt"),
                "--out", str(workspace / "flagrun"),
                "--steps", "4",
                "--seed", "1",
            ]
        )
        assert rc == 0
        files = set(tree(workspace / "flagrun"))
        assert os.path.join("tova_8", "divergence_vs_full.csv") in files

    def test_plus_notation_parses(self):
        assert parse_policy("corm:256+256") == Corm(w=256, r=256)

    def test_unknown_policy_fails_fast(self, workspace, capsys):
        rc = main(
            [
                "generate",
                "--model-config", str(workspace / "model.json"),
                "--policy", "rocoloco:4",
                "--input", str(workspace / "input.txt"),
                "--out", str(workspace / "bad"),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "valid names" in err
        assert not os.path.exists(workspace / "bad")

    @pytest.mark.parametrize("text", list(NON_INTEGER_SIZES))
    def test_non_integer_policy_size_fails_fast(self, workspace, capsys, text):
        rc = main(
            [
                "generate",
                "--model-config", str(workspace / "model.json"),
                "--policy", text,
                "--input", str(workspace / "input.txt"),
                "--out", str(workspace / "bad"),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"expects integer sizes, got {NON_INTEGER_SIZES[text]!r}" in err
        assert not os.path.exists(workspace / "bad")

    def test_missing_input_file_reported(self, workspace, capsys):
        rc = main(
            [
                "generate",
                "--model-config", str(workspace / "model.json"),
                "--policy", "full",
                "--input", str(workspace / "nope.txt"),
                "--out", str(workspace / "bad2"),
            ]
        )
        assert rc == 1
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["generate", "ppl"])
    def test_synthetic_input_reads_no_path(self, workspace, command):
        # a synthetic input reads no file, so a path it carries need not exist
        manifest = {
            "model_config": "model.json",
            "policies": ["full"],
            "input": {"kind": "synthetic", "seed": 1, "length": 8, "path": "x"},
            "out": "synthetic",
            "generate_steps": 2,
        }
        (workspace / "m.json").write_text(json.dumps(manifest))
        assert main([command, "--manifest", str(workspace / "m.json")]) == 0
        assert (workspace / "synthetic" / "manifest.json").exists()

    def test_duplicate_policies_rejected(self, workspace, capsys):
        rc = main(
            [
                "generate",
                "--model-config", str(workspace / "model.json"),
                "--policy", "full",
                "--policy", "full",
                "--input", str(workspace / "input.txt"),
                "--out", str(workspace / "bad3"),
            ]
        )
        assert rc == 1
        assert "duplicate" in capsys.readouterr().err


    @pytest.mark.parametrize("policies,runs", [(["full", "corm:8+8"], 2), (["corm:8+8"], 2)])
    def test_prompt_decoded_once_per_policy_plus_absent_reference(
        self, workspace, monkeypatch, policies, runs
    ):
        seen = []
        original = ToyTransformer.run

        def counting_run(self, tokens, policy, **kwargs):
            seen.append(policy)
            return original(self, tokens, policy, **kwargs)

        monkeypatch.setattr(ToyTransformer, "run", counting_run)
        argv = ["generate", "--model-config", str(workspace / "model.json"),
                "--input", str(workspace / "input.txt"), "--out", str(workspace / "once"),
                "--steps", "4"]
        for p in policies:
            argv += ["--policy", p]
        assert main(argv) == 0
        assert len(seen) == runs
        assert isinstance(seen[0], Full)


class TestFailLoud:
    """Malformed settings end in `error:`, exit code 1 and no files written."""

    def run_manifest(self, ws, capsys, **fields):
        manifest = {
            "model_config": "model.json",
            "policies": ["full"],
            "input": {"kind": "token_ids", "path": "input.txt"},
            "out": "bad",
            "generate_steps": 2,
        }
        manifest.update(fields)
        (ws / "m.json").write_text(json.dumps(manifest))
        rc = main(["generate", "--manifest", str(ws / "m.json")])
        assert rc == 1
        assert not os.path.exists(ws / "bad")
        err = capsys.readouterr().err
        assert err.startswith("error:")
        return err

    def test_unknown_input_field(self, workspace, capsys):
        err = self.run_manifest(
            workspace, capsys, input={"kind": "token_ids", "path": "input.txt", "lenght": 8}
        )
        assert "unknown manifest input fields: lenght" in err

    @pytest.mark.parametrize("given", [{"path": "input.txt"}, {}], ids=["path_only", "empty"])
    def test_input_without_kind(self, workspace, capsys, given):
        err = self.run_manifest(workspace, capsys, input=given)
        assert err == "error: manifest input needs a kind, one of token_ids, text_bytes, synthetic\n"

    def test_empty_out_in_manifest(self, workspace, capsys, monkeypatch):
        monkeypatch.chdir(workspace)
        err = self.run_manifest(workspace, capsys, out="")
        assert err == "error: missing required settings: out\n"
        assert sorted(os.listdir(workspace)) == ["input.txt", "m.json", "model.json"]

    @pytest.mark.parametrize(
        "command,named",
        [
            (["generate", "--policy", "full"], "missing required settings: out"),
            (["ppl", "--policy", "full"], "missing required settings: out"),
            (["trace"], "trace needs --trace PATH or --out DIR"),
        ],
        ids=["generate", "ppl", "trace"],
    )
    def test_empty_out_flag(self, workspace, capsys, monkeypatch, command, named):
        # an empty --out is a missing one, not the working directory
        monkeypatch.chdir(workspace)
        assert main([*command, "--model-config", "model.json", "--input", "input.txt", "--out", ""]) == 1
        assert capsys.readouterr().err == f"error: {named}\n"
        assert sorted(os.listdir(workspace)) == ["input.txt", "model.json"]

    def test_non_integer_sampling_seed(self, workspace, capsys):
        err = self.run_manifest(workspace, capsys, seed="x", sampling="topk", top_k=4)
        assert "'seed' must be an integer" in err

    @pytest.mark.parametrize("value", [None, [2], True])
    def test_model_config_int_field_of_wrong_type(self, workspace, capsys, value):
        write_model_config(workspace / "model.json", n_layers=value)
        err = self.run_manifest(workspace, capsys)
        assert "model config field 'n_layers' must be an integer" in err

    def test_positional_encoding_field_of_wrong_type(self, workspace, capsys):
        write_model_config(workspace / "model.json", pe={"kind": "rope", "base": None})
        err = self.run_manifest(workspace, capsys)
        assert "field 'base' must be a number" in err

    def test_manifest_list_item_of_wrong_type(self, workspace, capsys):
        err = self.run_manifest(workspace, capsys, checkpoints=[20, "40"])
        assert "manifest field 'checkpoints' must list integers" in err

    def test_positional_encoding_list_item_of_wrong_type(self, workspace, capsys):
        # JSON true loads as a bool, which is no number here, though float(True) is 1.0
        write_model_config(workspace / "model.json", pe={"kind": "alibi", "slopes": [0.5, True]})
        err = self.run_manifest(workspace, capsys)
        assert "alibi positional encoding field 'slopes' must list numbers" in err

    def test_prompt_past_the_learned_position_table(self, workspace, capsys):
        # the 40-token prompt reaches step 17 of a 16-row table
        write_model_config(workspace / "model.json", pe={"kind": "absolute_learned"}, max_positions=16)
        err = self.run_manifest(workspace, capsys)
        assert "step 17 exceeds the learned position table (16)" in err

    def test_bad_token_mid_prompt(self, workspace, capsys):
        tokens = seeded_tokens(1, 130, vocab=64)
        tokens[70], tokens[100] = 99, 77
        write_tokens(workspace / "input.txt", tokens)
        err = self.run_manifest(workspace, capsys)
        assert err.strip() == "error: token 99 at index 70 outside vocabulary of 64"

    @pytest.mark.parametrize("token", [2**63, -12345678901234567890123])
    def test_token_beyond_int64(self, workspace, capsys, token):
        write_tokens(workspace / "input.txt", [1, 2, token, 3])
        err = self.run_manifest(workspace, capsys)
        assert err.strip() == f"error: token {token} at index 2 outside vocabulary of 64"

    def test_prompt_past_the_learned_table_inside_a_chunk(self, workspace, capsys):
        # step 101 lies inside the prompt's second 64-token chunk
        write_model_config(workspace / "model.json", pe={"kind": "absolute_learned"}, max_positions=100)
        write_tokens(workspace / "input.txt", seeded_tokens(1, 130, vocab=64))
        err = self.run_manifest(workspace, capsys)
        assert err.strip() == "error: step 101 exceeds the learned position table (100)"

    def test_negative_sampling_seed(self, workspace, capsys):
        err = self.run_manifest(workspace, capsys, seed=-1, sampling="topk", top_k=4)
        assert "seed must be >= 0, got -1" in err

    def test_negative_top_k_under_greedy_sampling(self, workspace, capsys):
        out = workspace / "bad"
        argv = ["--model-config", str(workspace / "model.json"), "--input", str(workspace / "input.txt")]
        rc = main(["generate", *argv, "--policy", "full", "--out", str(out), "--top-k", "-5"])
        assert rc == 1
        assert not os.path.exists(out)
        assert capsys.readouterr().err == "error: top_k must be >= 0, got -5\n"

    def test_negative_analyze_seed(self, workspace, capsys):
        argv = ["--model-config", str(workspace / "model.json"), "--input", str(workspace / "input.txt")]
        assert main(["trace", *argv, "--trace", str(workspace / "run.trc")]) == 0
        (workspace / "m.json").write_text(json.dumps({"trace": "run.trc", "out": "bad", "seed": -2}))
        rc = main(["analyze", "--manifest", str(workspace / "m.json")])
        assert rc == 1
        assert not os.path.exists(workspace / "bad")
        assert capsys.readouterr().err.startswith("error: seed must be >= 0, got -2")

    def test_negative_synthetic_input_seed(self, workspace, capsys):
        out = workspace / "bad"
        argv = ["--model-config", str(workspace / "model.json"), "--policy", "full", "--out", str(out)]
        rc = main(["generate", *argv, "--synthetic=-1:8"])
        assert rc == 1
        assert not os.path.exists(out)
        assert capsys.readouterr().err.startswith("error: synthetic input seed must be >= 0, got -1")

    @pytest.mark.parametrize("text", ["5:abc", "x:8", "5", "5:8:1"])
    def test_synthetic_input_not_two_integers(self, workspace, capsys, text):
        out = workspace / "bad"
        argv = ["--model-config", str(workspace / "model.json"), "--policy", "full", "--out", str(out)]
        rc = main(["generate", *argv, f"--synthetic={text}"])
        assert rc == 1
        assert not os.path.exists(out)
        assert capsys.readouterr().err == f"error: --synthetic expects SEED:LENGTH integers, got {text!r}\n"

    def test_checkpoints_outside_the_run(self, workspace, capsys):
        rc = main(
            [
                "generate",
                "--model-config", str(workspace / "model.json"),
                "--policy", "full",
                "--input", str(workspace / "input.txt"),
                "--out", str(workspace / "bad"),
                "--checkpoints", "0,-3,999",
            ]
        )
        assert rc == 1
        assert not os.path.exists(workspace / "bad")
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "within 1..72" in err and "-3, 0, 999" in err

    @pytest.mark.parametrize(
        "fields,named",
        [
            ({"d_model": 0}, "d_h must be >= 1, got 0"),
            ({"mlp_ratio": -1}, "mlp_ratio must be >= 1"),
            ({"mlp_ratio": 0}, "mlp_ratio must be >= 1"),
            ({"max_positions": 0}, "max_positions must be >= 1"),
            ({"depth_gain": float("nan")}, "depth_gain must be finite"),
            ({"head_gain_jitter": float("inf")}, "head_gain_jitter must be finite"),
            ({"pe": {"kind": "rope", "base": 0}}, "rope base must be finite and > 0"),
            ({"pe": {"kind": "rope", "base": float("inf")}}, "rope base must be finite and > 0"),
            ({"pe": {"kind": "alibi", "slopes": [0.5, float("nan")]}}, "alibi slopes must be finite"),
            ({"d_model": 17, "n_heads": 1, "pe": {"kind": "absolute_sinusoidal"}}, "sinusoidal encoding needs even d_model"),
            ({"depth_gain": 1e308, "n_layers": 3}, "gives head gains that overflow float32"),
            ({"depth_gain": 5.0, "n_layers": 60}, "gives head gains that overflow float32"),
            ({"depth_gain": -5.0, "n_layers": 60}, "gives head gains that overflow float32"),
            ({"seed": -3}, "seed must lie in [0, 2**64), got -3"),
            ({"seed": 2**64}, "seed must lie in [0, 2**64), got 18446744073709551616"),
        ],
        ids=["d_h", "mlp_ratio", "mlp_ratio_zero", "max_positions", "depth_gain", "head_gain_jitter",
             "rope_base_zero", "rope_base_inf", "alibi_slopes", "sinusoidal_odd_d_model",
             "depth_gain_overflow", "depth_gain_deep", "depth_gain_negative", "seed_negative", "seed_over_u64"],
    )
    def test_out_of_range_model_config(self, workspace, capsys, fields, named):
        # JSON's NaN and Infinity load as floats, so range checks, not type checks, must catch them
        write_model_config(workspace / "model.json", **fields)
        out = workspace / "bad.trc"
        argv = ["trace", "--model-config", str(workspace / "model.json"), "--input", str(workspace / "input.txt")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([*argv, "--trace", str(out)])
        assert rc == 1
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and named in captured.err
        assert "Warning" not in captured.err and not caught

    @pytest.mark.parametrize(
        "command", [["analyze"], ["replay", "--policy", "full"]], ids=["analyze", "replay"]
    )
    def test_trace_with_nan_row(self, workspace, capsys, command):
        good, bad = workspace / "run.trc", workspace / "nan.trc"
        argv = ["--model-config", str(workspace / "model.json"), "--input", str(workspace / "input.txt")]
        assert main(["trace", *argv, "--trace", str(good)]) == 0
        rec = load(good)
        blocks = [np.concatenate([r, q], axis=2) for r, q in zip(rec.rows, rec.queries)]
        blocks[9][0, 1, 3] = np.nan  # step 10 of the 40-step, 1-layer, 2-head trace
        write_trace_file(bad, rec.tokens, blocks, **dataclasses.asdict(rec.meta))
        rc = main([*command, "--trace", str(bad), "--out", str(workspace / "bad")])
        assert rc == 1
        assert not os.path.exists(workspace / "bad")
        assert capsys.readouterr().err.startswith("error: scores contain NaN or Inf")

    @pytest.mark.parametrize(
        "command", [["analyze"], ["replay", "--policy", "corm:2+2"]], ids=["analyze", "replay"]
    )
    def test_trace_with_zero_query(self, workspace, capsys, command):
        # valid rows, but step 7's query of layer 0, head 1 is all zeros
        blocks = [np.concatenate([np.full((1, 2, t), 1.0 / t), np.ones((1, 2, 8))], axis=2) for t in range(1, 13)]
        blocks[6][0, 1, 7:] = 0.0
        bad = workspace / "zero.trc"
        write_trace_file(bad, seeded_tokens(1, 12, vocab=64), blocks, n_layers=1, n_heads=2, n_kv_heads=2,
                         d_model=16, d_h=8, vocab_size=64, pe_kind="rope", rope_base=10000.0, seed=3)
        rc = main([*command, "--trace", str(bad), "--out", str(workspace / "bad")])
        assert rc == 1
        assert not os.path.exists(workspace / "bad")
        assert capsys.readouterr().err.startswith("error: step 7, layer 0, head 1: zero query vector")

    @pytest.mark.parametrize(
        "command", [["analyze"], ["replay", "--policy", "full"]], ids=["analyze", "replay"]
    )
    @pytest.mark.parametrize(
        "fields,named",
        [
            ({"n_layers": 0}, "trace n_layers must be >= 1, got 0"),
            ({"n_heads": 0, "n_kv_heads": 0, "d_model": 0}, "trace n_heads must be >= 1, got 0"),
            ({"d_h": 0, "d_model": 0}, "trace d_h must be >= 1, got 0"),
            ({"n_kv_heads": 3}, "trace n_kv_heads must be >= 1 and divide n_heads=2, got 3"),
            ({"d_model": 999}, "trace d_model must equal n_heads * d_h = 16, got 999"),
            ({"vocab_size": 1}, "trace vocab_size must be >= 2, got 1"),
            ({"vocab_size": 16, "token": 400}, "trace token 400 outside vocab_size 16"),
            ({"rope_base": float("nan")}, "trace rope_base must be finite and > 0 under pe_kind 'rope', got nan"),
            ({"rope_base": -1.0}, "trace rope_base must be finite and > 0 under pe_kind 'rope', got -1.0"),
            ({"pe_kind": "none", "rope_base": 5.0}, "trace rope_base must be 0.0 under pe_kind 'none', got 5.0"),
            ({"pe_kind": "alibi", "rope_base": float("inf")},
             "trace rope_base must be 0.0 under pe_kind 'alibi', got inf"),
        ],
        ids=["n_layers", "n_heads", "d_h", "n_kv_heads", "d_model", "vocab_size", "token",
             "rope_base_nan", "rope_base_negative", "none_base", "alibi_base_inf"],
    )
    def test_trace_with_inconsistent_header(self, workspace, capsys, command, fields, named):
        # a well-formed file (length and checksums match) whose fields contradict each other
        header = dict(n_layers=1, n_heads=2, n_kv_heads=2, d_model=16, d_h=8, vocab_size=64,
                      pe_kind="rope", rope_base=10000.0, seed=3)
        header.update(fields)
        tokens = seeded_tokens(1, 12, vocab=min(header["vocab_size"], 64))
        if "token" in header:
            tokens[5] = header.pop("token")
        blocks = [
            np.concatenate(
                [np.full((header["n_layers"], header["n_heads"], t), 1.0 / t),
                 np.ones((header["n_layers"], header["n_heads"], header["d_h"]))],
                axis=2,
            )
            for t in range(1, tokens.size + 1)
        ]
        bad = workspace / "bad.trc"
        write_trace_file(bad, tokens, blocks, **header)
        rc = main([*command, "--trace", str(bad), "--out", str(workspace / "bad")])
        assert rc == 1
        assert not os.path.exists(workspace / "bad")
        assert capsys.readouterr().err.startswith(f"error: {named}")


    @pytest.mark.parametrize(
        "flag,value,least",
        [("--max-map-steps", "-3", 1), ("--max-map-steps", "0", 1), ("--recent-k", "0", 1),
         ("--overlap-pairs", "1", 2)],
    )
    def test_analyze_settings_checked_before_any_output(self, workspace, capsys, flag, value, least):
        trc = workspace / "run.trc"
        argv = ["--model-config", str(workspace / "model.json"), "--input", str(workspace / "input.txt")]
        assert main(["trace", *argv, "--trace", str(trc)]) == 0
        rc = main(["analyze", "--trace", str(trc), "--out", str(workspace / "bad"), flag, value])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {flag[2:]} must be >= {least}, got {value}")
        assert not os.path.exists(workspace / "bad")


class TestTraceReplayAnalyze:
    @pytest.fixture
    def traced(self, workspace):
        rc = main(
            [
                "trace",
                "--model-config", str(workspace / "model.json"),
                "--input", str(workspace / "input.txt"),
                "--trace", str(workspace / "run.trc"),
            ]
        )
        assert rc == 0
        return workspace

    def test_replay_full_reports_zero_compression(self, traced):
        out = traced / "replay_full"
        rc = main(
            [
                "replay",
                "--trace", str(traced / "run.trc"),
                "--policy", "full",
                "--out", str(out),
            ]
        )
        assert rc == 0
        rows = (out / "comparison.csv").read_text().splitlines()
        assert rows[0] == "policy,final_compression,mean_compression"
        assert rows[1] == "full,0.0,0.0"

    def test_replay_benchmark_set_produces_one_table(self, traced):
        out = traced / "replay_bench"
        rc = main(
            [
                "replay",
                "--trace", str(traced / "run.trc"),
                "--policy", "streaming:4+1020",
                "--policy", "h2o:768+256",
                "--policy", "scissorhands:768+256",
                "--policy", "corm:256+256",
                "--out", str(out),
            ]
        )
        assert rc == 0
        rows = (out / "comparison.csv").read_text().splitlines()
        assert len(rows) == 5
        labels = [r.split(",")[0] for r in rows[1:]]
        assert labels == ["streaming_4+1020", "h2o_768+256", "scissorhands_768+256", "corm_256+256"]

    def test_replay_partial_outputs_removed_on_failure(self, traced, capsys):
        out = traced / "replay_bad"
        rc = main(
            [
                "replay",
                "--trace", str(traced / "run.trc"),
                "--policy", "streaming:2+2",
                "--policy", "gqa_corm:2+2:3",  # 3 does not divide 2 heads
                "--out", str(out),
            ]
        )
        assert rc == 1
        assert "does not divide" in capsys.readouterr().err
        assert not os.path.exists(out), "partial outputs must be removed"

    def test_failed_command_keeps_an_output_directory_that_existed(self, traced, capsys):
        out = traced / "kept"
        out.mkdir()
        (out / "notes.txt").write_text("mine")
        rc = main(
            [
                "replay",
                "--trace", str(traced / "run.trc"),
                "--policy", "streaming:2+2",
                "--policy", "gqa_corm:2+2:3",
                "--out", str(out / "nested"),
            ]
        )
        assert rc == 1
        assert "does not divide" in capsys.readouterr().err
        assert tree(out) == {"notes.txt": b"mine"}
        assert main(["replay", "--trace", str(traced / "run.trc"), "--policy", "gqa_corm:2+2:3",
                     "--out", str(out)]) == 1
        assert tree(out) == {"notes.txt": b"mine"}

    def test_corrupt_trace_surfaces_checksum_error(self, traced, capsys):
        blob = bytearray((traced / "run.trc").read_bytes())
        blob[-20] ^= 0xFF
        (traced / "bad.trc").write_bytes(bytes(blob))
        rc = main(
            [
                "replay",
                "--trace", str(traced / "bad.trc"),
                "--policy", "full",
                "--out", str(traced / "replay_corrupt"),
            ]
        )
        assert rc == 1
        assert "checksum" in capsys.readouterr().err

    def test_analyze_emits_documented_files(self, traced):
        out = traced / "analysis"
        rc = main(
            [
                "analyze",
                "--trace", str(traced / "run.trc"),
                "--out", str(out),
                "--recent-k", "4",
                "--overlap-pairs", "40",
                "--seed", "2",
            ]
        )
        assert rc == 0
        files = set(tree(out))
        expected = {
            "manifest.json",
            "sparsity.csv",
            "recent_fraction.csv",
            "overlap.csv",
            "summary.json",
        } | {f"similarity_l0_h{h}.csv" for h in range(2)}
        assert files == expected
        summary = json.loads((out / "summary.json").read_text())
        assert summary["recent_k"] == 4
        assert len(summary["important_fraction_per_layer"]) == 1
        sparsity = (out / "sparsity.csv").read_text().splitlines()
        assert sparsity[0] == "layer,head,important_fraction,sparsity"
        assert len(sparsity) == 1 + 1 * 2
        overlap = (out / "overlap.csv").read_text().splitlines()
        assert overlap[0] == "layer,head,query_cosine,jaccard"
        assert len(overlap) == 1 + 2 * 40

    def test_trace_byte_cap_respected(self, workspace, capsys):
        rc = main(
            [
                "trace",
                "--model-config", str(workspace / "model.json"),
                "--input", str(workspace / "input.txt"),
                "--trace", str(workspace / "capped.trc"),
                "--byte-cap", "100",
            ]
        )
        assert rc == 1
        assert "cap is 100" in capsys.readouterr().err
        assert not os.path.exists(workspace / "capped.trc")


class TestPpl:
    def test_perplexity_table(self, workspace):
        out = workspace / "ppl"
        rc = main(
            [
                "ppl",
                "--model-config", str(workspace / "model.json"),
                "--policy", "full",
                "--policy", "streaming:2+4",
                "--input", str(workspace / "input.txt"),
                "--out", str(out),
            ]
        )
        assert rc == 0
        rows = (out / "perplexity.csv").read_text().splitlines()
        assert rows[0] == "policy,perplexity"
        assert rows[1].startswith("full,") and rows[2].startswith("streaming_2+4,")
        assert float(rows[1].split(",")[1]) > 0


class TestInputsAndManifest:
    def test_synthetic_input(self, workspace):
        rc = main(
            [
                "generate",
                "--model-config", str(workspace / "model.json"),
                "--policy", "full",
                "--synthetic", "5:24",
                "--out", str(workspace / "synth"),
                "--steps", "2",
            ]
        )
        assert rc == 0

    def test_bytes_input_needs_byte_vocab(self, workspace, capsys):
        (workspace / "raw.txt").write_bytes(b"hello world")
        rc = main(
            [
                "generate",
                "--model-config", str(workspace / "model.json"),  # vocab 64
                "--policy", "full",
                "--input", str(workspace / "raw.txt"),
                "--input-format", "bytes",
                "--out", str(workspace / "bytes_run"),
            ]
        )
        assert rc == 1
        assert "vocab_size >= 256" in capsys.readouterr().err

    def test_bytes_input_with_byte_vocab(self, tmp_path):
        write_model_config(tmp_path / "model.json", vocab_size=256)
        (tmp_path / "raw.txt").write_bytes(b"hello world, hello cache")
        rc = main(
            [
                "generate",
                "--model-config", str(tmp_path / "model.json"),
                "--policy", "full",
                "--input", str(tmp_path / "raw.txt"),
                "--input-format", "bytes",
                "--out", str(tmp_path / "bytes_run"),
                "--steps", "3",
            ]
        )
        assert rc == 0

    def test_token_ids_validated_against_vocab(self, workspace, capsys):
        write_tokens(workspace / "big.txt", [1, 2, 99])
        rc = main(
            [
                "generate",
                "--model-config", str(workspace / "model.json"),
                "--policy", "full",
                "--input", str(workspace / "big.txt"),
                "--out", str(workspace / "bad4"),
            ]
        )
        assert rc == 1
        assert "outside vocabulary" in capsys.readouterr().err

    def test_manifest_relative_paths(self, workspace):
        sub = workspace / "nested"
        sub.mkdir()
        manifest = {
            "model_config": "../model.json",
            "policies": ["full"],
            "input": {"kind": "token_ids", "path": "../input.txt"},
            "out": "result",
            "generate_steps": 2,
        }
        (sub / "m.json").write_text(json.dumps(manifest))
        assert main(["generate", "--manifest", str(sub / "m.json")]) == 0
        assert (sub / "result" / "full" / "tokens.txt").exists()

    def test_unknown_manifest_field_rejected(self, workspace, capsys):
        (workspace / "m.json").write_text(json.dumps({"polices": ["full"]}))
        rc = main(["generate", "--manifest", str(workspace / "m.json")])
        assert rc == 1
        assert "unknown manifest fields" in capsys.readouterr().err

    def test_manifest_round_trip(self):
        m = ExperimentManifest(
            model_config="m.json",
            policies=["full"],
            input=InputSpec(kind="synthetic", seed=1, length=8),
            out="o",
            seed=4,
            checkpoints=[3, 5],
            generate_steps=6,
            sampling="topk",
            top_k=2,
            trace="t.trc",
            byte_cap=1000,
            recent_k=3,
            overlap_pairs=9,
            max_map_steps=7,
        )
        d = m.to_dict()
        # every setting is written when set, and read back as it was
        assert set(d) == {f.name for f in dataclasses.fields(m)} - {"source_path"}
        back = ExperimentManifest.from_dict(json.loads(json.dumps(d)))
        assert back == m
