"""End-to-end CLI runs: manifests, file inventories, determinism, cleanup."""

import json
import os

import pytest

from conftest import seeded_tokens
from corm.cli import main
from corm.manifest import ExperimentManifest, InputSpec
from corm.model import ToyTransformer
from corm.policies import Corm, Full, parse_policy


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
        assert not os.path.exists(workspace / "bad") or not tree(workspace / "bad")

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
        assert not os.path.exists(ws / "bad") or not tree(ws / "bad")
        err = capsys.readouterr().err
        assert err.startswith("error:")
        return err

    def test_unknown_input_field(self, workspace, capsys):
        err = self.run_manifest(
            workspace, capsys, input={"kind": "token_ids", "path": "input.txt", "lenght": 8}
        )
        assert "unknown manifest input fields: lenght" in err

    def test_non_integer_sampling_seed(self, workspace, capsys):
        err = self.run_manifest(workspace, capsys, seed="x", sampling="topk", top_k=4)
        assert "'seed' must be an integer" in err

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
        assert not os.path.exists(workspace / "bad") or not tree(workspace / "bad")
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "within 1..72" in err and "-3, 0, 999" in err


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
        assert not tree(out), "partial outputs must be removed"

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
        )
        d = m.to_dict()
        back = ExperimentManifest.from_dict(json.loads(json.dumps(d)))
        assert back.policies == ["full"]
        assert back.input.kind == "synthetic"
