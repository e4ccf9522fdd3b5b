import json

import numpy as np
import pytest

from treequant.checkpoint import load_checkpoint
from treequant.cli import main
from treequant.config import config_from_dict
from treequant.errors import ConfigError, DataError
from treequant.train import _bpr_negatives, model_from_checkpoint, run_evaluate, run_train

from test_checkpoint import _rewrite_meta


def _write_interactions(path, n_users=30, n_items=20, per_user=5, seed=0, labels=False):
    gen = np.random.default_rng(seed)
    lines = []
    for u in range(n_users):
        items = gen.choice(n_items, size=per_user, replace=False)
        for t, i in enumerate(items):
            if labels:
                lines.append(f"u{u}\ti{i}\t{int(gen.integers(0, 2))}\t{t}")
            else:
                lines.append(f"u{u}\ti{i}\t1\t{t}")
    path.write_text("\n".join(lines) + "\n")


def _write_lists(path, n_lists=40, n_items=15, seed=0):
    gen = np.random.default_rng(seed)
    lines = []
    for _ in range(n_lists):
        length = int(gen.integers(4, 9))
        items = gen.choice(n_items, size=length, replace=False)
        lines.append(" ".join(f"i{i}" for i in items))
    path.write_text("\n".join(lines) + "\n")


def _cfg(path, task="cf", epochs=2, seed=1, cage=True, **model_extra):
    doc = {
        "task": task,
        "data": {"path": str(path), "format": "generic-tsv", "min_freq": 1},
        "cage": {"item_enabled": cage, "levels": [4, 2] if cage else []},
        "model": {"dim": 8, "hidden": [8], "lr": 0.01, "batch_size": 16,
                  "epochs": epochs, "seed": seed, **model_extra},
        "eval": {"ks": [5, 10], "n_negatives": 10},
    }
    if task == "list-completion":
        doc["data"]["format"] = "lists"
    return config_from_dict(doc)


class TestConfig:
    def test_non_decreasing_levels_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="strictly decreasing"):
            config_from_dict({
                "task": "cf",
                "data": {"path": "x"},
                "cage": {"item_enabled": True, "levels": [2, 4]},
                "model": {"seed": 0},
            })

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            config_from_dict({
                "task": "cf",
                "data": {"path": "x"},
                "model": {"seed": 0, "learning_rate": 0.1},
            })

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"task": "cf", "data": {"path": "x"}, "model": {"seed": 0}, "extra": 1})

    def test_negative_weight_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            config_from_dict({
                "task": "cf",
                "data": {"path": "x"},
                "cage": {"item_enabled": True, "levels": [3, 2], "alpha": -1.0},
                "model": {"seed": 0},
            })

    def test_defaults(self):
        cfg = config_from_dict({"task": "cf", "data": {"path": "x"}, "model": {"seed": 0}})
        assert cfg.model.dim == 64
        assert cfg.cage.alpha == 1.0 and cfg.cage.omega_q == 1.0
        assert cfg.eval.n_negatives == 99


class TestRunTrain:
    def test_zero_epochs_writes_initial_checkpoint(self, tmp_path):
        data = tmp_path / "d.tsv"
        _write_interactions(data)
        cfg = _cfg(data, epochs=0)
        result = run_train(cfg, out_dir=str(tmp_path / "run"))
        assert result.step_losses == []
        ckpt = load_checkpoint(result.checkpoint_path)
        assert ckpt.epoch == 0
        model, _ = model_from_checkpoint(ckpt)
        assert model.items.rows.value.shape[1] == 8
        # log has only the config header
        lines = open(result.log_path).read().splitlines()
        assert len(lines) == 1 and "config" in json.loads(lines[0])

    def test_determinism_bit_identical_artifacts(self, tmp_path):
        data = tmp_path / "d.tsv"
        _write_interactions(data)
        for out in ("a", "b"):
            run_train(_cfg(data, epochs=2, seed=7), out_dir=str(tmp_path / out))
        assert (tmp_path / "a/model.ckpt").read_bytes() == (tmp_path / "b/model.ckpt").read_bytes()
        assert (tmp_path / "a/train_log.jsonl").read_bytes() == (tmp_path / "b/train_log.jsonl").read_bytes()

    def test_log_lines_parse_independently(self, tmp_path):
        data = tmp_path / "d.tsv"
        _write_interactions(data)
        result = run_train(_cfg(data, epochs=2), out_dir=str(tmp_path / "run"))
        with open(result.log_path) as fh:
            lines = [json.loads(l) for l in fh]
        assert "config" in lines[0]
        assert any(l.get("split") == "val" for l in lines[1:])
        assert any(l.get("split") == "train" and l.get("metric") == "loss" for l in lines[1:])

    def test_ctr_task_trains(self, tmp_path):
        data = tmp_path / "d.tsv"
        _write_interactions(data, labels=True)
        result = run_train(_cfg(data, task="ctr", epochs=1), out_dir=None)
        assert result.step_losses
        assert all(np.isfinite(l["l_total"]) for l in result.step_losses)

    def test_list_completion_task_trains(self, tmp_path):
        data = tmp_path / "lists.txt"
        _write_lists(data)
        result = run_train(_cfg(data, task="list-completion", epochs=1), out_dir=None)
        assert result.step_losses
        assert result.epoch_metrics


class TestRunEvaluate:
    def test_val_split_reproduces_final_logged_numbers(self, tmp_path):
        data = tmp_path / "d.tsv"
        _write_interactions(data)
        result = run_train(_cfg(data, epochs=2, seed=3), out_dir=str(tmp_path / "run"))
        report = run_evaluate(result.checkpoint_path, split="val")
        assert report.values == result.epoch_metrics[-1].values

    def test_test_split_runs(self, tmp_path):
        data = tmp_path / "d.tsv"
        _write_interactions(data)
        result = run_train(_cfg(data, epochs=1), out_dir=str(tmp_path / "run"))
        report = run_evaluate(result.checkpoint_path, split="test")
        assert set(report.values) == {"ndcg@5", "ndcg@10", "hr@5", "hr@10"}

    def test_changing_eval_seed_changes_negatives(self, tmp_path):
        data = tmp_path / "d.tsv"
        _write_interactions(data, n_users=60)
        result = run_train(_cfg(data, epochs=1), out_dir=str(tmp_path / "run"))
        base = run_evaluate(result.checkpoint_path, split="test")
        same = run_evaluate(result.checkpoint_path, split="test")
        other = run_evaluate(result.checkpoint_path, split="test", overrides={"seed": 999})
        assert base.values == same.values
        assert base.values != other.values

    def test_non_eval_override_rejected(self, tmp_path):
        data = tmp_path / "d.tsv"
        _write_interactions(data)
        result = run_train(_cfg(data, epochs=1), out_dir=str(tmp_path / "run"))
        with pytest.raises(ConfigError):
            run_evaluate(result.checkpoint_path, overrides={"lr": 0.5})

    def test_bad_split_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            run_evaluate(tmp_path / "nope.ckpt", split="train")


class TestCli:
    def _train(self, tmp_path, cage=True, task="cf"):
        data = tmp_path / ("d.tsv" if task != "list-completion" else "lists.txt")
        if task == "list-completion":
            _write_lists(data)
        else:
            _write_interactions(data)
        cfg = _cfg(data, task=task, epochs=1, cage=cage)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        return out / "model.ckpt"

    def test_train_and_evaluate(self, tmp_path, capsys):
        ckpt = self._train(tmp_path)
        assert main(["evaluate", "--checkpoint", str(ckpt), "--split", "test"]) == 0
        out = capsys.readouterr().out
        assert "ndcg@10" in out

    def test_export_tree(self, tmp_path):
        ckpt = self._train(tmp_path)
        jp, dp = tmp_path / "tree.json", tmp_path / "tree.dot"
        assert main(["export-tree", "--checkpoint", str(ckpt),
                     "--json", str(jp), "--dot", str(dp)]) == 0
        doc = json.loads(jp.read_text())
        assert doc["level_sizes"] == [4, 2]
        assert dp.read_text().startswith("digraph")

    def test_export_tree_without_quantizer_errors(self, tmp_path, capsys):
        ckpt = self._train(tmp_path, cage=False)
        rc = main(["export-tree", "--checkpoint", str(ckpt),
                   "--json", str(tmp_path / "t.json"), "--dot", str(tmp_path / "t.dot")])
        assert rc == 2
        assert "no quantizer" in capsys.readouterr().err

    def test_inspect_codes_utilization(self, tmp_path, capsys):
        ckpt = self._train(tmp_path)
        assert main(["inspect-codes", "--checkpoint", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "level 1" in out and "utilization" in out

    def test_inspect_codes_with_labels(self, tmp_path, capsys):
        ckpt = self._train(tmp_path)
        vocab = load_checkpoint(ckpt).vocab["items"]
        labels = tmp_path / "labels.tsv"
        lines = [f"{raw}\tcat{idx % 2}" for idx, raw in enumerate(vocab)]
        lines.append("unknown_item\tcat0")
        labels.write_text("\n".join(lines) + "\n")
        assert main(["inspect-codes", "--checkpoint", str(ckpt), "--labels", str(labels)]) == 0
        out = capsys.readouterr().out
        assert "categories" in out
        assert "skipped 1" in out

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "nope.json")]) == 2

    def test_list_completion_round_trip(self, tmp_path, capsys):
        ckpt = self._train(tmp_path, task="list-completion")
        assert main(["evaluate", "--checkpoint", str(ckpt), "--split", "val"]) == 0
        assert "hr@5" in capsys.readouterr().out


class TestTaskFormatPairs:
    @pytest.mark.parametrize("task, fmt", [("cf", "lists"), ("ctr", "lists"),
                                           ("list-completion", "movielens-100k")])
    def test_mismatched_pair_rejected(self, task, fmt):
        with pytest.raises(ConfigError, match="data.format"):
            config_from_dict({"task": task, "data": {"path": "x", "format": fmt},
                              "model": {"seed": 0}})


class _CountingGen:
    """Stands in for a numpy Generator; fails the test instead of looping forever."""

    def __init__(self, limit=1000):
        self.draws = 0
        self.limit = limit

    def integers(self, low, high):
        self.draws += 1
        assert self.draws <= self.limit, "negative sampling does not terminate"
        return np.int64(high - 1)


class TestBprNegatives:
    def test_user_positive_on_every_item_raises(self):
        gen = _CountingGen()
        with pytest.raises(DataError, match="user index 1"):
            _bpr_negatives(np.array([0, 1]), {0: {0}, 1: {0, 1, 2}}, 3, gen)
        assert gen.draws == 1

    def test_draws_unchanged_for_other_users(self):
        positives = {0: {1, 2}, 1: {0}}
        users = np.array([0, 1, 0, 1, 1])
        got = _bpr_negatives(users, positives, 5, np.random.default_rng(4))
        ref_gen = np.random.default_rng(4)
        want = []
        for user in users:
            while True:
                cand = int(ref_gen.integers(0, 5))
                if cand not in positives[int(user)]:
                    want.append(cand)
                    break
        assert got.tolist() == want

    def test_cf_run_on_saturated_file_fails_fast(self, tmp_path, capsys):
        data = tmp_path / "d.tsv"
        data.write_text("".join(f"u{u}\ti{i}\t1\t{i}\n" for u in range(3) for i in range(3)))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_cfg(data, epochs=1).to_dict()))
        rc = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "positive on all 3 items" in capsys.readouterr().err


def _move_line_to_front(path, lineno):
    lines = path.read_text().splitlines()
    lines.insert(0, lines.pop(lineno))
    path.write_text("\n".join(lines) + "\n")


class TestEvaluateVocabulary:
    def test_reordered_interactions_rejected(self, tmp_path, capsys):
        data = tmp_path / "d.tsv"
        _write_interactions(data)
        result = run_train(_cfg(data, epochs=1), out_dir=str(tmp_path / "run"))
        # the last line's user is first seen on a later line: moving it first
        # renumbers the users
        _move_line_to_front(data, -1)
        with pytest.raises(DataError, match="users vocabulary"):
            run_evaluate(result.checkpoint_path, split="test")
        assert main(["evaluate", "--checkpoint", result.checkpoint_path]) == 2
        assert "vocabulary differs" in capsys.readouterr().err

    def test_new_item_order_rejected(self, tmp_path):
        data = tmp_path / "d.tsv"
        data.write_text("".join(f"u{u}\ti{3 * u + t}\t1\t{t}\n" for u in range(6) for t in range(4)))
        result = run_train(_cfg(data, epochs=1), out_dir=str(tmp_path / "run"))
        # within user u5's lines, new item i18 moves ahead of i16 and i17;
        # the user order stays the same
        lines = data.read_text().splitlines()
        data.write_text("\n".join(lines[:20] + [lines[23]] + lines[20:23]) + "\n")
        with pytest.raises(DataError, match="items vocabulary"):
            run_evaluate(result.checkpoint_path, split="val")

    def test_reordered_lists_rejected(self, tmp_path):
        data = tmp_path / "lists.txt"
        _write_lists(data)
        result = run_train(_cfg(data, task="list-completion", epochs=1), out_dir=str(tmp_path / "run"))
        _move_line_to_front(data, -1)
        with pytest.raises(DataError, match="items vocabulary"):
            run_evaluate(result.checkpoint_path, split="val")

    def test_unchanged_file_accepted(self, tmp_path):
        data = tmp_path / "d.tsv"
        _write_interactions(data)
        result = run_train(_cfg(data, epochs=1), out_dir=str(tmp_path / "run"))
        assert run_evaluate(result.checkpoint_path, split="val").values == \
            result.epoch_metrics[-1].values


class TestCliTypedErrors:
    def test_too_many_negatives(self, tmp_path, capsys):
        ckpt = TestCli()._train(tmp_path)
        rc = main(["evaluate", "--checkpoint", str(ckpt), "--n-negatives", "50"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "non-positive items, need 50" in err

    def test_cf_config_with_lists_format(self, tmp_path, capsys):
        data = tmp_path / "lists.txt"
        _write_lists(data)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"task": "cf", "data": {"path": str(data), "format": "lists"},
                                        "model": {"seed": 0}}))
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
        assert "error: " in capsys.readouterr().err

    def test_malformed_data_file(self, tmp_path, capsys):
        data = tmp_path / "d.tsv"
        data.write_text("u0\ti0\t7\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_cfg(data).to_dict()))
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_bad_checkpoint(self, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint at all")
        assert main(["evaluate", "--checkpoint", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def _write_small_catalogue(path):
    """6 users x 6 items, each user positive on 4: only 2 non-positive items per user."""
    path.write_text("".join(f"u{u}\ti{(u + t) % 6}\t1\t{t}\n" for u in range(6) for t in range(4)))


class TestEvalNegativesCheckedBeforeTraining:
    @pytest.mark.parametrize("task, step", [("cf", "cf_bpr_step"), ("ctr", "ctr_step")])
    def test_fails_before_any_step(self, tmp_path, monkeypatch, task, step):
        data = tmp_path / "d.tsv"
        _write_small_catalogue(data)
        steps = []
        monkeypatch.setattr(f"treequant.train.{step}", lambda *args: steps.append(args))
        with pytest.raises(DataError, match="positive on 4 of 6 items; evaluation needs 10"):
            run_train(_cfg(data, task=task, epochs=1), out_dir=str(tmp_path / "run"))
        assert steps == []
        assert not (tmp_path / "run" / "model.ckpt").exists()

    def test_cli_exits_with_code_2(self, tmp_path, capsys):
        data = tmp_path / "d.tsv"
        _write_small_catalogue(data)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_cfg(data, epochs=1).to_dict()))
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith("error: user index 0 is positive on 4 of 6 items")
        assert not (tmp_path / "run" / "model.ckpt").exists()

    def test_enough_negatives_trains(self, tmp_path):
        data = tmp_path / "d.tsv"
        _write_small_catalogue(data)
        cfg = _cfg(data, epochs=1)
        cfg.eval.n_negatives = 2
        assert run_train(cfg).epoch_metrics[-1].count == 6


class TestCliIncompleteCheckpoint:
    def test_evaluate_reports_missing_epoch(self, tmp_path, capsys):
        ckpt = TestCli()._train(tmp_path)
        _rewrite_meta(ckpt, lambda meta: meta.pop("epoch"))
        assert main(["evaluate", "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "epoch" in err
