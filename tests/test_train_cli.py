import copy
import ctypes
import json
import random
import re
import resource
import shutil
import signal
import struct
from pathlib import Path

import numpy as np
import pytest

from treequant.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from treequant.cli import main
from treequant.config import config_from_dict
from treequant import train
from treequant.models import seq_step
from treequant.errors import ConfigError, DataError, DivergenceError
from treequant.train import _bpr_negatives, model_from_checkpoint, run_evaluate, run_train
from treequant.rng import SeededRng

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
        lines = Path(result.log_path).read_text().splitlines()
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

    # the label field is empty (False), 0 or 1 at random (True), or 1 on every row ("ones")
    @pytest.mark.parametrize("labels", [False, True, "ones"])
    def test_ctr_epoch_examples(self, tmp_path, monkeypatch, labels):
        """Each ctr epoch steps over the positives plus the file's label-0 rows, or else one sampled negative each."""
        rows, draws = [], []
        real_step, real_stream = train.ctr_step, SeededRng.stream

        def recording_step(model, users, items, y):
            rows.extend(zip(users.tolist(), items.tolist(), y.tolist()))
            return real_step(model, users, items, y)

        class Watched:  # forwards to the generator and records every use of it
            def __init__(self, gen):
                self._gen = gen

            def __getattr__(self, name):
                draws.append(name)
                return getattr(self._gen, name)

        def stream(rng, name):
            gen = real_stream(rng, name)
            return Watched(gen) if name == "negative-sampling" else gen

        monkeypatch.setattr(train, "ctr_step", recording_step)
        monkeypatch.setattr(SeededRng, "stream", stream)
        data = tmp_path / "d.tsv"
        labelled = labels is True
        _write_interactions(data, labels=labelled)
        if labels is False:  # an empty label field: every row is an implicit positive
            data.write_text(data.read_text().replace("\t1\t", "\t\t"))
        ds = run_train(_cfg(data, task="ctr", epochs=2), out_dir=None).dataset
        positives = sorted((u, i, 1) for u, i, lbl in ds.train if lbl in (None, 1))
        n = len(positives) + (sum(lbl == 0 for *_, lbl in ds.train) if labelled else len(positives))
        assert len(rows) == 2 * n
        for epoch in (rows[:n], rows[n:]):
            assert sorted(r for r in epoch if r[2] == 1) == positives
            negatives = sorted(r for r in epoch if r[2] == 0)
            if labelled:
                assert negatives == sorted((u, i, 0) for u, i, lbl in ds.train if lbl == 0)
            else:
                assert sorted(u for u, _, _ in negatives) == sorted(u for u, _, _ in positives)
                assert all(i not in ds.positives_by_user[u] for u, i, _ in negatives)
        assert (draws == []) == labelled

    def test_list_completion_task_trains(self, tmp_path):
        data = tmp_path / "lists.txt"
        _write_lists(data)
        result = run_train(_cfg(data, task="list-completion", epochs=1), out_dir=None)
        assert result.step_losses
        assert result.epoch_metrics


class TestStreamedLog:
    def _diverge_in_epoch_2(self, monkeypatch):
        """Make every step after the first finished epoch report a NaN loss."""
        finished = []
        finish_epoch, step = train._finish_epoch, train.cf_bpr_step

        def counting_finish(*args, **kwargs):
            finish_epoch(*args, **kwargs)
            finished.append(True)

        def nan_after_epoch_1(*args, **kwargs):
            loss = step(*args, **kwargs)
            return {**loss, "l_total": float("nan")} if finished else loss

        monkeypatch.setattr(train, "_finish_epoch", counting_finish)
        monkeypatch.setattr(train, "cf_bpr_step", nan_after_epoch_1)

    def test_divergence_leaves_config_and_finished_epochs(self, tmp_path, monkeypatch):
        data = tmp_path / "d.tsv"
        _write_interactions(data)
        cfg = _cfg(data, epochs=3, seed=4)
        full = run_train(cfg, out_dir=str(tmp_path / "full"))
        full_lines = Path(full.log_path).read_text(encoding="utf-8").splitlines(keepends=True)

        self._diverge_in_epoch_2(monkeypatch)
        with pytest.raises(DivergenceError, match="epoch 2"):
            run_train(cfg, out_dir=str(tmp_path / "diverged"))
        lines = (tmp_path / "diverged" / "train_log.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        assert [json.loads(l).get("epoch") for l in lines] == [None] + [1] * (len(lines) - 1)
        assert len(lines) > 2  # the train loss and the val metrics of epoch 1
        assert lines == full_lines[:len(lines)]
        assert json.loads(full_lines[len(lines)])["epoch"] == 2
        assert not (tmp_path / "diverged" / "model.ckpt").exists()

    def test_lines_reach_disk_when_the_epoch_finishes(self, tmp_path, monkeypatch):
        data = tmp_path / "d.tsv"
        _write_interactions(data)
        log_path = tmp_path / "run" / "train_log.jsonl"
        seen = []
        finish_epoch = train._finish_epoch

        def spying_finish(*args, **kwargs):
            finish_epoch(*args, **kwargs)
            seen.append(len(log_path.read_text(encoding="utf-8").splitlines()))

        monkeypatch.setattr(train, "_finish_epoch", spying_finish)
        result = run_train(_cfg(data, epochs=2), out_dir=str(tmp_path / "run"))
        total = len(Path(result.log_path).read_text(encoding="utf-8").splitlines())
        per_epoch = (total - 1) // 2
        assert seen == [1 + per_epoch, 1 + 2 * per_epoch]


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
        lines += ["", "unknown_item\tcat0"]  # a blank line is skipped without a count
        labels.write_text("\n".join(lines) + "\n")
        assert main(["inspect-codes", "--checkpoint", str(ckpt), "--labels", str(labels)]) == 0
        out = capsys.readouterr().out
        assert "categories" in out
        assert "skipped 1" in out
        labels.write_text(f"{vocab[0]}\tcat0\n{vocab[1]}\tcat1\textra\n")
        assert main(["inspect-codes", "--checkpoint", str(ckpt), "--labels", str(labels)]) == 2
        assert capsys.readouterr().err == f"error: {labels}: line 2: expected 'id<TAB>category'\n"

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "nope.json")]) == 2

    def test_list_completion_round_trip(self, tmp_path, capsys):
        ckpt = self._train(tmp_path, task="list-completion")
        assert main(["evaluate", "--checkpoint", str(ckpt), "--split", "val"]) == 0
        assert "hr@5" in capsys.readouterr().out


class TestTaskFormatPairs:
    @pytest.mark.parametrize("task, fmt", [("cf", "lists"), ("ctr", "lists"),
                                           ("list-completion", "movielens-100k"),
                                           ("list-completion", "generic-tsv")])
    def test_mismatched_pair_rejected(self, task, fmt):
        with pytest.raises(ConfigError, match="data.format"):
            config_from_dict({"task": task, "data": {"path": "x", "format": fmt},
                              "model": {"seed": 0}})

    def test_stored_list_checkpoint_with_default_format(self, tmp_path, capsys):
        ckpt = TestCli()._train(tmp_path, task="list-completion")
        _rewrite_meta(ckpt, lambda meta: meta["config"]["data"].update(format="generic-tsv"))
        assert main(["evaluate", "--checkpoint", str(ckpt)]) == 2
        assert capsys.readouterr().err.startswith('error: list-completion reads item lists; '
                                                  'set data.format to "lists"')


class _CountingGen:
    """Stands in for a numpy Generator; fails the test instead of looping forever."""

    def __init__(self, limit=1000):
        self.draws = 0
        self.limit = limit

    def integers(self, low, high, size=None):
        self.draws += 1 if size is None else size
        assert self.draws <= self.limit, "negative sampling does not terminate"
        return np.int64(high - 1) if size is None else np.full(size, high - 1, dtype=np.int64)


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


def scalar_bpr_negatives(users, positives_by_user, n_items, gen):
    """One scalar draw per attempt, row by row: the loop bulk sampling must reproduce."""
    out = np.empty(users.shape[0], dtype=np.int64)
    for row, user in enumerate(users):
        pos = positives_by_user.get(int(user), set())
        if len(pos) >= n_items:
            raise DataError(f"user index {int(user)} is positive on all {n_items} items; "
                            "no negative item can be sampled")
        while True:
            cand = int(gen.integers(0, n_items))
            if cand not in pos:
                out[row] = cand
                break
    return out


def _bpr_cases(seed):
    """(users, positives_by_user, n_items) cases drawn from one seed."""
    gen = np.random.default_rng(20_000 + seed)
    heavy = {u: set(gen.choice(40, size=int(gen.integers(30, 40)), replace=False).tolist())
             for u in range(6)}
    sparse = {u: set(gen.choice(3000, size=30, replace=False).tolist()) for u in range(50)}
    return [
        (np.array([3]), heavy, 40),                                   # one row
        (gen.integers(0, 6, size=300), heavy, 40),                    # heavy positive sets
        (gen.integers(0, 4, size=200), {0: {0}, 1: {1}, 2: set()}, 2),  # tiny catalogue; user 3 has none
        (gen.integers(0, 50, size=1000), sparse, 3000),
        (gen.integers(0, 3, size=100), {0: {0, 2**32}, 1: {5}}, 2**32 + 3),  # n_items > 2**32
        (np.array([], dtype=np.int64), heavy, 40),
    ]


class TestBulkBprNegativesOracle:
    """_bpr_negatives draws in bulk; the values and the generator state stay those of the scalar loop."""

    @pytest.mark.parametrize("seed", range(40))
    def test_each_case_matches_scalar_loop(self, seed):
        for users, positives, n_items in _bpr_cases(seed):
            got_gen, want_gen = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _bpr_negatives(users, positives, n_items, got_gen)
            want = scalar_bpr_negatives(users, positives, n_items, want_gen)
            assert got.dtype == np.int64 and got.tolist() == want.tolist(), n_items
            assert got_gen.bit_generator.state == want_gen.bit_generator.state, n_items

    @pytest.mark.parametrize("seed", range(20))
    def test_consecutive_calls_share_one_generator(self, seed):
        got_gen, want_gen = np.random.default_rng(seed), np.random.default_rng(seed)
        for case, (users, positives, n_items) in enumerate(_bpr_cases(seed) * 2):
            got = _bpr_negatives(users, positives, n_items, got_gen)
            want = scalar_bpr_negatives(users, positives, n_items, want_gen)
            assert got.tolist() == want.tolist()
            if case % 2 == 0:  # the shuffle and other consumers may share a generator
                assert got_gen.permutation(5).tolist() == want_gen.permutation(5).tolist()
        assert got_gen.bit_generator.state == want_gen.bit_generator.state

    @pytest.mark.parametrize("seed", range(10))
    def test_saturated_user_raises_after_the_same_draws(self, seed):
        positives = {0: {0, 1}, 1: {0, 1, 2, 3}, 2: set()}
        users = np.random.default_rng(seed).integers(0, 3, size=50)
        users[30] = 1
        got_gen, want_gen = np.random.default_rng(seed), np.random.default_rng(seed)
        with pytest.raises(DataError) as got:
            _bpr_negatives(users, positives, 4, got_gen)
        with pytest.raises(DataError) as want:
            scalar_bpr_negatives(users, positives, 4, want_gen)
        assert str(got.value) == str(want.value)
        assert got_gen.bit_generator.state == want_gen.bit_generator.state


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

    def test_checkpoint_without_vocab_is_not_checked(self, tmp_path, capsys):
        ckpt = TestCli()._train(tmp_path)
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", str(ckpt)]) == 0
        with_vocab = capsys.readouterr().out
        _rewrite_meta(ckpt, lambda meta: meta.pop("vocab"))
        assert main(["evaluate", "--checkpoint", str(ckpt)]) == 0
        assert capsys.readouterr().out == with_vocab


_MALFORMED_VOCABS = [[1, 2], "items", {"items": 5}, {"items": [1, 2]}, {"users": [], "labels": []}]


class TestMalformedVocab:
    @pytest.fixture
    def ckpt(self, tmp_path):
        return TestCli()._train(tmp_path)

    @pytest.mark.parametrize("vocab", _MALFORMED_VOCABS)
    def test_evaluate_is_typed_error(self, ckpt, vocab, capsys):
        _rewrite_meta(ckpt, lambda meta: meta.update(vocab=vocab))
        assert main(["evaluate", "--checkpoint", str(ckpt), "--split", "val"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "vocab must map" in err

    @pytest.mark.parametrize("vocab", _MALFORMED_VOCABS)
    def test_inspect_codes_labels_is_typed_error(self, ckpt, vocab, tmp_path, capsys):
        _rewrite_meta(ckpt, lambda meta: meta.update(vocab=vocab))
        labels = tmp_path / "labels.tsv"
        labels.write_text("i1\tcat0\n")
        assert main(["inspect-codes", "--checkpoint", str(ckpt), "--labels", str(labels)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "vocab must map" in err


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


class TestNoTrainingPositives:
    """A cf or ctr training split without a positive is a typed error before any step."""

    @pytest.mark.parametrize("task, step", [("cf", "cf_bpr_step"), ("ctr", "ctr_step")])
    def test_cli_exits_with_code_2(self, tmp_path, capsys, monkeypatch, task, step):
        data = tmp_path / "d.tsv"
        data.write_text("".join(f"u{u}\ti{i}\t0\t{i}\n" for u in range(10) for i in range(6)))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_cfg(data, task=task, epochs=1).to_dict()))
        steps = []
        monkeypatch.setattr(f"treequant.train.{step}", lambda *args: steps.append(args))
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no positive interaction" in err
        assert steps == []
        assert not (tmp_path / "run" / "model.ckpt").exists()


class TestCliNestedCheckpointMetadata:
    @pytest.mark.parametrize("command", [["evaluate"], ["inspect-codes"],
                                         ["export-tree", "--json", "t.json", "--dot", "t.dot"]])
    def test_is_typed_error(self, tmp_path, capsys, command):
        meta = b"[" * 100_000  # nests past the recursion limit
        ckpt = tmp_path / "nested.ckpt"
        ckpt.write_bytes(MAGIC + struct.pack("<IQ", VERSION, len(meta)) + meta)
        assert main([command[0], "--checkpoint", str(ckpt), *command[1:]]) == 2
        assert capsys.readouterr().err.startswith(f"error: {ckpt}: bad metadata: ")


class TestCliDivergedScores:
    """Weights that overflow in the first step are a typed error, and no checkpoint is written.

    With a validation split, the epoch's evaluation finds non-finite scores.  With
    none, since every user has fewer than 3 positives, the check that ends training does.
    """

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("task, per_user, lr, error", [
        ("cf", 8, 3e38, "non-finite ranking score"),
        ("ctr", 8, 3e38, "non-finite ranking score"),
        # finite in float64, but inf once Adam casts it to float32
        ("cf", 2, 1e39, "non-finite parameters after training: user_table, item_table"),
    ], ids=["cf", "ctr", "cf-no-val-split"])
    def test_is_typed_error(self, tmp_path, capsys, task, per_user, lr, error):
        data = tmp_path / "d.tsv"
        _write_interactions(data, n_users=30, n_items=40, per_user=per_user)
        doc = _cfg(data, task=task, epochs=1, cage=False, lr=lr, batch_size=10000).to_dict()
        doc["eval"]["n_negatives"] = 5
        assert _train_exit(tmp_path, doc) == 2
        assert capsys.readouterr().err.startswith(f"error: {error}")
        assert not (tmp_path / "run" / "model.ckpt").exists()
        with pytest.raises(DivergenceError, match=error):  # also when the run writes nothing
            run_train(config_from_dict(doc))


class TestCliDamagedCheckpoint:
    """A payload that is not what the directory declares, or not finite, fails every command that loads it."""

    @pytest.mark.parametrize("damage, error", [
        ("trailing-bytes", r"payload size \d+ does not match directory \(\d+\)"),
        ("item_table", "tensor 'item_table' holds a non-finite value"),
        ("item_cage.codebook1", r"tensor 'item_cage\.codebook1' holds a non-finite value"),
    ], ids=["trailing-bytes", "nan-item_table", "nan-item_cage.codebook1"])
    @pytest.mark.parametrize("command", ["evaluate", "export-tree", "inspect-codes"])
    def test_is_typed_error(self, tmp_path, capsys, damage, error, command):
        ckpt = TestCli()._train(tmp_path)
        if damage == "trailing-bytes":
            ckpt.write_bytes(ckpt.read_bytes() + b"\0" * 4)
        else:
            stored = load_checkpoint(ckpt)
            stored.tensors[damage][0, 0] = np.nan
            save_checkpoint(ckpt, stored.config, stored.epoch, stored.seed_state, stored.tensors,
                            vocab=stored.vocab)
        capsys.readouterr()
        tree = ["--json", str(tmp_path / "t.json"), "--dot", str(tmp_path / "t.dot")]
        assert main([command, "--checkpoint", str(ckpt), *(tree if command == "export-tree" else [])]) == 2
        assert re.fullmatch(f"error: {re.escape(str(ckpt))}: {error}\n", capsys.readouterr().err)
        assert not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize("shape, kept", [([2 ** 62, 4], 0), ([2 ** 32, 2 ** 32], 0), ([0, 2 ** 70], 0),
                                             ([0, 2 ** 63], 0), ([-1, 2], 0), ([1] * 65, 1)],
                             ids=["2**62x4", "2**32x2**32", "0x2**70", "0x2**63", "negative", "65-dims"])
    def test_invalid_shape_is_typed_error(self, tmp_path, capsys, shape, kept):
        """The last tensor's shape replaced and the payload cut kept floats past its offset: no byte count
        wraps or overflows, and no shape reaches numpy that it cannot describe."""
        ckpt = TestCli()._train(tmp_path)
        blob = ckpt.read_bytes()
        (meta_len,) = struct.unpack_from("<Q", blob, 12)
        meta = json.loads(blob[20:20 + meta_len].decode("utf-8"))
        last = max(meta["tensors"], key=lambda entry: entry["offset"])
        last["shape"] = shape
        new_meta = json.dumps(meta, sort_keys=True).encode("utf-8")
        ckpt.write_bytes(blob[:12] + struct.pack("<Q", len(new_meta)) + new_meta
                         + blob[20 + meta_len:20 + meta_len + last["offset"] + 4 * kept])
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", str(ckpt)]) == 2
        assert capsys.readouterr().err == f"error: {ckpt}: tensor '{last['name']}' has an invalid shape {shape}\n"


class TestCliEmptySplit:
    """With every user under 3 positives, leave-one-out holds nothing out: training runs, evaluation cannot."""

    def test_evaluate_is_typed_error(self, tmp_path, capsys):
        data = tmp_path / "d.tsv"
        _write_interactions(data, per_user=2)
        assert _train_exit(tmp_path, _cfg(data, epochs=1).to_dict()) == 0
        ckpt = str(tmp_path / "run" / "model.ckpt")
        for split, argv in (("val", ["--split", "val"]), ("test", [])):
            assert main(["evaluate", "--checkpoint", ckpt, *argv]) == 2
            assert capsys.readouterr().err == f"error: {split} split is empty\n"


class TestCliIncompleteCheckpoint:
    def test_evaluate_reports_missing_epoch(self, tmp_path, capsys):
        ckpt = TestCli()._train(tmp_path)
        _rewrite_meta(ckpt, lambda meta: meta.pop("epoch"))
        assert main(["evaluate", "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "epoch" in err


class TestCliNegativeSeed:
    def test_eval_seed_override(self, tmp_path, capsys):
        ckpt = TestCli()._train(tmp_path)
        assert main(["evaluate", "--checkpoint", str(ckpt), "--eval-seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "eval.seed must be >= 0" in err

    @pytest.mark.parametrize("section", ["model", "eval"])
    def test_stored_seed(self, tmp_path, capsys, section):
        ckpt = TestCli()._train(tmp_path)
        _rewrite_meta(ckpt, lambda meta: meta["config"][section].update(seed=-1))
        assert main(["evaluate", "--checkpoint", str(ckpt)]) == 2
        assert capsys.readouterr().err.startswith("error: model.seed and eval.seed must be >= 0")


class TestCliMissingTable:
    # mlp.layer0.bias is checked only when the built model's tensors are filled in
    @pytest.mark.parametrize("task, table", [("cf", "user_table"), ("cf", "item_table"),
                                             ("list-completion", "item_table"), ("ctr", "mlp.layer0.bias")])
    def test_evaluate_names_the_table(self, tmp_path, capsys, task, table):
        ckpt = TestCli()._train(tmp_path, task=task)

        def rename(meta):
            next(t for t in meta["tensors"] if t["name"] == table)["name"] = "renamed"
        _rewrite_meta(ckpt, rename)
        assert main(["evaluate", "--checkpoint", str(ckpt)]) == 2
        assert capsys.readouterr().err == f"error: checkpoint is missing tensor '{table}'\n"

    def test_evaluate_names_a_reshaped_tensor(self, tmp_path, capsys):
        ckpt = TestCli()._train(tmp_path, task="ctr")

        def reshape(meta):  # the same 8 floats as a (1, 8) row
            next(t for t in meta["tensors"] if t["name"] == "mlp.layer0.bias")["shape"] = [1, 8]
        _rewrite_meta(ckpt, reshape)
        assert main(["evaluate", "--checkpoint", str(ckpt)]) == 2
        assert capsys.readouterr().err == ("error: tensor 'mlp.layer0.bias' has shape (1, 8), "
                                           "model expects (8,)\n")

    def test_evaluate_names_an_extra_tensor(self, tmp_path, capsys):
        ckpt = TestCli()._train(tmp_path)
        stored = load_checkpoint(ckpt)
        tensors = {**stored.tensors, "extra": np.zeros(3, dtype=np.float32)}
        save_checkpoint(ckpt, stored.config, stored.epoch, stored.seed_state, tensors, vocab=stored.vocab)
        assert main(["evaluate", "--checkpoint", str(ckpt)]) == 2
        assert capsys.readouterr().err == "error: checkpoint has unexpected tensor(s): ['extra']\n"


class TestCliQuantizerSide:
    """export-tree and inspect-codes on a cf checkpoint with a quantizer on each side."""

    @pytest.fixture
    def ckpt(self, tmp_path):
        data = tmp_path / "d.tsv"
        _write_interactions(data)
        cfg = _cfg(data, epochs=1)
        cfg.cage.user_enabled = True
        return run_train(cfg, out_dir=str(tmp_path / "run")).checkpoint_path

    @pytest.mark.parametrize("side", [None, "item", "user"])
    def test_export_tree(self, ckpt, tmp_path, capsys, side):
        jp, dp = tmp_path / "tree.json", tmp_path / "tree.dot"
        argv = ["export-tree", "--checkpoint", ckpt, "--json", str(jp), "--dot", str(dp)]
        assert main(argv + (["--side", side] if side else [])) == 0
        side = side or "item"
        stored = load_checkpoint(ckpt)
        doc = json.loads(jp.read_text())
        assert len(doc["paths"]) == len(stored.vocab[f"{side}s"])
        assert doc["codes"][0] == stored.tensors[f"{side}_cage.codebook1"].tolist()
        assert capsys.readouterr().out.startswith(f"exported {side} tree: ")

    @pytest.mark.parametrize("side, n_categories", [(None, 0), ("item", 0), ("user", 3)])
    def test_inspect_codes_reads_the_side_labels(self, ckpt, tmp_path, capsys, side, n_categories):
        users = load_checkpoint(ckpt).vocab["users"]
        labels = tmp_path / "labels.tsv"
        labels.write_text("".join(f"{raw}\tcat{row % 3}\n" for row, raw in enumerate(users)))
        argv = ["inspect-codes", "--checkpoint", ckpt, "--labels", str(labels)]
        assert main(argv + (["--side", side] if side else [])) == 0
        out = capsys.readouterr().out
        assert (f"skipped {len(users)} label(s)" in out) == (n_categories == 0)
        assert f"\n{n_categories} categories: " in out

    @pytest.mark.parametrize("command", [["inspect-codes"], ["export-tree", "--json", "t.json", "--dot", "t.dot"]])
    def test_side_without_quantizer(self, tmp_path, capsys, command):
        ckpt = TestCli()._train(tmp_path)  # item-side quantizer only
        argv = [command[0], "--checkpoint", str(ckpt), *command[1:], "--side", "user"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: checkpoint has no user-side quantizer\n"


class TestCliCheckpointSizes:
    """Sizes in a checkpoint's config are checked against its tensors before anything is allocated."""

    @pytest.mark.parametrize("task, section, field, tensor", [
        ("cf", "model", "dim", "user_table"),
        ("cf", "cage", "levels", "item_cage.codebook1"),
        ("ctr", "model", "hidden", "mlp.layer0.weight"),
    ])
    def test_huge_size_is_typed_error(self, tmp_path, capsys, task, section, field, tensor):
        ckpt = TestCli()._train(tmp_path, task=task)

        def enlarge(meta):
            conf = meta["config"][section]
            conf[field] = 2 ** 40 if field == "dim" else [2 ** 40, *conf[field][1:]]
        _rewrite_meta(ckpt, enlarge)
        assert main(["evaluate", "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: tensor '{tensor}' has shape ") and "1099511627776" in err


def test_inspect_codes_non_utf8_labels(tmp_path, capsys):
    ckpt = TestCli()._train(tmp_path)
    labels = tmp_path / "labels.tsv"
    labels.write_bytes(b"i1\tcat0\ni2\tcat\xe91\n")
    assert main(["inspect-codes", "--checkpoint", str(ckpt), "--labels", str(labels)]) == 2
    assert capsys.readouterr().err == f"error: {labels}: line 2: not valid UTF-8\n"


class TestCliPathErrors:
    """A path that cannot be used is a typed error with exit code 2, never a traceback."""

    @pytest.mark.parametrize("path", [1, -1, 0, None, "", ["d.tsv"]])
    def test_non_string_data_path(self, tmp_path, capsys, path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"task": "cf", "data": {"path": path}, "model": {"seed": 0}}))
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith("error: data.path must be a non-empty string")

    def test_directory_as_config(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path), "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_directory_as_data_path(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_cfg(tmp_path).to_dict()))
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", [["evaluate"], ["export-tree", "--json", "t.json", "--dot", "t.dot"]])
    def test_directory_as_checkpoint(self, tmp_path, capsys, command):
        argv = [command[0], "--checkpoint", str(tmp_path), *command[1:]]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_directory_as_labels(self, tmp_path, capsys):
        ckpt = TestCli()._train(tmp_path)
        capsys.readouterr()
        assert main(["inspect-codes", "--checkpoint", str(ckpt), "--labels", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class _Libc:
    """Stands in for ctypes.CDLL(None): records mallopt calls, or has no mallopt."""

    def __init__(self, has_mallopt):
        self.calls = []
        if has_mallopt:
            self.mallopt = lambda param, value: self.calls.append((param, value))


class TestAllocatorPolicy:
    @pytest.fixture
    def fresh_policy(self):
        train._keep_freed_heap.cache_clear()
        yield
        train._keep_freed_heap.cache_clear()  # the next run_train sets the real policy

    def test_mallopt_called_once_per_process(self, monkeypatch, fresh_policy):
        libc = _Libc(has_mallopt=True)
        monkeypatch.setattr(train.ctypes, "CDLL", lambda name: libc)
        train._keep_freed_heap()
        train._keep_freed_heap()
        assert libc.calls == [(-3, 8 << 20), (-1, 32 << 20)]

    def test_no_op_without_mallopt(self, monkeypatch, fresh_policy):
        libc = _Libc(has_mallopt=False)
        monkeypatch.setattr(train.ctypes, "CDLL", lambda name: libc)
        train._keep_freed_heap()
        assert libc.calls == []

    @pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="needs glibc's mallopt")
    def test_training_steps_stop_faulting_in_their_temporaries(self, tmp_path):
        """With the default glibc policy, each of these steps takes about 2,000 minor faults."""
        data = tmp_path / "lists.txt"
        _write_lists(data, n_lists=200, n_items=360)
        cfg = _cfg(data, task="list-completion", epochs=1)
        cfg.cage.levels, cfg.model.dim, cfg.model.batch_size = [256, 32, 8], 64, 256
        model = run_train(cfg).model
        gen = np.random.default_rng(0)
        prefixes = [gen.integers(0, model.n_items, size=8) for _ in range(256)]  # 2,048 prefix rows
        targets = gen.integers(0, model.n_items, size=256)
        seq_step(model, prefixes, targets)  # the first step may still grow the heap
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(20):
            seq_step(model, prefixes, targets)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 2000


def _train_exit(tmp_path, doc) -> int:
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    return main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")])


_DROP = object()  # a value that removes its key from the config document


class TestCliConfigRanges:
    @pytest.mark.parametrize("task, section, values, rule", [(*case, "") for case in [
        ("list-completion", "data", {"min_freq": 0}),
        ("cf", "data", {"min_freq": 0}),
        ("list-completion", "data", {"max_len": 1}),
        ("list-completion", "data", {"min_len": 30, "max_len": 20}),
        ("ctr", "model", {"hidden": [-3]}),
        ("ctr", "model", {"hidden": [0]}),
        ("list-completion", "model", {"hidden": [8, 0]}),
        ("cf", "model", {"dim": "x"}),
        ("cf", "model", {"dim": True}),
        ("cf", "model", {"dim": 1.5}),
        ("cf", "cage", {"alpha": "1"}),
        ("cf", "", {"model": 5}),
        ("cf", "", {"model": []}),
        ("cf", "", {"cage": None}),
        ("cf", "cage", {"item_enabled": "yes"}),
        ("cf", "model", {"epochs": True}),
        ("cf", "model", {"seed": True}),
        ("cf", "eval", {"seed": 1.5}),
        ("cf", "cage", {"levels": [8.7, 4]}),
        ("cf", "model", {"batch_size": 2.5}),
        ("ctr", "model", {"hidden": 5}),
        ("cf", "eval", {"n_negatives": 2.0}),
        ("list-completion", "data", {"min_freq": "a"}),
    ]] + [  # the rules across fields and sections, each named by its error
        ("cf", "cage", {"item_enabled": True, "levels": []}, "cage.levels is required when a quantizer is enabled"),
        ("cf", "eval", {"ks": []}, "eval.ks must not be empty"),
        ("list-completion", "cage", {"user_enabled": True}, "list-completion uses an item-side quantizer only"),
        ("cf", "", {"model": _DROP}, "missing required key(s): ['model']"),
        ("list-completion", "data", {"min_freq": 1000}, "preprocessing removed every list"),
    ], ids=["lists-min_freq-0", "cf-min_freq-0", "max_len-1", "max_len-below-min_len", "hidden-negative",
            "hidden-0", "lists-hidden-0", "dim-string", "dim-bool", "dim-float", "alpha-string",
            "model-number", "model-list", "cage-null", "item_enabled-string", "epochs-bool", "seed-bool",
            "eval-seed-float", "levels-float", "batch_size-float", "hidden-number", "n_negatives-float",
            "min_freq-string", "levels-empty-with-quantizer", "ks-empty", "lists-user-quantizer", "no-model",
            "min_freq-empties-every-list"])
    def test_out_of_range_is_typed_error(self, tmp_path, capsys, task, section, values, rule):
        data = tmp_path / "data.txt"
        if task == "list-completion":
            _write_lists(data)
        else:
            _write_interactions(data)
        doc = _cfg(data, task=task, epochs=1).to_dict()
        (doc[section] if section else doc).update(values)  # section "" replaces whole sections
        doc = {key: value for key, value in doc.items() if value is not _DROP}
        assert _train_exit(tmp_path, doc) == 2
        assert capsys.readouterr().err.startswith(f"error: {rule}")
        assert not (tmp_path / "run").exists()

    def test_max_len_at_its_floor_trains(self, tmp_path):
        data = tmp_path / "lists.txt"
        _write_lists(data)
        cfg = _cfg(data, task="list-completion", epochs=1)
        cfg.data.min_len, cfg.data.max_len = 0, 2
        assert run_train(cfg).epoch_metrics


def _min_rankable(ds) -> int:
    return min(len(ds.item_vocab) - len(set(prefix)) for prefix, _ in ds.val_pairs)


class TestListEvalKsCheckedBeforeTraining:
    def _data(self, tmp_path):
        data = tmp_path / "lists.txt"
        _write_lists(data, n_lists=60, n_items=15)
        return data

    def test_fails_before_any_step(self, tmp_path, monkeypatch):
        cfg = _cfg(self._data(tmp_path), task="list-completion", epochs=1)
        cfg.eval.ks = [100]
        steps = []
        monkeypatch.setattr("treequant.train.seq_step", lambda *args: steps.append(args))
        with pytest.raises(DataError, match=r"val list \d+: only \d+ of \d+ items .* eval.ks needs 100"):
            run_train(cfg, out_dir=str(tmp_path / "run"))
        assert steps == []
        assert not (tmp_path / "run" / "model.ckpt").exists()

    def test_cli_exits_with_code_2(self, tmp_path, capsys):
        doc = _cfg(self._data(tmp_path), task="list-completion", epochs=1).to_dict()
        doc["eval"]["ks"] = [5, 100]
        assert _train_exit(tmp_path, doc) == 2
        assert capsys.readouterr().err.startswith("error: val list ")

    def test_largest_rankable_k_trains(self, tmp_path):
        cfg = _cfg(self._data(tmp_path), task="list-completion", epochs=1)
        cfg.eval.ks = [_min_rankable(train.prepare_lists(cfg, SeededRng(cfg.model.seed)))]
        assert run_train(cfg).epoch_metrics[-1].count > 0
        cfg.eval.ks = [cfg.eval.ks[0] + 1]
        with pytest.raises(DataError, match="eval.ks needs"):
            run_train(cfg)

    @pytest.mark.parametrize("split", ["val", "test"])
    def test_evaluate_checks_its_split(self, tmp_path, split):
        ckpt = TestCli()._train(tmp_path, task="list-completion")
        with pytest.raises(DataError, match=f"^{split} list "):
            run_evaluate(ckpt, split=split, overrides={"ks": [100]})


class TestCliStoredConfigTypes:
    """A checkpoint's stored config passes the same checks as a config file."""

    @pytest.mark.parametrize("edit", [
        lambda meta: meta.update(config=5),
        lambda meta: meta.update(config=[{}]),
        lambda meta: meta["config"]["model"].update(dim="8"),
        lambda meta: meta["config"]["cage"].update(levels=[4.0, 2]),
    ], ids=["config-number", "config-list", "dim-string", "levels-float"])
    @pytest.mark.parametrize("command", ["evaluate", "export-tree"])
    def test_is_typed_error(self, tmp_path, capsys, edit, command):
        ckpt = TestCli()._train(tmp_path)
        _rewrite_meta(ckpt, edit)
        capsys.readouterr()
        tree = ["--json", str(tmp_path / "t.json"), "--dot", str(tmp_path / "t.dot")]
        assert main([command, "--checkpoint", str(ckpt), *(tree if command == "export-tree" else [])]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "t.json").exists()


class TestCliConfigFile:
    def test_not_utf8(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(b'{"task": "cf\xff"}')
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg_path}: invalid JSON: ")

    def test_nested_past_the_recursion_limit(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("[" * 100_000)
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg_path}: invalid JSON: ")

    # 2**44 rows or columns of a 20 x 8 model need over 2**50 bytes, more than any 47-bit address
    # space holds, so numpy's allocation fails at once whatever the machine's overcommit policy
    @pytest.mark.parametrize("task, section, field", [("cf", "model", "dim"), ("cf", "cage", "levels"),
                                                      ("ctr", "model", "hidden")])
    def test_unallocatable_size(self, tmp_path, capsys, task, section, field):
        data = tmp_path / "d.tsv"
        _write_interactions(data)
        doc = _cfg(data, task=task, epochs=1).to_dict()
        doc[section][field] = 2 ** 44 if field == "dim" else [2 ** 44, *doc[section][field][1:]]
        assert _train_exit(tmp_path, doc) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "run").exists()

    # sizes numpy cannot even describe as an array shape: it raises ValueError, not MemoryError
    @pytest.mark.parametrize("task, section, field, value", [
        ("cf", "model", "dim", 2 ** 62), ("cf", "model", "dim", 10 ** 400),
        ("cf", "cage", "levels", [2 ** 64, 4]), ("ctr", "model", "hidden", [2 ** 64])])
    def test_size_past_numpy_limits(self, tmp_path, capsys, task, section, field, value):
        data = tmp_path / "d.tsv"
        _write_interactions(data)
        doc = _cfg(data, task=task, epochs=1).to_dict()
        doc[section][field] = value
        assert _train_exit(tmp_path, doc) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "run").exists()


_FUZZ_POOL = [None, True, False, 0, 1, -1, 1.5, float("nan"), float("inf"), "x", "",
              [], [2], [4, 2], [2, 4], [1.5], ["x"], [[1]], [-1], {}, 2 ** 40]


class _Hang(Exception):
    pass


class TestCliConfigFuzz:
    """Seeded config mutations through train, and through evaluate as a checkpoint's stored config.

    Each case must exit 0 or 2; a traceback or a hang fails the test.
    """

    def _raise_hang(self, signum, frame):
        raise _Hang()

    def _mutate(self, doc: dict, gen: random.Random) -> dict:
        doc = copy.deepcopy(doc)
        if gen.random() < 0.2:
            doc[gen.choice(["data", "cage", "model", "eval"])] = gen.choice(_FUZZ_POOL)
            return doc
        fields = [("", "task")] + [(name, key) for name, section in doc.items() if isinstance(section, dict)
                                   for key in section]
        for name, key in gen.sample(fields, gen.randint(1, 2)):
            value = gen.choice(_FUZZ_POOL)
            if key == "epochs" and value == 2 ** 40:
                value = 2  # a long valid run is not a defect
            (doc[name] if name else doc)[key] = value
        return doc

    def test_exit_code_is_0_or_2(self, tmp_path):
        # 20 items per data set: a 20 x 2**40 float64 table is past any 47-bit address space,
        # so a dim of 2**40 fails to allocate at once whatever the machine's overcommit policy
        bases = {}
        for task in ("cf", "ctr", "list-completion"):
            data = tmp_path / f"{task}.data"
            if task == "list-completion":
                _write_lists(data, n_items=20)
            else:
                _write_interactions(data)
            cfg = _cfg(data, task=task, epochs=1)
            bases[task] = (cfg.to_dict(), run_train(cfg, out_dir=str(tmp_path / task)).checkpoint_path)
        gen = random.Random(1018)
        cfg_path, ckpt = tmp_path / "cfg.json", tmp_path / "case.ckpt"
        previous = signal.signal(signal.SIGALRM, self._raise_hang)
        try:
            for case in range(200):
                doc, base_ckpt = bases[gen.choice(sorted(bases))]
                doc = self._mutate(doc, gen)
                cfg_path.write_text(json.dumps(doc))
                shutil.copyfile(base_ckpt, ckpt)
                _rewrite_meta(ckpt, lambda meta: meta.update(config=doc))
                for argv in (["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")],
                             ["evaluate", "--checkpoint", str(ckpt)]):
                    signal.alarm(10)
                    try:
                        code = main(argv)
                    except Exception as exc:
                        pytest.fail(f"case {case}: {argv[0]} on {doc!r} raised {exc!r}")
                    finally:
                        signal.alarm(0)
                    assert code in (0, 2), f"case {case}: {argv[0]} on {doc!r} returned {code}"
        finally:
            signal.signal(signal.SIGALRM, previous)
