import copy
import ctypes
import json
import math
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
from treequant.quantizer import label_nmi, quantize_batch
from treequant.errors import ConfigError, DataError, DivergenceError
from treequant.data import sample_negatives
from treequant.train import model_from_checkpoint, run_evaluate, run_train
from treequant.rng import SeededRng

from oracles import CountingGen, rewrite_checkpoint


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
        with pytest.raises(ConfigError, match=re.escape("unknown key(s) in cage: ['fusion_mode']")):
            config_from_dict({
                "task": "cf",
                "data": {"path": "x"},
                "cage": {"fusion_mode": "average"},
                "model": {"seed": 0},
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

    def test_inspect_codes_refuses_a_repeated_label(self, tmp_path, capsys):
        # a raw id on two lines would count its entity twice in every level's NMI
        ckpt = self._train(tmp_path)
        vocab = load_checkpoint(ckpt).vocab["items"]
        labels = tmp_path / "labels.tsv"
        for first, repeat in [(f"{vocab[0]}\tcat0", f"{vocab[0]}\tcat1"), (f"{vocab[0]}\tcat0", f"{vocab[0]}\tcat0"),
                              ("unknown_item\tcat0", "unknown_item\tcat0")]:
            labels.write_text(f"{first}\n{vocab[1]}\tcat1\n\n{repeat}\n")
            assert main(["inspect-codes", "--checkpoint", str(ckpt), "--labels", str(labels)]) == 2
            raw = first.split("\t")[0]
            assert capsys.readouterr().err == f"error: {labels}: line 4: entity {raw!r} already labelled on line 1\n"

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
        rewrite_checkpoint(ckpt, lambda meta: meta["config"]["data"].update(format="generic-tsv"))
        assert main(["evaluate", "--checkpoint", str(ckpt)]) == 2
        assert capsys.readouterr().err.startswith('error: list-completion reads item lists; '
                                                  'set data.format to "lists"')


def _one_negative_per_row(users, positives_by_user, n_items, gen) -> list:
    """The training draw: one sample_negatives item per row of users, outside that user's positives."""
    return sample_negatives([positives_by_user.get(user, ()) for user in users.tolist()], 1, n_items, gen)


class TestBprNegatives:
    def test_user_positive_on_every_item_raises(self):
        gen = CountingGen()
        with pytest.raises(DataError, match=re.escape("row 1: only 0 non-positive items, need 1")):
            _one_negative_per_row(np.array([0, 1]), {0: {0}, 1: {0, 1, 2}}, 3, gen)
        assert gen.draws == 0

    def test_draws_unchanged_for_other_users(self):
        positives = {0: {1, 2}, 1: {0}}
        users = np.array([0, 1, 0, 1, 1])
        got = _one_negative_per_row(users, positives, 5, np.random.default_rng(4))
        ref_gen = np.random.default_rng(4)
        want = []
        for user in users:
            while True:
                cand = int(ref_gen.integers(0, 5))
                if cand not in positives[int(user)]:
                    want.append(cand)
                    break
        assert got == want

    def test_cf_run_on_saturated_file_fails_fast(self, tmp_path, capsys):
        data = tmp_path / "d.tsv"
        data.write_text("".join(f"u{u}\ti{i}\t1\t{i}\n" for u in range(3) for i in range(3)))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_cfg(data, epochs=1).to_dict()))
        rc = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "positive on all 3 items" in capsys.readouterr().err


    @pytest.mark.parametrize("task", ["cf", "ctr"])
    def test_saturated_training_user_is_named(self, tmp_path, capsys, task):
        # no user has 3 positives, so there is no validation split to check first
        data = tmp_path / "d.tsv"
        data.write_text("u0\ti0\t1\t1\nu0\ti1\t1\t2\nu1\ti0\t1\t1\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_cfg(data, task=task, epochs=1, cage=False).to_dict()))
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == ("error: user index 0 is positive on all 2 items; "
                                           "no negative item can be sampled\n")


def scalar_bpr_negatives(users, positives_by_user, n_items, gen):
    """One scalar draw per attempt, row by row: the loop bulk sampling must reproduce.

    A row whose user is positive on every item raises before anything is drawn.
    """
    pos_sets = [positives_by_user.get(int(user), set()) for user in users]
    for row, pos in enumerate(pos_sets):
        if len(pos) >= n_items:
            raise DataError(f"row {row}: only {n_items - len(pos)} non-positive items, need 1")
    out = np.empty(users.shape[0], dtype=np.int64)
    for row, pos in enumerate(pos_sets):
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
    """The training draw is bulk; the values and the generator state stay those of the scalar loop."""

    @pytest.mark.parametrize("seed", range(40))
    def test_each_case_matches_scalar_loop(self, seed):
        for users, positives, n_items in _bpr_cases(seed):
            got_gen, want_gen = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _one_negative_per_row(users, positives, n_items, got_gen)
            want = scalar_bpr_negatives(users, positives, n_items, want_gen)
            assert got == want.tolist(), n_items
            assert got_gen.bit_generator.state == want_gen.bit_generator.state, n_items

    @pytest.mark.parametrize("seed", range(20))
    def test_consecutive_calls_share_one_generator(self, seed):
        got_gen, want_gen = np.random.default_rng(seed), np.random.default_rng(seed)
        for case, (users, positives, n_items) in enumerate(_bpr_cases(seed) * 2):
            got = _one_negative_per_row(users, positives, n_items, got_gen)
            want = scalar_bpr_negatives(users, positives, n_items, want_gen)
            assert got == want.tolist()
            if case % 2 == 0:  # the shuffle and other consumers may share a generator
                assert got_gen.permutation(5).tolist() == want_gen.permutation(5).tolist()
        assert got_gen.bit_generator.state == want_gen.bit_generator.state

    @pytest.mark.parametrize("seed", range(10))
    def test_saturated_user_raises_after_the_same_draws(self, seed):
        positives = {0: {0, 1}, 1: {0, 1, 2, 3}, 2: set()}
        users = np.random.default_rng(seed).integers(0, 3, size=50)
        users[30] = 1
        got_gen, want_gen = np.random.default_rng(seed), np.random.default_rng(seed)
        before = got_gen.bit_generator.state
        with pytest.raises(DataError) as got:
            _one_negative_per_row(users, positives, 4, got_gen)
        with pytest.raises(DataError) as want:
            scalar_bpr_negatives(users, positives, 4, want_gen)
        assert str(got.value) == str(want.value) == f"row {users.tolist().index(1)}: only 0 non-positive items, need 1"
        assert got_gen.bit_generator.state == want_gen.bit_generator.state == before


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


_MALFORMED_VOCABS = [[1, 2], "items", {"items": 5}, {"items": [1, 2]}, {"users": [], "labels": []}]


class TestMalformedVocab:
    @pytest.fixture
    def ckpt(self, tmp_path):
        return TestCli()._train(tmp_path)

    @pytest.mark.parametrize("vocab", _MALFORMED_VOCABS)
    def test_evaluate_is_typed_error(self, ckpt, vocab, capsys):
        rewrite_checkpoint(ckpt, lambda meta: meta.update(vocab=vocab))
        assert main(["evaluate", "--checkpoint", str(ckpt), "--split", "val"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "vocab must map" in err

    @pytest.mark.parametrize("vocab", _MALFORMED_VOCABS)
    def test_inspect_codes_labels_is_typed_error(self, ckpt, vocab, tmp_path, capsys):
        rewrite_checkpoint(ckpt, lambda meta: meta.update(vocab=vocab))
        labels = tmp_path / "labels.tsv"
        labels.write_text("i1\tcat0\n")
        assert main(["inspect-codes", "--checkpoint", str(ckpt), "--labels", str(labels)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "vocab must map" in err

    def test_repeated_raw_id_refused(self, ckpt, tmp_path, capsys):
        # two table rows under one raw id: a label or a tree path could name either row
        def repeat_first_item(meta):
            meta["vocab"]["items"][1] = meta["vocab"]["items"][0]

        rewrite_checkpoint(ckpt, repeat_first_item)
        labels = tmp_path / "labels.tsv"
        labels.write_text("i1\tcat0\n")
        for argv in (["inspect-codes", "--labels", str(labels)],
                     ["export-tree", "--json", str(tmp_path / "t.json"), "--dot", str(tmp_path / "t.dot")]):
            assert main([*argv, "--checkpoint", str(ckpt)]) == 2
            assert capsys.readouterr().err == (f"error: {ckpt}: vocab must map 'users'/'items' "
                                               "to lists of distinct raw-id strings\n")
        assert not (tmp_path / "t.json").exists()


class TestCliTypedErrors:
    def test_stored_fusion_mode_refused(self, tmp_path, capsys):
        # the stored config of a checkpoint written while cage.fusion_mode was a key
        ckpt = TestCli()._train(tmp_path)
        rewrite_checkpoint(ckpt, lambda meta: meta["config"]["cage"].update(fusion_mode="average"))
        for argv in (["evaluate"],
                     ["export-tree", "--json", str(tmp_path / "t.json"), "--dot", str(tmp_path / "t.dot")]):
            assert main([*argv, "--checkpoint", str(ckpt)]) == 2
            assert capsys.readouterr().err == "error: unknown key(s) in cage: ['fusion_mode']\n"

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


class TestCliStalledMoments:
    """A gradient whose square passes float32 sets Adam's v to inf and freezes those weight entries.

    The loss and every weight stay finite, so only the second-moment check that ends
    training finds it: a typed error with no checkpoint, and no warning escapes.
    """

    def test_is_typed_error(self, tmp_path, capsys):
        data = tmp_path / "d.tsv"
        _write_interactions(data)
        doc = _cfg(data, task="ctr", epochs=1, lr=2.0 ** 40).to_dict()
        assert _train_exit(tmp_path, doc) == 2
        error = "non-finite Adam second moment after training: user_table, item_table, mlp.layer0.weight"
        assert capsys.readouterr().err.startswith(f"error: {error}")
        assert not (tmp_path / "run" / "model.ckpt").exists()


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
            save_checkpoint(ckpt, stored.config, stored.tensors, stored.vocab)
        capsys.readouterr()
        tree = ["--json", str(tmp_path / "t.json"), "--dot", str(tmp_path / "t.dot")]
        assert main([command, "--checkpoint", str(ckpt), *(tree if command == "export-tree" else [])]) == 2
        assert re.fullmatch(f"error: {re.escape(str(ckpt))}: {error}\n", capsys.readouterr().err)
        assert not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize("shape, kept", [([2 ** 62, 4], 0), ([2 ** 32, 2 ** 32], 0), ([0, 2 ** 70], 0),
                                             ([0, 2 ** 63], 0), ([-1, 2], 0), ([1] * 65, 1)],
                             ids=["2**62x4", "2**32x2**32", "0x2**70", "0x2**63", "negative", "65-dims"])
    def test_invalid_shape_is_typed_error(self, tmp_path, capsys, shape, kept):
        """The last tensor's shape replaced and the payload cut kept floats past its start: no byte count
        wraps or overflows, and no shape reaches numpy that it cannot describe."""
        ckpt = TestCli()._train(tmp_path)
        stored = load_checkpoint(ckpt).tensors
        *head, last = stored
        cut = 4 * (sum(stored[name].size for name in head) + kept)
        rewrite_checkpoint(ckpt, lambda meta: meta["tensors"][-1].update(shape=shape),
                           lambda payload: payload[:cut])
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", str(ckpt)]) == 2
        assert capsys.readouterr().err == f"error: {ckpt}: tensor '{last}' has an invalid shape {shape}\n"


class TestCliCheckpointIntegers:
    """Directory shapes must be lists of JSON integers: int() would truncate 8.9 to 8, read true as 1 and
    the string "81" as (8, 1), and each of these checkpoints would then evaluate."""

    @staticmethod
    def _damage(meta, case):
        entries = {entry["name"]: entry for entry in meta["tensors"]}
        layer0_bias, layer1_weight, layer1_bias = (entries[f"mlp.{name}"] for name in
                                                   ("layer0.bias", "layer1.weight", "layer1.bias"))
        assert (layer0_bias["shape"], layer1_weight["shape"], layer1_bias["shape"]) == ([8], [8, 1], [1])
        if case == "float-shape":
            layer0_bias["shape"] = [8.9]
        elif case == "bool-dimension":
            layer1_bias["shape"] = [True]
        else:
            layer1_weight["shape"] = "81"

    @pytest.mark.parametrize("case, error", [
        ("float-shape", "tensor 'mlp.layer0.bias' has an invalid shape [8.9]"),
        ("bool-dimension", "tensor 'mlp.layer1.bias' has an invalid shape [true]"),
        ("string-shape", "tensor 'mlp.layer1.weight' has an invalid shape \"81\""),
    ])
    def test_evaluate_is_typed_error(self, tmp_path, capsys, case, error):
        ckpt = TestCli()._train(tmp_path, task="ctr")
        rewrite_checkpoint(ckpt, lambda meta: self._damage(meta, case))
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", str(ckpt)]) == 2
        assert capsys.readouterr().err == f"error: {ckpt}: {error}\n"


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
    @pytest.mark.parametrize("command", ["evaluate", "export-tree", "inspect-codes"])
    def test_missing_vocab_is_typed_error(self, tmp_path, capsys, command):
        """Every checkpoint stores its vocabulary; a file without one is refused, not evaluated unchecked."""
        ckpt = TestCli()._train(tmp_path)
        rewrite_checkpoint(ckpt, lambda meta: meta.pop("vocab"))
        capsys.readouterr()
        tree = ["--json", str(tmp_path / "t.json"), "--dot", str(tmp_path / "t.dot")]
        assert main([command, "--checkpoint", str(ckpt), *(tree if command == "export-tree" else [])]) == 2
        assert capsys.readouterr().err == f"error: {ckpt}: incomplete metadata: KeyError('vocab')\n"

    def test_version_1_is_typed_error(self, tmp_path, capsys):
        """A version-1 file, with its byte offsets, epoch and seed state, is refused rather than read."""
        ckpt = TestCli()._train(tmp_path)

        def to_version_1(meta):
            offset = 0
            for entry in meta["tensors"]:
                entry["offset"] = offset
                offset += 4 * math.prod(entry["shape"])
            meta.update(epoch=1, seed_state={"seed": 0})
        rewrite_checkpoint(ckpt, to_version_1)
        ckpt.write_bytes(MAGIC + struct.pack("<I", 1) + ckpt.read_bytes()[12:])
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", str(ckpt)]) == 2
        assert capsys.readouterr().err == f"error: {ckpt}: unsupported container version 1\n"


class TestCliNegativeSeed:
    def test_eval_seed_override(self, tmp_path, capsys):
        ckpt = TestCli()._train(tmp_path)
        assert main(["evaluate", "--checkpoint", str(ckpt), "--eval-seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "eval.seed must be >= 0" in err

    @pytest.mark.parametrize("section", ["model", "eval"])
    def test_stored_seed(self, tmp_path, capsys, section):
        ckpt = TestCli()._train(tmp_path)
        rewrite_checkpoint(ckpt, lambda meta: meta["config"][section].update(seed=-1))
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
        rewrite_checkpoint(ckpt, rename)
        assert main(["evaluate", "--checkpoint", str(ckpt)]) == 2
        assert capsys.readouterr().err == f"error: checkpoint is missing tensor '{table}'\n"

    def test_evaluate_names_a_reshaped_tensor(self, tmp_path, capsys):
        ckpt = TestCli()._train(tmp_path, task="ctr")

        def reshape(meta):  # the same 8 floats as a (1, 8) row
            next(t for t in meta["tensors"] if t["name"] == "mlp.layer0.bias")["shape"] = [1, 8]
        rewrite_checkpoint(ckpt, reshape)
        assert main(["evaluate", "--checkpoint", str(ckpt)]) == 2
        assert capsys.readouterr().err == ("error: tensor 'mlp.layer0.bias' has shape (1, 8), "
                                           "model expects (8,)\n")

    def test_evaluate_names_an_extra_tensor(self, tmp_path, capsys):
        ckpt = TestCli()._train(tmp_path)
        stored = load_checkpoint(ckpt)
        tensors = {**stored.tensors, "extra": np.zeros(3, dtype=np.float32)}
        save_checkpoint(ckpt, stored.config, tensors, stored.vocab)
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
        (table, cage), = [(t, q) for t, q in model_from_checkpoint(stored)[0].sides if t.role == side]
        assert doc["paths"] == quantize_batch(cage, table.rows.value).indices.T.tolist()
        assert sorted(doc) == ["level_sizes", "parents", "paths"]
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

    def test_inspect_codes_prints_each_level_nmi(self, ckpt, tmp_path, capsys):
        stored = load_checkpoint(ckpt)
        users = stored.vocab["users"]
        labelled = range(0, len(users), 2)  # every other user, in reverse file order
        labels = tmp_path / "labels.tsv"
        labels.write_text("".join(f"{users[row]}\tcat{row % 3}\n" for row in reversed(labelled)))
        assert main(["inspect-codes", "--checkpoint", ckpt, "--labels", str(labels), "--side", "user"]) == 0
        (table, cage), = [(t, q) for t, q in model_from_checkpoint(stored)[0].sides if t.role == "user"]
        indices = quantize_batch(cage, table.rows.value).indices[:, list(labelled)]
        nmi = [label_nmi(codes, [f"cat{row % 3}" for row in labelled]) for codes in indices]
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"3 categories: {len(labelled)} users, level 1 NMI {nmi[0]:.4f}, level 2 NMI {nmi[1]:.4f}")

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
        rewrite_checkpoint(ckpt, enlarge)
        assert main(["evaluate", "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: tensor '{tensor}' has shape ") and "1099511627776" in err


class TestCliTableRows:
    """Each vocabulary side fixes its table's rows, and a side missing from the vocabulary counts 0 rows.

    The "no-vocab" cases also remove the table's side from the stored vocabulary.
    """

    @staticmethod
    def _resize(ckpt, table, rows, keep_side):
        """Rewrite ckpt with table cut by rows < 0, grown by rows > 0 or emptied by rows == 0.

        Returns the shape the model expects and the stored shape.
        """
        stored = load_checkpoint(ckpt)
        good = stored.tensors[table]
        stored.tensors[table] = good[:rows] if rows <= 0 else np.concatenate([good, good[:rows]])
        if not keep_side:
            del stored.vocab[table.replace("_table", "s")]
        save_checkpoint(ckpt, stored.config, stored.tensors, stored.vocab)
        return (good.shape if keep_side else (0, good.shape[1])), stored.tensors[table].shape

    @pytest.mark.parametrize("keep_side", [True, False], ids=["vocab", "no-vocab"])
    @pytest.mark.parametrize("rows", [-1, 1], ids=["one-fewer", "one-more"])
    @pytest.mark.parametrize("task, table", [("cf", "user_table"), ("cf", "item_table"), ("ctr", "user_table"),
                                             ("list-completion", "item_table")])
    def test_evaluate_is_typed_error(self, tmp_path, capsys, task, table, rows, keep_side):
        ckpt = TestCli()._train(tmp_path, task=task)
        want, got = self._resize(ckpt, table, rows, keep_side)
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", str(ckpt)]) == 2
        assert capsys.readouterr().err == f"error: tensor '{table}' has shape {got}, model expects {want}\n"

    @pytest.mark.parametrize("keep_side", [True, False], ids=["vocab", "no-vocab"])
    @pytest.mark.parametrize("command", ["evaluate", "export-tree", "inspect-codes"])
    def test_zero_rows_is_typed_error(self, tmp_path, capsys, command, keep_side):
        ckpt = TestCli()._train(tmp_path)
        want, got = self._resize(ckpt, "item_table", 0, keep_side)
        capsys.readouterr()
        tree = ["--json", str(tmp_path / "t.json"), "--dot", str(tmp_path / "t.dot")]
        assert main([command, "--checkpoint", str(ckpt), *(tree if command == "export-tree" else [])]) == 2
        assert capsys.readouterr().err == (
            f"error: tensor 'item_table' has shape {got}, "
            + (f"model expects {want}\n" if keep_side else "with no elements\n"))

    @pytest.mark.parametrize("command", ["evaluate", "export-tree", "inspect-codes"])
    def test_missing_side_names_the_table(self, tmp_path, capsys, command):
        """A cf checkpoint whose vocabulary has no users side, its tables untouched, fails on user_table."""
        ckpt = TestCli()._train(tmp_path)
        rows, dim = load_checkpoint(ckpt).tensors["user_table"].shape
        rewrite_checkpoint(ckpt, lambda meta: meta["vocab"].pop("users"))
        capsys.readouterr()
        tree = ["--json", str(tmp_path / "t.json"), "--dot", str(tmp_path / "t.dot")]
        assert main([command, "--checkpoint", str(ckpt), *(tree if command == "export-tree" else [])]) == 2
        assert capsys.readouterr().err == (f"error: tensor 'user_table' has shape ({rows}, {dim}), "
                                           f"model expects (0, {dim})\n")


class _NoNormalDraw:
    """A stand-in for a named stream: a normal draw from it fails the test."""

    def normal(self, *args, **kwargs):
        raise AssertionError("a normal draw while loading a checkpoint")


@pytest.mark.parametrize("task", ["cf", "ctr", "list-completion"])
def test_model_from_checkpoint_holds_the_stored_tensors(tmp_path, monkeypatch, task):
    """Every parameter of a reloaded model is its stored tensor, and nothing is drawn."""
    data = tmp_path / "data"
    if task == "list-completion":
        _write_lists(data)
    else:
        _write_interactions(data)
    doc = _cfg(data, task=task, epochs=1).to_dict()
    doc["cage"].update(user_enabled=task != "list-completion")
    ckpt = load_checkpoint(run_train(config_from_dict(doc), out_dir=str(tmp_path / "run")).checkpoint_path)
    monkeypatch.setattr(SeededRng, "stream", lambda self, name: _NoNormalDraw())
    named = model_from_checkpoint(ckpt)[0].named_parameters()
    assert sorted(named) == sorted(ckpt.tensors)
    for name, param in named.items():
        assert param.value is ckpt.tensors[name]


@pytest.mark.parametrize("task", ["cf", "ctr", "list-completion"])
def test_checkpoint_holds_config_vocab_and_parameters_in_order(tmp_path, task):
    """The metadata is the config, the vocabulary and {name, shape} per parameter, and the payload is the
    float32 bytes of model.parameters() in that order."""
    data = tmp_path / "data"
    if task == "list-completion":
        _write_lists(data)
    else:
        _write_interactions(data)
    result = run_train(_cfg(data, task=task, epochs=1), out_dir=str(tmp_path / "run"))
    blob = Path(result.checkpoint_path).read_bytes()
    (meta_len,) = struct.unpack_from("<Q", blob, 12)
    meta = json.loads(blob[20:20 + meta_len].decode("utf-8"))
    params = result.model.parameters()
    assert meta == {"config": result.config.to_dict(), "vocab": train._raw_ids(result.dataset),
                    "tensors": [{"name": p.name, "shape": list(p.value.shape)} for p in params]}
    assert blob[20 + meta_len:] == b"".join(p.value.astype("<f4").tobytes() for p in params)


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
        rewrite_checkpoint(ckpt, edit)
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
                rewrite_checkpoint(ckpt, lambda meta: meta.update(config=doc))
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


_BYTE_POOL = [b"\t", b"\n", b"\r", b"\r\n", b"\n\n", b" ", b"\t\t", b"0", b"1", b"-1", b"9" * 30, b"x",
              b"\x00", b"\xff", "\u2028".encode()]


class TestCliDataBytesFuzz:
    """Seeded byte mutations of cf and ctr interaction files and of list files through train.

    Each case must exit 0 or 2; a traceback or a hang fails the test.
    """

    def _raise_hang(self, signum, frame):
        raise _Hang()

    def _mutate(self, data: bytes, gen: random.Random) -> bytes:
        data = bytearray(data)
        for _ in range(gen.randint(1, 2)):
            pos, op = gen.randrange(len(data) + 1), gen.random()
            if op < 0.3 and pos < len(data):
                data[pos] = gen.randrange(256) if gen.random() < 0.2 else gen.choice(b"\t\n\r 019-ux")
            elif op < 0.7:
                data[pos:pos] = gen.choice(_BYTE_POOL)
            elif op < 0.85:
                del data[pos:pos + gen.randint(1, 40)]
            else:  # repeat a stretch, so an id or a line appears twice
                data[pos:pos] = data[pos:pos + gen.randint(1, 60)] * gen.randint(1, 3)
        return bytes(data)

    def test_exit_code_is_0_or_2(self, tmp_path):
        bases = {}
        for task in ("cf", "ctr", "list-completion"):
            data = tmp_path / f"{task}.data"
            if task == "list-completion":
                _write_lists(data, n_lists=20, n_items=20)
            else:
                _write_interactions(data, n_users=12, n_items=12, per_user=4, labels=task == "ctr")
            doc = _cfg(data, task=task, epochs=1).to_dict()
            doc["eval"] = {"ks": [3], "n_negatives": 3}
            bases[task] = (data.read_bytes(), doc)
        gen = random.Random(1719)
        data, cfg_path = tmp_path / "case.data", tmp_path / "cfg.json"
        previous = signal.signal(signal.SIGALRM, self._raise_hang)
        try:
            for case in range(150):
                task = ("cf", "ctr", "list-completion")[case % 3]
                original, doc = bases[task]
                data.write_bytes(self._mutate(original, gen))
                cfg_path.write_text(json.dumps({**doc, "data": {**doc["data"], "path": str(data)}}))
                signal.alarm(10)
                try:
                    code = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
                except Exception as exc:
                    pytest.fail(f"case {case}: {task} on {data.read_bytes()!r} raised {exc!r}")
                finally:
                    signal.alarm(0)
                assert code in (0, 2), f"case {case}: {task} on {data.read_bytes()!r} returned {code}"
        finally:
            signal.signal(signal.SIGALRM, previous)


_CKPT_POOL = [-1, 0, 1.5, "x", [], None, True, 2 ** 62, 2 ** 64]


class TestCliCheckpointFuzz:
    """Seeded mutations of checkpoints and labels files through evaluate, export-tree and inspect-codes --labels.

    A case mutates one of: a directory entry's shape or name, a vocabulary list, a table's rows or raw
    bytes of a checkpoint, or the bytes of the labels file.  The first cases resize each table by -1, +1
    and to 0 rows, with and without its vocabulary side.  Each command must exit 0 or 2; a traceback or
    a hang fails the test.
    """

    def _raise_hang(self, signum, frame):
        raise _Hang()

    @staticmethod
    def _directory(meta, gen):
        entry = gen.choice(meta["tensors"])
        key = gen.choice(["shape", "name"])
        if key == "shape" and gen.random() < 0.7:
            dim = gen.randrange(len(entry["shape"]))
            entry["shape"][dim] = gen.choice([entry["shape"][dim] - 1, entry["shape"][dim] + 1, *_CKPT_POOL])
        elif key == "name" and gen.random() < 0.5:
            entry["name"] = gen.choice([other["name"] for other in meta["tensors"]] + ["renamed"])
        else:
            entry[key] = gen.choice(_CKPT_POOL)

    @staticmethod
    def _vocab(meta, gen):
        vocab = meta["vocab"]
        side = gen.choice(sorted(vocab))
        ids, op = vocab[side], gen.randrange(6)
        if op == 0:
            del ids[gen.randrange(len(ids))]
        elif op == 1:
            ids.append(gen.choice(ids))
        elif op == 2:
            ids.append("new-id")
        elif op == 3:
            i, j = gen.randrange(len(ids)), gen.randrange(len(ids))
            ids[i], ids[j] = ids[j], ids[i]
        else:
            vocab[side] = [] if op == 4 else gen.choice(_CKPT_POOL)

    @staticmethod
    def _bytes(blob: bytes, gen) -> bytes:
        blob = bytearray(blob)
        for _ in range(gen.randint(1, 3)):
            pos, op = gen.randrange(len(blob)), gen.random()
            if op < 0.6:
                blob[pos] = gen.randrange(256)
            elif op < 0.8:
                del blob[pos:pos + gen.randint(1, 16)]
            else:
                blob[pos:pos] = bytes(gen.randrange(256) for _ in range(gen.randint(1, 8)))
        return bytes(blob)

    def test_exit_code_is_0_or_2(self, tmp_path):
        bases = {}
        for task in ("cf", "ctr", "list-completion"):
            data = tmp_path / f"{task}.data"
            if task == "list-completion":
                _write_lists(data, n_lists=20, n_items=20)
            else:
                _write_interactions(data, n_users=12, n_items=20, per_user=5, labels=task == "ctr")
            doc = _cfg(data, task=task, epochs=1).to_dict()
            doc["cage"]["user_enabled"] = task == "cf"
            doc["eval"] = {"ks": [3], "n_negatives": 3}
            ckpt = run_train(config_from_dict(doc), out_dir=str(tmp_path / task)).checkpoint_path
            items = load_checkpoint(ckpt).vocab["items"]
            labels = "".join(f"{raw}\tcat{row % 3}\n" for row, raw in enumerate(items))
            bases[task] = (Path(ckpt).read_bytes(), labels.encode())
        tables = {task: ["item_table"] if task == "list-completion" else ["user_table", "item_table"]
                  for task in bases}
        resizes = [(task, table, rows, keep_side) for task in bases for table in tables[task]
                   for rows in (-1, 1, 0) for keep_side in (True, False)]
        gen = random.Random(1818)
        ckpt, labels = tmp_path / "case.ckpt", tmp_path / "labels.tsv"
        tree = ["--json", str(tmp_path / "t.json"), "--dot", str(tmp_path / "t.dot")]
        previous = signal.signal(signal.SIGALRM, self._raise_hang)
        try:
            for case in range(len(resizes) + 300):
                task = resizes[case][0] if case < len(resizes) else gen.choice(sorted(bases))
                blob, label_bytes = bases[task]
                ckpt.write_bytes(blob)
                labels.write_bytes(label_bytes)
                kind = "resize" if case < len(resizes) else gen.choice(
                    ["directory", "vocab", "resize", "bytes", "labels"])
                if kind == "resize":
                    _, table, rows, keep_side = resizes[case] if case < len(resizes) else (
                        task, gen.choice(tables[task]), gen.choice([-1, 1, 0]), gen.random() < 0.5)
                    TestCliTableRows._resize(ckpt, table, rows, keep_side)
                    kind = f"resize {table} {rows:+d} {'with' if keep_side else 'without'} its vocab side"
                elif kind == "directory":
                    rewrite_checkpoint(ckpt, lambda meta: self._directory(meta, gen))
                elif kind == "vocab":
                    rewrite_checkpoint(ckpt, lambda meta: self._vocab(meta, gen))
                elif kind == "bytes":
                    ckpt.write_bytes(self._bytes(blob, gen))
                else:
                    labels.write_bytes(TestCliDataBytesFuzz()._mutate(label_bytes, gen))
                for argv in (["evaluate", "--checkpoint", str(ckpt)],
                             ["export-tree", "--checkpoint", str(ckpt), *tree],
                             ["inspect-codes", "--checkpoint", str(ckpt), "--labels", str(labels)]):
                    signal.alarm(10)
                    try:
                        code = main(argv)
                    except Exception as exc:
                        pytest.fail(f"case {case} ({task}, {kind}): {argv[0]} raised {exc!r}")
                    finally:
                        signal.alarm(0)
                    assert code in (0, 2), f"case {case} ({task}, {kind}): {argv[0]} returned {code}"
        finally:
            signal.signal(signal.SIGALRM, previous)
