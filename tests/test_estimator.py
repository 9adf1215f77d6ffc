"""Streaming accumulator, deterministic parallel runs, checkpoint/resume."""

import math

import numpy as np
import pytest
from oracles import is_ppt

from sepvol import estimator, exactform, param, qmc, quantum


def test_run_config_validation():
    with pytest.raises(ValueError):
        estimator.RunConfig(5, 100, 10, seed=0)
    with pytest.raises(ValueError):
        estimator.RunConfig(4, 10, 100, seed=0)
    with pytest.raises(ValueError):
        estimator.RunConfig(4, 100, 0, seed=0)
    with pytest.raises(ValueError):
        estimator.RunConfig(4, 100, 10, seed=0, workers=0)
    with pytest.raises(ValueError):
        estimator.RunConfig(4, 100, 10, seed=0, skip=-1)
    with pytest.raises(ValueError, match="seed"):
        estimator.RunConfig(4, 100, 10, seed=-1)
    with pytest.raises(ValueError, match="skip"):
        estimator.RunConfig(4, 100, 10, seed=0, skip=2**63 - 8)


def _accepts(fn, m):
    try:
        fn(m)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("m", range(12))
def test_one_dimension_gate(m):
    """A run, its partial-transpose forms and its exact H_m accept the same m."""
    gates = (lambda m: estimator.RunConfig(m, 10, 10, seed=0), quantum.forms_for,
             exactform.truncated_haar_volume)
    assert len({_accepts(fn, m) for fn in gates}) == 1


def test_run_config_default_forms():
    assert estimator.RunConfig(6, 10, 10, seed=0).forms == quantum.forms_for(6)
    assert estimator.RunConfig(4, 10, 10, seed=0).forms == quantum.forms_for(4)


def test_config_hash_ignores_workers():
    a = estimator.RunConfig(6, 100, 10, seed=0, workers=1)
    b = estimator.RunConfig(6, 100, 10, seed=0, workers=8)
    c = estimator.RunConfig(6, 100, 10, seed=1, workers=1)
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()


def test_form_label():
    """The labels name the CSV columns and enter config_hash, so they never change."""
    labels = {m: [f.label for f in quantum.forms_for(m)] for m in (4, 6, 8, 9)}
    assert labels == {4: ["block2"], 6: ["block3", "block2"],
                      8: ["factors2x2x2t0", "factors2x2x2t1", "factors2x2x2t2"],
                      9: ["factors3x3t1"]}


# RunConfig(m, 10**6, 10**5, 21), unchanged since sepvol-checkpoint-2; a drift here
# stops checkpoints written before it from resuming
CONFIG_GOLDEN = {
    4: ("block2", "9a6dd821b892e939"),
    6: ("block3;block2", "73129b9fe6413a21"),
    8: ("factors2x2x2t0;factors2x2x2t1;factors2x2x2t2", "9e0b3b7e38b14e93"),
    9: ("factors3x3t1", "f2a136e8b9618efc"),
}


@pytest.mark.parametrize("m", sorted(CONFIG_GOLDEN))
def test_config_identity_golden(m):
    forms, digest = CONFIG_GOLDEN[m]
    cfg = estimator.RunConfig(m, 10**6, 10**5, 21)
    assert cfg.canonical() == (f"m={m} points=1000000 checkpoint_every=100000 seed=21 "
                               f"skip=409 forms={forms}")
    assert cfg.config_hash() == digest


def test_block_ranges():
    ranges = estimator._block_ranges(10000, 3000)
    assert ranges == [(0, 3000), (3000, 1096), (4096, 1904), (6000, 2192),
                      (8192, 808), (9000, 1000)]
    assert all(c <= estimator.BLOCK for _, c in ranges)
    flat = [i for s, c in ranges for i in range(s, s + c)]
    assert flat == list(range(10000))


def _reference_sums(m, n, seed=21):
    """Per-sample oracle: column sums over decode_batch rows, one sample at a time.

    Each sample's negativity comes from quantum.negativity on its own matrix,
    and each column is summed exactly with math.fsum.
    """
    dec = param.decode_batch(qmc.points(qmc.ScrambleSpec(seed), m * m - 1, 0, n), m)
    forms = quantum.forms_for(m)
    cols = {k: [] for k in ("wD", "wH", "w")}
    sep = [[] for _ in forms]
    neg = [[] for _ in forms]
    logneg = [[] for _ in forms]
    count_sep = [0] * len(forms)
    for i in range(n):
        if dec.degenerate[i]:
            continue
        w = float(dec.w[i])
        cols["wD"].append(float(dec.w_D[i]))
        cols["wH"].append(float(dec.w_H[i]))
        cols["w"].append(w)
        for k, f in enumerate(forms):
            ng = quantum.negativity(dec.rho[i], f)
            if ng <= 0.0:
                count_sep[k] += 1
                sep[k].append(w)
            else:
                neg[k].append(w * ng)
                logneg[k].append(w * math.log1p(2.0 * ng))
    fs = math.fsum
    return ({k: fs(v) for k, v in cols.items()}, [fs(v) for v in sep],
            [fs(v) for v in neg], [fs(v) for v in logneg], count_sep,
            int(dec.degenerate.sum()))


def test_accumulate_matches_block_path():
    """The per-sample exact-sum oracle agrees with the block runner's plain sums to 1e-14."""
    m, n = 6, 4096
    rows, acc = estimator.run(estimator.RunConfig(m, n, n, seed=21))
    cols, sep, neg, logneg, count_sep, degenerate = _reference_sums(m, n)
    row = rows[0]
    assert (row.n, row.degenerate) == (n, degenerate)
    assert acc.count_sep.tolist() == count_sep
    assert row.est_D == pytest.approx(cols["wD"] / n, rel=1e-14)
    assert row.est_H == pytest.approx(cols["wH"] / n, rel=1e-14)
    assert row.est_V == pytest.approx(cols["w"] / n, rel=1e-14)
    for k in range(len(sep)):
        assert row.est_V_sep[k] == pytest.approx(sep[k] / n, rel=1e-14)
    assert row.mean_neg == pytest.approx(sum(neg) / (len(neg) * cols["w"]), rel=1e-14)
    assert row.mean_logneg == pytest.approx(sum(logneg) / (len(logneg) * cols["w"]), rel=1e-14)


def test_accumulate_ppt_sample_counts_separable():
    cfg = estimator.RunConfig(4, 200, 200, seed=21)
    dec = param.decode_batch(qmc.points(qmc.ScrambleSpec(21), 15, 0, 200), 4)
    i = next(i for i in range(200)
             if not dec.degenerate[i] and is_ppt(dec.rho[i], cfg.forms[0]))
    acc = estimator.SampleAccumulator(1)
    acc.merge_block(*estimator._compute_block((cfg, i, 1)))
    assert acc.count_sep[0] == 1
    assert acc.sums[4] == 0.0  # the w*neg column of the only form
    assert acc.checkpoint().est_V == dec.w[i]  # single-sample mean is the weight


def test_accumulate_degenerate_tallies_only(monkeypatch):
    p = np.full(15, 0.5)
    p[0] = 1.0  # first simplex angle at pi/2: smallest eigenvalue collapses
    monkeypatch.setattr(qmc, "points", lambda spec, d, start, count: p[None, :])
    acc = estimator.SampleAccumulator(1)
    acc.merge_block(*estimator._compute_block((estimator.RunConfig(4, 1, 1, seed=0), 0, 1)))
    assert (acc.n, acc.degenerate) == (1, 1)
    row = acc.checkpoint()
    assert row.est_V == 0.0
    assert row.est_P == (0.0,)
    assert row.mean_neg == 0.0


def test_empty_accumulator_raises():
    with pytest.raises(estimator.EmptyAccumulatorError):
        estimator.SampleAccumulator(1).checkpoint()


def test_row_identities():
    cfg = estimator.RunConfig(6, 4096, 2048, seed=3)
    rows, _ = estimator.run(cfg)
    assert [r.n for r in rows] == [2048, 4096]
    for r in rows:
        assert r.est_DH == r.est_D * r.est_H
        for i in range(2):
            assert r.est_P[i] == r.est_V_sep[i] / r.est_V


def test_checkpoint_cadence():
    cfg = estimator.RunConfig(4, 10000, 3000, seed=5)
    rows, acc = estimator.run(cfg)
    assert [r.n for r in rows] == [3000, 6000, 9000, 10000]
    assert acc.n == 10000
    assert rows[-1] == acc.checkpoint()


def test_worker_count_bit_identity():
    """Every streamed row and the final state match across worker counts."""
    runs = {}
    for workers in (1, 2, 8):
        cfg = estimator.RunConfig(4, 4 * 4096 + 1000, 3000, seed=21, workers=workers)
        rows, acc = estimator.run(cfg)
        runs[workers] = (rows, acc.checkpoint())
    assert len(runs[1][0]) == 6
    assert runs[1] == runs[2] == runs[8]


def test_pool_capped_at_cpu_count(monkeypatch):
    """More workers than CPUs fork one process per CPU; rows do not change."""
    sizes = []
    get_context = estimator.mp.get_context

    class _SpyContext:
        def __init__(self, method):
            self.ctx = get_context(method)

        def Pool(self, processes):
            sizes.append(processes)
            return self.ctx.Pool(processes)

    monkeypatch.setattr(estimator.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(estimator.mp, "get_context", _SpyContext)
    rows, acc = estimator.run(estimator.RunConfig(4, 4 * 4096, 4096, 0, workers=64))
    assert sizes == [2]
    serial_rows, serial_acc = estimator.run(estimator.RunConfig(4, 4 * 4096, 4096, 0))
    assert rows == serial_rows and acc.checkpoint() == serial_acc.checkpoint()


def test_checkpoint_save_load_roundtrip(tmp_path):
    cfg = estimator.RunConfig(4, 4096, 4096, seed=2)
    _, acc = estimator.run(cfg)
    path = str(tmp_path / "state.ck")
    estimator.save_checkpoint(path, cfg, acc)
    back = estimator.load_checkpoint(path, cfg)
    assert (back.n, back.degenerate) == (acc.n, acc.degenerate)
    assert np.array_equal(back.sums, acc.sums)
    assert np.array_equal(back.count_sep, acc.count_sep)
    assert back.checkpoint() == acc.checkpoint()
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "format sepvol-checkpoint-4"
    assert [line.split(" ", 1)[0] for line in lines] == [
        "format", "config_hash", "canonical", "n", "degenerate", "sums", "count_sep"]


def test_checkpoint_rejects_other_config(tmp_path):
    cfg = estimator.RunConfig(4, 4096, 4096, seed=2)
    _, acc = estimator.run(cfg)
    path = str(tmp_path / "state.ck")
    estimator.save_checkpoint(path, cfg, acc)
    with pytest.raises(estimator.ConfigMismatchError):
        estimator.load_checkpoint(path, estimator.RunConfig(4, 4096, 4096, seed=3))


def test_checkpoint_rejects_off_boundary_state(tmp_path):
    cfg = estimator.RunConfig(4, 12288, 4096, seed=2)
    acc = estimator.SampleAccumulator(1)
    acc.n = 5000  # not a sub-block boundary for this config
    path = str(tmp_path / "state.ck")
    estimator.save_checkpoint(path, cfg, acc)
    with pytest.raises(estimator.ConfigMismatchError):
        estimator.run(cfg, path)


class _Interrupt(Exception):
    pass


def test_resume_is_bit_identical_to_unbroken_run(tmp_path):
    mk = lambda: estimator.RunConfig(4, 12288, 4096, seed=9)
    all_rows, _ = estimator.run(mk())
    assert len(all_rows) == 3

    path = str(tmp_path / "state.ck")
    delivered = []

    def interrupter(row):
        if len(delivered) == 1:
            raise _Interrupt()
        delivered.append(row)

    with pytest.raises(_Interrupt):
        estimator.run(mk(), path, on_row=interrupter)
    rest, acc = estimator.run(mk(), path)
    assert delivered + rest == all_rows
    assert acc.n == 12288
    again, _ = estimator.run(mk(), path)  # completed file: nothing to do
    assert again == []


def test_resume_across_worker_counts_is_bit_identical(tmp_path):
    """A run checkpointed at workers=2 and resumed at workers=1 gives the unbroken rows."""
    mk = lambda workers: estimator.RunConfig(4, 4 * 4096 + 1000, 3000, seed=9,
                                             workers=workers)
    all_rows, whole = estimator.run(mk(1))
    path = str(tmp_path / "state.ck")
    delivered = []

    def interrupter(row):
        if delivered:
            raise _Interrupt()
        delivered.append(row)

    with pytest.raises(_Interrupt):
        estimator.run(mk(2), path, on_row=interrupter)
    rest, acc = estimator.run(mk(1), path)
    assert delivered + rest == all_rows
    assert acc.checkpoint() == whole.checkpoint()


def test_estimates_stabilize():
    """Late-run est_H scatter is smaller than early-run scatter."""
    cfg = estimator.RunConfig(4, 200000, 10000, seed=21)
    rows, _ = estimator.run(cfg)
    h = np.array([r.est_H for r in rows])
    assert np.std(h[-10:]) < np.std(h[:10])
