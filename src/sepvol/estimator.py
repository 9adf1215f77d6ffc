"""Streaming cumulative QMC estimation with checkpoints and deterministic parallel merge.

The point stream is cut into fixed blocks whose boundaries depend only on
(points, checkpoint_every), never on the worker count.  Each block is reduced
to one vector of plain float sums, added into the accumulator in ascending
block order; every summed term is nonnegative, so plain sums stay within a
few ulp of exact.  Workers take whole blocks in index order, so runs with 1,
2, or 8 workers produce bit-identical rows.
"""

from __future__ import annotations

import contextlib
import hashlib
import multiprocessing as mp
import os
from dataclasses import dataclass

import numpy as np

from . import param, qmc, quantum

BLOCK = 4096
CHECKPOINT_FORMAT = "sepvol-checkpoint-5"
DEFAULT_SEED = 21


class EmptyAccumulatorError(ValueError):
    """Checkpoint requested before any sample was accumulated."""


class ConfigMismatchError(ValueError):
    """Resume file was written by a run with an incompatible configuration."""


@dataclass
class RunConfig:
    m: int
    points: int
    checkpoint_every: int
    seed: int
    skip: int = qmc.DEFAULT_SKIP
    workers: int = 1

    def __post_init__(self):
        if self.m not in quantum.DIMENSIONS:
            raise ValueError(f"unsupported dimension m={self.m}")
        if not self.points >= self.checkpoint_every >= 1:
            raise ValueError("need points >= checkpoint_every >= 1")
        qmc.ScrambleSpec(self.seed, self.skip, self.points)  # rejects a bad seed, skip or index range
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    @property
    def forms(self) -> tuple[quantum.FactorSplit, ...]:
        return quantum.forms_for(self.m)

    def canonical(self) -> str:
        # workers excluded: the merge order makes results worker-independent
        forms = ";".join(f.label for f in self.forms)
        return (f"m={self.m} points={self.points} checkpoint_every={self.checkpoint_every} "
                f"seed={self.seed} skip={self.skip} forms={forms}")

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]


@dataclass
class CheckpointRow:
    n: int
    est_D: float
    est_H: float
    est_DH: float
    est_V: float
    est_V_sep: tuple
    est_P: tuple
    mean_neg: float
    mean_logneg: float
    degenerate: int


class SampleAccumulator:
    """Running sums for all reported columns, merged block by block in index order.

    With F forms, the float vector is [w_D, w_H, w, w_sep[F], w*neg[F],
    w*logneg[F]] of plain sums (all terms are nonnegative, so they stay within
    a few ulp); count_sep holds the separable hits per form.
    """

    def __init__(self, n_forms: int):
        self.n_forms = n_forms
        self.n = 0
        self.degenerate = 0
        self.sums = np.zeros(3 + 3 * n_forms)
        self.count_sep = np.zeros(n_forms, dtype=np.int64)

    def merge_block(self, n: int, degenerate: int, sums: np.ndarray, count_sep: np.ndarray):
        """Fold one block's partial sums in; blocks must arrive in index order."""
        self.n += n
        self.degenerate += degenerate
        self.sums += sums
        self.count_sep += count_sep

    def checkpoint(self) -> CheckpointRow:
        if self.n < 1:
            raise EmptyAccumulatorError("no samples accumulated")
        n = float(self.n)
        nf = self.n_forms
        v = self.sums.tolist()
        sw = v[2]
        est_D, est_H, est_V = v[0] / n, v[1] / n, sw / n
        est_V_sep = tuple(x / n for x in v[3:3 + nf])
        est_P = tuple(x / est_V if est_V else 0.0 for x in est_V_sep)
        mean_neg = sum(v[3 + nf:3 + 2 * nf]) / (nf * sw) if sw else 0.0
        mean_ln = sum(v[3 + 2 * nf:]) / (nf * sw) if sw else 0.0
        return CheckpointRow(self.n, est_D, est_H, est_D * est_H, est_V,
                             est_V_sep, est_P, mean_neg, mean_ln, self.degenerate)


def _block_ranges(points: int, checkpoint_every: int) -> list[tuple[int, int]]:
    # boundaries at every BLOCK and checkpoint multiple, so checkpoints land
    # exactly between blocks for any worker count
    out = []
    s = 0
    while s < points:
        e = min((s // BLOCK + 1) * BLOCK,
                (s // checkpoint_every + 1) * checkpoint_every, points)
        out.append((s, e - s))
        s = e
    return out


def _compute_block(task: tuple[RunConfig, int, int]) -> tuple:
    """Partial sums of one block: (n, degenerate, sums vector, count_sep)."""
    cfg, start, count = task
    spec = qmc.ScrambleSpec(cfg.seed, cfg.skip)
    pts = qmc.points(spec, cfg.m * cfg.m - 1, start, count)
    dec = param.decode_batch(pts, cfg.m)
    ok = ~dec.degenerate
    w = dec.w[ok]
    # negativity is taken matrix by matrix, so taking it on every row and then
    # dropping the degenerate ones gives the same bits without a copy of rho
    negs = [quantum.negativity(dec.rho, f)[ok] for f in cfg.forms]
    ppts = [neg == 0.0 for neg in negs]
    terms = ([dec.w_D[ok], dec.w_H[ok], w] + [w * ppt for ppt in ppts]
             + [w * neg for neg in negs] + [w * np.log1p(2.0 * neg) for neg in negs])
    sums = np.array([t.sum() for t in terms])
    return count, int(dec.degenerate.sum()), sums, np.array([int(p.sum()) for p in ppts])


def save_checkpoint(path: str, cfg: RunConfig, acc: SampleAccumulator):
    """Flat self-describing text record; floats stored exactly as hex."""
    lines = [f"format {CHECKPOINT_FORMAT}",
             f"config_hash {cfg.config_hash()}",
             f"canonical {cfg.canonical()}",
             f"n {acc.n}",
             f"degenerate {acc.degenerate}",
             "sums " + " ".join(x.hex() for x in acc.sums.tolist()),
             "count_sep " + " ".join(str(c) for c in acc.count_sep.tolist())]
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


def load_checkpoint(path: str, cfg: RunConfig) -> SampleAccumulator:
    """Accumulator saved by save_checkpoint; ConfigMismatchError if the file is foreign or damaged."""
    with open(path) as fh:
        text = fh.read()
    fields = dict(line.partition(" ")[::2] for line in text.splitlines())
    if fields.get("format") != CHECKPOINT_FORMAT:
        raise ConfigMismatchError(f"unrecognized checkpoint format in {path}: "
                                  f"{fields.get('format')!r}, expected {CHECKPOINT_FORMAT!r}")
    if fields.get("config_hash") != cfg.config_hash():
        raise ConfigMismatchError(
            f"checkpoint {path} config does not match: file has '{fields.get('canonical')}', "
            f"run wants '{cfg.canonical()}'")
    acc = SampleAccumulator(len(cfg.forms))
    try:
        if not text.endswith("\n"):
            raise ValueError("last line is cut off")
        acc.n = int(fields["n"])
        acc.degenerate = int(fields["degenerate"])
        sums = np.array([float.fromhex(x) for x in fields["sums"].split()])
        count_sep = np.array([int(x) for x in fields["count_sep"].split()], dtype=np.int64)
        if (sums.shape, count_sep.shape) != (acc.sums.shape, acc.count_sep.shape):
            raise ValueError("vector lengths do not match the forms")
    except (KeyError, ValueError) as err:
        raise ConfigMismatchError(f"damaged checkpoint {path}: {err!r}") from err
    acc.sums, acc.count_sep = sums, count_sep
    return acc


def run(cfg: RunConfig, checkpoint_path: str | None = None, on_row=None):
    """Execute the configured run; returns (rows emitted by this call, final accumulator).

    A row is emitted, and with a checkpoint_path the state is saved, at every
    multiple of checkpoint_every and at the end.  Rows are emitted as soon as
    the block that completes them is merged.  An existing compatible
    checkpoint file resumes the run at its last row.
    """
    acc = SampleAccumulator(len(cfg.forms))
    all_blocks = _block_ranges(cfg.points, cfg.checkpoint_every)
    if checkpoint_path and os.path.exists(checkpoint_path):
        acc = load_checkpoint(checkpoint_path, cfg)
        if acc.n != cfg.points and acc.n not in {s for s, _ in all_blocks}:
            raise ConfigMismatchError("checkpoint does not sit on a block boundary")
    tasks = [(cfg, s, c) for s, c in all_blocks if s >= acc.n]
    rows = []
    nproc = min(cfg.workers, len(tasks), os.cpu_count() or 1)
    with mp.get_context("fork").Pool(nproc) if nproc > 1 else contextlib.nullcontext() as pool:
        for part in pool.imap(_compute_block, tasks) if nproc > 1 else map(_compute_block, tasks):
            acc.merge_block(*part)
            if acc.n % cfg.checkpoint_every == 0 or acc.n == cfg.points:
                row = acc.checkpoint()
                rows.append(row)
                if on_row:
                    on_row(row)
                if checkpoint_path:
                    save_checkpoint(checkpoint_path, cfg, acc)
    return rows, acc
