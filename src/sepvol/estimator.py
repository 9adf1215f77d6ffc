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
import itertools
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
    workers: int = 1

    def __post_init__(self):
        if self.m not in quantum.DIMENSIONS:
            raise ValueError(f"unsupported dimension m={self.m}")
        if not self.points >= self.checkpoint_every >= 1:
            raise ValueError("need points >= checkpoint_every >= 1")
        qmc.ScrambleSpec(self.seed, self.points)  # rejects a bad seed or index range
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    @property
    def forms(self) -> tuple[quantum.FactorSplit, ...]:
        return quantum.forms_for(self.m)

    def canonical(self) -> str:
        # workers excluded: the merge order makes results worker-independent;
        # skip= stays, so checkpoints written while the offset was settable still resume
        forms = ";".join(f.label for f in self.forms)
        return (f"m={self.m} points={self.points} checkpoint_every={self.checkpoint_every} "
                f"seed={self.seed} skip={qmc.SKIP} forms={forms}")

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


def _block_ranges(start: int, points: int, checkpoint_every: int):
    """(start, count) of each block from row `start` on, cut at every BLOCK and checkpoint
    multiple: checkpoints land between blocks, and a resumed walk is the whole run's suffix."""
    while start < points:
        end = min((start // BLOCK + 1) * BLOCK,
                  (start // checkpoint_every + 1) * checkpoint_every, points)
        yield start, end - start
        start = end


def _compute_block(task: tuple[RunConfig, int, int]) -> tuple:
    """Partial sums of one block: (n, degenerate, sums vector, count_sep).

    The block's points are drawn in one call, then decoded and taken through
    each form's negativity by param.decode_map.  The sums are taken once over
    the whole block, as slice-wise partial sums would round differently.
    """
    cfg, start, count = task
    spec = qmc.ScrambleSpec(cfg.seed)
    pts = qmc.points(spec, cfg.m * cfg.m - 1, start, count)
    w_D, w_H, w, degenerate, *negs = param.decode_map(pts, cfg.m, lambda dec: (
        dec.w_D, dec.w_H, dec.w, dec.degenerate, *(quantum.negativity(dec.rho, f) for f in cfg.forms)))
    ok = ~degenerate
    w_D, w_H, w = w_D[ok], w_H[ok], w[ok]
    negs = [neg[ok] for neg in negs]
    ppts = [neg == 0.0 for neg in negs]
    terms = ([w_D, w_H, w] + [w * ppt for ppt in ppts]
             + [w * neg for neg in negs] + [w * np.log1p(2.0 * neg) for neg in negs])
    sums = np.array([t.sum() for t in terms])
    return count, int(degenerate.sum()), sums, np.array([int(p.sum()) for p in ppts])


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
    """Accumulator saved by save_checkpoint; ConfigMismatchError if foreign, damaged or off cfg's rows."""
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
    if not 0 < acc.n <= cfg.points or (acc.n < cfg.points and acc.n % cfg.checkpoint_every):
        raise ConfigMismatchError(f"checkpoint {path} holds n={acc.n}, not a row of this run")
    return acc


def run(cfg: RunConfig, checkpoint_path: str | None = None, on_row=None,
        resume: SampleAccumulator | None = None):
    """Execute the configured run; returns (rows emitted by this call, final accumulator).

    A row is emitted, and with a checkpoint_path the state is saved, at every
    multiple of checkpoint_every and at the end.  Rows are emitted as soon as
    the block that completes them is merged.  The run goes on from resume, an
    accumulator from load_checkpoint, or else starts at n = 0; checkpoint_path
    is only written, so a file already there is overwritten, never resumed.
    """
    acc = SampleAccumulator(len(cfg.forms)) if resume is None else resume
    ranges = _block_ranges(acc.n, cfg.points, cfg.checkpoint_every)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    head = list(itertools.islice(ranges, min(cfg.workers, cpus)))
    tasks = ((cfg, s, c) for s, c in itertools.chain(head, ranges))
    rows = []
    nproc = len(head)
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
