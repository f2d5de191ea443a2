"""Save/load tridiagonalization results (NumPy ``.npz`` archives).

A factorization ``A = Q T Q^T`` is expensive; downstream workflows often
want to reuse the same ``Q`` (e.g. compute more eigenvector windows later
with :func:`repro.core.evd.eigh_partial`-style back transforms).  This
module round-trips a full :class:`~repro.core.tridiag.TridiagResult` —
including the SBR WY blocks and the bulge-chasing reflector stack (kept
as is, so a reloaded ``Q`` application is bit-identical) — through a
single compressed ``.npz`` file.
"""

from __future__ import annotations

import pathlib

import numpy as np

from .blocks import BandReductionResult, WYBlock
from .bulge_chasing import BulgeChasingResult
from .direct_tridiag import DirectTridiagResult
from .householder import accumulate_wy
from .tridiag import TridiagResult

__all__ = ["save_tridiag", "load_tridiag", "save_evd", "load_evd"]

#: Format 2 dropped ``bt_method`` (one SBR back transform, chosen by its
#: group width ``bt_group``); format 3 stores direct results' panel WY
#: blocks under the ``block_*`` keys band results use, where formats 1 and
#: 2 stored ``direct_V``/``direct_taus``.  Older archives still load.
_FORMAT_VERSION = 3
#: The width of the WY blocks a format-1/2 direct archive's reflectors
#: are regrouped into on load (sytrd's panel width).
_LEGACY_DIRECT_BLOCK = 32
_EVD_FORMAT_VERSION = 1


def save_tridiag(path, result: TridiagResult) -> None:
    """Serialize ``result`` to ``path`` (``.npz``, compressed)."""
    data: dict[str, np.ndarray] = {
        "format_version": np.array(_FORMAT_VERSION),
        "d": result.d,
        "e": result.e,
        "method": np.array(result.method),
        "bandwidth": np.array(result.bandwidth),
        "bt_group": np.array(result.back_transform_group),
    }
    if result.band_result is not None:
        br = result.band_result
        data["band"] = br.band
        data["band_flops"] = np.array(br.flops)
        _save_blocks(data, br.blocks)
    bc = result.bc_result
    if bc is not None:
        # The stack as is: a reloaded result rebuilds the same diamond
        # blocks from identical arrays, so ``apply_q1`` stays bit-exact.
        # ``wf_sizes`` once counted the reflectors of each pipeline round;
        # the stack is written as a single entry.
        data["bc_flops"] = np.array(bc.flops)
        data["wf_sizes"] = np.array([bc.num_reflectors], dtype=np.int64)
        data["wf_offsets"] = bc.sweeps + 1 + bc.steps * bc.V.shape[1]
        data["wf_sweeps"] = bc.sweeps
        data["wf_steps"] = bc.steps
        data["wf_tau"] = bc.tau
        data["wf_V"] = bc.V
    if result.direct_result is not None:
        dr = result.direct_result
        _save_blocks(data, dr.blocks)
        data["direct_flops"] = np.array(dr.flops)
        data["direct_blas2"] = np.array(dr.blas2_flops)
    np.savez_compressed(pathlib.Path(path), **data)


def _save_blocks(data: dict[str, np.ndarray], blocks: list[WYBlock]) -> None:
    data["block_offsets"] = np.array([b.offset for b in blocks], dtype=np.int64)
    data["block_widths"] = np.array([b.width for b in blocks], dtype=np.int64)
    data["block_rows"] = np.array([b.rows for b in blocks], dtype=np.int64)
    if blocks:
        data["block_W"] = np.concatenate([b.W.ravel() for b in blocks])
        data["block_Y"] = np.concatenate([b.Y.ravel() for b in blocks])


def save_evd(path, result, A: np.ndarray | None = None) -> None:
    """Serialize an :class:`~repro.core.evd.EVDResult` to a compressed
    ``.npz`` archive: eigenvalues, eigenvectors (when computed), the
    solver tag, a partial result's window, and — when given — the
    source matrix ``A`` so the file is self-contained for ``repro
    verify``.

    The tridiagonalization artifacts are intentionally *not* included
    (use :func:`save_tridiag` for those); an EVD archive carries exactly
    what re-verification needs.
    """
    data: dict[str, np.ndarray] = {
        "evd_format_version": np.array(_EVD_FORMAT_VERSION),
        "eigenvalues": np.asarray(result.eigenvalues),
        "solver": np.array(result.solver),
    }
    if result.eigenvectors is not None:
        data["eigenvectors"] = np.asarray(result.eigenvectors)
    if result.window is not None:
        data["window"] = np.array(result.window, dtype=np.int64)
    if A is not None:
        data["source_matrix"] = np.asarray(A)
    np.savez_compressed(pathlib.Path(path), **data)


def load_evd(path):
    """Load an archive written by :func:`save_evd`.

    Returns ``(result, A)`` — the reconstructed
    :class:`~repro.core.evd.EVDResult` (``tridiag`` is always ``None``)
    and the stored source matrix, or ``None`` when the archive was saved
    without one.
    """
    from .evd import EVDResult

    with np.load(pathlib.Path(path), allow_pickle=False) as z:
        if "evd_format_version" not in z:
            raise ValueError(
                f"{path}: not an EVD archive (missing 'evd_format_version'; "
                "tridiagonalization archives load via load_tridiag)"
            )
        version = int(z["evd_format_version"])
        if version != _EVD_FORMAT_VERSION:
            raise ValueError(f"unsupported EVD format version {version}")
        result = EVDResult(
            eigenvalues=z["eigenvalues"].copy(),
            eigenvectors=z["eigenvectors"].copy() if "eigenvectors" in z else None,
            tridiag=None,
            solver=str(z["solver"]),
            window=tuple(int(i) for i in z["window"]) if "window" in z else None,
        )
        A = z["source_matrix"].copy() if "source_matrix" in z else None
    return result, A


def _load_blocks(z) -> list[WYBlock]:
    offsets = z["block_offsets"]
    widths = z["block_widths"]
    rows = z["block_rows"]
    blocks: list[WYBlock] = []
    if offsets.size == 0:
        return blocks
    flat_w = z["block_W"]
    flat_y = z["block_Y"]
    pos = 0
    for off, w, r in zip(offsets, widths, rows):
        size = int(w) * int(r)
        W = flat_w[pos : pos + size].reshape(int(r), int(w))
        Y = flat_y[pos : pos + size].reshape(int(r), int(w))
        blocks.append(WYBlock(W=W.copy(), Y=Y.copy(), offset=int(off)))
        pos += size
    return blocks


def _legacy_direct_blocks(V: np.ndarray, taus: np.ndarray) -> list[WYBlock]:
    """Regroup a format-1/2 direct archive's reflectors (reflector ``j`` in
    ``V[j + 1:, j]``, unit first element) into width-32 panel blocks."""
    blocks: list[WYBlock] = []
    for j0 in range(0, taus.size, _LEGACY_DIRECT_BLOCK):
        j1 = min(j0 + _LEGACY_DIRECT_BLOCK, taus.size)
        W, Y = accumulate_wy(V[j0 + 1 :, j0:j1], taus[j0:j1])
        blocks.append(WYBlock(W=W, Y=Y, offset=j0 + 1))
    return blocks


def _load_chase(z, d: np.ndarray, e: np.ndarray, b: int) -> BulgeChasingResult:
    """The stored reflector stack (``wf_*``, however many entries
    ``wf_sizes`` splits it into), or a legacy per-reflector log
    (``refl_*``, trimmed vectors back to back) padded to ``b`` columns."""
    if "wf_sizes" in z:
        if "wf_V" in z:
            sweeps, steps = z["wf_sweeps"], z["wf_steps"]
            V, tau = z["wf_V"], z["wf_tau"]
        else:  # an empty stack written before the arrays were always kept
            sweeps = steps = np.zeros(0, dtype=np.int64)
            V, tau = np.zeros((0, b)), np.zeros(0)
    else:
        sweeps, steps, tau = z["refl_sweep"], z["refl_step"], z["refl_tau"]
        lens = z["refl_len"]
        V = np.zeros((lens.size, b))
        if lens.size:
            starts = np.repeat(np.cumsum(lens) - lens, lens)
            V[np.repeat(np.arange(lens.size), lens), np.arange(starts.size) - starts] = z["refl_v"]
    return BulgeChasingResult(
        d=d.copy(),
        e=e.copy(),
        sweeps=sweeps.astype(np.int64),
        steps=steps.astype(np.int64),
        V=V,
        tau=tau,
        flops=float(z["bc_flops"]),
    )


def load_tridiag(path) -> TridiagResult:
    """Reconstruct a :class:`TridiagResult` saved by :func:`save_tridiag`."""
    with np.load(pathlib.Path(path), allow_pickle=False) as z:
        version = int(z["format_version"])
        if version not in (1, 2, _FORMAT_VERSION):
            raise ValueError(f"unsupported format version {version}")
        if "tile_band" in z:
            raise ValueError(
                "archive holds a result of the retired 'tile' "
                "tridiagonalization method, which cannot be loaded"
            )
        group = int(z["bt_group"])
        if version == 1 and str(z["bt_method"]) == "blocked":
            # Format 1 named the schedule; its "blocked" applied the panels
            # one by one, which is group width 1 (bit-identical on reload).
            # "incremental" and "recursive" keep the stored width.
            group = 1
        d = z["d"]
        e = z["e"]
        method = str(z["method"])
        bandwidth = int(z["bandwidth"])
        band_result = None
        bc_result = None
        direct_result = None
        if "band" in z:
            band_result = BandReductionResult(
                band=z["band"],
                bandwidth=bandwidth,
                blocks=_load_blocks(z),
                flops=float(z["band_flops"]),
            )
        if "wf_sizes" in z or "refl_sweep" in z:
            bc_result = _load_chase(z, d, e, bandwidth)
        if "direct_flops" in z:
            direct_result = DirectTridiagResult(
                d=d.copy(),
                e=e.copy(),
                blocks=(
                    _legacy_direct_blocks(z["direct_V"], z["direct_taus"])
                    if "direct_V" in z
                    else _load_blocks(z)
                ),
                flops=float(z["direct_flops"]),
                blas2_flops=float(z["direct_blas2"]),
            )
        return TridiagResult(
            d=d.copy(),
            e=e.copy(),
            method=method,
            bandwidth=bandwidth,
            band_result=band_result,
            bc_result=bc_result,
            direct_result=direct_result,
            back_transform_group=group,
        )
