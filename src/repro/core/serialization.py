"""Save/load tridiagonalization results (NumPy ``.npz`` archives).

A factorization ``A = Q T Q^T`` is expensive; downstream workflows often
want to reuse the same ``Q`` (e.g. compute more eigenvector windows later
with :func:`repro.core.evd.eigh_partial`-style back transforms).  This
module round-trips a full :class:`~repro.core.tridiag.TridiagResult` —
including the SBR WY blocks and the bulge-chasing reflector log (kept in
stacked per-round form for wavefront-batched results, so a reloaded ``Q``
application is bit-identical) — through a single compressed ``.npz`` file.
"""

from __future__ import annotations

import pathlib

import numpy as np

from .bc_wavefront import BCWavefrontGroup, WavefrontBCResult
from .blocks import BandReductionResult, WYBlock
from .bulge_chasing import BCReflector, BulgeChasingResult
from .direct_tridiag import DirectTridiagResult
from .householder import accumulate_wy
from .tile_sbr import TileBandReductionResult, TileReflector
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
    if isinstance(result.bc_result, WavefrontBCResult):
        # Keep the stacked (per-round) form: a reloaded result rebuilds
        # the same diamond blocks from identical stacks, so ``apply_q1``
        # stays bit-exact across the round trip.
        wf = result.bc_result
        groups = wf.round_groups
        data["bc_flops"] = np.array(wf.flops)
        data["wf_sizes"] = np.array([g.size for g in groups], dtype=np.int64)
        if groups:
            data["wf_offsets"] = np.concatenate([g.offsets for g in groups])
            data["wf_sweeps"] = np.concatenate([g.sweeps for g in groups])
            data["wf_steps"] = np.concatenate([g.steps for g in groups])
            data["wf_tau"] = np.concatenate([g.tau for g in groups])
            data["wf_V"] = np.concatenate([g.V for g in groups], axis=0)
    elif result.bc_result is not None:
        bc = result.bc_result
        refl = sorted(bc.reflectors, key=lambda r: r.seq)
        data["bc_flops"] = np.array(bc.flops)
        data["refl_sweep"] = np.array([r.sweep for r in refl], dtype=np.int64)
        data["refl_step"] = np.array([r.step for r in refl], dtype=np.int64)
        data["refl_offset"] = np.array([r.offset for r in refl], dtype=np.int64)
        data["refl_tau"] = np.array([r.tau for r in refl])
        data["refl_len"] = np.array([r.v.size for r in refl], dtype=np.int64)
        if refl:
            data["refl_v"] = np.concatenate([r.v for r in refl])
    if result.direct_result is not None:
        dr = result.direct_result
        _save_blocks(data, dr.blocks)
        data["direct_flops"] = np.array(dr.flops)
        data["direct_blas2"] = np.array(dr.blas2_flops)
    if result.tile_result is not None:
        tr = result.tile_result
        data["tile_band"] = tr.band
        refl = tr.reflectors
        data["tile_kinds"] = np.array([r.kind for r in refl])
        data["tile_row_lens"] = np.array([r.rows.size for r in refl], dtype=np.int64)
        data["tile_widths"] = np.array([r.W.shape[1] for r in refl], dtype=np.int64)
        if refl:
            data["tile_rows"] = np.concatenate([r.rows for r in refl])
            data["tile_W"] = np.concatenate([r.W.ravel() for r in refl])
            data["tile_Y"] = np.concatenate([r.Y.ravel() for r in refl])
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
    solver tag, and — when given — the source matrix ``A`` so the file
    is self-contained for ``repro verify``.

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


def _load_reflectors(z) -> list[BCReflector]:
    sweeps = z["refl_sweep"]
    if sweeps.size == 0:
        return []
    steps = z["refl_step"]
    offsets = z["refl_offset"]
    taus = z["refl_tau"]
    lens = z["refl_len"]
    flat_v = z["refl_v"]
    out: list[BCReflector] = []
    pos = 0
    for i in range(sweeps.size):
        length = int(lens[i])
        out.append(
            BCReflector(
                sweep=int(sweeps[i]),
                step=int(steps[i]),
                offset=int(offsets[i]),
                v=flat_v[pos : pos + length].copy(),
                tau=float(taus[i]),
                seq=i,
            )
        )
        pos += length
    return out


def load_tridiag(path) -> TridiagResult:
    """Reconstruct a :class:`TridiagResult` saved by :func:`save_tridiag`."""
    with np.load(pathlib.Path(path), allow_pickle=False) as z:
        version = int(z["format_version"])
        if version not in (1, 2, _FORMAT_VERSION):
            raise ValueError(f"unsupported format version {version}")
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
        if "wf_sizes" in z:
            groups: list[BCWavefrontGroup] = []
            pos = 0
            for s in z["wf_sizes"]:
                s = int(s)
                groups.append(
                    BCWavefrontGroup(
                        offsets=z["wf_offsets"][pos : pos + s].copy(),
                        V=z["wf_V"][pos : pos + s].copy(),
                        tau=z["wf_tau"][pos : pos + s].copy(),
                        sweeps=z["wf_sweeps"][pos : pos + s].copy(),
                        steps=z["wf_steps"][pos : pos + s].copy(),
                    )
                )
                pos += s
            bc_result = WavefrontBCResult(
                d=d.copy(),
                e=e.copy(),
                round_groups=groups,
                flops=float(z["bc_flops"]),
            )
        elif "refl_sweep" in z:
            bc_result = BulgeChasingResult(
                d=d.copy(),
                e=e.copy(),
                reflectors=_load_reflectors(z),
                flops=float(z["bc_flops"]),
            )
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
        tile_result = None
        if "tile_band" in z:
            refl = []
            row_lens = z["tile_row_lens"]
            widths = z["tile_widths"]
            kinds = z["tile_kinds"]
            rpos = wpos = 0
            for i in range(row_lens.size):
                rl, w = int(row_lens[i]), int(widths[i])
                rows = z["tile_rows"][rpos : rpos + rl].copy()
                size = rl * w
                W = z["tile_W"][wpos : wpos + size].reshape(rl, w).copy()
                Y = z["tile_Y"][wpos : wpos + size].reshape(rl, w).copy()
                refl.append(TileReflector(rows=rows, W=W, Y=Y, kind=str(kinds[i])))
                rpos += rl
                wpos += size
            tile_result = TileBandReductionResult(
                band=z["tile_band"], bandwidth=bandwidth, reflectors=refl
            )
        return TridiagResult(
            d=d.copy(),
            e=e.copy(),
            method=method,
            bandwidth=bandwidth,
            band_result=band_result,
            tile_result=tile_result,
            bc_result=bc_result,
            direct_result=direct_result,
            back_transform_group=group,
        )
