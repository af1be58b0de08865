"""Reference implementations the rewritten hot layers must equal bit for bit.

These are the earlier bodies of ``kernels.combine_masses`` (row
reductions), of the sort-based measurement-grid builders (uint64 cell
keys, ``np.unique`` and a per-patch scatter), of
``WorldModel.label_points`` (every region tested against every point), of
``fusion.fuse_layers`` (Dempster's rule over every cell of every input),
of ``scenario.uniform_patched_cell_count`` (a distance test per patch)
and of ``resample.occ_block_merge`` (``np.prod`` and ``np.median`` over a
transposed block copy, for blocks of any size). ``test_equivalence.py``
compares the library against them with ``np.array_equal``, on bit
patterns or with list equality. ``traverse_rays_fallback`` is the
ordering check of ``kernels.traverse_rays`` run over every minor-axis
crossing, and ``simulate_lidar_all_segments`` casts every beam against
every world segment; ``test_kernels.py`` and ``test_scenario.py`` use them.
"""

import math

import numpy as np

from apgm.errors import CellOutOfBoundsError
from apgm.evidence import combine_mass_arrays
from apgm.grid import UNKNOWN, GridMap, Layer, global_cells_of, split_global_cells
from apgm.kernels import _traverse_rays_impl, ray_cell_cap, total_conflict
from apgm.scenario import _mounted
from apgm.requirements import _rect_min_distance, required_step
from apgm.resample import block_view, resample_layer
from apgm.sensors import PointCloud, _clip_to_horizon, occupancy_evidence

_KEY_BIAS = 1 << 31
_LOW_BITS = np.uint64(0xFFFFFFFF)
_SHIFT = np.uint64(32)


def combine_masses_rows(a, b, out, conflict):
    sa = a.sum(axis=-1)
    sb = b.sum(axis=-1)
    wa = 1.0 - sa
    wb = 1.0 - sb
    agree = a * b
    np.copyto(conflict, sa * sb - agree.sum(axis=-1))
    norm = 1.0 - conflict
    dead = norm <= 1e-12
    safe = np.where(dead, 1.0, norm)
    fused = (agree + a * wb[:, None] + b * wa[:, None]) / safe[:, None]
    omega = wa * wb / safe
    scale = fused.sum(axis=-1) + omega
    scale = np.where(scale <= 0.0, 1.0, scale)
    fused /= scale[:, None]
    fused[dead] = 0.0
    fused[fused < 0.0] = 0.0  # a row summing over 1 can round below zero
    np.copyto(out, fused)
    return out, conflict


def _encode_cells(cells):
    if len(cells) and (cells.min() < -_KEY_BIAS or cells.max() >= _KEY_BIAS):
        raise CellOutOfBoundsError("outside the +-2^31 key range")
    biased = (cells + _KEY_BIAS).astype(np.uint64)
    return (biased[:, 0] << _SHIFT) | biased[:, 1]


def _decode_cells(keys):
    x = (keys >> _SHIFT).astype(np.int64) - _KEY_BIAS
    y = (keys & _LOW_BITS).astype(np.int64) - _KEY_BIAS
    return np.stack([x, y], axis=1)


def _scatter_channel(grid, step, type_name, cells, values, channel):
    if len(cells) == 0:
        return
    patch_idx, local = split_global_cells(cells, step)
    keys = _encode_cells(patch_idx)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    patch_idx = patch_idx[order]
    local = local[order]
    values = np.asarray(values)[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    bounds = np.append(starts, len(keys))
    for i in range(len(starts)):
        s, e = bounds[i], bounds[i + 1]
        index = (int(patch_idx[s, 0]), int(patch_idx[s, 1]))
        layer = grid.get_or_create_layer(index, type_name, step)
        layer.masses[local[s:e, 0], local[s:e, 1], channel] = values[s:e].astype(
            np.float32
        )


def occupancy_sorted(cloud, params, profile, config):
    grid = GridMap(config)
    demand = profile.demands.get("occupancy")
    if demand is None or not demand.active or len(cloud.points) == 0:
        return grid
    step = required_step(profile, "occupancy", config.edge_length)
    width = config.cell_width(step)
    origin = cloud.origin
    vehicle = np.asarray(profile.vehicle_pose[:2], dtype=np.float64)

    pts = cloud.points
    rng = np.hypot(pts[:, 0] - origin[0], pts[:, 1] - origin[1])
    pts = pts[rng <= params.max_range + 1e-9]
    if len(pts) == 0:
        return grid
    hit_mask, ends = _clip_to_horizon(origin, pts, vehicle, demand.horizon_m)
    if demand.fov_half_angle_rad is not None:
        rel = ends - vehicle
        ang = np.arctan2(rel[:, 1], rel[:, 0]) - profile.vehicle_pose[2]
        ang = (ang + np.pi) % (2.0 * np.pi) - np.pi
        view = np.abs(ang) <= demand.fov_half_angle_rad
        hit_mask, ends = hit_mask[view], ends[view]
    if len(ends) == 0:
        return grid

    hit_cells = global_cells_of(ends[hit_mask], config.datum, width)
    if len(hit_cells):
        hit_keys, counts = np.unique(_encode_cells(hit_cells), return_counts=True)
        occ_mass = occupancy_evidence(counts, params)
    else:
        hit_keys = np.empty(0, dtype=np.uint64)
        occ_mass = np.empty(0)

    su = np.full(len(ends), (origin[0] - config.datum[0]) / width)
    sv = np.full(len(ends), (origin[1] - config.datum[1]) / width)
    eu = (ends[:, 0] - config.datum[0]) / width
    ev = (ends[:, 1] - config.datum[1]) / width
    cap = ray_cell_cap(su, sv, eu, ev)
    fx, fy = _traverse_rays_impl(su, sv, eu, ev, cap)
    free_keys = np.empty(0, dtype=np.uint64)
    free_mass = np.empty(0)
    if len(fx):
        crossed = _encode_cells(np.stack([fx, fy], axis=1))
        free_keys, crossings = np.unique(crossed, return_counts=True)
        clear = ~np.isin(free_keys, hit_keys)
        free_keys = free_keys[clear]
        free_mass = 1.0 - (1.0 - params.mu_free) ** crossings[clear]

    _scatter_channel(grid, step, "occupancy", _decode_cells(hit_keys), occ_mass, 0)
    _scatter_channel(grid, step, "occupancy", _decode_cells(free_keys), free_mass, 1)
    return grid


def semantic_sorted(obs, profile, config, counter=None):
    grid = GridMap(config)
    demand = profile.demands.get("semantic")
    if demand is None or not demand.active or len(obs.points) == 0:
        return grid
    frame = config.frame_of("semantic")
    step = required_step(profile, "semantic", config.edge_length)
    width = config.cell_width(step)

    px, py, heading = profile.vehicle_pose
    rel = obs.points - np.array([px, py])
    keep = np.hypot(rel[:, 0], rel[:, 1]) <= demand.horizon_m
    if demand.fov_half_angle_rad is not None:
        ang = np.arctan2(rel[:, 1], rel[:, 0]) - heading
        ang = (ang + np.pi) % (2.0 * np.pi) - np.pi
        keep &= np.abs(ang) <= demand.fov_half_angle_rad
    pts = obs.points[keep]
    if len(pts) == 0:
        return grid
    names, label_of_point = np.unique(np.asarray(obs.labels)[keep], return_inverse=True)
    frame_idx = np.array([frame.index(str(name)) for name in names], dtype=np.int64)
    label_idx = frame_idx[label_of_point]
    conf = np.clip(obs.confidences[keep], 0.0, 1.0)

    cells = global_cells_of(pts, config.datum, width)
    keys = _encode_cells(cells)
    uniq, inverse = np.unique(keys, return_inverse=True)

    with np.errstate(divide="ignore"):
        log_miss = np.log1p(-conf)
    agg = np.zeros((len(uniq), len(frame)))
    np.add.at(agg, (inverse, label_idx), log_miss)
    label_mass = 1.0 - np.exp(agg)

    acc = np.zeros_like(label_mass)
    for j in range(len(frame)):
        single = np.zeros_like(label_mass)
        single[:, j] = label_mass[:, j]
        acc, conflict = combine_mass_arrays(acc, single)
        dead = conflict >= 1.0 - 1e-12
        if counter is not None and np.any(dead):
            counter.add(int(dead.sum()))

    decoded = _decode_cells(uniq)
    for j in range(len(frame)):
        _scatter_channel(grid, step, "semantic", decoded, acc[:, j], j)
    return grid


def points_in_polygon_all_edges(points, polygon):
    px = points[:, 0]
    py = points[:, 1]
    inside = np.zeros(len(points), dtype=bool)
    n = len(polygon)
    for i in range(n):
        x0, y0 = polygon[i]
        x1, y1 = polygon[(i + 1) % n]
        crosses = (y0 > py) != (y1 > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = x0 + (py - y0) * (x1 - x0) / (y1 - y0)
        inside ^= crosses & (px < xint)
    return inside


def label_points_every_region(regions, points):
    points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    labels = [UNKNOWN] * len(points)
    undecided = np.ones(len(points), dtype=bool)
    for region in regions:
        if not np.any(undecided):
            break
        inside = points_in_polygon_all_edges(points, region.polygon) & undecided
        for i in np.flatnonzero(inside):
            labels[i] = region.label
        undecided &= ~inside
    return labels


def fuse_layers_dense(layers, r_req, counter=None):
    layers = list(layers)
    if not layers:
        raise ValueError("need at least one layer to fuse")
    r_fused = min(r_req, max(l.step for l in layers))
    resampled = [resample_layer(l, r_fused) for l in layers]
    first = layers[0]
    if len(resampled) == 1:
        return Layer(
            first.type_name, first.frame, r_fused, resampled[0].masses.copy()
        )
    acc = resampled[0].masses.astype(np.float64)
    for nxt in resampled[1:]:
        acc, conflict = combine_mass_arrays(acc, nxt.masses.astype(np.float64))
        if counter is not None:
            counter.add(np.count_nonzero(total_conflict(conflict)))
    return Layer(first.type_name, first.frame, r_fused, acc.astype(np.float32))


def uniform_patched_cell_count_scan(center, datum, horizon_m, edge_length, step):
    """Patches anchored at ``datum`` that ``patch_in_horizon``'s distance
    rule keeps around ``center``, each tested on its own corner."""
    cx, cy = float(center[0]), float(center[1])
    reach = int(math.ceil(horizon_m / edge_length)) + 2
    base_x = math.floor((cx - datum[0]) / edge_length)
    base_y = math.floor((cy - datum[1]) / edge_length)
    patches = 0
    for ix in range(base_x - reach, base_x + reach + 1):
        for iy in range(base_y - reach, base_y + reach + 1):
            x0 = datum[0] + edge_length * ix
            y0 = datum[1] + edge_length * iy
            d = _rect_min_distance(cx, cy, x0, y0, x0 + edge_length, y0 + edge_length)
            if d <= horizon_m:
                patches += 1
    return patches * (1 << (2 * step))


def traverse_rays_fallback(u0, v0, u1, v1):
    """Indices of the rays ``traverse_rays`` hands to the reference walk,
    with the exact ordering check run over every minor-axis crossing."""
    u0, v0, u1, v1 = (np.asarray(w, dtype=np.float64) for w in (u0, v0, u1, v1))
    flag = np.zeros(len(u0), dtype=bool)
    cx, cy, ex, ey = np.floor(u0), np.floor(v0), np.floor(u1), np.floor(v1)
    dx = u1 - u0
    dy = v1 - v0
    qx = np.where(dx > 0.0, (cx + 1.0) - u0, u0 - cx)
    qy = np.where(dy > 0.0, (cy + 1.0) - v0, v0 - cy)
    adx = np.abs(dx)
    ady = np.abs(dy)
    nx = np.abs(ex - cx).astype(np.int64)
    ny = np.abs(ey - cy).astype(np.int64)
    tol = (nx + ny + 16) * 2.0**-52
    minor_y = ny < nx
    q_m, q_M = np.where(minor_y, qy, qx), np.where(minor_y, qx, qy)
    ad_m, ad_M = np.where(minor_y, ady, adx), np.where(minor_y, adx, ady)
    n_m, n_M = np.minimum(nx, ny), np.maximum(nx, ny)
    with np.errstate(all="ignore"):
        tie = (n_m > 0) & (q_m / ad_m == q_M / ad_M)
        for q, ad, n in ((qx, adx, nx), (qy, ady, ny)):
            flag |= (n > 0) & ((q + (n - 1)) / ad >= 1.0 - tol)
        k = np.arange(n_m.sum()) - np.repeat(np.cumsum(n_m) - n_m, n_m)
        t = (np.repeat(q_m, n_m) + k) / np.repeat(ad_m, n_m)
        qr, adr, nr, tolr = (np.repeat(w, n_m) for w in (q_M, ad_M, n_M, tol))
        tier = np.repeat(tie, n_m)
        c = np.floor(t * adr - qr).astype(np.int64) + 1
        np.clip(c, 0, nr, out=c)
        first = k == 0
        c[first & tier] = 1
        below = (qr + (c - 1)) / adr
        above = (qr + c) / adr
        bad = (c > 0) & ((below > t) | ((t - below <= tolr) & ~(first & (c == 1))))
        bad |= (c < nr) & ((above <= t) | ((above - t <= tolr) & ~(first & (c == 0))))
    flag[np.repeat(np.arange(len(n_m)), n_m)[bad]] = True
    return np.flatnonzero(flag)


def simulate_lidar_all_segments(world, pose, config, rng):
    origin = _mounted(pose, config.mount)
    angles = pose[2] + np.arange(config.beams) * (2.0 * np.pi / config.beams)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    noise = rng.normal(0.0, config.noise_sigma, size=config.beams)

    segs = world.segments()
    if len(segs) == 0:
        return PointCloud(origin, np.empty((0, 2)))
    rel = segs[:, :2] - origin
    vec = segs[:, 2:] - segs[:, :2]
    denom = dirs[:, 0, None] * vec[None, :, 1] - dirs[:, 1, None] * vec[None, :, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (rel[None, :, 0] * vec[None, :, 1] - rel[None, :, 1] * vec[None, :, 0]) / denom
        s = (rel[None, :, 0] * dirs[:, 1, None] - rel[None, :, 1] * dirs[:, 0, None]) / denom
    valid = (np.abs(denom) > 1e-12) & (t > 1e-9) & (s >= 0.0) & (s <= 1.0)
    t = np.where(valid, t, np.inf)
    ranges = t.min(axis=1)
    hit = ranges <= config.max_range
    ranges = ranges[hit] + noise[hit]
    keep = ranges > 0.0
    points = origin + dirs[hit][keep] * ranges[keep, None]
    return PointCloud(origin, points)


def occ_block_merge_median(children):
    children = np.asarray(children, dtype=np.float64)
    occ = 1.0 - np.prod(1.0 - children[..., 0], axis=-1)
    free = np.median(children[..., 1], axis=-1)
    free = np.minimum(free, 1.0 - occ)
    return np.stack([occ, free], axis=-1)


def resample_occupancy_merged(layer, r_target):
    """Masses of an occupancy layer merged from its step down to ``r_target``."""
    blocks = block_view(layer.masses.astype(np.float64), 1 << (layer.step - r_target))
    return occ_block_merge_median(blocks).astype(np.float32)
