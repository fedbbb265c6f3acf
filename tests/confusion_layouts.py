"""Competitions with prescribed confusion structure, for test fixtures.

Predictions are laid out to hit exact per-system confusion matrices, with
optional pairwise dependence on a reference system, so observed scores and
the spread of paired score differences can be dialed in.
``fit_confusion_matrix`` and ``fit_pair_coupling`` search for structures
matching score and bootstrap-spread targets; ``table_from_confusions`` lays
them out as a prediction table.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from boardstats.synth import _child_rng
from boardstats.table import PredictionTable, TaskKind


def table_from_confusions(
    class_counts: Mapping[str, int],
    confusions: Mapping[str, np.ndarray],
    seed: int,
    reference: Optional[str] = None,
    couplings: Optional[Mapping[str, np.ndarray]] = None,
    extra_systems: Optional[Mapping[str, Sequence]] = None,
) -> PredictionTable:
    """Build a table whose per-system confusion matrices are exact.

    ``confusions[name][g, p]`` counts gold-class-g elements predicted as
    class p (class order = ``class_counts`` key order; row sums must equal
    the class counts).  Systems listed in ``couplings`` are laid out jointly
    with ``reference``: ``couplings[name][g, v, w]`` counts gold-g elements
    the reference labels v and the system labels w, fixing the dependence
    between the two error patterns.  Everything else is assigned
    independently at random within each gold class; the randomness moves
    labels between elements but never changes any confusion count.
    """
    labels = tuple(class_counts)
    L = len(labels)
    counts = np.array([class_counts[c] for c in labels], dtype=int)
    n = int(counts.sum())
    couplings = dict(couplings or {})
    if couplings and reference is None:
        raise ValueError("couplings require a reference system")

    for name, mat in confusions.items():
        mat = np.asarray(mat)
        if mat.shape != (L, L) or (mat < 0).any():
            raise ValueError(f"confusion matrix for {name!r} must be {L}x{L} nonnegative")
        if not np.array_equal(mat.sum(axis=1), counts):
            raise ValueError(f"confusion rows for {name!r} must sum to the class counts")
    for name, joint in couplings.items():
        joint = np.asarray(joint)
        if joint.shape != (L, L, L) or (joint < 0).any():
            raise ValueError(f"coupling for {name!r} must be {L}x{L}x{L} nonnegative")
        if not np.array_equal(joint.sum(axis=2), np.asarray(confusions[reference])):
            raise ValueError(f"coupling for {name!r} does not match the reference margins")
        if not np.array_equal(joint.sum(axis=1), np.asarray(confusions[name])):
            raise ValueError(f"coupling for {name!r} does not match its own margins")

    layout = _child_rng(seed, 0xC0)
    positions = layout.permutation(n)
    gold = np.empty(n, dtype=object)
    class_pos = {}
    offset = 0
    for c, cnt in zip(labels, counts):
        pos = positions[offset : offset + cnt]
        gold[pos] = c
        class_pos[c] = pos
        offset += cnt

    def spread(rng, pos, label_counts) -> dict:
        """Randomly assign a multiset of labels onto the given positions."""
        bag = np.repeat(np.arange(L), label_counts)
        rng.shuffle(bag)
        return dict(zip(pos, bag))

    columns: dict[str, np.ndarray] = {}
    ref_assign = None
    if reference is not None:
        rng_ref = _child_rng(seed, 0xC1)
        ref_assign = {}
        for g, c in enumerate(labels):
            ref_assign.update(spread(rng_ref, class_pos[c], np.asarray(confusions[reference])[g]))
        col = np.empty(n, dtype=object)
        for pos, lab in ref_assign.items():
            col[pos] = labels[lab]
        columns[reference] = col

    for k, (name, mat) in enumerate(confusions.items()):
        if name == reference:
            continue
        rng_sys = _child_rng(seed, 0xD0 + k)
        col = np.empty(n, dtype=object)
        if name in couplings:
            joint = np.asarray(couplings[name])
            for g, c in enumerate(labels):
                pos = class_pos[c]
                ref_here = np.array([ref_assign[p] for p in pos])
                for v in range(L):
                    sub = pos[ref_here == v]
                    assign = spread(rng_sys, sub, joint[g, v])
                    for p, lab in assign.items():
                        col[p] = labels[lab]
        else:
            mat = np.asarray(mat)
            for g, c in enumerate(labels):
                assign = spread(rng_sys, class_pos[c], mat[g])
                for p, lab in assign.items():
                    col[p] = labels[lab]
        columns[name] = col

    ordered = {name: columns[name] for name in confusions}
    return PredictionTable.build(gold, ordered, TaskKind.CLASSIFICATION)


def bootstrap_sd(counts: np.ndarray, stat: Callable[[np.ndarray], float]) -> float:
    """Delta-method estimate of the bootstrap sd of a count statistic.

    ``counts`` is a tensor of element-type counts summing to n; ``stat`` maps
    such (possibly non-integer) counts to the statistic.  Resampled type
    counts are multinomial, so the sd follows from the gradient.
    """
    counts = np.asarray(counts, dtype=float)
    flat = counts.ravel()
    n = flat.sum()
    h = 1e-4
    grads = np.zeros_like(flat)
    for t in np.flatnonzero(flat):
        up = flat.copy()
        up[t] += h
        down = flat.copy()
        down[t] -= h
        grads[t] = (stat(up.reshape(counts.shape)) - stat(down.reshape(counts.shape))) / (2 * h)
    mean_grad = float((flat * grads).sum() / n)
    var = float((flat * grads**2).sum() - n * mean_grad**2)
    return math.sqrt(max(var, 0.0))


def subset_f1_stat(labels: Sequence[str], subset: Sequence[str]) -> Callable[[np.ndarray], float]:
    """Macro-F1 over a class subset as a function of an LxL confusion tensor."""
    labels = tuple(labels)
    idx = [labels.index(c) for c in subset]

    def stat(mat: np.ndarray) -> float:
        total = 0.0
        for c in idx:
            tp = mat[c, c]
            denom = mat[c, :].sum() + mat[:, c].sum()
            total += 2.0 * tp / denom if denom > 0 else 0.0
        return total / len(idx)

    return stat


def paired_f1_delta_stat(
    labels: Sequence[str], subset: Sequence[str]
) -> Callable[[np.ndarray], float]:
    """Reference-minus-system subset-F1 gap as a function of an LxLxL tensor.

    Tensor axes: (gold class, reference label, system label).
    """
    base = subset_f1_stat(labels, subset)

    def stat(joint: np.ndarray) -> float:
        return base(joint.sum(axis=2)) - base(joint.sum(axis=1))

    return stat


def fit_confusion_matrix(
    class_counts: Mapping[str, int],
    subset: Sequence[str],
    target_score: float,
    target_sd: Optional[float] = None,
    score_tol: float = 2e-5,
) -> np.ndarray:
    """Search for a confusion matrix hitting a subset-F1 target.

    Finds integer confusion counts whose macro-F1 over ``subset`` is within
    ``score_tol`` of ``target_score``; among those, picks the error layout
    whose delta-method bootstrap sd is closest to ``target_sd`` (when given).
    Supports two subset classes plus any number of other classes.
    """
    labels = tuple(class_counts)
    if len(subset) != 2:
        raise ValueError("fit_confusion_matrix expects a 2-class subset")
    s1, s2 = (labels.index(c) for c in subset)
    others = [i for i in range(len(labels)) if i not in (s1, s2)]
    counts = np.array([class_counts[c] for c in labels], dtype=int)
    g1, g2 = int(counts[s1]), int(counts[s2])
    n_other = int(counts[others].sum()) if others else 0

    def f1(tp: int, g: int, extra: int) -> float:
        return 2.0 * tp / (tp + g + extra)

    # Stage 1: all (tp, foreign-error) pairs per subset class, then match the
    # two classes so the average lands on the target.
    def options(g: int, fp_cap: int):
        out = []
        for tp in range(g + 1):
            for fp in range(fp_cap + 1):
                out.append((f1(tp, g, fp), tp, fp))
        return out

    cap1 = n_other + g2  # false positives can come from any non-class row
    cap2 = n_other + g1
    opt1 = options(g1, cap1)
    opt2 = sorted(options(g2, cap2))
    opt2_vals = np.array([v for v, _, _ in opt2])

    candidates = []
    want = 2.0 * target_score
    for v1, tp1, fp1 in opt1:
        lo = np.searchsorted(opt2_vals, want - v1 - score_tol * 2)
        hi = np.searchsorted(opt2_vals, want - v1 + score_tol * 2)
        for k in range(lo, min(hi, len(opt2))):
            v2, tp2, fp2 = opt2[k]
            err = abs((v1 + v2) / 2.0 - target_score)
            if err <= score_tol:
                candidates.append((err, tp1, fp1, tp2, fp2))
    if not candidates:
        raise ValueError("no confusion matrix reaches the target score")
    candidates.sort()
    candidates = candidates[:400]

    def build(tp1, fp1, tp2, fp2, a, e) -> Optional[np.ndarray]:
        """a: gold-s1 rows predicted s2; e: gold-s2 rows predicted s1."""
        mat = np.zeros((len(labels), len(labels)), dtype=int)
        b, d = fp1 - e, fp2 - a  # foreign errors drawn from the other rows
        if min(a, e, b, d) < 0 or a > g1 - tp1 or e > g2 - tp2 or b + d > n_other:
            return None
        if not others and (b or d or (g1 - tp1 - a) or (g2 - tp2 - e)):
            return None
        mat[s1, s1], mat[s2, s2] = tp1, tp2
        mat[s1, s2], mat[s2, s1] = a, e
        if others:
            spill = others[0]
            mat[s1, spill] = g1 - tp1 - a
            mat[s2, spill] = g2 - tp2 - e
            remaining_b, remaining_d = b, d
            for o in others:
                room = int(counts[o])
                take_b = min(remaining_b, room)
                mat[o, s1] = take_b
                room -= take_b
                remaining_b -= take_b
                take_d = min(remaining_d, room)
                mat[o, s2] = take_d
                room -= take_d
                remaining_d -= take_d
                mat[o, o] = room
            if remaining_b or remaining_d:
                return None
        return mat

    stat = subset_f1_stat(labels, subset)
    best = None
    for err, tp1, fp1, tp2, fp2 in candidates:
        splits = [(a, e) for a in {0, fp2 // 2, fp2} for e in {0, fp1 // 2, fp1}]
        for a, e in splits:
            mat = build(tp1, fp1, tp2, fp2, a, e)
            if mat is None:
                continue
            if target_sd is None:
                return mat
            sd = bootstrap_sd(mat, stat)
            key = (abs(sd - target_sd), err)
            if best is None or key < best[0]:
                best = (key, mat)
    if best is None:
        raise ValueError("no feasible confusion matrix for the target")
    return best[1]


def _round_transport(target: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Round a nonnegative matrix to integers with exact row/col sums."""
    floor = np.floor(target).astype(int)
    frac = target - floor
    need_r = rows - floor.sum(axis=1)
    need_c = cols - floor.sum(axis=0)
    while need_r.sum() > 0:
        cells = [
            (-frac[i, j], i, j)
            for i in np.flatnonzero(need_r > 0)
            for j in np.flatnonzero(need_c > 0)
        ]
        _, i, j = min(cells)
        floor[i, j] += 1
        frac[i, j] = 0.0
        need_r[i] -= 1
        need_c[j] -= 1
    return floor


def _agreement_transport(r: np.ndarray, c: np.ndarray, maximize: bool) -> np.ndarray:
    """Integer coupling of two margin vectors with extreme diagonal mass."""
    L = len(r)
    out = np.zeros((L, L), dtype=int)
    rem_r = r.astype(int).copy()
    rem_c = c.astype(int).copy()
    if maximize:
        for v in range(L):
            take = min(rem_r[v], rem_c[v])
            out[v, v] = take
            rem_r[v] -= take
            rem_c[v] -= take
    # fill the remainder greedily, avoiding the diagonal where possible
    while rem_r.sum() > 0:
        i = int(np.argmax(rem_r))
        off = [(rem_c[j], j) for j in range(L) if j != i and rem_c[j] > 0]
        if off:
            _, j = max(off)
        else:
            j = i
        take = min(rem_r[i], rem_c[j])
        out[i, j] += take
        rem_r[i] -= take
        rem_c[j] -= take
    return out


def fit_pair_coupling(
    class_counts: Mapping[str, int],
    ref_matrix: np.ndarray,
    sys_matrix: np.ndarray,
    subset: Sequence[str],
    target_sd_delta: float,
) -> np.ndarray:
    """Joint (gold, reference, system) layout matching a delta-spread target.

    Interpolates, per gold class, between the independent coupling of the two
    confusion rows and the maximum/minimum-agreement couplings, and picks the
    mixing weight whose delta-method sd of the paired score difference is
    closest to ``target_sd_delta``.  Returns an integer LxLxL tensor whose
    margins reproduce both confusion matrices exactly.
    """
    labels = tuple(class_counts)
    L = len(labels)
    counts = np.array([class_counts[c] for c in labels], dtype=int)
    ref_matrix = np.asarray(ref_matrix, dtype=int)
    sys_matrix = np.asarray(sys_matrix, dtype=int)
    stat = paired_f1_delta_stat(labels, subset)

    def joint_for(lam: float) -> np.ndarray:
        joint = np.zeros((L, L, L), dtype=int)
        for g in range(L):
            r, c = ref_matrix[g], sys_matrix[g]
            if counts[g] == 0:
                continue
            indep = np.outer(r, c) / counts[g]
            extreme = _agreement_transport(r, c, maximize=lam >= 0)
            mix = abs(lam)
            target = (1 - mix) * indep + mix * extreme
            joint[g] = _round_transport(target, r, c)
        return joint

    best = None
    for lam in np.linspace(-1.0, 1.0, 81):
        joint = joint_for(float(lam))
        sd = bootstrap_sd(joint, stat)
        key = abs(sd - target_sd_delta)
        if best is None or key < best[0]:
            best = (key, joint)
    return best[1]
