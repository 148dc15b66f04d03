"""Training loop tying projections, filtering, and the contrastive losses.

Per modality a linear projection maps raw features into a shared space;
a softmax-weighted combination feeds the dual filter.  With feature-domain
denoising on, the raw features first pass ``repair_feature_outliers``, an
extension of this repository (once, in ``_raw_features``, which fit,
forward and the gradient check share).  Gradients are computed
analytically: the feature shift operators, walk samples, cluster
centroids, and hard positive sets are treated as constants of the
current step, and the same freeze applies in finite-difference replay
so the two paths are comparable.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import MultimodalGraph, NormalizedOperators, normalize_adjacency
from .filters import (
    DualFilterConfig,
    RepairReport,
    dual_filter,
    dual_filter_vjp,
    feature_shift,
    repair_feature_outliers,
)
from .kmeans import Clustering, kmeans_fit
from .losses import (
    PrunedGraph,
    SampleSet,
    community_loss,
    cross_modality_loss,
    hard_positive_sets,
    neighborhood_loss,
    passthrough_pruned,
    prune_graph,
    sample_neighborhoods,
)
from .metrics import nmi

# seed-stream tags so every random consumer draws independently
_STREAM_INIT = 0
_STREAM_PRUNE = 1
_STREAM_WALKS = 2
_STREAM_MMS = 3
_STREAM_KMEANS = 4


@dataclass
class TrainConfig:
    alpha: float = 1.0          # node-domain smoothing strength
    beta: float = 1.0           # feature-domain smoothing strength
    t_layers: int = 10          # filter series truncation order
    theta: float = 0.3          # hard positive fraction per cluster
    delta: float = 0.1          # contrastive margin
    walk_length: int = 10       # walk steps per anchor
    negatives_per_node: int | None = None  # defaults to walk_length
    lr: float = 1e-3
    weight_decay: float = 1e-5
    epochs: int = 100
    kmeans_interval: int = 5
    hidden_dim: int = 64
    mms_negatives: int = 256    # impostor cap per row in the margin loss
    seed: int = 0
    no_fdd: bool = False        # no feature-domain denoising: beta -> 0, no outlier repair
    no_mod_loss: bool = False
    no_nbr_loss: bool = False
    no_aas: bool = False        # disable similarity-based edge pruning
    no_comm_loss: bool = False
    no_hps: bool = False        # use whole clusters instead of hard positives

    def filter_config(self) -> DualFilterConfig:
        beta = 0.0 if self.no_fdd else self.beta
        return DualFilterConfig(alpha=self.alpha, beta=beta, t_layers=self.t_layers)

    @property
    def resolved_negatives(self) -> int:
        return self.walk_length if self.negatives_per_node is None else self.negatives_per_node

    def validate(self) -> None:
        self.filter_config().validate()
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and positive, got {self.lr}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(
                f"weight_decay must be finite and non-negative, got {self.weight_decay}"
            )
        if not math.isfinite(self.delta):
            raise ValueError(f"delta must be finite, got {self.delta}")
        if self.kmeans_interval < 1:
            raise ValueError("kmeans_interval must be >= 1")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("theta must lie in (0, 1]")
        if self.walk_length < 1:
            raise ValueError("walk_length must be >= 1")
        if self.resolved_negatives < 1:
            raise ValueError("negatives_per_node must be >= 1")
        if self.mms_negatives < 1:
            raise ValueError("mms_negatives must be >= 1")


@dataclass
class ModelParams:
    weights: list[np.ndarray]       # per modality, (d_i, hidden_dim)
    combine_logits: np.ndarray      # (m,)

    def copy(self) -> "ModelParams":
        return ModelParams(
            [w.copy() for w in self.weights], self.combine_logits.copy()
        )


@dataclass
class EpochLog:
    epoch: int
    loss_total: float
    loss_mod: float
    loss_nbr: float
    loss_comm: float
    pruned_edges: int
    nmi_vs_labels: float | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self))


@dataclass
class FitResult:
    params: ModelParams
    clustering: Clustering
    epoch_logs: list[EpochLog]
    h: np.ndarray
    pruned: PrunedGraph
    repairs: list[RepairReport] = field(default_factory=list)  # per modality
    stopped_at: int | None = None  # epoch at which training diverged and stopped


@dataclass
class ForwardCache:
    z_list: list[np.ndarray]
    s_list: list[np.ndarray]
    combine_weights: np.ndarray
    z: np.ndarray
    h: np.ndarray


@dataclass
class FrozenState:
    """Step constants: everything the gradient treats as data."""

    shifts: list[np.ndarray]
    samples: SampleSet | None
    assignments: np.ndarray | None
    centroids_norm: np.ndarray | None
    hard_sets: list[np.ndarray] | None
    mms_seed: int


def _sub_seed(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence([int(seed), *map(int, tags)]).generate_state(1)[0])


def _softmax(v: np.ndarray) -> np.ndarray:
    shifted = v - v.max()
    e = np.exp(shifted)
    return e / e.sum()


def _row_normalize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = np.linalg.norm(x, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    return x / safe[:, None], norms


def _row_normalize_vjp(
    x_norm: np.ndarray, norms: np.ndarray, grad: np.ndarray
) -> np.ndarray:
    """Pull a gradient on x / ||x|| back to x; zero rows stay zero."""
    safe = np.where(norms > 0, norms, 1.0)
    inner = np.einsum("ij,ij->i", x_norm, grad)
    out = (grad - inner[:, None] * x_norm) / safe[:, None]
    out[norms == 0] = 0.0
    return out


def init_params(
    feature_dims: list[int], hidden_dim: int, seed: int = 0
) -> ModelParams:
    """Uniform +-sqrt(6 / (d_in + d_out)) projections, zero mixing logits."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), _STREAM_INIT]))
    weights = []
    for d in feature_dims:
        bound = math.sqrt(6.0 / (d + hidden_dim))
        weights.append(rng.uniform(-bound, bound, size=(d, hidden_dim)))
    return ModelParams(weights=weights, combine_logits=np.zeros(len(feature_dims)))


def _forward(
    xs: list[np.ndarray],
    ops: NormalizedOperators,
    params: ModelParams,
    cfg: TrainConfig,
    shifts: list[np.ndarray] | None = None,
) -> ForwardCache:
    z_list = [x @ w for x, w in zip(xs, params.weights)]
    s_list = shifts if shifts is not None else [feature_shift(z) for z in z_list]
    weights = _softmax(params.combine_logits)
    z = np.zeros_like(z_list[0])
    for w_i, z_i in zip(weights, z_list):
        z += w_i * z_i
    h = dual_filter(ops.a_hat, z, s_list, cfg.filter_config())
    return ForwardCache(z_list=z_list, s_list=s_list, combine_weights=weights, z=z, h=h)


def _raw_features(
    graph: MultimodalGraph, ops: NormalizedOperators, cfg: TrainConfig
) -> tuple[list[np.ndarray], list[RepairReport]]:
    """Each modality's attributes in 64-bit after the outlier repair, and
    what the repair replaced."""
    filter_cfg = cfg.filter_config()
    xs = [m.x.astype(np.float64) for m in graph.modalities]
    return xs, [repair_feature_outliers(ops.a_hat, x, filter_cfg) for x in xs]


def forward(
    graph: MultimodalGraph, params: ModelParams, cfg: TrainConfig
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray, np.ndarray]:
    """Repair, project, mix, and filter; returns (z_list, s_list, z, h)."""
    cfg.validate()
    ops = normalize_adjacency(graph.edges)
    xs, _ = _raw_features(graph, ops, cfg)
    cache = _forward(xs, ops, params, cfg)
    if not np.isfinite(cache.h).all():
        raise ValueError("forward produced non-finite representations")
    return cache.z_list, cache.s_list, cache.z, cache.h


def _loss_components(
    cache: ForwardCache, frozen: FrozenState, cfg: TrainConfig
) -> tuple[dict[str, float], np.ndarray, list[np.ndarray]]:
    """Loss values plus gradients on normalized h and normalized z_i."""
    h_norm, _ = _row_normalize(cache.h)
    components = {"mod": 0.0, "nbr": 0.0, "comm": 0.0}
    grad_h_norm = np.zeros_like(h_norm)
    grads_z_norm = [np.zeros_like(z) for z in cache.z_list]

    if not cfg.no_mod_loss:
        z_norms = [_row_normalize(z)[0] for z in cache.z_list]
        value, grads = cross_modality_loss(
            [h_norm] + z_norms,
            delta=cfg.delta,
            negative_cap=cfg.mms_negatives,
            seed=frozen.mms_seed,
        )
        components["mod"] = value
        grad_h_norm += grads[0]
        for i in range(len(cache.z_list)):
            grads_z_norm[i] += grads[i + 1]

    if not cfg.no_nbr_loss:
        value, grad = neighborhood_loss(h_norm, frozen.samples)
        components["nbr"] = value
        grad_h_norm += grad

    if not cfg.no_comm_loss:
        value, grad = community_loss(
            h_norm, frozen.assignments, frozen.centroids_norm, frozen.hard_sets
        )
        components["comm"] = value
        grad_h_norm += grad

    return components, grad_h_norm, grads_z_norm


def _backward(
    xs: list[np.ndarray],
    ops: NormalizedOperators,
    params: ModelParams,
    cache: ForwardCache,
    grad_h_norm: np.ndarray,
    grads_z_norm: list[np.ndarray],
    cfg: TrainConfig,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Parameter gradients; shift operators are constants of the step."""
    h_norm, h_norms = _row_normalize(cache.h)
    grad_h = _row_normalize_vjp(h_norm, h_norms, grad_h_norm)
    grad_z = dual_filter_vjp(ops.a_hat, grad_h, cache.s_list, cfg.filter_config())

    grad_weights = []
    mix_sensitivity = np.empty(len(cache.z_list))
    for i, (x, z_i) in enumerate(zip(xs, cache.z_list)):
        z_i_norm, z_i_norms = _row_normalize(z_i)
        grad_z_i = cache.combine_weights[i] * grad_z
        grad_z_i = grad_z_i + _row_normalize_vjp(z_i_norm, z_i_norms, grads_z_norm[i])
        grad_w = x.T @ grad_z_i + 2.0 * cfg.weight_decay * params.weights[i]
        grad_weights.append(grad_w)
        mix_sensitivity[i] = float(np.sum(grad_z * z_i))
    w = cache.combine_weights
    grad_logits = w * (mix_sensitivity - float(w @ mix_sensitivity))
    return grad_weights, grad_logits


def replay_loss(
    xs: list[np.ndarray],
    ops: NormalizedOperators,
    params: ModelParams,
    cfg: TrainConfig,
    frozen: FrozenState,
) -> float:
    """Step objective under frozen stochastic state, for finite differences.

    Includes the weight decay penalty so its gradient is part of the
    comparison.  The forward runs in 64-bit like the training path.
    """
    cache = _forward(xs, ops, params, cfg, shifts=frozen.shifts)
    components, _, _ = _loss_components(cache, frozen, cfg)
    penalty = cfg.weight_decay * sum(float(np.sum(w * w)) for w in params.weights)
    return sum(components.values()) + penalty


class Adam:
    """Standard Adam with bias correction; deterministic and stateful."""

    def __init__(self, shapes: list[tuple[int, ...]], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        correct1 = 1.0 - b1**self.step_count
        correct2 = 1.0 - b2**self.step_count
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= self.lr * (m / correct1) / (np.sqrt(v / correct2) + self.eps)


def _prune(graph: MultimodalGraph, cache: ForwardCache, cfg: TrainConfig) -> PrunedGraph:
    """The walk graph, pruned once from the initial projections."""
    if cfg.no_aas:
        return passthrough_pruned(graph.edges)
    z_norms = [_row_normalize(z)[0] for z in cache.z_list]
    return prune_graph(graph.edges, z_norms, seed=_sub_seed(cfg.seed, _STREAM_PRUNE))


def _refreshes_clustering(epoch: int, cfg: TrainConfig) -> bool:
    return not cfg.no_comm_loss and epoch % cfg.kmeans_interval == 0


def _step_state(
    epoch: int,
    cache: ForwardCache,
    pruned: PrunedGraph,
    k: int,
    cfg: TrainConfig,
    last: FrozenState | None = None,
) -> FrozenState:
    """Freeze the constants of one training step.

    Walks are resampled every step; the clustering fields refresh every
    ``kmeans_interval`` epochs and are carried over from ``last`` between
    refreshes.
    """
    assignments = centroids_norm = hard_sets = None
    if last is not None:
        assignments, centroids_norm, hard_sets = (
            last.assignments, last.centroids_norm, last.hard_sets
        )
    if _refreshes_clustering(epoch, cfg):
        clustering = kmeans_fit(
            cache.h, k, seed=_sub_seed(cfg.seed, _STREAM_KMEANS, epoch)
        )
        assignments = clustering.assignments
        centroids_norm, _ = _row_normalize(clustering.centroids)
        if cfg.no_hps:
            hard_sets = [np.flatnonzero(assignments == c) for c in range(clustering.k)]
        else:
            hard_sets = hard_positive_sets(
                cache.h, assignments, clustering.centroids, cfg.theta
            )
    samples = None
    if not cfg.no_nbr_loss:
        samples = sample_neighborhoods(
            pruned.edges,
            cfg.walk_length,
            cfg.resolved_negatives,
            seed=_sub_seed(cfg.seed, _STREAM_WALKS, epoch),
        )
    return FrozenState(
        shifts=cache.s_list,
        samples=samples,
        assignments=assignments,
        centroids_norm=centroids_norm,
        hard_sets=hard_sets,
        mms_seed=_sub_seed(cfg.seed, _STREAM_MMS, epoch),
    )


def _params_finite(params: ModelParams) -> bool:
    """Whether every parameter and the weight-decay term of the objective
    (the sum of squared weights) are finite."""
    with np.errstate(over="ignore"):
        decay = sum(float(np.sum(w * w)) for w in params.weights)
    return bool(np.isfinite(params.combine_logits).all() and math.isfinite(decay))


def _masked_nmi(labels: np.ndarray | None, assignments: np.ndarray) -> float | None:
    if labels is None:
        return None
    mask = labels >= 0
    if not mask.any():
        return None
    return float(nmi(labels[mask], assignments[mask]))


def fit(
    graph: MultimodalGraph,
    k: int,
    cfg: TrainConfig | None = None,
    log_path=None,
) -> FitResult:
    """Train on one dataset and return the final clustering of the
    filtered embeddings.

    The walk graph is pruned once up front from the initial projections;
    walks are resampled every epoch; centroids and hard positive sets
    refresh every ``kmeans_interval`` epochs.  With every loss disabled
    the parameters are returned untouched.  If a loss turns non-finite or
    an update leaves a non-finite parameter, training stops with the last
    finite parameters and ``stopped_at`` names the epoch.
    """
    cfg = cfg or TrainConfig()
    cfg.validate()
    if k < 1:
        raise ValueError("cluster count must be >= 1")
    if k > graph.n_nodes:
        raise ValueError("cluster count exceeds the number of nodes")

    ops = normalize_adjacency(graph.edges)
    xs, repairs = _raw_features(graph, ops, cfg)
    params = init_params([x.shape[1] for x in xs], cfg.hidden_dim, cfg.seed)
    adam = Adam(
        [w.shape for w in params.weights] + [params.combine_logits.shape],
        lr=cfg.lr,
    )

    pruned = _prune(graph, _forward(xs, ops, params, cfg), cfg)

    logs: list[EpochLog] = []
    log_fh = open(log_path, "w", encoding="utf-8") if log_path else None
    frozen = None
    stopped_at = None
    latest_nmi: float | None = None
    any_loss = not (cfg.no_mod_loss and cfg.no_nbr_loss and cfg.no_comm_loss)
    try:
        for epoch in range(cfg.epochs):
            cache = _forward(xs, ops, params, cfg)
            frozen = _step_state(epoch, cache, pruned, k, cfg, frozen)
            if _refreshes_clustering(epoch, cfg):
                latest_nmi = _masked_nmi(graph.labels, frozen.assignments)
            if any_loss:
                components, grad_h_norm, grads_z_norm = _loss_components(
                    cache, frozen, cfg
                )
                # divergence guard: keep the last finite parameter state
                if not all(math.isfinite(v) for v in components.values()):
                    stopped_at = epoch
                    break
                grad_weights, grad_logits = _backward(
                    xs, ops, params, cache, grad_h_norm, grads_z_norm, cfg
                )
                last_finite = params.copy()
                adam.step(
                    params.weights + [params.combine_logits],
                    grad_weights + [grad_logits],
                )
                if not _params_finite(params):
                    params, stopped_at = last_finite, epoch
                    break
            else:
                components = {"mod": 0.0, "nbr": 0.0, "comm": 0.0}
            entry = EpochLog(
                epoch=epoch,
                loss_total=float(sum(components.values())),
                loss_mod=float(components["mod"]),
                loss_nbr=float(components["nbr"]),
                loss_comm=float(components["comm"]),
                pruned_edges=pruned.removed_count,
                nmi_vs_labels=latest_nmi,
            )
            logs.append(entry)
            if log_fh:
                log_fh.write(entry.to_json() + "\n")
    finally:
        if log_fh:
            log_fh.close()

    cache = _forward(xs, ops, params, cfg)
    final_clustering = kmeans_fit(
        cache.h, k, seed=_sub_seed(cfg.seed, _STREAM_KMEANS, cfg.epochs)
    )
    return FitResult(
        params=params,
        clustering=final_clustering,
        epoch_logs=logs,
        h=cache.h,
        pruned=pruned,
        repairs=repairs,
        stopped_at=stopped_at,
    )


# ---------------------------------------------------------------------------
# gradient verification


@dataclass
class GradCheckEntry:
    name: str
    max_rel_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tolerance


@dataclass
class GradCheckReport:
    entries: list[GradCheckEntry] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)


def _rel_error(a: float, b: float) -> float:
    scale = max(abs(a), abs(b), 1e-10)
    return abs(a - b) / scale


def _fd_check_array(fn, x: np.ndarray, grad: np.ndarray, step: float,
                    coords: list[tuple] | None = None) -> float:
    """Max relative error of ``grad`` against central differences on ``fn``."""
    worst = 0.0
    if coords is None:
        coords = list(np.ndindex(*x.shape))
    for c in coords:
        orig = x[c]
        x[c] = orig + step
        up = fn()
        x[c] = orig - step
        down = fn()
        x[c] = orig
        fd = (up - down) / (2.0 * step)
        worst = max(worst, _rel_error(float(grad[c]), fd))
    return worst


def end_to_end_gradient_check(
    graph: MultimodalGraph,
    k: int,
    cfg: TrainConfig | None = None,
    step: float = 1e-3,
    tolerance: float = 1e-3,
    max_coords: int = 40,
    seed: int = 0,
) -> GradCheckReport:
    """Compare analytic parameter gradients with central differences.

    The stochastic pieces of one training step (shift operators, walk
    samples, centroids, hard positive sets, impostor draws) are frozen,
    so the step objective is a smooth function of the parameters.
    """
    cfg = cfg or TrainConfig()
    cfg.validate()
    ops = normalize_adjacency(graph.edges)
    xs, _ = _raw_features(graph, ops, cfg)
    params = init_params([x.shape[1] for x in xs], cfg.hidden_dim, cfg.seed)

    cache = _forward(xs, ops, params, cfg)
    frozen = _step_state(0, cache, _prune(graph, cache, cfg), k, cfg)

    components, grad_h_norm, grads_z_norm = _loss_components(cache, frozen, cfg)
    grad_weights, grad_logits = _backward(
        xs, ops, params, cache, grad_h_norm, grads_z_norm, cfg
    )

    def objective() -> float:
        return replay_loss(xs, ops, params, cfg, frozen)

    rng = np.random.default_rng(seed)
    report = GradCheckReport()
    for i, (w, g) in enumerate(zip(params.weights, grad_weights)):
        all_coords = list(np.ndindex(*w.shape))
        if len(all_coords) > max_coords:
            picks = rng.choice(len(all_coords), size=max_coords, replace=False)
            coords = [all_coords[int(p)] for p in picks]
        else:
            coords = all_coords
        worst = _fd_check_array(objective, w, g, step, coords)
        report.entries.append(GradCheckEntry(f"weights[{i}]", worst, tolerance))
    worst = _fd_check_array(objective, params.combine_logits, grad_logits, step)
    report.entries.append(GradCheckEntry("combine_logits", worst, tolerance))
    return report


def loss_gradient_checks(
    seed: int = 0, step: float = 1e-4, tolerance: float = 1e-4
) -> GradCheckReport:
    """Finite-difference checks for each loss on small random inputs."""
    rng = np.random.default_rng(seed)
    report = GradCheckReport()

    def unit_rows(n, d):
        x = rng.standard_normal((n, d))
        return _row_normalize(x)[0]

    # margin loss, full impostor set and capped
    from .losses import mms_loss

    for label, cap in (("mms_loss_full", None), ("mms_loss_capped", 3)):
        z_a = unit_rows(7, 5)
        z_b = unit_rows(7, 5)
        _, g_a, g_b = mms_loss(z_a, z_b, delta=0.1, negative_cap=cap, seed=11)
        fn = lambda: mms_loss(z_a, z_b, delta=0.1, negative_cap=cap, seed=11)[0]
        worst = _fd_check_array(fn, z_a, g_a, step)
        worst = max(worst, _fd_check_array(fn, z_b, g_b, step))
        report.entries.append(GradCheckEntry(label, worst, tolerance))

    # neighborhood loss over a ring graph's walk samples
    import scipy.sparse as sparse

    n = 12
    ring = sparse.csr_matrix(
        (
            np.ones(2 * n),
            (
                np.concatenate([np.arange(n), np.arange(n)]),
                np.concatenate([(np.arange(n) + 1) % n, (np.arange(n) - 1) % n]),
            ),
        ),
        shape=(n, n),
    )
    samples = sample_neighborhoods(ring, 4, 4, seed=5)
    h = unit_rows(n, 6)
    _, grad = neighborhood_loss(h, samples)
    fn = lambda: neighborhood_loss(h, samples)[0]
    worst = _fd_check_array(fn, h, grad, step)
    report.entries.append(GradCheckEntry("neighborhood_loss", worst, tolerance))

    # community loss with frozen centroids and hard sets
    h = unit_rows(15, 6)
    assignments = rng.integers(0, 3, size=15)
    assignments[:3] = [0, 1, 2]  # keep every cluster populated
    centroids = np.vstack([h[assignments == c].mean(axis=0) for c in range(3)])
    hard = hard_positive_sets(h, assignments, centroids, theta=0.5)
    centroids_norm = _row_normalize(centroids)[0]
    _, grad = community_loss(h, assignments, centroids_norm, hard)
    fn = lambda: community_loss(h, assignments, centroids_norm, hard)[0]
    worst = _fd_check_array(fn, h, grad, step)
    report.entries.append(GradCheckEntry("community_loss", worst, tolerance))
    return report
