"""Training loop tying projections, filtering, and the contrastive losses.

Per modality a linear projection maps raw features into a shared space;
a softmax-weighted combination feeds the dual filter.  The filter's node
half acts on rows and the projections on columns, so it runs on the
attributes instead of the mix: ``_prepare``, the setup that fit, forward
and the gradient check share, passes each modality through
``filter_attributes``, which with feature-domain denoising on also
repairs outliers (an extension of this repository).  It keeps the
repaired attributes ``x_i`` and their node-filtered copy ``xf_i`` (``x_i``
itself when alpha = 0); a forward mixes ``sum_i w_i xf_i W_i`` and applies
the filter's feature half alone (``dual_filter`` with alpha = 0), and the
raw projections ``x_i W_i`` feed the feature shifts, pruning and the
modality loss.  The node series thus runs in setup only.

In ``fit`` each n x hidden_dim array lives only while a later step reads
it.  The raw projections are kept where they are read: the public
``forward`` always returns them; ``fit``'s pre-epoch forward hands them to
pruning, which normalizes them in place, and drops its ``h`` and shifts;
a step's forward keeps them only with the modality loss on, and otherwise
frees them once the shifts are built, before the mix; the final forward
keeps ``h`` alone.  A step row-normalizes its ``h`` and projections in
place, as nothing reads them after it, and ``fit`` drops them before the
next forward.  A step's gradient on the unit ``h`` is the first active
loss's gradient array, the others added into it.

Gradients are computed analytically: the feature shift operators, walk
samples, cluster centroids, and hard positive sets are treated as
constants of the current step.  One ``_step_gradients`` gives a step's
losses and parameter gradients to training and to the finite-difference
replay of ``end_to_end_gradient_check``, so both paths share the same
freeze.

``fit`` takes one thread budget, ``threads``, which bounds its k-means
restarts alone (``kmeans.py``); the setup and the steps run on the calling
thread.  Of the command line, only ``cluster`` sets it (``--threads``);
``end_to_end_gradient_check`` clusters on the default budget.
"""

from __future__ import annotations

import json
import math
import numbers
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .data import (
    MultimodalGraph,
    NormalizedOperators,
    normalize_adjacency,
    symmetric_adjacency,
)
from .filters import (
    DualFilterConfig,
    RepairReport,
    dual_filter,
    dual_filter_vjp,
    feature_shift,
    filter_attributes,
)
from .kmeans import Clustering, kmeans_fit, thread_budget
from .losses import (
    PrunedGraph,
    SampleSet,
    _sub_rng,
    _sub_seed,
    community_loss,
    cross_modality_loss,
    hard_positive_sets,
    mms_loss,
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

# impostors per row in the cross-modality margin loss: the loss costs
# O(n * 256 * d) time and O(n * 256) memory rather than O(n^2 * d) and O(n^2)
_IMPOSTOR_CAP = 256


@dataclass
class TrainConfig:
    alpha: float = 1.0          # node-domain smoothing strength
    beta: float = 1.0           # feature-domain smoothing strength
    t_layers: int = 10          # filter series truncation order
    theta: float = 0.3          # hard positive fraction per cluster
    delta: float = 0.1          # contrastive margin
    walk_length: int = 10       # walk steps and negatives per anchor
    lr: float = 1e-3
    weight_decay: float = 1e-5
    epochs: int = 100
    kmeans_interval: int = 5
    hidden_dim: int = 64
    seed: int = 0
    no_fdd: bool = False        # no feature-domain denoising: beta -> 0, no outlier repair
    no_mod_loss: bool = False
    no_nbr_loss: bool = False
    no_aas: bool = False        # disable similarity-based edge pruning
    no_comm_loss: bool = False
    no_hps: bool = False        # whole clusters as hard positives: theta = 1

    def filter_config(self) -> DualFilterConfig:
        beta = 0.0 if self.no_fdd else self.beta
        return DualFilterConfig(alpha=self.alpha, beta=beta, t_layers=self.t_layers)

    def validate(self) -> None:
        for f in fields(self):  # f.type is the annotation's text under __future__ annotations
            value = getattr(self, f.name)
            if f.type == "bool" and not isinstance(value, bool):
                raise ValueError(f"{f.name} must be a bool, got {value!r}")
            if f.type == "int" and (isinstance(value, bool)
                                    or not isinstance(value, numbers.Integral)):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
        # the raw values: filter_config() zeroes beta under no_fdd
        DualFilterConfig(alpha=self.alpha, beta=self.beta, t_layers=self.t_layers).validate()
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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
    h: np.ndarray


@dataclass
class FrozenState:
    """Step constants: everything the gradient treats as data."""

    samples: SampleSet | None
    assignments: np.ndarray | None
    centroids_norm: np.ndarray | None
    hard_sets: list[np.ndarray] | None
    mms_seed: int


def _softmax(v: np.ndarray) -> np.ndarray:
    shifted = v - v.max()
    e = np.exp(shifted)
    return e / e.sum()


def _row_normalize(
    x: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ``x`` over their norms (zero rows stay zero), and the norms;
    ``out=x`` divides in place."""
    norms = np.linalg.norm(x, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    return np.divide(x, safe[:, None], out=out), norms


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
    rng = _sub_rng(seed, _STREAM_INIT)
    weights = []
    for d in feature_dims:
        bound = math.sqrt(6.0 / (d + hidden_dim))
        weights.append(rng.uniform(-bound, bound, size=(d, hidden_dim)))
    return ModelParams(weights=weights, combine_logits=np.zeros(len(feature_dims)))


@dataclass
class _Setup:
    """What ``_prepare`` hands to fit, forward and the gradient check."""

    ops: NormalizedOperators
    xs: list[np.ndarray]                # repaired 64-bit attributes
    xfs: list[np.ndarray]               # node-filtered xs; xs itself when alpha = 0
    step_filter: DualFilterConfig       # the feature half each forward applies to the mix
    repairs: list[RepairReport]


def _project(setup: _Setup, params: ModelParams) -> list[np.ndarray]:
    """The raw projections ``x_i W_i``, new arrays."""
    return [x @ w for x, w in zip(setup.xs, params.weights)]


def _forward(
    setup: _Setup,
    params: ModelParams,
    shifts: list[np.ndarray] | None = None,
    keep_projections: bool = True,
) -> ForwardCache:
    """Project, build the shifts (unless given), mix and filter.  Without
    ``keep_projections`` the z_i are freed before the mix and ``z_list`` is
    empty."""
    z_list = _project(setup, params)
    s_list = shifts if shifts is not None else [feature_shift(z) for z in z_list]
    if not keep_projections:
        z_list = []
    weights = _softmax(params.combine_logits)
    u = np.zeros((setup.xs[0].shape[0], params.weights[0].shape[1]))
    for w_i, xf, w in zip(weights, setup.xfs, params.weights):
        u += w_i * (xf @ w)
    h = dual_filter(setup.ops.a_hat, u, s_list, setup.step_filter)
    return ForwardCache(z_list=z_list, s_list=s_list, combine_weights=weights, h=h)


def _prepare(graph: MultimodalGraph, cfg: TrainConfig) -> _Setup:
    """Validate ``cfg``, normalize the adjacency, and repair and node-filter
    each modality's 64-bit attributes."""
    cfg.validate()
    ops = normalize_adjacency(graph.edges)
    filter_cfg = cfg.filter_config()
    xs = [m.x.astype(np.float64) for m in graph.modalities]
    xfs, repairs = zip(*(filter_attributes(ops.a_hat, x, filter_cfg) for x in xs))
    return _Setup(ops, xs, list(xfs), replace(filter_cfg, alpha=0.0), list(repairs))


def forward(
    graph: MultimodalGraph,
    params: ModelParams,
    cfg: TrainConfig,
) -> tuple[NormalizedOperators, ForwardCache]:
    """Repair, project, mix, and filter; returns the normalized operators and
    the cache holding z_list, s_list and h."""
    setup = _prepare(graph, cfg)
    cache = _forward(setup, params)
    if not np.isfinite(cache.h).all():
        raise ValueError("forward produced non-finite representations")
    return setup.ops, cache


def _step_gradients(
    setup: _Setup,
    params: ModelParams,
    cache: ForwardCache,
    frozen: FrozenState,
    cfg: TrainConfig,
) -> tuple[dict[str, float], list[np.ndarray], np.ndarray]:
    """Loss values and parameter gradients (weight decay included) of one
    step; ``cache.s_list`` and ``frozen`` are its constants.  It row-normalizes
    ``cache.h``, and with the modality loss on each of ``cache.z_list``, in
    place: the cache is spent once the step returns."""
    h_norm, h_norms = _row_normalize(cache.h, out=cache.h)
    components = {"mod": 0.0, "nbr": 0.0, "comm": 0.0}
    grad_h_norm = None  # the first active loss's gradient, then the sum
    grads_z_mod = None

    def accumulate(value: float, grad: np.ndarray) -> float:
        """Add a loss's gradient on h_norm to the sum; return its value."""
        nonlocal grad_h_norm
        if grad_h_norm is None:
            grad_h_norm = grad
        else:
            grad_h_norm += grad
        return value

    if not cfg.no_mod_loss:
        z_norms = [_row_normalize(z, out=z)[1] for z in cache.z_list]
        value, grads = cross_modality_loss(
            [h_norm] + cache.z_list,
            delta=cfg.delta,
            negative_cap=_IMPOSTOR_CAP,
            seed=frozen.mms_seed,
        )
        components["mod"] = accumulate(value, grads[0])
        grads_z_mod = [
            _row_normalize_vjp(z_norm, norms, g)
            for z_norm, norms, g in zip(cache.z_list, z_norms, grads[1:])
        ]
        del grads

    if not cfg.no_nbr_loss:
        components["nbr"] = accumulate(*neighborhood_loss(h_norm, frozen.samples))

    if not cfg.no_comm_loss:
        components["comm"] = accumulate(*community_loss(
            h_norm, frozen.assignments, frozen.centroids_norm, frozen.hard_sets
        ))

    if grad_h_norm is None:
        grad_h_norm = np.zeros_like(h_norm)
    grad_h = _row_normalize_vjp(h_norm, h_norms, grad_h_norm)
    del h_norm, grad_h_norm
    grad_u = dual_filter_vjp(setup.ops.a_hat, grad_h, cache.s_list, setup.step_filter)

    w = cache.combine_weights
    grad_weights = []
    mix_sensitivity = np.empty(len(setup.xs))
    for i, (x, xf, weight) in enumerate(zip(setup.xs, setup.xfs, params.weights)):
        pulled = xf.T @ grad_u  # <grad_u, xf_i W_i> = <pulled, W_i>
        mix_sensitivity[i] = float(np.sum(pulled * weight))
        grad = w[i] * pulled
        if grads_z_mod is not None:
            grad += x.T @ grads_z_mod[i]
        grad_weights.append(grad + 2.0 * cfg.weight_decay * weight)
    grad_logits = w * (mix_sensitivity - float(w @ mix_sensitivity))
    return components, grad_weights, grad_logits


class Adam:
    """Standard Adam with bias correction, beta1 = 0.9, beta2 = 0.999 and
    eps = 1e-8; deterministic and stateful."""

    def __init__(self, shapes: list[tuple[int, ...]], lr: float):
        self.lr = lr
        self.step_count = 0
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self.step_count += 1
        b1, b2 = 0.9, 0.999
        correct1 = 1.0 - b1**self.step_count
        correct2 = 1.0 - b2**self.step_count
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= self.lr * (m / correct1) / (np.sqrt(v / correct2) + 1e-8)


def _prune(graph: MultimodalGraph, z_list: list[np.ndarray], cfg: TrainConfig) -> PrunedGraph:
    """The walk graph, pruned once from the initial projections ``z_list``,
    which it row-normalizes in place."""
    if cfg.no_aas:
        return passthrough_pruned(graph.edges)
    for z in z_list:
        _row_normalize(z, out=z)
    return prune_graph(graph.edges, z_list, seed=_sub_seed(cfg.seed, _STREAM_PRUNE))


def _refreshes_clustering(epoch: int, cfg: TrainConfig) -> bool:
    return not cfg.no_comm_loss and epoch % cfg.kmeans_interval == 0


def _step_state(
    epoch: int,
    cache: ForwardCache,
    pruned: PrunedGraph,
    k: int,
    cfg: TrainConfig,
    threads: int | None,
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
            cache.h, k, seed=_sub_seed(cfg.seed, _STREAM_KMEANS, epoch), threads=threads
        )
        assignments = clustering.assignments
        centroids_norm, _ = _row_normalize(clustering.centroids)
        hard_sets = hard_positive_sets(
            cache.h, assignments, clustering.centroids, 1.0 if cfg.no_hps else cfg.theta
        )
    samples = None
    if not cfg.no_nbr_loss:
        samples = sample_neighborhoods(
            pruned.edges, cfg.walk_length, seed=_sub_seed(cfg.seed, _STREAM_WALKS, epoch)
        )
    return FrozenState(
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
    threads: int | None = None,
) -> FitResult:
    """Train on one dataset and return the final clustering of the
    filtered embeddings.

    The walk graph is pruned once up front from the initial projections;
    walks are resampled every epoch; centroids and hard positive sets
    refresh every ``kmeans_interval`` epochs.  With every loss disabled
    the parameters are returned untouched.  If a loss turns non-finite or
    an update leaves a non-finite parameter, training stops with the last
    finite parameters and ``stopped_at`` names the epoch.  ``threads`` is
    the k-means restarts' thread budget (None: the CPU count); the result
    does not depend on it.
    """
    cfg = cfg or TrainConfig()
    if k < 1:
        raise ValueError("cluster count must be >= 1")
    if k > graph.n_nodes:
        raise ValueError("cluster count exceeds the number of nodes")
    threads = thread_budget(threads)

    any_loss = not (cfg.no_mod_loss and cfg.no_nbr_loss and cfg.no_comm_loss)
    setup = _prepare(graph, cfg)
    params = init_params([x.shape[1] for x in setup.xs], cfg.hidden_dim, cfg.seed)
    adam = Adam(
        [w.shape for w in params.weights] + [params.combine_logits.shape],
        lr=cfg.lr,
    )

    pruned = _prune(graph, _forward(setup, params).z_list, cfg)

    logs: list[EpochLog] = []
    frozen = None
    stopped_at = None
    latest_nmi: float | None = None
    with open(log_path, "w", encoding="utf-8") if log_path else nullcontext() as log_fh:
        for epoch in range(cfg.epochs):
            cache = _forward(setup, params, keep_projections=not cfg.no_mod_loss)
            frozen = _step_state(epoch, cache, pruned, k, cfg, threads, frozen)
            if _refreshes_clustering(epoch, cfg):
                latest_nmi = _masked_nmi(graph.labels, frozen.assignments)
            if any_loss:
                components, grad_weights, grad_logits = _step_gradients(
                    setup, params, cache, frozen, cfg
                )
                del cache  # spent, and not to be held through the next forward
                # divergence guard: keep the last finite parameter state
                if not all(math.isfinite(v) for v in components.values()):
                    stopped_at = epoch
                    break
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
                log_fh.write(json.dumps(asdict(entry)) + "\n")

    h = _forward(setup, params, keep_projections=False).h
    final_clustering = kmeans_fit(
        h, k, seed=_sub_seed(cfg.seed, _STREAM_KMEANS, cfg.epochs), threads=threads,
    )
    return FitResult(
        params=params,
        clustering=final_clustering,
        epoch_logs=logs,
        h=h,
        pruned=pruned,
        repairs=setup.repairs,
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


# projection coordinates end_to_end_gradient_check differences per matrix
_GRADCHECK_COORDS = 40


def end_to_end_gradient_check(
    graph: MultimodalGraph,
    k: int,
    cfg: TrainConfig | None = None,
    tolerance: float = 1e-3,
    seed: int = 0,
) -> GradCheckReport:
    """Compare analytic parameter gradients with central differences.

    The stochastic pieces of one training step (shift operators, walk
    samples, centroids, hard positive sets, impostor draws) are frozen,
    so the step objective is a smooth function of the parameters; the
    central differences step 1e-3.  Each projection matrix is checked on
    ``_GRADCHECK_COORDS`` (40) coordinates drawn with ``seed``, or on all
    of them when it has no more; the mixing logits on all.  Its k-means runs
    on the default thread budget.
    """
    step = 1e-3
    cfg = cfg or TrainConfig()
    setup = _prepare(graph, cfg)
    params = init_params([x.shape[1] for x in setup.xs], cfg.hidden_dim, cfg.seed)

    cache = _forward(setup, params)
    pruned = _prune(graph, _project(setup, params), cfg)
    frozen = _step_state(0, cache, pruned, k, cfg, threads=None)

    _, grad_weights, grad_logits = _step_gradients(setup, params, cache, frozen, cfg)

    def objective() -> float:
        """The step objective under the frozen state, weight decay included."""
        replay = _forward(setup, params, shifts=cache.s_list)
        components, _, _ = _step_gradients(setup, params, replay, frozen, cfg)
        penalty = cfg.weight_decay * sum(float(np.sum(w * w)) for w in params.weights)
        return sum(components.values()) + penalty

    rng = np.random.default_rng(seed)
    report = GradCheckReport()
    for i, (w, g) in enumerate(zip(params.weights, grad_weights)):
        all_coords = list(np.ndindex(*w.shape))
        if len(all_coords) > _GRADCHECK_COORDS:
            picks = rng.choice(len(all_coords), size=_GRADCHECK_COORDS, replace=False)
            coords = [all_coords[int(p)] for p in picks]
        else:
            coords = all_coords
        worst = _fd_check_array(objective, w, g, step, coords)
        report.entries.append(GradCheckEntry(f"weights[{i}]", worst, tolerance))
    worst = _fd_check_array(objective, params.combine_logits, grad_logits, step)
    report.entries.append(GradCheckEntry("combine_logits", worst, tolerance))
    return report


def loss_gradient_checks(seed: int = 0, tolerance: float = 1e-4) -> GradCheckReport:
    """Finite-difference checks, step 1e-4, for each loss on small random inputs."""
    step = 1e-4
    rng = np.random.default_rng(seed)
    report = GradCheckReport()

    def unit_rows(n, d):
        x = rng.standard_normal((n, d))
        return _row_normalize(x)[0]

    # margin loss, full impostor set and capped
    for label, cap in (("mms_loss_full", None), ("mms_loss_capped", 3)):
        z_a = unit_rows(7, 5)
        z_b = unit_rows(7, 5)
        _, g_a, g_b = mms_loss(z_a, z_b, delta=0.1, negative_cap=cap, seed=11)
        fn = lambda: mms_loss(z_a, z_b, delta=0.1, negative_cap=cap, seed=11)[0]
        worst = _fd_check_array(fn, z_a, g_a, step)
        worst = max(worst, _fd_check_array(fn, z_b, g_b, step))
        report.entries.append(GradCheckEntry(label, worst, tolerance))

    # neighborhood loss over a ring graph's walk samples
    n = 12
    ring = symmetric_adjacency(n, np.arange(n), (np.arange(n) + 1) % n)
    samples = sample_neighborhoods(ring, 4, seed=5)
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
