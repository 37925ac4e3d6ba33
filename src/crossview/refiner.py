"""Similarity-matrix construction and dual-branch residual refinement.

The patch similarity matrix gets corrected by two residual branches (a 3D
convolution over the similarity cube for local structure, a per-row affine
stack for global structure), modulated by a per-row gate, extended with a
dustbin row/column for unmatched patches, and normalized by the elementwise
product of its row-wise and column-wise softmax.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .solver import CorrespondenceSet
from .surface import BevFeatureMap
from .tensorio import check_integer, load_tensors, read_manifest, save_tensor_dir

_PARAMS_FORMAT = "refiner-params-v2"
# The refiner-params-v2 layout: each layer stack's field and its tensor-name pattern (the
# stack's depth is its run of listed names, from 0); the dustbin tensors keep their field names.
_STACKS = (
    ("conv_kernels", "conv{}_kernel"),
    ("conv_biases", "conv{}_bias"),
    ("global_weights", "global{}_weight"),
    ("global_biases", "global{}_bias"),
    ("gate_weights", "gate{}_weight"),
    ("gate_biases", "gate{}_bias"),
)
_DUSTBIN_FIELDS = ("dustbin_row", "dustbin_col", "dustbin_theta")
_IM2COL_CHUNK = 4096   # output positions per im2col GEMM of a one-channel conv layer (L2-sized)
_TAP_ROWS = 16   # padded input rows per stacked-tap GEMM of a multi-channel conv layer
_W_WINDOW = 448   # aerial-axis cells per conv wavefront (one window to n=21)


@dataclass
class SimilarityMatrix:
    """N^2 x N^2 patch similarities; row i holds ground patch i against all aerial patches.

    A matrix built here is scanned for NaN and inf. ``initial_similarity``'s
    output is not: it keeps the (N^2, C) feature factors that ``_affine_stack``
    multiplies through, and only it can be refined, until ``match_probabilities``
    or ``run_localization``'s refinement in place spends it.
    """

    s: np.ndarray
    factors: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # C order, so reductions over it (and the losses) depend on the values alone
        self.s = np.ascontiguousarray(self.s, dtype=float)
        if self.s.ndim != 2 or self.s.shape[0] != self.s.shape[1]:
            raise ValueError("similarity matrix must be square")
        if not np.all(np.isfinite(self.s)):
            raise ValueError("similarity matrix contains non-finite entries")

    @property
    def num_patches(self) -> int:
        return self.s.shape[0]


def _as_f32(a) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(a), dtype=np.float32)


@dataclass(eq=False)
class RefinerParams:
    """Learnable refinement parameters, kept in float32 for lossless storage.

    ``conv_*`` hold the three 3D-convolution layers (kernels shaped (out_c, in_c, 3, 3, 3)),
    ``global_*`` the per-row affine stack, ``gate_*`` the gating stack whose sigmoid output
    scales the residual, and ``dustbin_*`` the learnable bin row/column/corner. Shapes that
    do not chain, a conv layer with no output channel, or a tensor holding NaN or inf, are a
    ``ValueError`` at construction, so also on load (naming the directory), before any
    refinement runs. On disk it is a ``refiner-params-v2`` tensor directory; a stack's
    depth is its run of listed names. The round trip is bit-exact.
    """

    conv_kernels: tuple
    conv_biases: tuple
    global_weights: tuple
    global_biases: tuple
    gate_weights: tuple
    gate_biases: tuple
    dustbin_row: np.ndarray
    dustbin_col: np.ndarray
    dustbin_theta: np.ndarray  # scalar

    def __post_init__(self):
        for field, _ in _STACKS:
            setattr(self, field, tuple(_as_f32(t) for t in getattr(self, field)))
        for field in _DUSTBIN_FIELDS:
            setattr(self, field, _as_f32(getattr(self, field)))
        self._validate()
        self.dustbin_theta = self.dustbin_theta.reshape(())

    def _validate(self):
        if len(self.conv_kernels) != 3 or len(self.conv_biases) != 3:
            raise ValueError("expected exactly three convolution layers")
        in_c = 1
        for k, b in zip(self.conv_kernels, self.conv_biases):
            if k.ndim != 5 or k.shape[2:] != (3, 3, 3):
                raise ValueError("convolution kernels must be (out_c, in_c, 3, 3, 3)")
            if k.shape[1] != in_c or b.shape != (k.shape[0],):
                raise ValueError("convolution channel chain is inconsistent")
            if k.shape[0] == 0:
                raise ValueError("convolution layers need at least one output channel")
            in_c = k.shape[0]
        if in_c != 1:
            raise ValueError("final convolution layer must emit one channel")
        n2 = self.num_patches
        for stack_w, stack_b, last_out in (
                (self.global_weights, self.global_biases, n2),
                (self.gate_weights, self.gate_biases, 1)):
            if len(stack_w) != len(stack_b) or not stack_w:
                raise ValueError("affine stacks need matching weights and biases")
            width = n2
            for w, b in zip(stack_w, stack_b):
                if w.ndim != 2 or w.shape[0] != width or b.shape != (w.shape[1],):
                    raise ValueError("affine stack shapes are inconsistent")
                width = w.shape[1]
            if width != last_out:
                raise ValueError("affine stack output width is wrong")
        if self.dustbin_row.shape != (n2,) or self.dustbin_col.shape != (n2,):
            raise ValueError("dustbin vectors must have length N^2")
        if self.dustbin_theta.size != 1:
            raise ValueError("dustbin_theta must hold one value")
        if not all(np.isfinite(t).all() for t in self._named_tensors().values()):
            raise ValueError("refiner parameters must be finite")

    @property
    def num_patches(self) -> int:
        return self.dustbin_row.shape[0]

    @classmethod
    def random(cls, n2: int, scale: float = 0.1, seed: int = 0) -> "RefinerParams":
        """Untrained parameters, normal draws times ``scale``, of one fixed shape: conv channels
        1 -> 8 -> 8 -> 1, a global hidden width of 256 and a gate hidden width of 64."""
        rng = np.random.default_rng(seed)

        def draw(*shape):
            return scale * rng.standard_normal(shape)

        kernels, biases = [], []
        for cin, cout in ((1, 8), (8, 8), (8, 1)):
            kernels.append(draw(cout, cin, 3, 3, 3))
            biases.append(draw(cout))
        return cls(
            conv_kernels=tuple(kernels),
            conv_biases=tuple(biases),
            global_weights=(draw(n2, 256), draw(256, n2)),
            global_biases=(draw(256), draw(n2)),
            gate_weights=(draw(n2, 64), draw(64, 1)),
            gate_biases=(draw(64), draw(1)),
            dustbin_row=draw(n2),
            dustbin_col=draw(n2),
            dustbin_theta=draw(),
        )

    def _named_tensors(self) -> dict:
        named = {pattern.format(i): t for field, pattern in _STACKS
                 for i, t in enumerate(getattr(self, field))}
        named.update((field, getattr(self, field)) for field in _DUSTBIN_FIELDS)
        return named

    def save(self, directory) -> None:
        save_tensor_dir(directory, _PARAMS_FORMAT, self._named_tensors())

    @classmethod
    def load(cls, directory) -> "RefinerParams":
        manifest = read_manifest(directory, _PARAMS_FORMAT)
        fields = load_tensors(directory, manifest, _DUSTBIN_FIELDS)
        for field, pattern in _STACKS:
            # every listed layer is read, so a gap in the run is an unlisted name
            depth = sum(bool(re.fullmatch(pattern.format("[0-9]+"), name))
                        for name in manifest["tensors"])
            names = map(pattern.format, range(depth))
            fields[field] = tuple(load_tensors(directory, manifest, names).values())
        try:
            return cls(**fields)
        except ValueError as exc:   # a rule of _validate
            raise ValueError(f"{directory}: {exc}") from None


def check_temperature(tau: float) -> None:
    """Reject ``tau`` unless it is positive and ``(1 + 1e-12) / tau``, a bound on |s|, is finite."""
    tau = float(tau)
    if not (math.isfinite(tau) and tau > 0 and math.isfinite((1 + 1e-12) / tau)):
        raise ValueError(f"temperature must be finite and positive with 1 / tau finite; got {tau!r}")


def initial_similarity(f_grd: BevFeatureMap, f_sat: BevFeatureMap,
                       tau: float) -> SimilarityMatrix:
    """Scaled cosine similarity between flattened ground and aerial patches, with its factors.

    ``s = ground @ aerial.T``, then ``s /= tau``, over unit feature rows, keeping the
    factors ``(ground / tau, aerial)``. Unit rows bound |s| by ``(1 + 1e-12) / tau``
    (the 1e-12 covers the rounding of C-term sums for C up to a few thousand), which
    ``check_temperature`` keeps finite, so the N^4 entries are not scanned. Maps of
    different shapes, a feature row whose norm is zero, overflows or is not finite (it
    holds a non-finite entry), or a rejected ``tau``, is a ``ValueError``.
    """
    if f_grd.data.shape != f_sat.data.shape:
        raise ValueError("ground and aerial feature maps must share a shape")
    rows = [f.data.reshape(f.data.shape[0] * f.data.shape[1], -1) for f in (f_grd, f_sat)]
    with np.errstate(over="ignore"):   # an overflowing norm is rejected below
        norms = [np.linalg.norm(r, axis=1, keepdims=True) for r in rows]
    if any(np.any(nm == 0) for nm in norms):
        raise ValueError("zero-norm feature row cannot be cosine-normalized")
    if not all(np.all(np.isfinite(nm)) for nm in norms):
        raise ValueError("feature row norm overflows or is not finite")
    check_temperature(tau)
    ground, aerial = (r / nm for r, nm in zip(rows, norms))
    s = ground @ aerial.T
    s /= tau
    sim = SimilarityMatrix.__new__(SimilarityMatrix)
    sim.s, sim.factors = s, (ground / tau, aerial)
    return sim


class _ConvLayer:
    """One 3x3x3 cross-correlation layer (zero padding 1, float64) of a depth wavefront.

    The layer keeps a ring of three zero-padded input depth slices
    (in_c, H + 2, W + 2). While output slice z is computed, logical slot k
    holds input slice z - 1 + k in physical slot (base + k) % 3; advancing
    turns ``base`` instead of moving slices, and one weight matrix per
    rotation phase lets the GEMMs read the slots in physical order.
    ``incoming`` is the slot that the next input slice goes to.

    Output rows are computed at the padded width W + 2, so tap (dy, dx)
    reads the flattened ring at a fixed offset dy * (W + 2) + dx, and
    output (y, x) lands at flat position y * (W + 2) + x of ``dst``; the
    two positions past the end of each row are garbage. A one-channel
    input is lowered to im2col: per chunk of output positions, the 27
    shifted ring rows are copied into one (27, chunk) buffer and one
    (out_c, 27) GEMM writes the outputs. A multi-channel input stacks the
    nine taps into one (9 * out_c, 3 * in_c) GEMM over a chunk of padded
    input rows, and each tap's rows are added into the outputs at minus
    its offset; tap offset 0 is the first to reach each output, so it
    writes part + bias instead of adding.

    With ``relu`` set, each chunk applies the ReLU to the outputs it has
    just completed while they are still in cache: an im2col chunk to its
    own outputs, an input-row chunk to those before its end minus the last
    tap offset 2 * (W + 2) + 2. A chunk of ``_IM2COL_CHUNK`` positions keeps
    the (27 + out_c, chunk) buffers within a 2 MB L2 for out_c up to 8.
    """

    def __init__(self, kernel: np.ndarray, bias: np.ndarray, h: int, w: int, relu: bool):
        out_c, in_c = kernel.shape[:2]
        self.wp = w + 2
        self.size = (h + 2) * self.wp
        self.span = (h - 1) * self.wp + w   # padded-width outputs from (0, 0) to (h-1, w-1)
        self.ring = np.zeros((3, in_c, h + 2, self.wp))
        self.base = 0
        self.relu = relu
        self.bias = np.asarray(bias, dtype=float)[:, None]
        # axes (dy, dx, out_c, dz, in_c); phase b reads logical dz from physical slot (b + dz) % 3
        taps = np.asarray(kernel, dtype=float).transpose(3, 4, 0, 2, 1)
        phases = [np.roll(taps, b, axis=3) for b in range(3)]
        if in_c == 1:
            self.weights = [t.transpose(2, 0, 1, 3, 4).reshape(out_c, 27) for t in phases]
            self.chunk = min(_IM2COL_CHUNK, self.span)
            self.cols = np.empty((3, 3, 3, self.chunk))
        else:
            self.weights = [t.reshape(9 * out_c, 3 * in_c) for t in phases]
            self.rows_step = _TAP_ROWS * self.wp
            self.stacked = np.empty((9, out_c, min(self.rows_step, self.size)))
            self.offsets = [dy * self.wp + dx for dy in range(3) for dx in range(3)]

    @property
    def incoming(self) -> np.ndarray:
        return self.ring[(self.base + 2) % 3]

    def advance(self, dst: np.ndarray | None) -> None:
        """Write the output slice into ``dst`` (out_c, span) unless it is None, then rotate."""
        if dst is not None:
            slab = self.ring.reshape(-1, self.size)
            weights = self.weights[self.base]
            if self.ring.shape[1] == 1:
                self._im2col(slab, weights, dst)
            else:
                self._stacked_taps(slab, weights, dst)
        self.base = (self.base + 1) % 3

    def _im2col(self, slab, weights, dst):
        chunk, span = self.chunk, self.span
        item = slab.itemsize
        # column p of the (dy, dx, dz) row is the slab's row dz at p + dy * wp + dx
        shifts = (self.wp * item, item, self.size * item, item)
        for p0 in range(0, span, chunk):
            m = min(chunk, span - p0)
            self.cols[..., :m] = as_strided(slab[:, p0:], (3, 3, 3, m), shifts)
            out = dst[:, p0:p0 + m]
            np.matmul(weights, self.cols.reshape(-1, chunk)[:, :m], out=out)
            out += self.bias
            if self.relu:
                np.maximum(out, 0.0, out=out)

    def _stacked_taps(self, slab, weights, dst):
        size, span, step = self.size, self.span, self.rows_step
        stacked = self.stacked
        done = 0   # outputs before it have all nine taps (and the ReLU)
        for q0 in range(0, size, step):
            q1 = min(q0 + step, size)
            np.matmul(weights, slab[:, q0:q1], out=stacked.reshape(len(weights), -1)[:, :q1 - q0])
            # input position q feeds output q - off of the tap at offset off
            for part, off in zip(stacked, self.offsets):
                p0, p1 = max(q0 - off, 0), min(q1 - off, span)
                if p0 >= p1:
                    continue
                src = part[:, p0 + off - q0:p1 + off - q0]
                if off == 0:
                    np.add(src, self.bias, out=dst[:, p0:p1])
                else:
                    dst[:, p0:p1] += src
            if self.relu:
                # the last tap offset reaches size - span, so the final chunk completes all
                end = min(q1 - self.offsets[-1], span)
                if end > done:
                    np.maximum(dst[:, done:end], 0.0, out=dst[:, done:end])
                    done = end


def _conv_stack(read, emit, shape, kernels, biases) -> None:
    """3x3x3 conv layers with a ReLU between them over a (D, H, W) volume, slice by slice.

    ``read(z, dst)`` writes input slice z into ``dst`` (in_c, H, W), and
    ``emit(z, y)`` takes output slice z as ``y`` (out_c, H, W), a view valid
    until it returns; ``emit`` may write into it, as the next step overwrites
    it. The layers form a wavefront over depth: at step t layer i takes in its
    input slice t - i and emits its output slice t - i - 1, written straight
    into the next layer's incoming ring slot at flat offset W + 3, so that
    output (y, x) lands on the slot's interior cell (y + 1, x + 1). Every layer
    but the last applies its ReLU chunk by chunk as it writes. The garbage past
    each row's end falls on the slot's left and right pad columns, which are
    zeroed again. Only the last layer goes through a one-slice buffer. Step t
    reads input slice t before it emits output slice t - len(kernels), so
    ``emit`` may write over the input slices up to its own plus len(kernels)
    where the caller keeps them: they are all read.
    """
    d, h, w = shape
    layers = [_ConvLayer(k, b, h, w, relu=i + 1 < len(kernels))
              for i, (k, b) in enumerate(zip(kernels, biases))]
    wp, span = w + 2, layers[0].span
    last = np.empty((len(kernels[-1]), h * wp))
    for t in range(d + len(layers)):
        for i, layer in enumerate(layers):
            z = t - i
            if z < 0:
                break
            if z > d:
                continue
            if z == d:   # the zero slice past the end
                layer.incoming.fill(0.0)
            elif i == 0:
                read(z, layer.incoming[:, 1:-1, 1:-1])
            # else the layer before has just written input slice z into the incoming slot
            if z == 0:
                layer.advance(None)
            elif i + 1 < len(layers):
                nxt = layers[i + 1].incoming
                layer.advance(nxt.reshape(len(nxt), -1)[:, wp + 1:wp + 1 + span])
                nxt[:, 1:-1, ::wp - 1] = 0.0
            else:
                layer.advance(last[:, :span])
                emit(z - 1, last.reshape(-1, h, wp)[:, :, :w])


def _cube_side(n2: int) -> int:
    n = math.isqrt(n2)
    if n * n != n2:
        raise ValueError(f"patch count {n2} is not a perfect square")
    return n


def _require_patch_count(s: SimilarityMatrix, params: RefinerParams) -> None:
    if params.num_patches != s.num_patches:
        raise ValueError("parameters sized for a different patch count")


def _conv_windows(s: np.ndarray, params: RefinerParams, sink) -> None:
    """Run the conv stack over ``s`` (N^2, N^2) one aerial-axis window at a time.

    Each window ``[w0, w1)`` of ``_W_WINDOW`` cells of W runs the wavefront
    over its columns with a halo of one cell per layer on each side, clipped at
    the ends of W. Input depth slice z (rows z * N to z * N + N - 1) is read
    straight from ``s``, and the window's output slice z, ``y`` (N, w1 - w0),
    goes to ``emit(z, y)`` with ``emit = sink(w0, w1)``. The sink may write its
    outputs into ``s``'s columns ``w0:w1`` as they come (see ``_conv_stack``),
    so a window reads its left halo from a carry: the original values of
    those columns, saved before the window before it ran.
    """
    n2 = len(s)
    n = _cube_side(n2)
    halo = len(params.conv_kernels)
    carry = s[:, :0]
    for w0 in range(0, n2, _W_WINDOW):
        w1 = min(w0 + _W_WINDOW, n2)
        lo, hi = max(w0 - halo, 0), min(w1 + halo, n2)
        left, keep = carry, max(w1 - halo, 0)   # columns lo:w0, and the next window's lo
        carry = np.concatenate((left[:, min(keep, w0) - lo:], s[:, max(keep, w0):w1]), axis=1)

        def read(z, dst):
            rows = slice(z * n, z * n + n)
            dst[0, :, :w0 - lo] = left[rows]
            dst[0, :, w0 - lo:] = s[rows, w0:hi]

        emit = sink(w0, w1)
        _conv_stack(read, lambda z, y: emit(z, y[0, :, w0 - lo:w1 - lo]), (n, n, hi - lo),
                    params.conv_kernels, params.conv_biases)


def local_residual(s: SimilarityMatrix, params: RefinerParams) -> np.ndarray:
    """Residual from three 3D convolutions over the (N, N, N^2) similarity cube.

    The cube (D, H, W) views the N^2 x N^2 matrix with D the ground row, H
    the ground column and W the flattened aerial index ``i * n + j``. The
    3-tap W neighbourhood therefore wraps across aerial rows: ``(i, n - 1)``
    and ``(i + 1, 0)`` are W-adjacent, and zero padding applies only at the
    two ends of W. The layers run as one wavefront over depth, so no
    multi-channel cube is ever held (one 8-channel cube is 181 MB at n=41).

    The wavefront runs once per window of ``_W_WINDOW`` cells of W (a
    contiguous range of the flat aerial index; see ``_conv_windows``), so each
    window cell sees only true inputs, and the rings and GEMM buffers scale
    with the window. The windows read ``s.s`` and write each output slice into
    a fresh result, so ``s`` is left as it was and no copy of it is made.
    Grids with N^2 <= ``_W_WINDOW`` run one window.
    """
    _require_patch_count(s, params)
    out = np.empty_like(s.s)

    def sink(w0, w1):
        def emit(z, y):
            out[z * len(y):(z + 1) * len(y), w0:w1] = y
        return emit

    _conv_windows(s.s, params, sink)
    return out


def _affine_stack(s: SimilarityMatrix, weights, biases):
    """ReLU-separated affine layers over the rows of ``s``, the first one through its factors.

    Returns the last hidden activations (N^2, h), the last layer's weight and
    its bias in float64; a last weight other than the first stays in float32,
    for the caller to widen where it is used. For h hidden units ``s.s @ W0``
    costs N^4 * h multiply-adds and ``ground @ (aerial.T @ W0)`` 2 * N^2 * C * h,
    so a matrix without factors is a ``ValueError`` rather than multiplied densely.
    """
    if s.factors is None:
        raise ValueError("the refiner needs the feature factors that initial_similarity keeps")
    ground, aerial = s.factors
    weights = (aerial.T @ weights[0].astype(float), *weights[1:])
    x = ground
    for w, b in zip(weights[:-1], biases[:-1]):
        # the bias is added to the fresh product: no second array of its size
        x = x @ w.astype(float, copy=False)
        x += b
        np.maximum(x, 0.0, out=x)
    return x, weights[-1], biases[-1].astype(float)


def global_residual(s: SimilarityMatrix, params: RefinerParams) -> np.ndarray:
    """Residual from the per-row affine stack through the factors of ``s`` (see
    ``_affine_stack``): one product by the widened last weight, plus the last bias."""
    _require_patch_count(s, params)
    x, w, b = _affine_stack(s, params.global_weights, params.global_biases)
    out = x @ w.astype(float, copy=False)
    out += b
    return out


def gate_values(s: SimilarityMatrix, params: RefinerParams) -> np.ndarray:
    """Per-ground-patch gate in [0, 1]: the sigmoid of the gate stack through the factors of
    ``s`` (see ``_affine_stack``), its last layer one product plus the bias; a logit below
    about -709 gives exactly 0."""
    _require_patch_count(s, params)
    x, w, b = _affine_stack(s, params.gate_weights, params.gate_biases)
    logits = x @ w.astype(float, copy=False)
    logits += b
    with np.errstate(over="ignore"):   # exp(-logit) = inf makes the gate 0.0
        return 1.0 / (1.0 + np.exp(-logits[:, 0]))


def _refine_in_place(s: SimilarityMatrix, params: RefinerParams) -> SimilarityMatrix:
    """``refine`` in ``s``'s own storage: the result wraps ``s.s``, and ``s`` is spent.

    The gate and the global stack's hidden layers run first, through the
    factors of ``s``, which are then dropped; so a matrix without them is
    rejected before ``s.s`` changes. Each aerial-axis window of
    ``_conv_windows`` then finishes its local residual slice by slice, as it
    is emitted: the slice's N rows get the global residual of the window's
    columns (one slice-sized product by the weight columns, widened once per
    window, plus the bias), times the gate, and are added into the window's
    original values in ``s.s``. No copy of ``s.s``, of a window or of its
    output slices is made. The result is a bare matrix, scanned for overflow.
    """
    alpha = gate_values(s, params)[:, None]
    x, w, b = _affine_stack(s, params.global_weights, params.global_biases)
    s.factors = None
    n = _cube_side(s.num_patches)

    def sink(w0, w1):
        wc, bc = w[:, w0:w1].astype(float), b[w0:w1]

        def emit(z, y):
            rows = slice(z * n, z * n + n)
            block = x[rows] @ wc
            block += bc
            y += block
            y *= alpha[rows]
            s.s[rows, w0:w1] += y
        return emit

    _conv_windows(s.s, params, sink)
    return SimilarityMatrix(s.s)


def refine(s: SimilarityMatrix, params: RefinerParams) -> SimilarityMatrix:
    """Gated residual correction: S + alpha * (local + global), alpha broadcast per row.

    Each entry is ``((local + global) * alpha) + s``. ``s`` is left as it was:
    the result is ``_refine_in_place`` run on a copy of it, so the call holds
    two N^2 x N^2 matrices, ``s`` and the result, beside one window's conv
    rings. ``run_localization`` refines its own similarity in place instead,
    holding one.
    """
    copy = SimilarityMatrix.__new__(SimilarityMatrix)
    copy.s, copy.factors = s.s.copy(), s.factors
    return _refine_in_place(copy, params)


def _dustbin_bins(s: SimilarityMatrix, params: RefinerParams | None):
    """The dustbin column, row and corner of ``s`` in float64; ``params=None`` gives zeros."""
    if params is None:
        zeros = np.zeros(s.num_patches)
        return zeros, zeros, 0.0
    _require_patch_count(s, params)
    return (params.dustbin_col.astype(float), params.dustbin_row.astype(float),
            float(params.dustbin_theta))


def dustbin_extend(s: SimilarityMatrix, params: RefinerParams | None) -> np.ndarray:
    """Append the dustbin column/row/corner; ``params=None`` uses zero bins."""
    col, row, corner = _dustbin_bins(s, params)
    return np.block([[s.s, col[:, None]], [row[None, :], np.full((1, 1), corner)]])


# entry ranges below this bound allow the single-exp product path without underflow
_SINGLE_EXP_RANGE = 300.0


def _normalize(body: np.ndarray, col_bin: np.ndarray, row_bin: np.ndarray,
               corner: float, floor: float = -np.inf) -> np.ndarray:
    """Row- x column-softmax of ``[[body, col_bin], [row_bin, corner]]``, restricted to ``body``.

    The dustbin column, row and corner only add ``exp`` terms to the row
    and column sums (and widen the entry range), so the (N^2+1)^2 matrix
    is never built and the result, written into ``body``, needs no crop.
    Its entries lie strictly inside (0, 1). A lower bound ``floor`` on ``body`` that
    proves ``hi - lo <= _SINGLE_EXP_RANGE`` spares the ``body.min()`` scan but never picks
    the path. That path skips the clip when b = exp(min(col_bin) - hi) + exp(min(row_bin) - hi)
    exceeds 1e-9: entries then lie in [e^-600 / (N^2+1)^2, 1 / (1 + b)], as each e^(m-hi) <= 1.
    """
    hi = max(body.max(), col_bin.max(), row_bin.max(), corner)
    lo = min(col_bin.min(), row_bin.min(), corner)
    if hi - min(lo, floor) > _SINGLE_EXP_RANGE:   # the floor does not settle the path
        lo = min(lo, body.min())
    p = body
    if hi - lo <= _SINGLE_EXP_RANGE:
        # a global shift cancels inside each softmax, so one exp serves both:
        # p = e^2(m-g) / (rowsum * colsum)
        p -= hi
        np.exp(p, out=p)
        rows = p.sum(axis=1) + np.exp(col_bin - hi)
        cols = p.sum(axis=0) + np.exp(row_bin - hi)
        np.multiply(p, p, out=p)
        p /= rows[:, None]
        p /= cols
        if np.exp(col_bin.min() - hi) + np.exp(row_bin.min() - hi) > 1e-9:   # clip is inert
            return p
    else:
        row_max = np.maximum(body.max(axis=1), col_bin)
        col_max = np.maximum(body.max(axis=0), row_bin)
        # the column softmax reads body before the row softmax overwrites it
        c = body - col_max
        np.exp(c, out=c)
        c /= c.sum(axis=0) + np.exp(row_bin - col_max)
        p -= row_max[:, None]
        np.exp(p, out=p)
        p /= (p.sum(axis=1) + np.exp(col_bin - row_max))[:, None]
        p *= c
    # saturated inputs can round the product onto 0 or 1; nudge back inside
    # the open interval (at most one ulp of distortion)
    np.clip(p, np.finfo(float).tiny, np.nextafter(1.0, 0.0), out=p)
    return p


def match_probabilities(s: SimilarityMatrix, params: RefinerParams | None) -> np.ndarray:
    """Dustbin-augmented row- x column-softmax of ``s``; ``params=None`` uses zero bins.

    Equals ``normalize_doubly_stochastic(dustbin_extend(s, params))``. The
    entries were proven finite when ``s`` and ``params`` were built.
    Once ``params`` is accepted, ``s`` is spent: the result is normalized in
    ``s.s``'s storage, also an array that ``SimilarityMatrix`` wrapped without
    a copy. The single-exp path allocates only vectors (an un-refined solve holds one
    N^2 x N^2 matrix, 22.6 MB at n=41; ``tests/test_refiner.py`` pins both), the fallback
    one more. While ``s`` keeps its factors, their largest row norms bound |s| (the floor
    of ``_normalize``); the spent ``s`` drops them.
    """
    col, row, corner = _dustbin_bins(s, params)
    with np.errstate(over="ignore"):   # an overflowing norm gives no floor
        norms = [np.linalg.norm(f, axis=1).max() for f in s.factors or ()]
    floor = -(1 + 1e-12) * math.prod(norms) if norms else -np.inf
    s.factors = None
    return _normalize(s.s, col, row, corner, floor)


def normalize_doubly_stochastic(s_dustbin: np.ndarray) -> np.ndarray:
    """Elementwise product of row- and column-softmax, cropped to drop the dustbin."""
    m = np.asarray(s_dustbin, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
        raise ValueError("expected a square dustbin-extended matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return _normalize(m[:-1, :-1].copy(), m[:-1, -1], m[-1, :-1], m[-1, -1])


def _ranked(p: np.ndarray, rows: np.ndarray, cols: np.ndarray):
    """Index pairs by descending ``p[rows, cols]``; ties go to the lowest (row, col)."""
    order = np.lexsort((cols, rows, -p[rows, cols]))
    return rows[order], cols[order]


def _col_argmax(p: np.ndarray, n: int) -> np.ndarray:
    """``p.argmax(axis=0)`` of an N^2 x N^2 ``p`` without the transposed copy that it makes.

    One row-wise pass gives the column maxima of each depth slice of ``n``
    rows; the first slice holding a column's maximum wins, and one (columns,
    ``n``) gather finds its first row equal to it, so ties go to the lowest row.
    """
    ncol = p.shape[1]
    maxima = p.reshape(-1, n, ncol).max(axis=1)
    start = maxima.argmax(axis=0) * n
    window = p.ravel().take((start * ncol + np.arange(ncol))[:, None] + ncol * np.arange(n))
    return start + (window == maxima.max(axis=0)[:, None]).argmax(axis=1)


def _check_top_k(k: int, entries: float) -> None:
    """The one match-count rule: ``k`` an integer (``check_integer``) with
    ``1 <= k <= entries``, the probability matrix's N^4 entries."""
    check_integer("top_k", k)
    if k < 1:
        raise ValueError("top_k must be at least 1")
    if k > entries:
        raise ValueError("top_k exceeds the number of matrix entries")


def _first_ranked(p: np.ndarray, k: int, n: int):
    """Row and column indices of the k entries of ``p`` that ``_ranked`` puts first.

    Each depth slice of ``n`` rows gives its own first ``m = min(k, size)``:
    its entries above its m-th largest value, then its first entries equal to
    that value in flat order. Every entry of the global first k is among its
    slice's first m, so ranking the slices' picks together and keeping k is exact.
    """
    ncol = p.shape[1]
    flat_idx = []
    for r0 in range(0, len(p), n):
        block = p[r0:r0 + n].ravel()
        m = min(k, block.size)
        t = np.partition(block, block.size - m)[block.size - m]
        above = np.flatnonzero(block > t)
        ties = np.flatnonzero(block == t)[:m - len(above)]
        flat_idx.append(r0 * ncol + np.concatenate([above, ties]))
    rows, cols = _ranked(p, *np.divmod(np.concatenate(flat_idx), ncol))
    return rows[:k], cols[:k]


def extract_matches(p: np.ndarray, k: int) -> CorrespondenceSet:
    """Top-k matches: mutual row/column argmaxes first, padded from the global top-k.

    A pair survives the mutual filter only when it is the argmax of both
    its row and its column; pairs are ordered by ``_ranked``. With fewer than
    ``k`` mutual pairs, the padding takes the first non-mutual entries of the
    global first k in rank order (``_first_ranked``, one pass over depth slices),
    so a matrix of ties (a featureless scene) ranks a few k entries, not N^4.
    Coordinates come back in grid-cell units (row index -> (ix, iy) ground
    cell, column index -> aerial cell); weights are the probability values,
    which ``CorrespondenceSet`` checks finite and non-negative. A matrix that
    is not square or holds a NaN, or ``k`` that ``_check_top_k`` rejects, is a
    ``ValueError``.
    """
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError("probability matrix must be square")
    n2 = p.shape[0]
    _check_top_k(k, p.size)
    n = _cube_side(n2)

    row_arg = p.argmax(axis=1)   # first occurrence = lowest column on ties, or a row's first NaN
    if np.isnan(p[np.arange(n2), row_arg]).any():
        raise ValueError("probability matrix contains NaN")
    col_arg = _col_argmax(p, n)  # lowest row on ties
    rows = np.nonzero(col_arg[row_arg] == np.arange(n2))[0]
    rows, cols = _ranked(p, rows, row_arg[rows])
    rows, cols = rows[:k], cols[:k]
    if len(rows) < k:
        # fewer than k pairs are mutual, so the global first k hold the first `need`
        # non-mutual entries
        cand_r, cand_c = _first_ranked(p, k, n)
        other = (row_arg[cand_r] != cand_c) | (col_arg[cand_c] != cand_r)
        pad_r, pad_c = cand_r[other], cand_c[other]
        need = k - len(rows)
        rows, cols = _ranked(p, np.concatenate([rows, pad_r[:need]]),
                             np.concatenate([cols, pad_c[:need]]))

    ground = np.stack([rows // n, rows % n], axis=1).astype(float)
    aerial = np.stack([cols // n, cols % n], axis=1).astype(float)
    return CorrespondenceSet(ground, aerial, p[rows, cols])
