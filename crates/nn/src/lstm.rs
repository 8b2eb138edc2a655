//! A single-layer LSTM with a linear readout, trained by backpropagation
//! through time.
//!
//! This backs the paper's LSTM forecaster (Appendix D.2, following
//! Bontemps et al.): given a window of consecutive records, predict the
//! next record; the relative forecast error becomes the outlier score.
//!
//! Training runs through a reusable `LstmWorkspace`: the per-step gate
//! activations, cell and hidden states are staged row-per-step in
//! pre-sized buffers and reused across samples, minibatches and epochs,
//! so steady-state epochs perform no per-step allocation. The unit tests
//! keep the textbook formulation, one allocated `StepCache` per step, as
//! an oracle: both evaluate the same expressions in the same order and
//! are bitwise identical.

use crate::activation::sigmoid;
use crate::optimizer::{clip_grad_norm, Optimizer};
use crate::param::Param;
use exathlon_linalg::elemwise;
use exathlon_linalg::{kernel, obs, Matrix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// Gate layout inside the stacked `4h` dimension: input, forget, output,
/// candidate.
const GATES: usize = 4;

/// Reused buffers for the fused training path, sized once per
/// (sequence-length, layer) shape. The per-step state matrices store one
/// row per time step so BPTT reads them back without any per-step
/// allocation or clone.
#[derive(Debug, Clone, Default)]
struct LstmWorkspace {
    /// Record-major input copy, `t x in_dim` (the input-side GEMM operand).
    x_mat: Matrix,
    /// `Wxᵀ` scratch for [`kernel::matmul_transpose_into`].
    wxt: Matrix,
    /// Input-side gate pre-activations `Wx·x_t`, `t x 4h`.
    wxx: Matrix,
    /// Post-nonlinearity gates per step, `t x 4h` (`i, f, o, g` blocks).
    gates: Matrix,
    /// Cell states per step, `t x h`.
    c: Matrix,
    /// `tanh(c)` per step, `t x h`.
    tanh_c: Matrix,
    /// Hidden states per step, `t x h`.
    h: Matrix,
    /// Recurrent pre-activation `Wh·h_{t-1}`, `4h`.
    zh: Vec<f64>,
    /// Gate pre-activation accumulator, `4h`.
    z: Vec<f64>,
    /// Readout prediction, `out`.
    y: Vec<f64>,
    /// Loss gradient at the readout, `out`.
    dy: Vec<f64>,
    /// Hidden-state gradient carried backwards, `h`.
    dh: Vec<f64>,
    /// Cell-state gradient carried backwards, `h`.
    dc: Vec<f64>,
    /// Gate pre-activation gradient, `4h`.
    dz: Vec<f64>,
    /// All-zero `t = 0` initial-state stand-in, `h`.
    zero_h: Vec<f64>,
}

impl LstmWorkspace {
    /// Bytes currently staged in the workspace buffers.
    fn bytes(&self) -> usize {
        8 * (self.x_mat.as_slice().len()
            + self.wxt.as_slice().len()
            + self.wxx.as_slice().len()
            + self.gates.as_slice().len()
            + self.c.as_slice().len()
            + self.tanh_c.as_slice().len()
            + self.h.as_slice().len()
            + self.zh.len()
            + self.z.len()
            + self.y.len()
            + self.dy.len()
            + self.dh.len()
            + self.dc.len()
            + self.dz.len()
            + self.zero_h.len())
    }
}

/// A single-layer LSTM network with linear readout from the final hidden
/// state.
#[derive(Debug, Clone)]
pub struct Lstm {
    in_dim: usize,
    hidden: usize,
    out_dim: usize,
    /// Input weights, `4h x in_dim`.
    wx: Param,
    /// Recurrent weights, `4h x h`.
    wh: Param,
    /// Gate biases, `4h x 1`.
    b: Param,
    /// Readout weights, `out x h`.
    wy: Param,
    /// Readout bias, `out x 1`.
    by: Param,
    step: u64,
    ws: LstmWorkspace,
}

impl Lstm {
    /// Create an LSTM mapping sequences of `in_dim` vectors to a single
    /// `out_dim` prediction through `hidden` units.
    pub fn new(in_dim: usize, hidden: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        let mut lstm = Self {
            in_dim,
            hidden,
            out_dim,
            wx: Param::xavier(GATES * hidden, in_dim, in_dim, hidden, rng),
            wh: Param::xavier(GATES * hidden, hidden, hidden, hidden, rng),
            b: Param::zeros(GATES * hidden, 1),
            wy: Param::xavier(out_dim, hidden, hidden, out_dim, rng),
            by: Param::zeros(out_dim, 1),
            step: 0,
            ws: LstmWorkspace::default(),
        };
        // Forget-gate bias init to 1: the standard trick to let gradients
        // flow early in training.
        for j in 0..hidden {
            lstm.b.value[(hidden + j, 0)] = 1.0;
        }
        lstm
    }

    /// Input dimensionality per step.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output (forecast) dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Total scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.wx.count() + self.wh.count() + self.b.count() + self.wy.count() + self.by.count()
    }

    /// Bytes currently held by the reusable training workspace.
    pub fn workspace_bytes(&self) -> usize {
        self.ws.bytes()
    }

    /// Number of steps in a flat record-major sequence buffer.
    ///
    /// # Panics
    /// Panics if `seq.len()` is not a multiple of the input dimension.
    fn steps_of(&self, seq: &[f64]) -> usize {
        if self.in_dim == 0 {
            return 0;
        }
        assert_eq!(seq.len() % self.in_dim, 0, "sequence step dimension mismatch");
        seq.len() / self.in_dim
    }

    /// Fused forward pass staged in `ws`; returns the step count, with
    /// the prediction left in `ws.y`. One GEMM for the input-side
    /// pre-activations ([`Lstm::project`]) and the recurrence over them
    /// ([`Lstm::recur`]), so every stored value is bitwise identical to
    /// the tests' per-step `StepCache` oracle — without per-step
    /// allocation once warm.
    fn forward_ws(&self, seq: &[f64], ws: &mut LstmWorkspace) -> usize {
        let t_len = self.steps_of(seq);
        let mut wxx = std::mem::take(&mut ws.wxx);
        self.project(seq, t_len, ws, &mut wxx);
        self.recur(wxx.as_slice(), t_len, ws);
        ws.wxx = wxx;
        t_len
    }

    /// Input-side gate pre-activations `X·Wxᵀ` of a `t_len`-step
    /// record-major sequence into `wxx`, one `4h` row per step. Each row
    /// is a single ascending-`k` accumulation, whatever the row count
    /// (the kernel's numerics contract), so projecting a whole series
    /// once yields, row for row, the bits of projecting each window.
    fn project(&self, seq: &[f64], t_len: usize, ws: &mut LstmWorkspace, wxx: &mut Matrix) {
        if t_len == 0 {
            wxx.reset(0, GATES * self.hidden);
        } else {
            ws.x_mat.reset(t_len, self.in_dim);
            ws.x_mat.as_mut_slice().copy_from_slice(seq);
            kernel::matmul_transpose_into(&ws.x_mat, &self.wx.value, &mut ws.wxt, wxx);
        }
    }

    /// The recurrence and readout over `t_len` rows of input-side
    /// pre-activations (`wxx`, row-major `4h`), from a zero state. Stores
    /// every step's gates, cell and hidden state in `ws` for BPTT and
    /// leaves the prediction in `ws.y`.
    fn recur(&self, wxx: &[f64], t_len: usize, ws: &mut LstmWorkspace) {
        let h_dim = self.hidden;
        let g_dim = GATES * h_dim;
        ws.zero_h.clear();
        ws.zero_h.resize(h_dim, 0.0);
        ws.gates.reset(t_len, g_dim);
        ws.c.reset(t_len, h_dim);
        ws.tanh_c.reset(t_len, h_dim);
        ws.h.reset(t_len, h_dim);
        for t in 0..t_len {
            // z = Wx x + Wh h + b, reading the previous stored hidden row.
            let h_prev: &[f64] = if t == 0 { &ws.zero_h } else { ws.h.row(t - 1) };
            kernel::matvec_into(&self.wh.value, h_prev, &mut ws.zh);
            ws.z.clear();
            ws.z.extend_from_slice(&wxx[t * g_dim..(t + 1) * g_dim]);
            for (zi, (zhi, bi)) in ws.z.iter_mut().zip(ws.zh.iter().zip(self.b.value.as_slice())) {
                *zi += zhi + bi;
            }
            let gates_row = ws.gates.row_mut(t);
            for j in 0..h_dim {
                gates_row[j] = sigmoid(ws.z[j]);
                gates_row[h_dim + j] = sigmoid(ws.z[h_dim + j]);
                gates_row[2 * h_dim + j] = sigmoid(ws.z[2 * h_dim + j]);
                gates_row[3 * h_dim + j] = ws.z[3 * h_dim + j].tanh();
            }
            // Split the cell-state matrix so the previous row stays
            // readable while the current row is written.
            let (c_done, c_rest) = ws.c.as_mut_slice().split_at_mut(t * h_dim);
            let c_prev: &[f64] = if t == 0 { &ws.zero_h } else { &c_done[(t - 1) * h_dim..] };
            let c_cur = &mut c_rest[..h_dim];
            let tanh_row = ws.tanh_c.row_mut(t);
            let h_row = ws.h.row_mut(t);
            let g_row = ws.gates.row(t);
            for j in 0..h_dim {
                let i_g = g_row[j];
                let f_g = g_row[h_dim + j];
                let o_g = g_row[2 * h_dim + j];
                let g_g = g_row[3 * h_dim + j];
                c_cur[j] = f_g * c_prev[j] + i_g * g_g;
                tanh_row[j] = c_cur[j].tanh();
                h_row[j] = o_g * tanh_row[j];
            }
        }
        let h_last: &[f64] = if t_len == 0 { &ws.zero_h } else { ws.h.row(t_len - 1) };
        kernel::matvec_into(&self.wy.value, h_last, &mut ws.y);
        for (yi, bi) in ws.y.iter_mut().zip(self.by.value.as_slice()) {
            *yi += bi;
        }
    }

    /// Predict the next record from a flat record-major sequence of input
    /// records — e.g. a zero-copy window view over a `TimeSeries`.
    ///
    /// # Panics
    /// Panics if `seq.len()` is not a multiple of the input dimension.
    pub fn predict_flat(&self, seq: &[f64]) -> Vec<f64> {
        // Inference takes `&self` (scoring fans out over shared
        // references), so it stages through a fresh local workspace.
        let mut ws = LstmWorkspace::default();
        self.forward_ws(seq, &mut ws);
        ws.y
    }

    /// One-step forecasts for every `window`-record window of a flat
    /// record-major series: `out_dim` values per window, the `i`-th for
    /// record `window + i` from records `i..i + window`, each bitwise
    /// [`Lstm::predict_flat`] of that window. The input projection runs
    /// once over the whole series, so each record is projected once; only
    /// the recurrence runs per window, through one reused workspace.
    /// Empty when the series has no more than `window` records.
    ///
    /// # Panics
    /// Panics if `series.len()` is not a multiple of the input dimension.
    pub fn forecast_series(&self, series: &[f64], window: usize) -> Vec<f64> {
        let n = self.steps_of(series);
        if n <= window {
            return Vec::new();
        }
        let g_dim = GATES * self.hidden;
        let mut ws = LstmWorkspace::default();
        let mut wxx = Matrix::default();
        self.project(series, n, &mut ws, &mut wxx);
        let mut forecasts = Vec::with_capacity((n - window) * self.out_dim);
        for start in 0..n - window {
            let rows = &wxx.as_slice()[start * g_dim..(start + window) * g_dim];
            self.recur(rows, window, &mut ws);
            forecasts.extend_from_slice(&ws.y);
        }
        forecasts
    }

    /// Accumulate gradients for one `(sequence, target)` pair; returns the
    /// sample loss.
    fn backward_sequence(&mut self, seq: &[f64], target: &[f64]) -> f64 {
        let mut ws = std::mem::take(&mut self.ws);
        let loss = self.backward_ws(seq, target, &mut ws);
        self.ws = ws;
        loss
    }

    /// Fused-path gradient accumulation for one sample: every
    /// intermediate staged in `ws`, gradients accumulated through the
    /// vectorized [`elemwise`] kernels. Bitwise identical to the tests'
    /// allocating BPTT oracle.
    fn backward_ws(&mut self, seq: &[f64], target: &[f64], ws: &mut LstmWorkspace) -> f64 {
        let h_dim = self.hidden;
        let t_len = self.forward_ws(seq, ws);
        assert!(t_len > 0, "empty sequence");

        // Loss and readout gradient, replicating the `mse`/`mse_grad`
        // formulas (and the shape assert) element for element.
        assert_eq!(ws.y.len(), target.len(), "mse shape mismatch");
        let n = ws.y.len().max(1) as f64;
        let loss = ws.y.iter().zip(target).map(|(p, t)| (p - t) * (p - t)).sum::<f64>() / n;
        ws.dy.clear();
        ws.dy.extend(ws.y.iter().zip(target).map(|(p, t)| 2.0 * (p - t) / n));

        // Readout gradients.
        let h_last: &[f64] = ws.h.row(t_len - 1);
        elemwise::outer_acc(&ws.dy, h_last, self.wy.grad.as_mut_slice());
        elemwise::accumulate(self.by.grad.as_mut_slice(), &ws.dy);

        // BPTT.
        kernel::transpose_matvec_into(&self.wy.value, &ws.dy, &mut ws.dh);
        ws.dc.clear();
        ws.dc.resize(h_dim, 0.0);
        ws.dz.clear();
        ws.dz.resize(GATES * h_dim, 0.0);
        for t in (0..t_len).rev() {
            let g_row = ws.gates.row(t);
            let tanh_row = ws.tanh_c.row(t);
            let c_prev: &[f64] = if t == 0 { &ws.zero_h } else { ws.c.row(t - 1) };
            let h_prev: &[f64] = if t == 0 { &ws.zero_h } else { ws.h.row(t - 1) };

            // dL/dc += dL/dh * o * (1 - tanh(c)^2); every `dz` slot is
            // rewritten each step, so the buffer reuse is stateless.
            for j in 0..h_dim {
                let i_g = g_row[j];
                let f_g = g_row[h_dim + j];
                let o_g = g_row[2 * h_dim + j];
                let g_g = g_row[3 * h_dim + j];
                let dtanh = 1.0 - tanh_row[j] * tanh_row[j];
                let dcj = ws.dc[j] + ws.dh[j] * o_g * dtanh;
                let di = dcj * g_g;
                let df = dcj * c_prev[j];
                let do_ = ws.dh[j] * tanh_row[j];
                let dg = dcj * i_g;
                // Through the gate nonlinearities.
                ws.dz[j] = di * i_g * (1.0 - i_g);
                ws.dz[h_dim + j] = df * f_g * (1.0 - f_g);
                ws.dz[2 * h_dim + j] = do_ * o_g * (1.0 - o_g);
                ws.dz[3 * h_dim + j] = dg * (1.0 - g_g * g_g);
                // Carry to previous cell state.
                ws.dc[j] = dcj * f_g;
            }

            // Parameter gradients, accumulated in place.
            let x = &seq[t * self.in_dim..(t + 1) * self.in_dim];
            elemwise::outer_acc(&ws.dz, x, self.wx.grad.as_mut_slice());
            elemwise::outer_acc(&ws.dz, h_prev, self.wh.grad.as_mut_slice());
            elemwise::accumulate(self.b.grad.as_mut_slice(), &ws.dz);
            // Carry to previous hidden state.
            kernel::transpose_matvec_into(&self.wh.value, &ws.dz, &mut ws.dh);
        }
        obs::counter("train.workspace_bytes", ws.bytes() as u64);
        loss
    }

    /// One minibatch step over `(sequence, target)` pairs of flat
    /// record-major sequence buffers; returns the mean sample loss.
    /// Gradients are clipped to L2 norm 5 before the update.
    pub fn train_batch_flat(&mut self, batch: &[(&[f64], &[f64])], opt: &Optimizer) -> f64 {
        assert!(!batch.is_empty(), "empty batch");
        self.zero_grad();
        let mut loss = 0.0;
        for (seq, target) in batch {
            loss += self.backward_sequence(seq, target);
        }
        // Average gradients over the batch (vectorized in-place scale —
        // the same per-element product as the historical loop).
        let scale = 1.0 / batch.len() as f64;
        for p in self.params_mut() {
            elemwise::scale(p.grad.as_mut_slice(), scale);
        }
        self.step += 1;
        let step = self.step;
        let mut params = self.params_mut();
        clip_grad_norm(&mut params, 5.0);
        opt.step(&mut params, step);
        loss / batch.len() as f64
    }

    /// Train for `epochs` over the `(sequence, target)` dataset of flat
    /// record-major sequence buffers — the form the zero-copy data plane
    /// feeds directly from window views — with shuffled minibatches (one
    /// index shuffle per epoch); returns per-epoch mean losses. The
    /// minibatch view buffer and the training workspace are reused across
    /// all epochs.
    pub fn fit_flat(
        &mut self,
        data: &[(&[f64], &[f64])],
        epochs: usize,
        batch_size: usize,
        opt: &Optimizer,
        rng: &mut StdRng,
    ) -> Vec<f64> {
        assert!(batch_size > 0, "batch size must be positive");
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut history = Vec::with_capacity(epochs);
        let mut batch: Vec<(&[f64], &[f64])> = Vec::with_capacity(batch_size);
        for _ in 0..epochs {
            let _sp = obs::span("train", "Lstm.epoch");
            order.shuffle(rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for chunk in order.chunks(batch_size) {
                batch.clear();
                batch.extend(chunk.iter().map(|&i| data[i]));
                epoch_loss += self.train_batch_flat(&batch, opt);
                batches += 1;
            }
            obs::counter("train.samples", data.len() as u64);
            obs::add_records("train", data.len() as u64);
            history.push(epoch_loss / batches.max(1) as f64);
        }
        history
    }

    fn params_mut(&mut self) -> [&mut Param; 5] {
        [&mut self.wx, &mut self.wh, &mut self.b, &mut self.wy, &mut self.by]
    }

    fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{mse, mse_grad};
    use rand::SeedableRng;

    /// Per-step forward cache of the textbook BPTT oracle.
    struct StepCache {
        x: Vec<f64>,
        i: Vec<f64>,
        f: Vec<f64>,
        o: Vec<f64>,
        g: Vec<f64>,
        c: Vec<f64>,
        tanh_c: Vec<f64>,
        h: Vec<f64>,
    }

    impl Lstm {
        /// Textbook forward pass: fresh vectors and one [`StepCache`] per
        /// step.
        fn forward_sequence(&self, seq: &[f64]) -> (Vec<StepCache>, Vec<f64>) {
            let h_dim = self.hidden;
            let t_len = self.steps_of(seq);
            let mut h = vec![0.0; h_dim];
            let mut c = vec![0.0; h_dim];
            let mut caches = Vec::with_capacity(t_len);
            // The input-side gate pre-activations have no recurrent
            // dependency, so all steps go through one GEMM: row `t` of `wxx`
            // is `Wx·x_t`, with the same products in the same order as the
            // per-step matvec (bitwise-identical results). The flat buffer has
            // exactly the row-major layout `from_rows` used to build, so the
            // GEMM input — and everything downstream — is bitwise unchanged.
            let wxx = if t_len == 0 {
                Matrix::zeros(0, GATES * h_dim)
            } else {
                Matrix::from_vec(t_len, self.in_dim, seq.to_vec()).matmul_transpose(&self.wx.value)
            };
            for t in 0..t_len {
                let x = &seq[t * self.in_dim..(t + 1) * self.in_dim];
                // z = Wx x + Wh h + b
                let zh = self.wh.value.matvec(&h);
                let mut z = wxx.row(t).to_vec();
                for (zi, (zhi, bi)) in z.iter_mut().zip(zh.iter().zip(self.b.value.as_slice())) {
                    *zi += zhi + bi;
                }
                let mut i_g = vec![0.0; h_dim];
                let mut f_g = vec![0.0; h_dim];
                let mut o_g = vec![0.0; h_dim];
                let mut g_g = vec![0.0; h_dim];
                for j in 0..h_dim {
                    i_g[j] = sigmoid(z[j]);
                    f_g[j] = sigmoid(z[h_dim + j]);
                    o_g[j] = sigmoid(z[2 * h_dim + j]);
                    g_g[j] = z[3 * h_dim + j].tanh();
                }
                let mut new_c = vec![0.0; h_dim];
                let mut tanh_c = vec![0.0; h_dim];
                let mut new_h = vec![0.0; h_dim];
                for j in 0..h_dim {
                    new_c[j] = f_g[j] * c[j] + i_g[j] * g_g[j];
                    tanh_c[j] = new_c[j].tanh();
                    new_h[j] = o_g[j] * tanh_c[j];
                }
                caches.push(StepCache {
                    x: x.to_vec(),
                    i: i_g,
                    f: f_g,
                    o: o_g,
                    g: g_g,
                    c: new_c.clone(),
                    tanh_c,
                    h: new_h.clone(),
                });
                h = new_h;
                c = new_c;
            }
            let mut y = self.wy.value.matvec(&h);
            for (yi, bi) in y.iter_mut().zip(self.by.value.as_slice()) {
                *yi += bi;
            }
            (caches, y)
        }

        /// Textbook allocating BPTT: the oracle of [`Lstm::backward_ws`].
        fn backward_sequence_naive(&mut self, seq: &[f64], target: &[f64]) -> f64 {
            let (caches, y) = self.forward_sequence(seq);
            let h_dim = self.hidden;
            let t_len = caches.len();
            assert!(t_len > 0, "empty sequence");

            let pred = Matrix::row_vector(&y);
            let tgt = Matrix::row_vector(target);
            let loss = mse(&pred, &tgt);
            let dy: Vec<f64> = mse_grad(&pred, &tgt).as_slice().to_vec();

            // Readout gradients.
            let h_last = &caches[t_len - 1].h;
            self.wy.grad += &Matrix::outer(&dy, h_last);
            for (g, d) in self.by.grad.as_mut_slice().iter_mut().zip(&dy) {
                *g += d;
            }

            // BPTT.
            let mut dh = self.wy.value.transpose_matvec(&dy);
            let mut dc = vec![0.0; h_dim];
            for t in (0..t_len).rev() {
                let cache = &caches[t];
                let c_prev: Vec<f64> =
                    if t == 0 { vec![0.0; h_dim] } else { caches[t - 1].c.clone() };
                let h_prev: Vec<f64> =
                    if t == 0 { vec![0.0; h_dim] } else { caches[t - 1].h.clone() };

                // dL/dc += dL/dh * o * (1 - tanh(c)^2)
                let mut dz = vec![0.0; GATES * h_dim];
                for j in 0..h_dim {
                    let dtanh = 1.0 - cache.tanh_c[j] * cache.tanh_c[j];
                    let dcj = dc[j] + dh[j] * cache.o[j] * dtanh;
                    let di = dcj * cache.g[j];
                    let df = dcj * c_prev[j];
                    let do_ = dh[j] * cache.tanh_c[j];
                    let dg = dcj * cache.i[j];
                    // Through the gate nonlinearities.
                    dz[j] = di * cache.i[j] * (1.0 - cache.i[j]);
                    dz[h_dim + j] = df * cache.f[j] * (1.0 - cache.f[j]);
                    dz[2 * h_dim + j] = do_ * cache.o[j] * (1.0 - cache.o[j]);
                    dz[3 * h_dim + j] = dg * (1.0 - cache.g[j] * cache.g[j]);
                    // Carry to previous cell state.
                    dc[j] = dcj * cache.f[j];
                }

                // Parameter gradients.
                self.wx.grad += &Matrix::outer(&dz, &cache.x);
                self.wh.grad += &Matrix::outer(&dz, &h_prev);
                for (g, d) in self.b.grad.as_mut_slice().iter_mut().zip(&dz) {
                    *g += d;
                }
                // Carry to previous hidden state.
                dh = self.wh.value.transpose_matvec(&dz);
            }
            loss
        }
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(21)
    }

    #[test]
    fn shapes_and_counts() {
        let lstm = Lstm::new(3, 8, 3, &mut rng());
        assert_eq!(lstm.in_dim(), 3);
        assert_eq!(lstm.out_dim(), 3);
        let expected = 4 * 8 * 3 + 4 * 8 * 8 + 4 * 8 + 3 * 8 + 3;
        assert_eq!(lstm.param_count(), expected);
        let y = lstm.predict_flat(&[0.1, 0.2, 0.3, 0.4, 0.5, 0.6]);
        assert_eq!(y.len(), 3);
    }

    /// Full BPTT gradient check against finite differences on a tiny net.
    #[test]
    fn bptt_gradients_match_finite_differences() {
        let mut lstm = Lstm::new(2, 3, 2, &mut rng());
        let seq = [0.5, -0.3, 0.2, 0.8, -0.6, 0.1];
        let target = vec![0.3, -0.4];

        lstm.zero_grad();
        let _ = lstm.backward_sequence(&seq, &target);
        let analytic_wx = lstm.wx.grad.clone();
        let analytic_wh = lstm.wh.grad.clone();
        let analytic_b = lstm.b.grad.clone();

        let eps = 1e-6;
        let loss_at = |l: &Lstm| {
            let y = l.predict_flat(&seq);
            let pred = Matrix::row_vector(&y);
            let tgt = Matrix::row_vector(&target);
            mse(&pred, &tgt)
        };
        // Spot-check a handful of entries in each parameter.
        for (r, c) in [(0usize, 0usize), (3, 1), (7, 0), (11, 1)] {
            let orig = lstm.wx.value[(r, c)];
            lstm.wx.value[(r, c)] = orig + eps;
            let up = loss_at(&lstm);
            lstm.wx.value[(r, c)] = orig - eps;
            let down = loss_at(&lstm);
            lstm.wx.value[(r, c)] = orig;
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (numeric - analytic_wx[(r, c)]).abs() < 1e-5,
                "wx[{r},{c}]: numeric {numeric} vs analytic {}",
                analytic_wx[(r, c)]
            );
        }
        for (r, c) in [(0usize, 0usize), (5, 2), (9, 1)] {
            let orig = lstm.wh.value[(r, c)];
            lstm.wh.value[(r, c)] = orig + eps;
            let up = loss_at(&lstm);
            lstm.wh.value[(r, c)] = orig - eps;
            let down = loss_at(&lstm);
            lstm.wh.value[(r, c)] = orig;
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (numeric - analytic_wh[(r, c)]).abs() < 1e-5,
                "wh[{r},{c}]: numeric {numeric} vs analytic {}",
                analytic_wh[(r, c)]
            );
        }
        for r in [0usize, 4, 8, 11] {
            let orig = lstm.b.value[(r, 0)];
            lstm.b.value[(r, 0)] = orig + eps;
            let up = loss_at(&lstm);
            lstm.b.value[(r, 0)] = orig - eps;
            let down = loss_at(&lstm);
            lstm.b.value[(r, 0)] = orig;
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (numeric - analytic_b[(r, 0)]).abs() < 1e-5,
                "b[{r}]: numeric {numeric} vs analytic {}",
                analytic_b[(r, 0)]
            );
        }
    }

    /// The fused workspace path must match the `StepCache` oracle
    /// bitwise: same prediction, same loss, same accumulated gradients.
    #[test]
    fn fused_backward_matches_stepcache_reference_bitwise() {
        let mut fused = Lstm::new(2, 5, 2, &mut rng());
        let mut reference = fused.clone();
        let seq: Vec<f64> = (0..12).map(|i| (i as f64 * 0.37 - 1.0).sin()).collect();
        let target = [0.4, -0.7];

        fused.zero_grad();
        let la = fused.backward_ws(&seq, &target, &mut LstmWorkspace::default());
        reference.zero_grad();
        let lb = reference.backward_sequence_naive(&seq, &target);

        assert_eq!(la.to_bits(), lb.to_bits());
        let (ya, yb) = (fused.predict_flat(&seq), reference.forward_sequence(&seq).1);
        assert_eq!(
            ya.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            yb.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        for (pa, pb) in fused.params_mut().into_iter().zip(reference.params_mut()) {
            let got: Vec<u64> = pa.grad.as_slice().iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = pb.grad.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want);
        }
    }

    /// A workspace warmed by a longer sequence must not leak stale rows
    /// into a later, shorter sample: gradients match a cold network's.
    #[test]
    fn workspace_reuse_is_stateless_between_samples() {
        let mut warm = Lstm::new(2, 4, 2, &mut rng());
        let mut fresh = warm.clone();
        let long: Vec<f64> = (0..12).map(|i| (i as f64 * 0.3).sin()).collect();
        warm.zero_grad();
        let _ = warm.backward_sequence(&long, &[0.1, -0.2]);
        warm.zero_grad();

        let short = [0.4, -0.1, 0.2, 0.7];
        fresh.zero_grad();
        let la = warm.backward_sequence(&short, &[0.3, 0.6]);
        let lb = fresh.backward_sequence(&short, &[0.3, 0.6]);
        assert_eq!(la.to_bits(), lb.to_bits());
        for (pa, pb) in warm.params_mut().into_iter().zip(fresh.params_mut()) {
            let got: Vec<u64> = pa.grad.as_slice().iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = pb.grad.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn learns_to_forecast_sine() {
        let mut r = rng();
        let mut lstm = Lstm::new(1, 12, 1, &mut r);
        // Sequences of 8 sine samples -> next sample.
        let series: Vec<f64> = (0..200).map(|i| (i as f64 * 0.2).sin()).collect();
        let data: Vec<(&[f64], &[f64])> = (0..series.len() - 9)
            .map(|start| (&series[start..start + 8], &series[start + 8..start + 9]))
            .collect();
        let history = lstm.fit_flat(&data, 30, 16, &Optimizer::adam(0.01), &mut r);
        assert!(history[29] < 0.01, "LSTM failed to learn the sine: final loss {}", history[29]);
        // Forecast quality on a fresh window.
        let pred = lstm.predict_flat(&series[100..108])[0];
        assert!((pred - series[108]).abs() < 0.3, "bad forecast {pred} vs {}", series[108]);
    }

    #[test]
    fn training_reduces_loss() {
        let mut r = rng();
        let mut lstm = Lstm::new(2, 6, 2, &mut r);
        let data: Vec<(Vec<f64>, Vec<f64>)> = (0..30)
            .map(|i| {
                let t = i as f64 * 0.3;
                let seq = vec![t.sin(), t.cos(), (t + 0.3).sin(), (t + 0.3).cos()];
                (seq, vec![(t + 0.6).sin(), (t + 0.6).cos()])
            })
            .collect();
        let views: Vec<(&[f64], &[f64])> = data.iter().map(|(s, t)| (&s[..], &t[..])).collect();
        let h = lstm.fit_flat(&views, 40, 8, &Optimizer::adam(0.01), &mut r);
        assert!(h[39] < h[0], "loss should decrease: {} -> {}", h[0], h[39]);
    }

    #[test]
    fn deterministic_given_seed() {
        let build = || {
            let mut r = StdRng::seed_from_u64(5);
            let lstm = Lstm::new(2, 4, 2, &mut r);
            lstm.predict_flat(&[0.1, 0.2])
        };
        assert_eq!(build(), build());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_flat_len_panics() {
        let lstm = Lstm::new(3, 4, 3, &mut rng());
        let _ = lstm.predict_flat(&[1.0, 2.0]);
    }

    /// `forecast_series` against one `predict_flat` per window, bit for
    /// bit.
    fn assert_forecasts_match(in_dim: usize, hidden: usize, n: usize, window: usize, seed: u64) {
        use rand::{Rng, SeedableRng};
        let mut r = StdRng::seed_from_u64(seed);
        let lstm = Lstm::new(in_dim, hidden, in_dim, &mut r);
        let series: Vec<f64> = (0..n * in_dim).map(|_| r.gen_range(-2.0..2.0)).collect();
        let got = lstm.forecast_series(&series, window);
        let windows = n.saturating_sub(window);
        assert_eq!(got.len(), windows * in_dim, "in {in_dim}, h {hidden}, n {n}, w {window}");
        for (i, forecast) in got.chunks_exact(in_dim).enumerate() {
            let want = lstm.predict_flat(&series[i * in_dim..(i + window) * in_dim]);
            for (g, w) in forecast.iter().zip(&want) {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "in {in_dim}, h {hidden}, n {n}, w {window}, window {i}: {g} vs {w}"
                );
            }
        }
    }

    #[test]
    fn forecast_series_matches_predict_flat_bitwise() {
        // Hidden widths on and off the GEMM tiles, series shorter than,
        // equal to and longer than the window, one-record windows, and a
        // series long enough for the parallel row blocks.
        for (in_dim, hidden, n, window) in [
            (3, 4, 40, 6),
            (2, 5, 17, 1),
            (5, 7, 33, 8),
            (1, 3, 12, 4),
            (19, 24, 150, 8),
            (4, 6, 5, 5),
            (4, 6, 3, 5),
            (4, 6, 0, 2),
            (2, 3, 9, 0),
        ] {
            assert_forecasts_match(in_dim, hidden, n, window, (in_dim * 31 + hidden) as u64);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]
        #[test]
        fn forecast_series_is_predict_flat_for_every_window(
            in_dim in 1usize..7,
            hidden in 1usize..11,
            n in 0usize..70,
            window in 1usize..10,
            seed in 0u64..1000,
        ) {
            assert_forecasts_match(in_dim, hidden, n, window, seed);
        }
    }
}
