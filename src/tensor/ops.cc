#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "obs/memprof.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "tensor/kernel_context.h"
#include "tensor/simd/simd.h"

namespace widen::tensor {
namespace {

using internal::TensorImpl;
using obs::ProfOp;
using obs::ScopedOpProfile;

// Vectorizable inner loops dispatch through the active SIMD kernel table
// (tensor/simd/simd.h). The ParallelForGrid chunk structure — which rows or
// element ranges share a chunk — is unchanged, so thread-count determinism
// holds per ISA exactly as DESIGN.md §8 documents for the scalar kernels.

// True when the tape must record this op.
bool NeedsGrad(const Tensor& a) {
  return !NoGradScope::Active() && a.impl_ptr()->requires_grad;
}
bool NeedsGrad(const Tensor& a, const Tensor& b) {
  return NeedsGrad(a) || NeedsGrad(b);
}

// Registers `out` as a tape node computed from `parents` with `backward`.
// `backward` must capture raw TensorImpl pointers only (the parents vector
// keeps them alive; capturing shared_ptrs would create reference cycles
// through the closure).
void Attach(Tensor& out, std::vector<Tensor> parents,
            std::function<void()> backward) {
  obs::MemProfRecordTapeNode();
  TensorImpl* impl = out.impl_ptr().get();
  impl->requires_grad = true;
  impl->parents.reserve(parents.size());
  for (auto& p : parents) impl->parents.push_back(p.impl_ptr());
  impl->backward_fn = std::move(backward);
}

// Shapes for the narrow broadcast contract of Add/Sub/Mul.
enum class BroadcastKind { kSameShape, kRowVector };

BroadcastKind CheckBroadcast(const Tensor& a, const Tensor& b,
                             const char* op) {
  if (a.shape() == b.shape()) return BroadcastKind::kSameShape;
  WIDEN_CHECK(a.shape().rank() == 2 && b.shape().rank() == 2 &&
              b.rows() == 1 && b.cols() == a.cols())
      << op << ": incompatible shapes " << a.shape().ToString() << " vs "
      << b.shape().ToString();
  return BroadcastKind::kRowVector;
}

// FLOPs are summed in a plain thread-local and flushed to the shared counter
// every 64 passes: the embedding-dim matmuls in the serving path are small
// enough that a per-pass fetch_add shows up in bench/obs_bench, while a
// thread-local add does not. The exported value trails the truth by at most
// 63 passes per thread.
void AddMatMulFlops(int64_t flops) {
  WIDEN_METRIC_COUNTER(total, "widen_tensor_matmul_flops_total",
                       "Floating point operations (2mnk per pass) executed "
                       "by MatMul forward and backward kernels (flushed in "
                       "blocks of 64 passes per thread)");
  thread_local int64_t pending_flops = 0;
  thread_local int pending_passes = 0;
  pending_flops += flops;
  if (++pending_passes >= 64) {
    total->Add(pending_flops);
    pending_flops = 0;
    pending_passes = 0;
  }
}

}  // namespace

// ---- Linear algebra --------------------------------------------------------

Tensor MatMul(const Tensor& a, const Tensor& b) {
  WIDEN_CHECK(a.shape().rank() == 2 && b.shape().rank() == 2)
      << "MatMul requires matrices";
  WIDEN_CHECK_EQ(a.cols(), b.rows());
  const int64_t m = a.rows(), k = a.cols(), n = b.cols();
  Tensor out(Shape::Matrix(m, n));
  // Profiler FLOP/byte counts throughout this file are analytic per-shape
  // closed forms: FLOPs count elementary float ops (a transcendental is one),
  // bytes are 4 x (elements read + elements written) with a read-modify-write
  // accumulation counted as one read plus one write (DESIGN.md §12).
  ScopedOpProfile prof(ProfOp::kMatMul, 2 * m * n * k,
                       4 * (m * k + k * n + m * n));
  AddMatMulFlops(2 * m * n * k);
  {
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out.mutable_data();
    // i-k-j order (j-tiled inside the row kernel); each chunk owns a
    // disjoint range of output rows, and each out[i][j] accumulates its k
    // terms in ascending order regardless of the chunk grid, so results are
    // bitwise identical for any thread count within the active ISA.
    const auto kern = simd::Active().matmul_row;
    ParallelForGrid(m, kRowGrain, [=](int64_t r0, int64_t r1) {
      for (int64_t i = r0; i < r1; ++i) {
        kern(pa + i * k, pb, po + i * n, k, n);
      }
    });
  }
  if (NeedsGrad(a, b)) {
    TensorImpl* ai = a.impl_ptr().get();
    TensorImpl* bi = b.impl_ptr().get();
    TensorImpl* oi = out.impl_ptr().get();
    Attach(out, {a, b}, [ai, bi, oi, m, k, n] {
      oi->EnsureGrad();
      const int64_t passes =
          (ai->requires_grad ? 1 : 0) + (bi->requires_grad ? 1 : 0);
      // dA reads dC and B and accumulates dA; dB reads A and dC and
      // accumulates dB; 2mnk FLOPs each.
      ScopedOpProfile prof(
          ProfOp::kMatMul, 2 * m * n * k * passes,
          4 * (passes * m * n + (ai->requires_grad ? k * n + 2 * m * k : 0) +
               (bi->requires_grad ? m * k + 2 * k * n : 0)));
      const float* g = oi->grad.data();
      if (ai->requires_grad) {
        ai->EnsureGrad();
        AddMatMulFlops(2 * m * n * k);
        // dA += dC * B^T  (m x n) * (n x k); dA rows are disjoint per chunk.
        float* da = ai->grad.data();
        const float* pb = bi->data.data();
        const auto kdot = simd::Active().dot;
        ParallelForGrid(m, kRowGrain, [=](int64_t r0, int64_t r1) {
          for (int64_t i = r0; i < r1; ++i) {
            const float* grow = g + i * n;
            float* darow = da + i * k;
            for (int64_t kk = 0; kk < k; ++kk) {
              darow[kk] += kdot(grow, pb + kk * n, n);
            }
          }
        });
      }
      if (bi->requires_grad) {
        bi->EnsureGrad();
        AddMatMulFlops(2 * m * n * k);
        // dB += A^T * dC  (k x m) * (m x n), parallelized over dB's own
        // rows: each chunk owns dB rows [k0, k1) outright and accumulates
        // every db[kk][j]'s i-terms in ascending order — the serial kernel's
        // exact scalar sum order, with no cross-chunk reduction needed.
        float* db = bi->grad.data();
        const float* pa = ai->data.data();
        const auto kaxpy = simd::Active().axpy;
        ParallelForGrid(k, kRowGrain, [=](int64_t k0, int64_t k1) {
          for (int64_t i = 0; i < m; ++i) {
            const float* arow = pa + i * k;
            const float* grow = g + i * n;
            for (int64_t kk = k0; kk < k1; ++kk) {
              const float av = arow[kk];
              if (av == 0.0f) continue;
              kaxpy(av, grow, db + kk * n, n);
            }
          }
        });
      }
    });
  }
  return out;
}

Tensor Transpose(const Tensor& a) {
  WIDEN_CHECK_EQ(a.shape().rank(), 2);
  const int64_t m = a.rows(), n = a.cols();
  Tensor out(Shape::Matrix(n, m));
  ScopedOpProfile prof(ProfOp::kTranspose, 0, 4 * 2 * m * n);
  const float* pa = a.data();
  float* po = out.mutable_data();
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) po[j * m + i] = pa[i * n + j];
  }
  if (NeedsGrad(a)) {
    TensorImpl* ai = a.impl_ptr().get();
    TensorImpl* oi = out.impl_ptr().get();
    Attach(out, {a}, [ai, oi, m, n] {
      oi->EnsureGrad();
      if (!ai->requires_grad) return;
      ai->EnsureGrad();
      ScopedOpProfile prof(ProfOp::kTranspose, m * n, 4 * 3 * m * n);
      const float* g = oi->grad.data();
      float* da = ai->grad.data();
      for (int64_t j = 0; j < n; ++j) {
        for (int64_t i = 0; i < m; ++i) da[i * n + j] += g[j * m + i];
      }
    });
  }
  return out;
}

// ---- Elementwise arithmetic --------------------------------------------------

namespace {

// Shared implementation for Add/Sub (sign = +1/-1 on b).
Tensor AddLike(const Tensor& a, const Tensor& b, float sign, const char* op) {
  BroadcastKind kind = CheckBroadcast(a, b, op);
  Tensor out(a.shape());
  const int64_t total = a.size();
  const ProfOp prof_op = sign > 0.0f ? ProfOp::kAdd : ProfOp::kSub;
  ScopedOpProfile prof(
      prof_op, total,
      4 * (kind == BroadcastKind::kSameShape ? 3 * total
                                             : 2 * total + a.cols()));
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.mutable_data();
  if (kind == BroadcastKind::kSameShape) {
    const auto kern = sign > 0.0f ? simd::Active().add : simd::Active().sub;
    ParallelForGrid(total, kElementGrain, [=](int64_t lo, int64_t hi) {
      kern(pa + lo, pb + lo, po + lo, hi - lo);
    });
  } else {
    // Row-vector broadcast stays scalar: the chunk grid is element-ranged,
    // not row-aligned, so lanes would straddle the wrap point.
    const int64_t n = a.cols();
    ParallelForGrid(total, kElementGrain, [=](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) po[i] = pa[i] + sign * pb[i % n];
    });
  }
  if (NeedsGrad(a, b)) {
    TensorImpl* ai = a.impl_ptr().get();
    TensorImpl* bi = b.impl_ptr().get();
    TensorImpl* oi = out.impl_ptr().get();
    const int64_t n = a.shape().rank() == 2 ? a.cols() : total;
    Attach(out, {a, b}, [ai, bi, oi, total, n, sign, kind, prof_op] {
      oi->EnsureGrad();
      const int64_t active =
          (ai->requires_grad ? 1 : 0) + (bi->requires_grad ? 1 : 0);
      ScopedOpProfile prof(prof_op, active * total, 4 * active * 3 * total);
      const float* g = oi->grad.data();
      if (ai->requires_grad) {
        ai->EnsureGrad();
        float* da = ai->grad.data();
        const auto kacc = simd::Active().acc;
        ParallelForGrid(total, kElementGrain, [=](int64_t lo, int64_t hi) {
          kacc(g + lo, da + lo, hi - lo);
        });
      }
      if (bi->requires_grad) {
        bi->EnsureGrad();
        float* db = bi->grad.data();
        if (kind == BroadcastKind::kSameShape) {
          const auto kacc_s = simd::Active().acc_scaled;
          ParallelForGrid(total, kElementGrain, [=](int64_t lo, int64_t hi) {
            kacc_s(g + lo, sign, db + lo, hi - lo);
          });
        } else {
          // Row-vector grad is a reduction over rows into n slots; kept
          // serial in row-ascending order (it is O(total) adds either way).
          for (int64_t i = 0; i < total; ++i) db[i % n] += sign * g[i];
        }
      }
    });
  }
  return out;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) { return AddLike(a, b, 1.0f, "Add"); }
Tensor Sub(const Tensor& a, const Tensor& b) { return AddLike(a, b, -1.0f, "Sub"); }

Tensor Mul(const Tensor& a, const Tensor& b) {
  BroadcastKind kind = CheckBroadcast(a, b, "Mul");
  Tensor out(a.shape());
  const int64_t total = a.size();
  ScopedOpProfile prof(
      ProfOp::kMul, total,
      4 * (kind == BroadcastKind::kSameShape ? 3 * total
                                             : 2 * total + a.cols()));
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.mutable_data();
  const int64_t n = a.shape().rank() == 2 ? a.cols() : total;
  if (kind == BroadcastKind::kSameShape) {
    const auto kern = simd::Active().mul;
    ParallelForGrid(total, kElementGrain, [=](int64_t lo, int64_t hi) {
      kern(pa + lo, pb + lo, po + lo, hi - lo);
    });
  } else {
    ParallelForGrid(total, kElementGrain, [=](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) po[i] = pa[i] * pb[i % n];
    });
  }
  if (NeedsGrad(a, b)) {
    TensorImpl* ai = a.impl_ptr().get();
    TensorImpl* bi = b.impl_ptr().get();
    TensorImpl* oi = out.impl_ptr().get();
    Attach(out, {a, b}, [ai, bi, oi, total, n, kind] {
      oi->EnsureGrad();
      const int64_t active =
          (ai->requires_grad ? 1 : 0) + (bi->requires_grad ? 1 : 0);
      ScopedOpProfile prof(ProfOp::kMul, active * 2 * total,
                           4 * active * 4 * total);
      const float* g = oi->grad.data();
      const float* pa = ai->data.data();
      const float* pb = bi->data.data();
      if (ai->requires_grad) {
        ai->EnsureGrad();
        float* da = ai->grad.data();
        if (kind == BroadcastKind::kSameShape) {
          const auto kmacc = simd::Active().mul_acc;
          ParallelForGrid(total, kElementGrain, [=](int64_t lo, int64_t hi) {
            kmacc(g + lo, pb + lo, da + lo, hi - lo);
          });
        } else {
          ParallelForGrid(total, kElementGrain, [=](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i) da[i] += g[i] * pb[i % n];
          });
        }
      }
      if (bi->requires_grad) {
        bi->EnsureGrad();
        float* db = bi->grad.data();
        if (kind == BroadcastKind::kSameShape) {
          const auto kmacc = simd::Active().mul_acc;
          ParallelForGrid(total, kElementGrain, [=](int64_t lo, int64_t hi) {
            kmacc(g + lo, pa + lo, db + lo, hi - lo);
          });
        } else {
          // Reduction over rows into n slots; serial, row-ascending.
          for (int64_t i = 0; i < total; ++i) db[i % n] += g[i] * pa[i];
        }
      }
    });
  }
  return out;
}

Tensor Scale(const Tensor& a, float c) {
  Tensor out(a.shape());
  const int64_t total = a.size();
  ScopedOpProfile prof(ProfOp::kScale, total, 4 * 2 * total);
  const float* pa = a.data();
  float* po = out.mutable_data();
  simd::Active().scale(pa, c, po, total);
  if (NeedsGrad(a)) {
    TensorImpl* ai = a.impl_ptr().get();
    TensorImpl* oi = out.impl_ptr().get();
    Attach(out, {a}, [ai, oi, total, c] {
      oi->EnsureGrad();
      if (!ai->requires_grad) return;
      ai->EnsureGrad();
      ScopedOpProfile prof(ProfOp::kScale, 2 * total, 4 * 3 * total);
      simd::Active().acc_scaled(oi->grad.data(), c, ai->grad.data(), total);
    });
  }
  return out;
}

Tensor AddScalar(const Tensor& a, float c) {
  Tensor out(a.shape());
  const int64_t total = a.size();
  ScopedOpProfile prof(ProfOp::kAddScalar, total, 4 * 2 * total);
  const float* pa = a.data();
  float* po = out.mutable_data();
  for (int64_t i = 0; i < total; ++i) po[i] = pa[i] + c;
  if (NeedsGrad(a)) {
    TensorImpl* ai = a.impl_ptr().get();
    TensorImpl* oi = out.impl_ptr().get();
    Attach(out, {a}, [ai, oi, total] {
      oi->EnsureGrad();
      if (!ai->requires_grad) return;
      ai->EnsureGrad();
      ScopedOpProfile prof(ProfOp::kAddScalar, total, 4 * 3 * total);
      const float* g = oi->grad.data();
      float* da = ai->grad.data();
      for (int64_t i = 0; i < total; ++i) da[i] += g[i];
    });
  }
  return out;
}

Tensor Maximum(const Tensor& a, const Tensor& b) {
  WIDEN_CHECK(a.shape() == b.shape())
      << "Maximum: shapes " << a.shape().ToString() << " vs "
      << b.shape().ToString();
  Tensor out(a.shape());
  const int64_t total = a.size();
  ScopedOpProfile prof(ProfOp::kMaximum, total, 4 * 3 * total);
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.mutable_data();
  for (int64_t i = 0; i < total; ++i) po[i] = std::max(pa[i], pb[i]);
  if (NeedsGrad(a, b)) {
    TensorImpl* ai = a.impl_ptr().get();
    TensorImpl* bi = b.impl_ptr().get();
    TensorImpl* oi = out.impl_ptr().get();
    Attach(out, {a, b}, [ai, bi, oi, total] {
      oi->EnsureGrad();
      const int64_t active =
          (ai->requires_grad ? 1 : 0) + (bi->requires_grad ? 1 : 0);
      ScopedOpProfile prof(ProfOp::kMaximum, active * total,
                           4 * (3 * total + active * 2 * total));
      const float* g = oi->grad.data();
      const float* pa = ai->data.data();
      const float* pb = bi->data.data();
      if (ai->requires_grad) {
        ai->EnsureGrad();
        float* da = ai->grad.data();
        for (int64_t i = 0; i < total; ++i) {
          if (pa[i] >= pb[i]) da[i] += g[i];
        }
      }
      if (bi->requires_grad) {
        bi->EnsureGrad();
        float* db = bi->grad.data();
        for (int64_t i = 0; i < total; ++i) {
          if (pb[i] > pa[i]) db[i] += g[i];
        }
      }
    });
  }
  return out;
}

// ---- Nonlinearities ----------------------------------------------------------

namespace {

// Generic unary op: forward(x) and dydx computed from (x, y). Both passes
// are chunk-parallel (each element is independent). Profiler counts are the
// family-wide nominal forms: 1 FLOP/element forward (a transcendental counts
// as one), 3 backward (dydx + multiply + accumulate).
template <typename Fwd, typename Grad>
Tensor UnaryOp(const Tensor& a, ProfOp prof_op, Fwd fwd, Grad dydx) {
  Tensor out(a.shape());
  const int64_t total = a.size();
  ScopedOpProfile prof(prof_op, total, 4 * 2 * total);
  const float* pa = a.data();
  float* po = out.mutable_data();
  ParallelForGrid(total, kElementGrain, [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) po[i] = fwd(pa[i]);
  });
  if (NeedsGrad(a)) {
    TensorImpl* ai = a.impl_ptr().get();
    TensorImpl* oi = out.impl_ptr().get();
    Attach(out, {a}, [ai, oi, total, dydx, prof_op] {
      oi->EnsureGrad();
      if (!ai->requires_grad) return;
      ai->EnsureGrad();
      ScopedOpProfile prof(prof_op, 3 * total, 4 * 5 * total);
      const float* g = oi->grad.data();
      const float* x = ai->data.data();
      const float* y = oi->data.data();
      float* da = ai->grad.data();
      ParallelForGrid(total, kElementGrain, [=](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) da[i] += g[i] * dydx(x[i], y[i]);
      });
    });
  }
  return out;
}

}  // namespace

// Relu and LeakyRelu go through the dispatched SIMD kernels rather than
// UnaryOp — they are the hot encoder nonlinearities and their select-style
// bodies vectorize losslessly (lanewise class: bitwise-identical to scalar
// on every ISA). Profiler counts match UnaryOp's nominal forms.
Tensor Relu(const Tensor& a) {
  Tensor out(a.shape());
  const int64_t total = a.size();
  ScopedOpProfile prof(ProfOp::kRelu, total, 4 * 2 * total);
  const float* pa = a.data();
  float* po = out.mutable_data();
  const auto kern = simd::Active().relu;
  ParallelForGrid(total, kElementGrain, [=](int64_t lo, int64_t hi) {
    kern(pa + lo, po + lo, hi - lo);
  });
  if (NeedsGrad(a)) {
    TensorImpl* ai = a.impl_ptr().get();
    TensorImpl* oi = out.impl_ptr().get();
    Attach(out, {a}, [ai, oi, total] {
      oi->EnsureGrad();
      if (!ai->requires_grad) return;
      ai->EnsureGrad();
      ScopedOpProfile prof(ProfOp::kRelu, 3 * total, 4 * 5 * total);
      const float* g = oi->grad.data();
      const float* x = ai->data.data();
      float* da = ai->grad.data();
      const auto kern = simd::Active().relu_bwd;
      ParallelForGrid(total, kElementGrain, [=](int64_t lo, int64_t hi) {
        kern(g + lo, x + lo, da + lo, hi - lo);
      });
    });
  }
  return out;
}

Tensor LeakyRelu(const Tensor& a, float slope) {
  Tensor out(a.shape());
  const int64_t total = a.size();
  ScopedOpProfile prof(ProfOp::kLeakyRelu, total, 4 * 2 * total);
  const float* pa = a.data();
  float* po = out.mutable_data();
  const auto kern = simd::Active().leaky_relu;
  ParallelForGrid(total, kElementGrain, [=](int64_t lo, int64_t hi) {
    kern(pa + lo, slope, po + lo, hi - lo);
  });
  if (NeedsGrad(a)) {
    TensorImpl* ai = a.impl_ptr().get();
    TensorImpl* oi = out.impl_ptr().get();
    Attach(out, {a}, [ai, oi, total, slope] {
      oi->EnsureGrad();
      if (!ai->requires_grad) return;
      ai->EnsureGrad();
      ScopedOpProfile prof(ProfOp::kLeakyRelu, 3 * total, 4 * 5 * total);
      const float* g = oi->grad.data();
      const float* x = ai->data.data();
      float* da = ai->grad.data();
      const auto kern = simd::Active().leaky_relu_bwd;
      ParallelForGrid(total, kElementGrain, [=](int64_t lo, int64_t hi) {
        kern(g + lo, x + lo, slope, da + lo, hi - lo);
      });
    });
  }
  return out;
}

Tensor Elu(const Tensor& a, float alpha) {
  return UnaryOp(
      a, ProfOp::kElu,
      [alpha](float x) { return x >= 0.0f ? x : alpha * (std::exp(x) - 1.0f); },
      [alpha](float x, float y) { return x >= 0.0f ? 1.0f : y + alpha; });
}

Tensor Tanh(const Tensor& a) {
  return UnaryOp(
      a, ProfOp::kTanh, [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.0f - y * y; });
}

Tensor Sigmoid(const Tensor& a) {
  return UnaryOp(
      a, ProfOp::kSigmoid,
      [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
      [](float, float y) { return y * (1.0f - y); });
}

Tensor Exp(const Tensor& a) {
  return UnaryOp(
      a, ProfOp::kExp, [](float x) { return std::exp(x); },
      [](float, float y) { return y; });
}

Tensor Log(const Tensor& a) {
  return UnaryOp(
      a, ProfOp::kLog, [](float x) { return std::log(std::max(x, 1e-12f)); },
      [](float x, float) { return 1.0f / std::max(x, 1e-12f); });
}

// ---- Softmax / losses ---------------------------------------------------------

namespace {

// Row-parallel softmax forward shared by SoftmaxRows and MaskedSoftmaxRows;
// `pm` is an optional additive mask with a's layout (nullptr = no mask).
void SoftmaxRowsForward(const float* pa, const float* pm, float* po,
                        int64_t m, int64_t n) {
  const auto kern = simd::Active().softmax_row;
  ParallelForGrid(m, kRowGrain, [=](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      kern(pa + i * n, pm == nullptr ? nullptr : pm + i * n, po + i * n, n);
    }
  });
}

// Row-parallel softmax backward: da += y * (g - <g, y>) per row. Shared by
// SoftmaxRows and MaskedSoftmaxRows (an additive mask has unit Jacobian
// toward the logits, so the backward is identical).
void SoftmaxRowsBackward(const float* g, const float* y, float* da,
                         int64_t m, int64_t n) {
  const auto kern = simd::Active().softmax_row_bwd;
  ParallelForGrid(m, kRowGrain, [=](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      kern(g + i * n, y + i * n, da + i * n, n);
    }
  });
}

}  // namespace

Tensor SoftmaxRows(const Tensor& a) {
  WIDEN_CHECK_EQ(a.shape().rank(), 2);
  const int64_t m = a.rows(), n = a.cols();
  Tensor out(a.shape());
  // Per row: n-1 max comparisons, then n x (subtract, exp, sum-add) and n
  // normalizing multiplies — 5 FLOPs/element nominal.
  ScopedOpProfile prof(ProfOp::kSoftmaxRows, 5 * m * n, 4 * 2 * m * n);
  SoftmaxRowsForward(a.data(), nullptr, out.mutable_data(), m, n);
  if (NeedsGrad(a)) {
    TensorImpl* ai = a.impl_ptr().get();
    TensorImpl* oi = out.impl_ptr().get();
    Attach(out, {a}, [ai, oi, m, n] {
      oi->EnsureGrad();
      if (!ai->requires_grad) return;
      ai->EnsureGrad();
      // Per element: 2 for the <g, y> dot, then subtract/multiply/accumulate.
      ScopedOpProfile prof(ProfOp::kSoftmaxRows, 5 * m * n, 4 * 4 * m * n);
      SoftmaxRowsBackward(oi->grad.data(), oi->data.data(), ai->grad.data(),
                          m, n);
    });
  }
  return out;
}

Tensor MaskedSoftmaxRows(const Tensor& a, const Tensor& mask) {
  WIDEN_CHECK_EQ(a.shape().rank(), 2);
  WIDEN_CHECK(a.shape() == mask.shape())
      << "MaskedSoftmaxRows: shapes " << a.shape().ToString() << " vs "
      << mask.shape().ToString();
  WIDEN_CHECK(!mask.requires_grad())
      << "MaskedSoftmaxRows: the mask is a constant; no gradient flows to it";
  const int64_t m = a.rows(), n = a.cols();
  Tensor out(a.shape());
  // SoftmaxRows plus one mask add per element (the mask is also read).
  ScopedOpProfile prof(ProfOp::kMaskedSoftmaxRows, 6 * m * n, 4 * 3 * m * n);
  SoftmaxRowsForward(a.data(), mask.data(), out.mutable_data(), m, n);
  if (NeedsGrad(a)) {
    TensorImpl* ai = a.impl_ptr().get();
    TensorImpl* oi = out.impl_ptr().get();
    Attach(out, {a}, [ai, oi, m, n] {
      oi->EnsureGrad();
      if (!ai->requires_grad) return;
      ai->EnsureGrad();
      ScopedOpProfile prof(ProfOp::kMaskedSoftmaxRows, 5 * m * n,
                           4 * 4 * m * n);
      SoftmaxRowsBackward(oi->grad.data(), oi->data.data(), ai->grad.data(),
                          m, n);
    });
  }
  return out;
}

Tensor SoftmaxCrossEntropy(const Tensor& logits,
                           const std::vector<int32_t>& labels,
                           const std::vector<float>* sample_weights) {
  WIDEN_CHECK_EQ(logits.shape().rank(), 2);
  const int64_t m = logits.rows(), c = logits.cols();
  WIDEN_CHECK_EQ(static_cast<int64_t>(labels.size()), m);
  if (sample_weights != nullptr) {
    WIDEN_CHECK_EQ(static_cast<int64_t>(sample_weights->size()), m);
  }
  // Softmax (5 FLOPs/element) plus log + multiply + accumulate per row.
  ScopedOpProfile prof(ProfOp::kSoftmaxCrossEntropy, 5 * m * c + 3 * m,
                       4 * (2 * m * c + m));

  // Forward: stable log-softmax; store probabilities for the backward pass.
  // The per-row softmax is chunk-parallel; the loss reduction then runs
  // serially in row-ascending order (same scalar sum order as the serial
  // kernel, so the loss is bitwise identical for every thread count).
  for (int64_t i = 0; i < m; ++i) {
    const int32_t y = labels[static_cast<size_t>(i)];
    WIDEN_CHECK(y >= 0 && y < c) << "label out of range: " << y;
  }
  auto probs = std::make_shared<std::vector<float>>(
      static_cast<size_t>(m * c), 0.0f);
  const float* pl = logits.data();
  SoftmaxRowsForward(pl, nullptr, probs->data(), m, c);
  double loss_sum = 0.0;
  double weight_sum = 0.0;
  for (int64_t i = 0; i < m; ++i) {
    const float w =
        sample_weights != nullptr ? (*sample_weights)[static_cast<size_t>(i)]
                                  : 1.0f;
    if (w != 0.0f) {
      const float* prow = probs->data() + i * c;
      const int32_t y = labels[static_cast<size_t>(i)];
      loss_sum -= static_cast<double>(w) *
                  std::log(std::max(prow[y], 1e-12f));
      weight_sum += w;
    }
  }
  const float norm =
      weight_sum > 0.0 ? static_cast<float>(1.0 / weight_sum) : 0.0f;
  Tensor out = Tensor::Scalar(static_cast<float>(loss_sum) * norm);

  if (NeedsGrad(logits)) {
    TensorImpl* li = logits.impl_ptr().get();
    TensorImpl* oi = out.impl_ptr().get();
    auto labels_copy = std::make_shared<std::vector<int32_t>>(labels);
    std::shared_ptr<std::vector<float>> weights_copy;
    if (sample_weights != nullptr) {
      weights_copy = std::make_shared<std::vector<float>>(*sample_weights);
    }
    Attach(out, {logits},
           [li, oi, probs, labels_copy, weights_copy, m, c, norm] {
             oi->EnsureGrad();
             if (!li->requires_grad) return;
             li->EnsureGrad();
             ScopedOpProfile prof(ProfOp::kSoftmaxCrossEntropy, 3 * m * c,
                                  4 * 3 * m * c);
             const float upstream = oi->grad[0];
             float* dl = li->grad.data();
             // Each logits row's gradient is independent: row-parallel.
             ParallelForGrid(m, kRowGrain, [&](int64_t r0, int64_t r1) {
               for (int64_t i = r0; i < r1; ++i) {
                 const float w =
                     weights_copy ? (*weights_copy)[static_cast<size_t>(i)]
                                  : 1.0f;
                 if (w == 0.0f) continue;
                 const float scale = upstream * norm * w;
                 const float* prow = probs->data() + i * c;
                 float* drow = dl + i * c;
                 const int32_t y = (*labels_copy)[static_cast<size_t>(i)];
                 for (int64_t j = 0; j < c; ++j) drow[j] += scale * prow[j];
                 drow[y] -= scale;
               }
             });
           });
  }
  return out;
}

Tensor SumSquares(const Tensor& a) {
  const int64_t total = a.size();
  ScopedOpProfile prof(ProfOp::kSumSquares, 2 * total, 4 * total);
  const float* pa = a.data();
  double acc = 0.0;
  for (int64_t i = 0; i < total; ++i) {
    acc += static_cast<double>(pa[i]) * pa[i];
  }
  Tensor out = Tensor::Scalar(static_cast<float>(acc));
  if (NeedsGrad(a)) {
    TensorImpl* ai = a.impl_ptr().get();
    TensorImpl* oi = out.impl_ptr().get();
    Attach(out, {a}, [ai, oi, total] {
      oi->EnsureGrad();
      if (!ai->requires_grad) return;
      ai->EnsureGrad();
      ScopedOpProfile prof(ProfOp::kSumSquares, 3 * total, 4 * 3 * total);
      const float upstream = oi->grad[0];
      const float* x = ai->data.data();
      float* da = ai->grad.data();
      for (int64_t i = 0; i < total; ++i) da[i] += 2.0f * upstream * x[i];
    });
  }
  return out;
}

// ---- Shape surgery -------------------------------------------------------------

Tensor ConcatRows(const std::vector<Tensor>& parts) {
  WIDEN_CHECK(!parts.empty());
  const int64_t n = parts[0].cols();
  int64_t total_rows = 0;
  bool needs = false;
  for (const Tensor& p : parts) {
    WIDEN_CHECK_EQ(p.shape().rank(), 2);
    WIDEN_CHECK_EQ(p.cols(), n);
    total_rows += p.rows();
    needs = needs || NeedsGrad(p);
  }
  needs = needs && !NoGradScope::Active();
  Tensor out(Shape::Matrix(total_rows, n));
  ScopedOpProfile prof(ProfOp::kConcatRows, 0, 4 * 2 * total_rows * n);
  float* po = out.mutable_data();
  int64_t row = 0;
  for (const Tensor& p : parts) {
    std::memcpy(po + row * n, p.data(),
                static_cast<size_t>(p.size()) * sizeof(float));
    row += p.rows();
  }
  if (needs) {
    std::vector<TensorImpl*> impls;
    std::vector<int64_t> offsets;
    int64_t off = 0;
    for (const Tensor& p : parts) {
      impls.push_back(p.impl_ptr().get());
      offsets.push_back(off);
      off += p.rows();
    }
    TensorImpl* oi = out.impl_ptr().get();
    Attach(out, parts, [impls, offsets, oi, n] {
      oi->EnsureGrad();
      const int64_t total = oi->shape.NumElements();
      ScopedOpProfile prof(ProfOp::kConcatRows, total, 4 * 3 * total);
      const float* g = oi->grad.data();
      for (size_t k = 0; k < impls.size(); ++k) {
        TensorImpl* pi = impls[k];
        if (!pi->requires_grad) continue;
        pi->EnsureGrad();
        const int64_t rows_k = pi->shape.rows();
        const float* src = g + offsets[k] * n;
        float* dst = pi->grad.data();
        for (int64_t i = 0; i < rows_k * n; ++i) dst[i] += src[i];
      }
    });
  }
  return out;
}

Tensor ConcatCols(const std::vector<Tensor>& parts) {
  WIDEN_CHECK(!parts.empty());
  const int64_t m = parts[0].rows();
  int64_t total_cols = 0;
  bool needs = false;
  for (const Tensor& p : parts) {
    WIDEN_CHECK_EQ(p.shape().rank(), 2);
    WIDEN_CHECK_EQ(p.rows(), m);
    total_cols += p.cols();
    needs = needs || NeedsGrad(p);
  }
  Tensor out(Shape::Matrix(m, total_cols));
  ScopedOpProfile prof(ProfOp::kConcatCols, 0, 4 * 2 * m * total_cols);
  float* po = out.mutable_data();
  int64_t col = 0;
  for (const Tensor& p : parts) {
    const int64_t pc = p.cols();
    const float* src = p.data();
    for (int64_t i = 0; i < m; ++i) {
      std::memcpy(po + i * total_cols + col, src + i * pc,
                  static_cast<size_t>(pc) * sizeof(float));
    }
    col += pc;
  }
  if (needs) {
    std::vector<TensorImpl*> impls;
    std::vector<int64_t> offsets;
    int64_t off = 0;
    for (const Tensor& p : parts) {
      impls.push_back(p.impl_ptr().get());
      offsets.push_back(off);
      off += p.cols();
    }
    TensorImpl* oi = out.impl_ptr().get();
    Attach(out, parts, [impls, offsets, oi, m, total_cols] {
      oi->EnsureGrad();
      ScopedOpProfile prof(ProfOp::kConcatCols, m * total_cols,
                           4 * 3 * m * total_cols);
      const float* g = oi->grad.data();
      for (size_t k = 0; k < impls.size(); ++k) {
        TensorImpl* pi = impls[k];
        if (!pi->requires_grad) continue;
        pi->EnsureGrad();
        const int64_t pc = pi->shape.cols();
        float* dst = pi->grad.data();
        for (int64_t i = 0; i < m; ++i) {
          const float* src = g + i * total_cols + offsets[k];
          for (int64_t j = 0; j < pc; ++j) dst[i * pc + j] += src[j];
        }
      }
    });
  }
  return out;
}

Tensor SliceRows(const Tensor& a, int64_t start, int64_t count) {
  WIDEN_CHECK_EQ(a.shape().rank(), 2);
  WIDEN_CHECK(start >= 0 && count >= 0 && start + count <= a.rows())
      << "SliceRows [" << start << ", " << start + count << ") of "
      << a.rows() << " rows";
  const int64_t n = a.cols();
  Tensor out(Shape::Matrix(count, n));
  ScopedOpProfile prof(ProfOp::kSliceRows, 0, 4 * 2 * count * n);
  std::memcpy(out.mutable_data(), a.data() + start * n,
              static_cast<size_t>(count * n) * sizeof(float));
  if (NeedsGrad(a)) {
    TensorImpl* ai = a.impl_ptr().get();
    TensorImpl* oi = out.impl_ptr().get();
    Attach(out, {a}, [ai, oi, start, count, n] {
      oi->EnsureGrad();
      if (!ai->requires_grad) return;
      ai->EnsureGrad();
      ScopedOpProfile prof(ProfOp::kSliceRows, count * n, 4 * 3 * count * n);
      const float* g = oi->grad.data();
      float* da = ai->grad.data() + start * n;
      for (int64_t i = 0; i < count * n; ++i) da[i] += g[i];
    });
  }
  return out;
}

Tensor SliceCols(const Tensor& a, int64_t start, int64_t count) {
  WIDEN_CHECK_EQ(a.shape().rank(), 2);
  WIDEN_CHECK(start >= 0 && count >= 0 && start + count <= a.cols())
      << "SliceCols [" << start << ", " << start + count << ") of "
      << a.cols() << " cols";
  const int64_t m = a.rows(), n = a.cols();
  Tensor out(Shape::Matrix(m, count));
  ScopedOpProfile prof(ProfOp::kSliceCols, 0, 4 * 2 * m * count);
  const float* pa = a.data();
  float* po = out.mutable_data();
  for (int64_t i = 0; i < m; ++i) {
    std::memcpy(po + i * count, pa + i * n + start,
                static_cast<size_t>(count) * sizeof(float));
  }
  if (NeedsGrad(a)) {
    TensorImpl* ai = a.impl_ptr().get();
    TensorImpl* oi = out.impl_ptr().get();
    Attach(out, {a}, [ai, oi, start, count, m, n] {
      oi->EnsureGrad();
      if (!ai->requires_grad) return;
      ai->EnsureGrad();
      ScopedOpProfile prof(ProfOp::kSliceCols, m * count, 4 * 3 * m * count);
      const float* g = oi->grad.data();
      float* da = ai->grad.data();
      for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < count; ++j) {
          da[i * n + start + j] += g[i * count + j];
        }
      }
    });
  }
  return out;
}

Tensor ScaleBy(const Tensor& a, const Tensor& scalar) {
  WIDEN_CHECK_EQ(scalar.size(), 1) << "ScaleBy expects a scalar tensor";
  const float s = scalar.data()[0];
  Tensor out(a.shape());
  const int64_t total = a.size();
  ScopedOpProfile prof(ProfOp::kScaleBy, total, 4 * 2 * total);
  const float* pa = a.data();
  float* po = out.mutable_data();
  for (int64_t i = 0; i < total; ++i) po[i] = pa[i] * s;
  if (NeedsGrad(a, scalar)) {
    TensorImpl* ai = a.impl_ptr().get();
    TensorImpl* si = scalar.impl_ptr().get();
    TensorImpl* oi = out.impl_ptr().get();
    Attach(out, {a, scalar}, [ai, si, oi, total] {
      oi->EnsureGrad();
      const int64_t active =
          (ai->requires_grad ? 1 : 0) + (si->requires_grad ? 1 : 0);
      ScopedOpProfile prof(ProfOp::kScaleBy, active * 2 * total,
                           4 * active * 3 * total);
      const float* g = oi->grad.data();
      const float s_val = si->data[0];
      if (ai->requires_grad) {
        ai->EnsureGrad();
        float* da = ai->grad.data();
        for (int64_t i = 0; i < total; ++i) da[i] += g[i] * s_val;
      }
      if (si->requires_grad) {
        si->EnsureGrad();
        const float* x = ai->data.data();
        double acc = 0.0;
        for (int64_t i = 0; i < total; ++i) {
          acc += static_cast<double>(g[i]) * x[i];
        }
        si->grad[0] += static_cast<float>(acc);
      }
    });
  }
  return out;
}

Tensor GatherRows(const Tensor& a, const std::vector<int32_t>& indices) {
  WIDEN_CHECK_EQ(a.shape().rank(), 2);
  const int64_t n = a.cols();
  const int64_t k = static_cast<int64_t>(indices.size());
  Tensor out(Shape::Matrix(k, n));
  ScopedOpProfile prof(ProfOp::kGatherRows, 0, 4 * 2 * k * n);
  const float* pa = a.data();
  float* po = out.mutable_data();
  for (int64_t i = 0; i < k; ++i) {
    const int32_t idx = indices[static_cast<size_t>(i)];
    WIDEN_CHECK(idx >= 0 && idx < a.rows())
        << "GatherRows index " << idx << " out of [0, " << a.rows() << ")";
  }
  const int32_t* pi = indices.data();
  ParallelForGrid(k, kRowGrain, [=](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      std::memcpy(po + i * n, pa + static_cast<int64_t>(pi[i]) * n,
                  static_cast<size_t>(n) * sizeof(float));
    }
  });
  if (NeedsGrad(a)) {
    TensorImpl* ai = a.impl_ptr().get();
    TensorImpl* oi = out.impl_ptr().get();
    auto idx_copy = std::make_shared<std::vector<int32_t>>(indices);
    const int64_t rows_a = a.rows();
    Attach(out, {a}, [ai, oi, idx_copy, k, n, rows_a] {
      oi->EnsureGrad();
      if (!ai->requires_grad) return;
      ai->EnsureGrad();
      // Algorithmic traffic of the scatter-add (the parallel destination
      // scan re-reads the index list per chunk, which is not counted).
      ScopedOpProfile prof(ProfOp::kGatherRows, k * n, 4 * 3 * k * n);
      const float* g = oi->grad.data();
      float* da = ai->grad.data();
      const int32_t* idx = idx_copy->data();
      if (KernelContext::Get().pool() == nullptr) {
        // Serial scatter-add, gather-ascending.
        for (int64_t i = 0; i < k; ++i) {
          float* dst = da + static_cast<int64_t>(idx[i]) * n;
          const float* src = g + i * n;
          for (int64_t j = 0; j < n; ++j) dst[j] += src[j];
        }
        return;
      }
      // Parallel scatter with duplicate indices: chunk the DESTINATION rows
      // so writes never conflict; each chunk scans the index list and takes
      // the entries landing in its range, still in gather-ascending order —
      // per destination element that is the serial kernel's exact sum order,
      // so serial and parallel paths agree bitwise. The O(chunks * k) index
      // scan is bounded by a coarse grid (at most 64 chunks).
      const int64_t grain =
          std::max<int64_t>(kRowGrain, (rows_a + 63) / 64);
      ParallelForGrid(rows_a, grain, [=](int64_t r0, int64_t r1) {
        for (int64_t i = 0; i < k; ++i) {
          const int64_t row = idx[i];
          if (row < r0 || row >= r1) continue;
          float* dst = da + row * n;
          const float* src = g + i * n;
          for (int64_t j = 0; j < n; ++j) dst[j] += src[j];
        }
      });
    });
  }
  return out;
}

// ---- Reductions ------------------------------------------------------------------

Tensor SumRows(const Tensor& a) {
  WIDEN_CHECK_EQ(a.shape().rank(), 2);
  const int64_t m = a.rows(), n = a.cols();
  Tensor out(Shape::Matrix(1, n));
  ScopedOpProfile prof(ProfOp::kSumRows, m * n, 4 * (m * n + n));
  const float* pa = a.data();
  float* po = out.mutable_data();
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) po[j] += pa[i * n + j];
  }
  if (NeedsGrad(a)) {
    TensorImpl* ai = a.impl_ptr().get();
    TensorImpl* oi = out.impl_ptr().get();
    Attach(out, {a}, [ai, oi, m, n] {
      oi->EnsureGrad();
      if (!ai->requires_grad) return;
      ai->EnsureGrad();
      ScopedOpProfile prof(ProfOp::kSumRows, m * n, 4 * (2 * m * n + n));
      const float* g = oi->grad.data();
      float* da = ai->grad.data();
      for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < n; ++j) da[i * n + j] += g[j];
      }
    });
  }
  return out;
}

Tensor MeanRows(const Tensor& a) {
  WIDEN_CHECK_GT(a.rows(), 0);
  return Scale(SumRows(a), 1.0f / static_cast<float>(a.rows()));
}

Tensor SumAll(const Tensor& a) {
  const int64_t total = a.size();
  ScopedOpProfile prof(ProfOp::kSumAll, total, 4 * total);
  const float* pa = a.data();
  double acc = 0.0;
  for (int64_t i = 0; i < total; ++i) acc += pa[i];
  Tensor out = Tensor::Scalar(static_cast<float>(acc));
  if (NeedsGrad(a)) {
    TensorImpl* ai = a.impl_ptr().get();
    TensorImpl* oi = out.impl_ptr().get();
    Attach(out, {a}, [ai, oi, total] {
      oi->EnsureGrad();
      if (!ai->requires_grad) return;
      ai->EnsureGrad();
      ScopedOpProfile prof(ProfOp::kSumAll, total, 4 * 2 * total);
      const float g = oi->grad[0];
      float* da = ai->grad.data();
      for (int64_t i = 0; i < total; ++i) da[i] += g;
    });
  }
  return out;
}

Tensor MeanAll(const Tensor& a) {
  WIDEN_CHECK_GT(a.size(), 0);
  return Scale(SumAll(a), 1.0f / static_cast<float>(a.size()));
}

// ---- Normalization / regularization ------------------------------------------------

Tensor RowL2Normalize(const Tensor& a) {
  WIDEN_CHECK_EQ(a.shape().rank(), 2);
  const int64_t m = a.rows(), n = a.cols();
  Tensor out(a.shape());
  ScopedOpProfile prof(ProfOp::kRowL2Normalize, 3 * m * n, 4 * 2 * m * n);
  auto norms = std::make_shared<std::vector<float>>(static_cast<size_t>(m));
  const float* pa = a.data();
  float* po = out.mutable_data();
  {
    float* pn = norms->data();
    const auto ksumsq = simd::Active().sumsq_row;
    const auto kscale = simd::Active().scale;
    ParallelForGrid(m, kRowGrain, [=](int64_t r0, int64_t r1) {
      for (int64_t i = r0; i < r1; ++i) {
        const float* row = pa + i * n;
        const double sq = ksumsq(row, n);
        const float norm = std::max(static_cast<float>(std::sqrt(sq)), 1e-12f);
        pn[i] = norm;
        kscale(row, 1.0f / norm, po + i * n, n);
      }
    });
  }
  if (NeedsGrad(a)) {
    TensorImpl* ai = a.impl_ptr().get();
    TensorImpl* oi = out.impl_ptr().get();
    Attach(out, {a}, [ai, oi, norms, m, n] {
      oi->EnsureGrad();
      if (!ai->requires_grad) return;
      ai->EnsureGrad();
      ScopedOpProfile prof(ProfOp::kRowL2Normalize, 5 * m * n,
                           4 * 4 * m * n);
      const float* g = oi->grad.data();
      const float* y = oi->data.data();
      const float* pn = norms->data();
      float* da = ai->grad.data();
      const auto kdot = simd::Active().dot;
      const auto kl2bwd = simd::Active().l2norm_bwd_row;
      ParallelForGrid(m, kRowGrain, [=](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
          const float* grow = g + i * n;
          const float* yrow = y + i * n;
          const float dot = kdot(grow, yrow, n);
          kl2bwd(grow, yrow, dot, 1.0f / pn[i], da + i * n, n);
        }
      });
    });
  }
  return out;
}

Tensor Dropout(const Tensor& a, float p, Rng& rng, bool training) {
  WIDEN_CHECK(p >= 0.0f && p < 1.0f) << "dropout p = " << p;
  if (!training || p == 0.0f) return a;
  const int64_t total = a.size();
  ScopedOpProfile prof(ProfOp::kDropout, total, 4 * 3 * total);
  const float keep = 1.0f - p;
  const float inv_keep = 1.0f / keep;
  auto mask = std::make_shared<std::vector<float>>(static_cast<size_t>(total));
  for (int64_t i = 0; i < total; ++i) {
    (*mask)[static_cast<size_t>(i)] =
        rng.Bernoulli(keep) ? inv_keep : 0.0f;
  }
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.mutable_data();
  for (int64_t i = 0; i < total; ++i) {
    po[i] = pa[i] * (*mask)[static_cast<size_t>(i)];
  }
  if (NeedsGrad(a)) {
    TensorImpl* ai = a.impl_ptr().get();
    TensorImpl* oi = out.impl_ptr().get();
    Attach(out, {a}, [ai, oi, mask, total] {
      oi->EnsureGrad();
      if (!ai->requires_grad) return;
      ai->EnsureGrad();
      ScopedOpProfile prof(ProfOp::kDropout, 2 * total, 4 * 4 * total);
      const float* g = oi->grad.data();
      float* da = ai->grad.data();
      for (int64_t i = 0; i < total; ++i) {
        da[i] += g[i] * (*mask)[static_cast<size_t>(i)];
      }
    });
  }
  return out;
}

// ---- Non-differentiable helpers --------------------------------------------------

std::vector<int32_t> ArgMaxRows(const Tensor& a) {
  WIDEN_CHECK_EQ(a.shape().rank(), 2);
  const int64_t m = a.rows(), n = a.cols();
  WIDEN_CHECK_GT(n, 0);
  std::vector<int32_t> out(static_cast<size_t>(m));
  const float* pa = a.data();
  for (int64_t i = 0; i < m; ++i) {
    const float* row = pa + i * n;
    int32_t best = 0;
    for (int64_t j = 1; j < n; ++j) {
      if (row[j] > row[best]) best = static_cast<int32_t>(j);
    }
    out[static_cast<size_t>(i)] = best;
  }
  return out;
}

Tensor CausalAttentionMask(int64_t rows, float fill) {
  Tensor mask(Shape::Matrix(rows, rows));
  float* pm = mask.mutable_data();
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < rows; ++c) {
      pm[r * rows + c] = (r <= c) ? 0.0f : fill;
    }
  }
  return mask;
}

}  // namespace widen::tensor
