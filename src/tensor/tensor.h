// A dense float tensor with reverse-mode automatic differentiation.
//
// Tensor is a value-semantic handle onto shared storage (like torch.Tensor):
// copies alias the same buffer, and the autograd tape is embedded in the
// nodes themselves (each result remembers its parents and a backward
// closure). Call Backward() on a scalar loss to populate `grad()` on every
// reachable tensor that `requires_grad()`.
//
// The engine is deliberately dynamic (tape built per forward pass), mirroring
// the define-by-run style of the frameworks the paper's models were designed
// in, which keeps the WIDEN downsampling logic — whose tensor shapes shrink
// across training — straightforward to express.

#ifndef WIDEN_TENSOR_TENSOR_H_
#define WIDEN_TENSOR_TENSOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tensor/aligned_buffer.h"
#include "tensor/shape.h"
#include "util/logging.h"

namespace widen::tensor {

class Tensor;

/// RAII guard that disables autograd tape construction on this thread
/// (torch.no_grad analogue). Ops executed inside produce constant results
/// even when operands require gradients — used for inference and for the
/// embedding-refresh passes of WIDEN's training loop.
class NoGradScope {
 public:
  NoGradScope();
  ~NoGradScope();

  NoGradScope(const NoGradScope&) = delete;
  NoGradScope& operator=(const NoGradScope&) = delete;

  /// True while any NoGradScope is alive on this thread.
  static bool Active();

 private:
  bool previous_;
};

namespace internal {

// Inference buffer-pool hooks (tensor/inference.cc). All three are cheap
// no-ops unless an InferenceScope is active on the calling thread or the
// op-level profiler is enabled (memprof allocation accounting).
void AcquireBuffer(FloatBuffer& out, size_t num_elements);
void MaybeReclaimBuffer(FloatBuffer& buffer) noexcept;
void NoteGradAllocation(size_t num_elements);

/// Shared state behind a Tensor handle. Public only to the ops layer.
struct TensorImpl {
  Shape shape;
  FloatBuffer data;  // 64-byte-aligned head (tensor/aligned_buffer.h)

  // Autograd.
  bool requires_grad = false;
  FloatBuffer grad;                        // lazily sized to data.size()
  std::vector<std::shared_ptr<TensorImpl>> parents;
  std::function<void()> backward_fn;       // accumulates into parents' grads

  // Debug label (parameter name, op name); empty for intermediates.
  std::string label;

  ~TensorImpl() { MaybeReclaimBuffer(data); }

  void EnsureGrad() {
    if (grad.size() != data.size()) {
      NoteGradAllocation(data.size());
      grad.assign(data.size(), 0.0f);
    }
  }
};

}  // namespace internal

/// Value-semantic handle to a (possibly differentiable) dense float tensor.
class Tensor {
 public:
  /// Null handle; most operations on it abort. Test with defined().
  Tensor() = default;

  /// Allocates a zero-filled tensor of `shape`.
  explicit Tensor(const Shape& shape);

  static Tensor Zeros(const Shape& shape) { return Tensor(shape); }
  static Tensor Full(const Shape& shape, float value);
  /// Takes ownership of `values`; size must match shape.NumElements().
  static Tensor FromVector(const Shape& shape, std::vector<float> values);
  /// Scalar (rank-0) tensor.
  static Tensor Scalar(float value);

  bool defined() const { return impl_ != nullptr; }

  const Shape& shape() const { return impl()->shape; }
  int64_t rows() const { return shape().rows(); }
  int64_t cols() const { return shape().cols(); }
  int64_t size() const { return shape().NumElements(); }

  /// Raw row-major storage (head is 64-byte aligned).
  const float* data() const { return impl()->data.data(); }
  float* mutable_data() { return impl()->data.data(); }
  const FloatBuffer& values() const { return impl()->data; }

  /// Matrix element accessors (rank-2 only).
  float at(int64_t r, int64_t c) const {
    WIDEN_DCHECK(r >= 0 && r < rows() && c >= 0 && c < cols());
    return impl()->data[static_cast<size_t>(r * cols() + c)];
  }
  void set(int64_t r, int64_t c, float v) {
    WIDEN_DCHECK(r >= 0 && r < rows() && c >= 0 && c < cols());
    impl()->data[static_cast<size_t>(r * cols() + c)] = v;
  }

  /// Value of a scalar (rank-0 or single-element) tensor.
  float item() const {
    WIDEN_CHECK_EQ(size(), 1);
    return impl()->data[0];
  }

  // ---- Autograd --------------------------------------------------------

  bool requires_grad() const { return impl()->requires_grad; }
  /// Marks this tensor as a differentiation leaf (parameter/input).
  Tensor& set_requires_grad(bool value) {
    impl()->requires_grad = value;
    if (value) impl()->EnsureGrad();
    return *this;
  }

  /// Gradient buffer; valid after Backward() for tensors that require grad.
  const float* grad() const {
    WIDEN_CHECK(requires_grad()) << "grad() on non-differentiable tensor";
    const_cast<internal::TensorImpl*>(impl())->EnsureGrad();
    return impl()->grad.data();
  }
  float* mutable_grad() {
    impl()->EnsureGrad();
    return impl()->grad.data();
  }
  float grad_at(int64_t r, int64_t c) const {
    return grad()[static_cast<size_t>(r * cols() + c)];
  }

  /// Clears this tensor's gradient buffer to zero.
  void ZeroGrad() {
    impl()->EnsureGrad();
    std::fill(impl()->grad.begin(), impl()->grad.end(), 0.0f);
  }

  /// Reverse-mode differentiation seeded from this tensor, which must be a
  /// scalar. Accumulates into the grad buffers of all reachable tensors.
  void Backward();

  /// Drops autograd history (parents + closure) so the tape can be freed
  /// between iterations; data and grad are kept.
  void DetachInPlace() {
    impl()->parents.clear();
    impl()->backward_fn = nullptr;
  }

  /// Returns a copy of the data in a fresh, history-free tensor.
  Tensor DetachedCopy() const;

  // ---- Debugging -------------------------------------------------------

  Tensor& set_label(std::string label) {
    impl()->label = std::move(label);
    return *this;
  }
  const std::string& label() const { return impl()->label; }

  /// Human-readable rendering (full contents for small tensors).
  std::string ToString() const;

  /// Stable identity of the underlying buffer (aliasing test).
  const void* id() const { return impl_.get(); }

  // Ops layer access.
  const std::shared_ptr<internal::TensorImpl>& impl_ptr() const {
    WIDEN_CHECK(defined()) << "operation on null tensor";
    return impl_;
  }
  static Tensor WrapImpl(std::shared_ptr<internal::TensorImpl> impl) {
    Tensor t;
    t.impl_ = std::move(impl);
    return t;
  }

 private:
  internal::TensorImpl* impl() const {
    WIDEN_CHECK(impl_ != nullptr) << "operation on null tensor";
    return impl_.get();
  }

  std::shared_ptr<internal::TensorImpl> impl_;
};

}  // namespace widen::tensor

#endif  // WIDEN_TENSOR_TENSOR_H_
