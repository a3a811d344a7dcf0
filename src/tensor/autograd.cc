#include "tensor/autograd.h"

#include <unordered_set>
#include <vector>

#include "obs/stage.h"

namespace widen::tensor {
namespace {

using internal::TensorImpl;

// Iterative post-order DFS over parent edges; the returned list has every
// parent appearing before its children, so iterating it in reverse visits
// each node only after all its consumers.
std::vector<TensorImpl*> TopologicalOrder(TensorImpl* root) {
  std::vector<TensorImpl*> order;
  std::unordered_set<TensorImpl*> visited;
  struct Frame {
    TensorImpl* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  if (visited.insert(root).second) stack.push_back({root, 0});
  while (!stack.empty()) {
    Frame& top = stack.back();
    if (top.next_parent < top.node->parents.size()) {
      TensorImpl* parent = top.node->parents[top.next_parent++].get();
      if (visited.insert(parent).second) stack.push_back({parent, 0});
    } else {
      order.push_back(top.node);
      stack.pop_back();
    }
  }
  return order;
}

}  // namespace

void Backward(const Tensor& root) {
  WIDEN_CHECK_EQ(root.size(), 1) << "Backward() root must be a scalar";
  obs::StageScope stage(obs::Stage::kBackward);
  TensorImpl* root_impl = root.impl_ptr().get();
  root_impl->EnsureGrad();
  root_impl->grad[0] = 1.0f;
  std::vector<TensorImpl*> order = TopologicalOrder(root_impl);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    TensorImpl* node = *it;
    if (node->backward_fn) node->backward_fn();
  }
}

size_t CountTapeNodes(const Tensor& root) {
  return TopologicalOrder(root.impl_ptr().get()).size();
}

void Tensor::Backward() { tensor::Backward(*this); }

}  // namespace widen::tensor
