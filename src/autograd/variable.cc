#include "src/autograd/variable.h"

#include <unordered_set>

#include "src/obs/memory_tracker.h"
#include "src/util/logging.h"

namespace alt {
namespace ag {

Variable Variable::Parameter(Tensor value) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->requires_grad = true;
  return Variable(std::move(node));
}

Variable Variable::Constant(Tensor value) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->requires_grad = false;
  return Variable(std::move(node));
}

namespace {
thread_local bool tls_inference = false;
thread_local bool tls_recompute = false;
}  // namespace

InferenceGuard::InferenceGuard() : prev_(tls_inference) {
  tls_inference = true;
}

InferenceGuard::~InferenceGuard() { tls_inference = prev_; }

bool InferenceGuard::active() { return tls_inference; }

RecomputeGuard::RecomputeGuard() : prev_(tls_recompute) {
  tls_recompute = true;
}

RecomputeGuard::~RecomputeGuard() { tls_recompute = prev_; }

bool RecomputeGuard::active() { return tls_recompute; }

Variable MakeOpNode(Tensor value, std::vector<std::shared_ptr<Node>> parents,
                    std::function<void(Node*)> backward_fn,
                    const char* op_name, int64_t flops) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->op_name = op_name;
  node->flops = flops == kFlopsElementwise ? node->value.numel() : flops;
  if (tls_inference) return Variable(std::move(node));
  node->parents = std::move(parents);
  for (const auto& p : node->parents) {
    if (p->requires_grad) {
      node->requires_grad = true;
      break;
    }
  }
  if (node->requires_grad) {
    node->backward_fn = std::move(backward_fn);
  }
  return Variable(std::move(node));
}

void Variable::Backward() const {
  ALT_CHECK(defined());
  ALT_CHECK_EQ(node_->value.numel(), 1)
      << "Backward() must start from a scalar";
  if (!node_->requires_grad) return;

  // Iterative post-order DFS to get a topological order (parents before
  // children in `order`; we then traverse in reverse).
  std::vector<Node*> order;
  std::unordered_set<Node*> visited;
  struct Frame {
    Node* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  stack.push_back({node_.get(), 0});
  visited.insert(node_.get());
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_parent < frame.node->parents.size()) {
      Node* parent = frame.node->parents[frame.next_parent++].get();
      if (parent->requires_grad && visited.insert(parent).second) {
        stack.push_back({parent, 0});
      }
    } else {
      order.push_back(frame.node);
      stack.pop_back();
    }
  }

  // In reverse topological order every consumer of a node has run before
  // it, so once its backward has run nothing reads its gradient or its
  // saved tensors again (variable.h, "Lifetime").
  const bool release = !obs::ScopedTensorRecycling::active();
  node_->EnsureGrad();
  node_->grad.Fill(1.0f);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* node = *it;
    if (node->parents.empty()) continue;  // A leaf keeps its gradient.
    ALT_CHECK(node->backward_fn)
        << "Backward() through op '" << node->op_name
        << "' whose backward already ran and freed its saved tensors; "
           "record the graph again for a second sweep";
    node->backward_fn(node);
    if (release) {
      node->backward_fn = nullptr;
      node->grad = Tensor();
      node->grad_allocated = false;
    }
  }
}

}  // namespace ag
}  // namespace alt
