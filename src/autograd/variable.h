#ifndef ALT_SRC_AUTOGRAD_VARIABLE_H_
#define ALT_SRC_AUTOGRAD_VARIABLE_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/tensor/tensor.h"
#include "src/util/logging.h"

namespace alt {
namespace ag {

/// A node in the dynamically-built computation graph. Users interact with
/// Variable; Node is the shared state behind it.
struct Node {
  Tensor value;
  /// Allocated lazily by EnsureGrad(); same shape as value. Backward() may
  /// free an op node's once that node's backward has run ("Lifetime").
  Tensor grad;
  bool requires_grad = false;
  bool grad_allocated = false;
  /// Static string naming the recording op ("matmul", "conv1d", ...); empty
  /// for leaves. Consumed by analysis::AuditGraph.
  const char* op_name = "";
  /// Forward-pass FLOPs of this op for the recorded shapes, following the
  /// same accounting conventions as nas::OpSpec::Flops (2 FLOPs per
  /// multiply-add; data movement is free). 0 for leaves and pure-layout ops.
  int64_t flops = 0;
  std::vector<std::shared_ptr<Node>> parents;
  /// Propagates this node's grad into its parents' grads. Null for leaves,
  /// and for an op node whose backward has run and been freed.
  std::function<void(Node*)> backward_fn;

  /// Allocates (zeroed) grad storage if not present.
  void EnsureGrad() {
    if (!grad_allocated) {
      grad = Tensor(value.shape());
      grad_allocated = true;
    }
  }
};

/// A handle to a computation-graph node. Copies share the node. Building ops
/// on Variables records the graph; calling Backward() on a scalar Variable
/// runs reverse-mode differentiation, accumulating into leaf gradients.
class Variable {
 public:
  /// An undefined variable; defined() is false.
  Variable() = default;
  explicit Variable(std::shared_ptr<Node> node) : node_(std::move(node)) {}

  /// A trainable leaf (requires_grad = true).
  static Variable Parameter(Tensor value);
  /// A non-trainable leaf (inputs, labels, fixed constants).
  static Variable Constant(Tensor value);

  bool defined() const { return node_ != nullptr; }
  const Tensor& value() const {
    ALT_DCHECK(node_ != nullptr) << "value() on undefined Variable";
    return node_->value;
  }
  /// Mutable access for optimizers; never call mid-graph.
  Tensor& mutable_value() {
    ALT_DCHECK(node_ != nullptr) << "mutable_value() on undefined Variable";
    return node_->value;
  }
  /// The accumulated gradient. Requires grad storage (after Backward()).
  const Tensor& grad() const {
    ALT_DCHECK(node_ != nullptr) << "grad() on undefined Variable";
    return node_->grad;
  }
  Tensor& mutable_grad() {
    ALT_DCHECK(node_ != nullptr) << "mutable_grad() on undefined Variable";
    node_->EnsureGrad();
    return node_->grad;
  }
  bool requires_grad() const {
    ALT_DCHECK(node_ != nullptr) << "requires_grad() on undefined Variable";
    return node_->requires_grad;
  }
  bool has_grad() const {
    ALT_DCHECK(node_ != nullptr) << "has_grad() on undefined Variable";
    return node_->grad_allocated;
  }

  /// Zeroes (and allocates) the gradient buffer.
  void ZeroGrad() {
    ALT_DCHECK(node_ != nullptr) << "ZeroGrad() on undefined Variable";
    node_->EnsureGrad();
    node_->grad.SetZero();
  }

  /// Reverse-mode sweep from this scalar ([1]-shaped) variable. Gradients
  /// accumulate into every reachable leaf with requires_grad.
  ///
  /// Lifetime: outside an obs::ScopedTensorRecycling, each interior (op)
  /// node drops its backward closure, and with it the tensors the op saved
  /// for its backward, and its own gradient as soon as its backward has
  /// run. So after the sweep the graph holds only its node values, and the
  /// leaves their gradients; a second Backward() through any of its op
  /// nodes fails an ALT_CHECK. Inside a recycling scope nothing is freed
  /// mid-sweep: training loops drop the whole graph after every step, and
  /// the recycler's rule that a miss releases every kept buffer would turn
  /// frees between a step's allocations into misses (DESIGN.md, "Tensor
  /// memory").
  void Backward() const;

  const std::shared_ptr<Node>& node() const { return node_; }

 private:
  std::shared_ptr<Node> node_;
};

/// Scoped, thread-local inference mode. While an InferenceGuard is open on a
/// thread, every op built on that thread records neither parents nor a
/// backward closure, so its result is a constant (requires_grad false) and
/// the forward's intermediates die as soon as the next op has read them.
/// Values are unchanged. Guards nest, restore the enclosing state when they
/// close (exception unwind included), and never affect other threads.
class InferenceGuard {
 public:
  InferenceGuard();
  ~InferenceGuard();
  InferenceGuard(const InferenceGuard&) = delete;
  InferenceGuard& operator=(const InferenceGuard&) = delete;

  /// True while a guard is open on the calling thread.
  static bool active();

 private:
  bool prev_;
};

/// Scoped, thread-local recompute mode. While a RecomputeGuard is open on a
/// thread, ops still record the graph, but the fused LSTM layer (LstmLayer,
/// ops.h) runs its forward without per-step activations: its backward first
/// reruns the recording forward into fresh buffers. Values and gradients
/// are unchanged, bit for bit; an LSTM node holds only its output, for one
/// more LSTM forward per layer in the backward. Only the ops built while the
/// guard is open are affected, whenever their backward runs. Guards nest,
/// restore the enclosing state when they close, and never affect other
/// threads.
class RecomputeGuard {
 public:
  RecomputeGuard();
  ~RecomputeGuard();
  RecomputeGuard(const RecomputeGuard&) = delete;
  RecomputeGuard& operator=(const RecomputeGuard&) = delete;

  /// True while a guard is open on the calling thread.
  static bool active();

 private:
  bool prev_;
};

/// Creates an op node: `value` is the forward result, `parents` its inputs,
/// `backward_fn` the gradient rule. requires_grad is inherited from parents;
/// under an InferenceGuard the node is a constant and keeps neither.
/// `op_name` must be a static string naming the op; `flops` is the op's
/// forward cost for the recorded shapes (kFlopsElementwise = one FLOP per
/// output element, the default for elementwise ops).
inline constexpr int64_t kFlopsElementwise = -1;
Variable MakeOpNode(Tensor value, std::vector<std::shared_ptr<Node>> parents,
                    std::function<void(Node*)> backward_fn,
                    const char* op_name = "op",
                    int64_t flops = kFlopsElementwise);

}  // namespace ag
}  // namespace alt

#endif  // ALT_SRC_AUTOGRAD_VARIABLE_H_
