#include "src/autograd/ops.h"

#include <cmath>

#include "src/tensor/kernels.h"
#include "src/util/logging.h"
#include "src/util/parallel_for.h"

namespace alt {
namespace ag {

namespace {

constexpr float kInvSqrt2 = 0.7071067811865476f;
constexpr float kInvSqrt2Pi = 0.3989422804014327f;

/// Estimated scalar ops per element for the elementwise / per-row hot paths
/// below; ParallelForWork turns these into fixed-size chunks of at least
/// kMinParallelWork ops, so threading kicks in only above two such chunks
/// and results stay identical for any thread count (every chunk writes a
/// disjoint slice).
constexpr int64_t kMapWork = 4;
constexpr int64_t kTranscendentalWork = 16;

/// Scalar activations and their derivatives in terms of the output y,
/// shared by the elementwise ops and the fused LSTM layer so both compute
/// the same bits.
inline float SigmoidValue(float v) {
  return v >= 0.0f ? 1.0f / (1.0f + std::exp(-v))
                   : std::exp(v) / (1.0f + std::exp(v));
}
inline float SigmoidGrad(float y) { return y * (1.0f - y); }
inline float TanhGrad(float y) { return 1.0f - y * y; }

/// dst[B,C] = x[:, t, :] for x[B,T,C].
void CopyTimeStep(const Tensor& x, int64_t t, Tensor* dst) {
  const int64_t batch = x.size(0);
  const int64_t seq = x.size(1);
  const int64_t c = x.size(2);
  for (int64_t b = 0; b < batch; ++b) {
    const float* src = x.data() + (b * seq + t) * c;
    float* d = dst->data() + b * c;
    for (int64_t j = 0; j < c; ++j) d[j] = src[j];
  }
}

void CheckSameShape(const Variable& a, const Variable& b) {
  ALT_CHECK(a.value().SameShape(b.value()))
      << ShapeToString(a.value().shape()) << " vs "
      << ShapeToString(b.value().shape());
}

/// Elementwise unary op helper: out = f(x), dx += dOut * dfdx(x, out).
template <typename FwdFn, typename GradFn>
Variable UnaryElementwise(const Variable& x, const char* name, FwdFn fwd,
                          GradFn dfdx) {
  Tensor out(x.value().shape());
  const Tensor& xv = x.value();
  ParallelForWork(xv.numel(), kTranscendentalWork,
                  [&](int64_t lo, int64_t hi) {
                    for (int64_t i = lo; i < hi; ++i) out[i] = fwd(xv[i]);
                  });
  auto xn = x.node();
  return MakeOpNode(
      std::move(out), {xn},
      [xn, dfdx](Node* self) {
        if (!xn->requires_grad) return;
        xn->EnsureGrad();
        ParallelForWork(self->value.numel(), kTranscendentalWork,
                        [&](int64_t lo, int64_t hi) {
                          for (int64_t i = lo; i < hi; ++i) {
                            xn->grad[i] +=
                                self->grad[i] * dfdx(xn->value[i],
                                                     self->value[i]);
                          }
                        });
      },
      name);
}

}  // namespace

Variable Add(const Variable& a, const Variable& b) {
  CheckSameShape(a, b);
  Tensor out = a.value();
  out.AddInPlace(b.value());
  auto an = a.node();
  auto bn = b.node();
  return MakeOpNode(std::move(out), {an, bn},
                    [an, bn](Node* self) {
                      for (auto& p : {an, bn}) {
                        if (p->requires_grad) {
                          p->EnsureGrad();
                          p->grad.AddInPlace(self->grad);
                        }
                      }
                    },
                    "add");
}

Variable Sub(const Variable& a, const Variable& b) {
  CheckSameShape(a, b);
  Tensor out = a.value();
  out.Axpy(-1.0f, b.value());
  auto an = a.node();
  auto bn = b.node();
  return MakeOpNode(std::move(out), {an, bn},
                    [an, bn](Node* self) {
                      if (an->requires_grad) {
                        an->EnsureGrad();
                        an->grad.AddInPlace(self->grad);
                      }
                      if (bn->requires_grad) {
                        bn->EnsureGrad();
                        bn->grad.Axpy(-1.0f, self->grad);
                      }
                    },
                    "sub");
}

Variable Mul(const Variable& a, const Variable& b) {
  CheckSameShape(a, b);
  Tensor out(a.value().shape());
  ParallelForWork(out.numel(), kMapWork, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) out[i] = a.value()[i] * b.value()[i];
  });
  auto an = a.node();
  auto bn = b.node();
  return MakeOpNode(std::move(out), {an, bn},
                    [an, bn](Node* self) {
                      if (an->requires_grad) {
                        an->EnsureGrad();
                        ParallelForWork(
                            self->grad.numel(), kMapWork,
                            [&](int64_t lo, int64_t hi) {
                              for (int64_t i = lo; i < hi; ++i) {
                                an->grad[i] += self->grad[i] * bn->value[i];
                              }
                            });
                      }
                      if (bn->requires_grad) {
                        bn->EnsureGrad();
                        ParallelForWork(
                            self->grad.numel(), kMapWork,
                            [&](int64_t lo, int64_t hi) {
                              for (int64_t i = lo; i < hi; ++i) {
                                bn->grad[i] += self->grad[i] * an->value[i];
                              }
                            });
                      }
                    },
                    "mul");
}

Variable Neg(const Variable& x) { return ScalarMul(x, -1.0f); }

Variable ScalarMul(const Variable& x, float c) {
  Tensor out = x.value();
  out.ScaleInPlace(c);
  auto xn = x.node();
  return MakeOpNode(std::move(out), {xn},
                    [xn, c](Node* self) {
                      if (!xn->requires_grad) return;
                      xn->EnsureGrad();
                      xn->grad.Axpy(c, self->grad);
                    },
                    "scalar_mul");
}

Variable ScalarAdd(const Variable& x, float c) {
  Tensor out = x.value();
  for (int64_t i = 0; i < out.numel(); ++i) out[i] += c;
  auto xn = x.node();
  return MakeOpNode(std::move(out), {xn},
                    [xn](Node* self) {
                      if (!xn->requires_grad) return;
                      xn->EnsureGrad();
                      xn->grad.AddInPlace(self->grad);
                    },
                    "scalar_add");
}

Variable AddBias(const Variable& x, const Variable& bias) {
  ALT_CHECK_EQ(bias.value().ndim(), 1);
  const int64_t f = bias.value().size(0);
  ALT_CHECK_EQ(x.value().size(x.value().ndim() - 1), f);
  Tensor out = x.value();
  const int64_t rows = out.numel() / f;
  for (int64_t r = 0; r < rows; ++r) {
    float* row = out.data() + r * f;
    for (int64_t j = 0; j < f; ++j) row[j] += bias.value()[j];
  }
  auto xn = x.node();
  auto bn = bias.node();
  return MakeOpNode(std::move(out), {xn, bn},
                    [xn, bn, f](Node* self) {
                      if (xn->requires_grad) {
                        xn->EnsureGrad();
                        xn->grad.AddInPlace(self->grad);
                      }
                      if (bn->requires_grad) {
                        bn->EnsureGrad();
                        const int64_t rows = self->grad.numel() / f;
                        for (int64_t r = 0; r < rows; ++r) {
                          const float* row = self->grad.data() + r * f;
                          for (int64_t j = 0; j < f; ++j) {
                            bn->grad[j] += row[j];
                          }
                        }
                      }
                    },
                    "add_bias");
}

Variable MulScalarVar(const Variable& x, const Variable& s) {
  ALT_CHECK_EQ(s.value().numel(), 1);
  const float sv = s.value()[0];
  Tensor out = x.value();
  out.ScaleInPlace(sv);
  auto xn = x.node();
  auto sn = s.node();
  return MakeOpNode(
      std::move(out), {xn, sn},
      [xn, sn](Node* self) {
        const float sv = sn->value[0];
        if (xn->requires_grad) {
          xn->EnsureGrad();
          xn->grad.Axpy(sv, self->grad);
        }
        if (sn->requires_grad) {
          sn->EnsureGrad();
          double acc = 0.0;
          for (int64_t i = 0; i < self->grad.numel(); ++i) {
            acc += static_cast<double>(self->grad[i]) * xn->value[i];
          }
          sn->grad[0] += static_cast<float>(acc);
        }
      },
      "mul_scalar_var");
}

Variable Detach(const Variable& x) { return Variable::Constant(x.value()); }

Variable IndexSelect(const Variable& v, int64_t index) {
  ALT_CHECK_EQ(v.value().ndim(), 1);
  ALT_CHECK_GE(index, 0);
  ALT_CHECK_LT(index, v.value().numel());
  Tensor out = Tensor::Scalar(v.value()[index]);
  auto vn = v.node();
  return MakeOpNode(std::move(out), {vn},
                    [vn, index](Node* self) {
                      if (!vn->requires_grad) return;
                      vn->EnsureGrad();
                      vn->grad[index] += self->grad[0];
                    },
                    "index_select", /*flops=*/0);
}

Variable MatMul(const Variable& a, const Variable& b) {
  ALT_CHECK_EQ(a.value().ndim(), 2);
  ALT_CHECK_EQ(b.value().ndim(), 2);
  ALT_CHECK_EQ(a.value().size(1), b.value().size(0));
  Tensor out({a.value().size(0), b.value().size(1)});
  alt::MatMul(a.value(), b.value(), &out);
  const int64_t mm_flops =
      2 * a.value().size(0) * a.value().size(1) * b.value().size(1);
  auto an = a.node();
  auto bn = b.node();
  return MakeOpNode(
      std::move(out), {an, bn},
      [an, bn](Node* self) {
        // dA += dC * B^T ; dB += A^T * dC.
        if (an->requires_grad) {
          an->EnsureGrad();
          MatMulTransBAcc(self->grad, bn->value, &an->grad);
        }
        if (bn->requires_grad) {
          bn->EnsureGrad();
          MatMulTransAAcc(an->value, self->grad, &bn->grad);
        }
      },
      "matmul", mm_flops);
}

Variable BatchedMatMul(const Variable& a, const Variable& b, bool trans_a,
                       bool trans_b) {
  ALT_CHECK_EQ(a.value().ndim(), 3);
  ALT_CHECK_EQ(b.value().ndim(), 3);
  const int64_t batch = a.value().size(0);
  const int64_t m = trans_a ? a.value().size(2) : a.value().size(1);
  const int64_t k = trans_a ? a.value().size(1) : a.value().size(2);
  const int64_t n = trans_b ? b.value().size(1) : b.value().size(2);
  Tensor out({batch, m, n});
  alt::BatchedMatMul(a.value(), trans_a, b.value(), trans_b, &out,
                     /*accumulate=*/false);
  const int64_t bmm_flops = 2 * batch * m * k * n;
  auto an = a.node();
  auto bn = b.node();
  return MakeOpNode(
      std::move(out), {an, bn}, [an, bn, trans_a, trans_b](Node* self) {
        // For C = opA(A) opB(B):
        //   no transposes: dA += dC B^T,  dB += A^T dC
        //   trans_a:       dA += B dC^T,  dB += A dC
        //   trans_b:       dA += dC B,    dB += dC^T A
        //   both:          dA += B^T dC^T, dB += dC^T A^T
        if (an->requires_grad) {
          an->EnsureGrad();
          if (!trans_a && !trans_b) {
            alt::BatchedMatMul(self->grad, false, bn->value, true, &an->grad,
                               true);
          } else if (trans_a && !trans_b) {
            alt::BatchedMatMul(bn->value, false, self->grad, true, &an->grad,
                               true);
          } else if (!trans_a && trans_b) {
            alt::BatchedMatMul(self->grad, false, bn->value, false, &an->grad,
                               true);
          } else {
            alt::BatchedMatMul(bn->value, true, self->grad, true, &an->grad,
                               true);
          }
        }
        if (bn->requires_grad) {
          bn->EnsureGrad();
          if (!trans_a && !trans_b) {
            alt::BatchedMatMul(an->value, true, self->grad, false, &bn->grad,
                               true);
          } else if (trans_a && !trans_b) {
            alt::BatchedMatMul(an->value, false, self->grad, false, &bn->grad,
                               true);
          } else if (!trans_a && trans_b) {
            alt::BatchedMatMul(self->grad, true, an->value, false, &bn->grad,
                               true);
          } else {
            alt::BatchedMatMul(self->grad, true, an->value, true, &bn->grad,
                               true);
          }
        }
      },
      "batched_matmul", bmm_flops);
}

Variable Reshape(const Variable& x, std::vector<int64_t> shape) {
  Tensor out = x.value().Reshape(shape);
  auto xn = x.node();
  return MakeOpNode(std::move(out), {xn},
                    [xn](Node* self) {
                      if (!xn->requires_grad) return;
                      xn->EnsureGrad();
                      // Grad has the reshaped shape; layout is identical.
                      for (int64_t i = 0; i < self->grad.numel(); ++i) {
                        xn->grad[i] += self->grad[i];
                      }
                    },
                    "reshape", /*flops=*/0);
}

Variable SliceLastDim(const Variable& x, int64_t start, int64_t len) {
  const Tensor& xv = x.value();
  const int64_t f = xv.size(xv.ndim() - 1);
  ALT_CHECK_GE(start, 0);
  ALT_CHECK_LE(start + len, f);
  std::vector<int64_t> out_shape = xv.shape();
  out_shape.back() = len;
  Tensor out(out_shape);
  const int64_t rows = xv.numel() / f;
  for (int64_t r = 0; r < rows; ++r) {
    const float* src = xv.data() + r * f + start;
    float* dst = out.data() + r * len;
    for (int64_t j = 0; j < len; ++j) dst[j] = src[j];
  }
  auto xn = x.node();
  return MakeOpNode(std::move(out), {xn},
                    [xn, start, len, f](Node* self) {
                      if (!xn->requires_grad) return;
                      xn->EnsureGrad();
                      const int64_t rows = self->grad.numel() / len;
                      for (int64_t r = 0; r < rows; ++r) {
                        const float* src = self->grad.data() + r * len;
                        float* dst = xn->grad.data() + r * f + start;
                        for (int64_t j = 0; j < len; ++j) dst[j] += src[j];
                      }
                    },
                    "slice_last_dim", /*flops=*/0);
}

Variable ConcatLastDim(const std::vector<Variable>& xs) {
  ALT_CHECK(!xs.empty());
  const Tensor& first = xs[0].value();
  std::vector<int64_t> lens;
  int64_t total = 0;
  for (const Variable& x : xs) {
    const Tensor& v = x.value();
    ALT_CHECK_EQ(v.ndim(), first.ndim());
    for (int64_t d = 0; d + 1 < v.ndim(); ++d) {
      ALT_CHECK_EQ(v.size(d), first.size(d));
    }
    lens.push_back(v.size(v.ndim() - 1));
    total += lens.back();
  }
  std::vector<int64_t> out_shape = first.shape();
  out_shape.back() = total;
  Tensor out(out_shape);
  const int64_t rows = out.numel() / total;
  int64_t offset = 0;
  for (size_t i = 0; i < xs.size(); ++i) {
    const Tensor& v = xs[i].value();
    const int64_t len = lens[i];
    for (int64_t r = 0; r < rows; ++r) {
      const float* src = v.data() + r * len;
      float* dst = out.data() + r * total + offset;
      for (int64_t j = 0; j < len; ++j) dst[j] = src[j];
    }
    offset += len;
  }
  std::vector<std::shared_ptr<Node>> parents;
  parents.reserve(xs.size());
  for (const Variable& x : xs) parents.push_back(x.node());
  return MakeOpNode(
      std::move(out), std::move(parents), [lens, total](Node* self) {
        const int64_t rows = self->grad.numel() / total;
        int64_t offset = 0;
        for (size_t i = 0; i < self->parents.size(); ++i) {
          Node* p = self->parents[i].get();
          const int64_t len = lens[i];
          if (p->requires_grad) {
            p->EnsureGrad();
            for (int64_t r = 0; r < rows; ++r) {
              const float* src = self->grad.data() + r * total + offset;
              float* dst = p->grad.data() + r * len;
              for (int64_t j = 0; j < len; ++j) dst[j] += src[j];
            }
          }
          offset += len;
        }
      },
      "concat_last_dim", /*flops=*/0);
}

Variable SelectTime(const Variable& x, int64_t t) {
  const Tensor& xv = x.value();
  ALT_CHECK_EQ(xv.ndim(), 3);
  const int64_t batch = xv.size(0);
  const int64_t seq = xv.size(1);
  const int64_t c = xv.size(2);
  ALT_CHECK_GE(t, 0);
  ALT_CHECK_LT(t, seq);
  Tensor out({batch, c});
  CopyTimeStep(xv, t, &out);
  auto xn = x.node();
  return MakeOpNode(std::move(out), {xn},
                    [xn, t, seq, c](Node* self) {
                      if (!xn->requires_grad) return;
                      xn->EnsureGrad();
                      const int64_t batch = self->grad.size(0);
                      for (int64_t b = 0; b < batch; ++b) {
                        const float* src = self->grad.data() + b * c;
                        float* dst = xn->grad.data() + (b * seq + t) * c;
                        for (int64_t j = 0; j < c; ++j) dst[j] += src[j];
                      }
                    },
                    "select_time", /*flops=*/0);
}

Variable StackTime(const std::vector<Variable>& xs) {
  ALT_CHECK(!xs.empty());
  const Tensor& first = xs[0].value();
  ALT_CHECK_EQ(first.ndim(), 2);
  const int64_t batch = first.size(0);
  const int64_t c = first.size(1);
  const int64_t seq = static_cast<int64_t>(xs.size());
  Tensor out({batch, seq, c});
  for (int64_t t = 0; t < seq; ++t) {
    const Tensor& v = xs[static_cast<size_t>(t)].value();
    ALT_CHECK(v.SameShape(first));
    for (int64_t b = 0; b < batch; ++b) {
      const float* src = v.data() + b * c;
      float* dst = out.data() + (b * seq + t) * c;
      for (int64_t j = 0; j < c; ++j) dst[j] = src[j];
    }
  }
  std::vector<std::shared_ptr<Node>> parents;
  parents.reserve(xs.size());
  for (const Variable& x : xs) parents.push_back(x.node());
  return MakeOpNode(
      std::move(out), std::move(parents), [batch, seq, c](Node* self) {
        for (int64_t t = 0; t < seq; ++t) {
          Node* p = self->parents[static_cast<size_t>(t)].get();
          if (!p->requires_grad) continue;
          p->EnsureGrad();
          for (int64_t b = 0; b < batch; ++b) {
            const float* src = self->grad.data() + (b * seq + t) * c;
            float* dst = p->grad.data() + b * c;
            for (int64_t j = 0; j < c; ++j) dst[j] += src[j];
          }
        }
      },
      "stack_time", /*flops=*/0);
}

Variable Sigmoid(const Variable& x) {
  return UnaryElementwise(
      x, "sigmoid", [](float v) { return SigmoidValue(v); },
      [](float /*xv*/, float yv) { return SigmoidGrad(yv); });
}

Variable Tanh(const Variable& x) {
  return UnaryElementwise(
      x, "tanh", [](float v) { return std::tanh(v); },
      [](float /*xv*/, float yv) { return TanhGrad(yv); });
}

Variable Relu(const Variable& x) {
  // Forward goes through the dispatched VecRelu kernel (max against zero is
  // exact, so SIMD and scalar agree bit-for-bit); backward keeps the
  // generic masked pass.
  const Tensor& xv = x.value();
  Tensor out(xv.shape());
  VecRelu(xv.data(), out.data(), xv.numel());
  auto xn = x.node();
  return MakeOpNode(
      std::move(out), {xn},
      [xn](Node* self) {
        if (!xn->requires_grad) return;
        xn->EnsureGrad();
        ParallelForWork(self->value.numel(), kMapWork,
                        [&](int64_t lo, int64_t hi) {
                          for (int64_t i = lo; i < hi; ++i) {
                            xn->grad[i] += self->grad[i] *
                                           (xn->value[i] > 0.0f ? 1.0f : 0.0f);
                          }
                        });
      },
      "relu");
}

Variable Gelu(const Variable& x) {
  return UnaryElementwise(
      x, "gelu",
      [](float v) {
        return 0.5f * v * (1.0f + std::erf(v * kInvSqrt2));
      },
      [](float xv, float /*yv*/) {
        const float phi = kInvSqrt2Pi * std::exp(-0.5f * xv * xv);
        const float cdf = 0.5f * (1.0f + std::erf(xv * kInvSqrt2));
        return cdf + xv * phi;
      });
}

Variable Exp(const Variable& x) {
  return UnaryElementwise(
      x, "exp", [](float v) { return std::exp(v); },
      [](float /*xv*/, float yv) { return yv; });
}

Variable Log(const Variable& x) {
  return UnaryElementwise(
      x, "log",
      [](float v) {
        ALT_CHECK_GT(v, 0.0f);
        return std::log(v);
      },
      [](float xv, float /*yv*/) { return 1.0f / xv; });
}

Variable SoftmaxLastDim(const Variable& x) {
  const Tensor& xv = x.value();
  const int64_t f = xv.size(xv.ndim() - 1);
  const int64_t rows = xv.numel() / f;
  Tensor out(xv.shape());
  // Rows are independent; parallel chunks over rows write disjoint slices.
  ParallelForWork(rows, f * kTranscendentalWork, [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const float* src = xv.data() + r * f;
      float* dst = out.data() + r * f;
      // Max, sum, and scale go through the dispatched row kernels
      // (src/tensor/kernels.h); exp stays scalar — there is no vector
      // libm here and the transcendental dominates this loop anyway. The
      // kernels' scalar fallbacks reproduce the original sequential
      // double-accumulation numerics exactly.
      const float max_v = RowMax(src, f);
      for (int64_t j = 0; j < f; ++j) dst[j] = std::exp(src[j] - max_v);
      const double total = RowSumDouble(dst, f);
      RowScale(static_cast<float>(1.0 / total), dst, f);
    }
  });
  // 5 FLOPs per element (max, sub, exp, sum, div) — matches the softmax
  // accounting of nas::Architecture::Flops.
  const int64_t sm_flops = 5 * xv.numel();
  auto xn = x.node();
  return MakeOpNode(
      std::move(out), {xn},
      [xn, f](Node* self) {
        if (!xn->requires_grad) return;
        xn->EnsureGrad();
        const int64_t rows = self->grad.numel() / f;
        ParallelForWork(rows, f * kMapWork, [&](int64_t lo, int64_t hi) {
          for (int64_t r = lo; r < hi; ++r) {
            const float* y = self->value.data() + r * f;
            const float* dy = self->grad.data() + r * f;
            float* dx = xn->grad.data() + r * f;
            double dot = 0.0;
            for (int64_t j = 0; j < f; ++j) {
              dot += static_cast<double>(dy[j]) * y[j];
            }
            for (int64_t j = 0; j < f; ++j) {
              dx[j] += (dy[j] - static_cast<float>(dot)) * y[j];
            }
          }
        });
      },
      "softmax", sm_flops);
}

Variable SumAll(const Variable& x) {
  Tensor out = Tensor::Scalar(x.value().SumAll());
  const int64_t red_flops = x.value().numel();
  auto xn = x.node();
  return MakeOpNode(std::move(out), {xn},
                    [xn](Node* self) {
                      if (!xn->requires_grad) return;
                      xn->EnsureGrad();
                      const float g = self->grad[0];
                      for (int64_t i = 0; i < xn->grad.numel(); ++i) {
                        xn->grad[i] += g;
                      }
                    },
                    "sum_all", red_flops);
}

Variable MeanAll(const Variable& x) {
  const float inv = 1.0f / static_cast<float>(x.value().numel());
  Tensor out = Tensor::Scalar(x.value().SumAll() * inv);
  const int64_t red_flops = x.value().numel() + 1;
  auto xn = x.node();
  return MakeOpNode(std::move(out), {xn},
                    [xn, inv](Node* self) {
                      if (!xn->requires_grad) return;
                      xn->EnsureGrad();
                      const float g = self->grad[0] * inv;
                      for (int64_t i = 0; i < xn->grad.numel(); ++i) {
                        xn->grad[i] += g;
                      }
                    },
                    "mean_all", red_flops);
}

Variable MeanTime(const Variable& x) {
  const Tensor& xv = x.value();
  ALT_CHECK_EQ(xv.ndim(), 3);
  const int64_t batch = xv.size(0);
  const int64_t seq = xv.size(1);
  const int64_t c = xv.size(2);
  Tensor out({batch, c});
  const float inv = 1.0f / static_cast<float>(seq);
  for (int64_t b = 0; b < batch; ++b) {
    float* dst = out.data() + b * c;
    for (int64_t t = 0; t < seq; ++t) {
      const float* src = xv.data() + (b * seq + t) * c;
      for (int64_t j = 0; j < c; ++j) dst[j] += src[j];
    }
    for (int64_t j = 0; j < c; ++j) dst[j] *= inv;
  }
  const int64_t red_flops = xv.numel() + batch * c;
  auto xn = x.node();
  return MakeOpNode(
      std::move(out), {xn},
      [xn, seq, c, inv](Node* self) {
        if (!xn->requires_grad) return;
        xn->EnsureGrad();
        const int64_t batch = self->grad.size(0);
        for (int64_t b = 0; b < batch; ++b) {
          const float* src = self->grad.data() + b * c;
          for (int64_t t = 0; t < seq; ++t) {
            float* dst = xn->grad.data() + (b * seq + t) * c;
            for (int64_t j = 0; j < c; ++j) dst[j] += src[j] * inv;
          }
        }
      },
      "mean_time", red_flops);
}

Variable EmbeddingLookup(const Variable& weight,
                         const std::vector<int64_t>& ids, int64_t batch,
                         int64_t seq_len) {
  const Tensor& w = weight.value();
  ALT_CHECK_EQ(w.ndim(), 2);
  ALT_CHECK_EQ(static_cast<int64_t>(ids.size()), batch * seq_len);
  const int64_t vocab = w.size(0);
  const int64_t dim = w.size(1);
  Tensor out({batch, seq_len, dim});
  for (int64_t i = 0; i < batch * seq_len; ++i) {
    const int64_t id = ids[static_cast<size_t>(i)];
    ALT_CHECK_GE(id, 0);
    ALT_CHECK_LT(id, vocab);
    const float* src = w.data() + id * dim;
    float* dst = out.data() + i * dim;
    for (int64_t j = 0; j < dim; ++j) dst[j] = src[j];
  }
  auto wn = weight.node();
  return MakeOpNode(
      std::move(out), {wn},
      [wn, ids, dim](Node* self) {
        if (!wn->requires_grad) return;
        wn->EnsureGrad();
        const int64_t n = static_cast<int64_t>(ids.size());
        for (int64_t i = 0; i < n; ++i) {
          const float* src = self->grad.data() + i * dim;
          float* dst = wn->grad.data() + ids[static_cast<size_t>(i)] * dim;
          for (int64_t j = 0; j < dim; ++j) dst[j] += src[j];
        }
      },
      "embedding_lookup", /*flops=*/0);
}

Variable Conv1D(const Variable& x, const Variable& w, const Variable& bias,
                int64_t dilation) {
  const Tensor& xv = x.value();
  const Tensor& wv = w.value();
  Tensor out({xv.size(0), xv.size(1), wv.size(0)});
  const Tensor* bias_ptr = bias.defined() ? &bias.value() : nullptr;
  alt::Conv1D(xv, wv, bias_ptr, dilation, &out);
  // out[B,T,Cout]: 2*K*Cin FLOPs per output element plus the bias add;
  // matches nas::OpSpec::Flops for conv candidates.
  const int64_t conv_flops =
      out.numel() * 2 * wv.size(1) * wv.size(2) +
      (bias_ptr != nullptr ? out.numel() : 0);
  auto xn = x.node();
  auto wn = w.node();
  std::vector<std::shared_ptr<Node>> parents = {xn, wn};
  std::shared_ptr<Node> bn = bias.defined() ? bias.node() : nullptr;
  if (bn != nullptr) parents.push_back(bn);
  return MakeOpNode(
      std::move(out), std::move(parents), [xn, wn, bn, dilation](Node* self) {
        Tensor* gx = nullptr;
        Tensor* gw = nullptr;
        Tensor* gb = nullptr;
        if (xn->requires_grad) {
          xn->EnsureGrad();
          gx = &xn->grad;
        }
        if (wn->requires_grad) {
          wn->EnsureGrad();
          gw = &wn->grad;
        }
        if (bn != nullptr && bn->requires_grad) {
          bn->EnsureGrad();
          gb = &bn->grad;
        }
        Conv1DBackward(xn->value, wn->value, self->grad, dilation, gx, gw, gb);
      },
      "conv1d", conv_flops);
}

Variable AvgPool1D(const Variable& x, int64_t k) {
  const Tensor& xv = x.value();
  Tensor out(xv.shape());
  alt::AvgPool1D(xv, k, &out);
  auto xn = x.node();
  return MakeOpNode(std::move(out), {xn},
                    [xn, k](Node* self) {
                      if (!xn->requires_grad) return;
                      xn->EnsureGrad();
                      AvgPool1DBackward(self->grad, k, &xn->grad);
                    },
                    "avg_pool1d", xv.numel() * k);
}

Variable MaxPool1D(const Variable& x, int64_t k) {
  const Tensor& xv = x.value();
  Tensor out(xv.shape());
  auto argmax = std::make_shared<std::vector<int64_t>>();
  alt::MaxPool1D(xv, k, &out, argmax.get());
  auto xn = x.node();
  return MakeOpNode(std::move(out), {xn},
                    [xn, argmax](Node* self) {
                      if (!xn->requires_grad) return;
                      xn->EnsureGrad();
                      MaxPool1DBackward(self->grad, *argmax, &xn->grad);
                    },
                    "max_pool1d", xv.numel() * k);
}

Variable LayerNorm(const Variable& x, const Variable& gamma,
                   const Variable& beta, float eps) {
  const Tensor& xv = x.value();
  const int64_t f = xv.size(xv.ndim() - 1);
  ALT_CHECK_EQ(gamma.value().numel(), f);
  ALT_CHECK_EQ(beta.value().numel(), f);
  const int64_t rows = xv.numel() / f;

  Tensor out(xv.shape());
  // Cache per-row inverse stddev and normalized values for backward.
  auto inv_std = std::make_shared<std::vector<float>>(
      static_cast<size_t>(rows));
  auto xhat = std::make_shared<Tensor>(xv.shape());
  ParallelForWork(rows, f * 10, [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const float* src = xv.data() + r * f;
      // Statistics and the normalize+affine pass go through the dispatched
      // row kernels; their scalar fallbacks reproduce the original
      // sequential double accumulation exactly.
      double mean, var;
      RowMeanVar(src, f, &mean, &var);
      const float istd = static_cast<float>(1.0 / std::sqrt(var + eps));
      (*inv_std)[static_cast<size_t>(r)] = istd;
      RowNormalizeAffine(src, static_cast<float>(mean), istd,
                         gamma.value().data(), beta.value().data(),
                         xhat->data() + r * f, out.data() + r * f, f);
    }
  });
  // Mean, variance, normalize, affine: ~8 FLOPs per element.
  const int64_t ln_flops = 8 * xv.numel();
  auto xn = x.node();
  auto gn = gamma.node();
  auto bn = beta.node();
  return MakeOpNode(
      std::move(out), {xn, gn, bn}, [xn, gn, bn, f, inv_std, xhat](Node* self) {
        const int64_t rows = self->grad.numel() / f;
        if (gn->requires_grad) gn->EnsureGrad();
        if (bn->requires_grad) bn->EnsureGrad();
        if (xn->requires_grad) xn->EnsureGrad();
        // dgamma/dbeta reduce over rows into shared accumulators, so that
        // pass stays serial; dx writes disjoint rows and runs in parallel.
        if (gn->requires_grad || bn->requires_grad) {
          for (int64_t r = 0; r < rows; ++r) {
            const float* dy = self->grad.data() + r * f;
            const float* xh = xhat->data() + r * f;
            for (int64_t j = 0; j < f; ++j) {
              if (gn->requires_grad) gn->grad[j] += dy[j] * xh[j];
              if (bn->requires_grad) bn->grad[j] += dy[j];
            }
          }
        }
        if (xn->requires_grad) {
          ParallelForWork(rows, f * 10, [&](int64_t lo, int64_t hi) {
            for (int64_t r = lo; r < hi; ++r) {
              const float* dy = self->grad.data() + r * f;
              const float* xh = xhat->data() + r * f;
              // dxhat = dy * gamma;
              // dx = istd * (dxhat - mean(dxhat) - xhat * mean(dxhat*xhat)).
              double mean_dxhat = 0.0;
              double mean_dxhat_xhat = 0.0;
              for (int64_t j = 0; j < f; ++j) {
                const double dxh = static_cast<double>(dy[j]) * gn->value[j];
                mean_dxhat += dxh;
                mean_dxhat_xhat += dxh * xh[j];
              }
              mean_dxhat /= static_cast<double>(f);
              mean_dxhat_xhat /= static_cast<double>(f);
              const float istd = (*inv_std)[static_cast<size_t>(r)];
              float* dx = xn->grad.data() + r * f;
              for (int64_t j = 0; j < f; ++j) {
                const double dxh = static_cast<double>(dy[j]) * gn->value[j];
                dx[j] += static_cast<float>(
                    istd * (dxh - mean_dxhat - xh[j] * mean_dxhat_xhat));
              }
            }
          });
        }
      },
      "layer_norm", ln_flops);
}

Variable Dropout(const Variable& x, float p, Rng* rng, bool training) {
  if (!training || p <= 0.0f) return x;
  ALT_CHECK_LT(p, 1.0f);
  const float scale = 1.0f / (1.0f - p);
  auto mask = std::make_shared<std::vector<float>>(
      static_cast<size_t>(x.value().numel()));
  Tensor out = x.value();
  for (int64_t i = 0; i < out.numel(); ++i) {
    const float m = rng->Bernoulli(p) ? 0.0f : scale;
    (*mask)[static_cast<size_t>(i)] = m;
    out[i] *= m;
  }
  auto xn = x.node();
  return MakeOpNode(std::move(out), {xn},
                    [xn, mask](Node* self) {
                      if (!xn->requires_grad) return;
                      xn->EnsureGrad();
                      for (int64_t i = 0; i < self->grad.numel(); ++i) {
                        xn->grad[i] +=
                            self->grad[i] * (*mask)[static_cast<size_t>(i)];
                      }
                    },
                    "dropout");
}

int64_t LstmLayerFlops(int64_t input_dim, int64_t hidden_dim,
                       int64_t seq_len) {
  // Per timestep: two matmuls into 4H gates plus ~10 elementwise ops per
  // hidden unit (gate nonlinearities and cell updates).
  const int64_t per_step = 2 * input_dim * 4 * hidden_dim +
                           2 * hidden_dim * 4 * hidden_dim + 10 * hidden_dim;
  return seq_len * per_step;
}

namespace {

/// Backward of LstmLayer. `acts`, `cells` and `tanh_c` are the forward's
/// saved [T,B,*] gate activations, cell states and tanh(c). Each formula is
/// the composed graph's, term for term; a `0.0f +` marks a first write into
/// what was a fresh (zeroed) gradient there, which turns -0 into +0.
void LstmLayerBackward(Node* self, Node* xn, Node* wxn, Node* whn, Node* bn,
                       const Tensor& acts, const Tensor& cells,
                       const Tensor& tanh_c) {
  const Tensor& xv = xn->value;
  const Tensor& wx = wxn->value;
  const Tensor& wh = whn->value;
  const Tensor& out = self->value;
  const Tensor& dout = self->grad;
  const int64_t batch = xv.size(0);
  const int64_t seq = xv.size(1);
  const int64_t in = xv.size(2);
  const int64_t h = wh.size(0);
  const int64_t g4 = 4 * h;
  if (xn->requires_grad) xn->EnsureGrad();
  if (wxn->requires_grad) wxn->EnsureGrad();
  if (whn->requires_grad) whn->EnsureGrad();
  if (bn->requires_grad) bn->EnsureGrad();

  Tensor dh({batch, h});       // dL/dh_t
  Tensor dc_next({batch, h});  // dL/dc_t received from step t+1
  Tensor dgates({batch, g4});  // dL/d(pre-activation gates_t)
  Tensor h_prev({batch, h});
  Tensor x_t({batch, in});
  Tensor dx_t({batch, in});
  for (int64_t t = seq - 1; t >= 0; --t) {
    for (int64_t b = 0; b < batch; ++b) {
      for (int64_t j = 0; j < h; ++j) {
        dh[b * h + j] = 0.0f + dout[(b * seq + t) * h + j];
      }
    }
    // dgates still holds step t+1's gradient here.
    if (t + 1 < seq) MatMulTransBAcc(dgates, wh, &dh);
    const float* act = acts.data() + t * batch * g4;
    const float* cell_prev =
        t > 0 ? cells.data() + (t - 1) * batch * h : nullptr;
    const float* tc = tanh_c.data() + t * batch * h;
    for (int64_t b = 0; b < batch; ++b) {
      const float* a = act + b * g4;
      float* dg = dgates.data() + b * g4;
      for (int64_t j = 0; j < h; ++j) {
        const int64_t k = b * h + j;
        const float i = a[j];
        const float f = a[h + j];
        const float g = a[2 * h + j];
        const float o = a[3 * h + j];
        const float carry = t + 1 < seq ? dc_next[k] : 0.0f;
        const float dc = carry + (dh[k] * o) * TanhGrad(tc[k]);
        const float cp = cell_prev != nullptr ? cell_prev[k] : 0.0f;
        dc_next[k] = 0.0f + dc * f;
        dg[j] = 0.0f + (dc * g) * SigmoidGrad(i);
        dg[h + j] = 0.0f + (dc * cp) * SigmoidGrad(f);
        dg[2 * h + j] = 0.0f + (dc * i) * TanhGrad(g);
        dg[3 * h + j] = 0.0f + (dh[k] * tc[k]) * SigmoidGrad(o);
      }
    }
    if (bn->requires_grad) {
      for (int64_t r = 0; r < batch; ++r) {
        const float* row = dgates.data() + r * g4;
        for (int64_t k = 0; k < g4; ++k) bn->grad[k] += row[k];
      }
    }
    if (whn->requires_grad) {
      // h_{t-1} is the output's previous slice; h_{-1} = 0 still takes its
      // (zero) product, as the composed graph's first-step matmul did.
      if (t > 0) {
        CopyTimeStep(out, t - 1, &h_prev);
      } else {
        h_prev.SetZero();
      }
      MatMulTransAAcc(h_prev, dgates, &whn->grad);
    }
    if (wxn->requires_grad) {
      CopyTimeStep(xv, t, &x_t);
      MatMulTransAAcc(x_t, dgates, &wxn->grad);
    }
    if (xn->requires_grad) {
      dx_t.SetZero();
      MatMulTransBAcc(dgates, wx, &dx_t);
      for (int64_t b = 0; b < batch; ++b) {
        const float* src = dx_t.data() + b * in;
        float* dst = xn->grad.data() + (b * seq + t) * in;
        for (int64_t j = 0; j < in; ++j) dst[j] += src[j];
      }
    }
  }
}

}  // namespace

Variable LstmLayer(const Variable& x, const Variable& w_x,
                   const Variable& w_h, const Variable& bias) {
  const Tensor& xv = x.value();
  const Tensor& wx = w_x.value();
  const Tensor& wh = w_h.value();
  const Tensor& bv = bias.value();
  ALT_CHECK_EQ(xv.ndim(), 3);
  ALT_CHECK_EQ(wx.ndim(), 2);
  ALT_CHECK_EQ(wh.ndim(), 2);
  ALT_CHECK_EQ(bv.ndim(), 1);
  const int64_t batch = xv.size(0);
  const int64_t seq = xv.size(1);
  const int64_t in = xv.size(2);
  const int64_t h = wh.size(0);
  const int64_t g4 = 4 * h;
  ALT_CHECK_GE(seq, 1);
  ALT_CHECK_EQ(wx.size(0), in);
  ALT_CHECK_EQ(wx.size(1), g4);
  ALT_CHECK_EQ(wh.size(1), g4);
  ALT_CHECK_EQ(bv.size(0), g4);

  // MakeOpNode records a backward under exactly these conditions.
  const bool record = !InferenceGuard::active() &&
                      (x.requires_grad() || w_x.requires_grad() ||
                       w_h.requires_grad() || bias.requires_grad());
  const int64_t kept = record ? seq : 1;
  Tensor acts({kept, batch, g4});  // i, f, g, o per step
  Tensor cells({kept, batch, h});
  Tensor tanh_c({kept, batch, h});
  Tensor out({batch, seq, h});
  Tensor x_t({batch, in});
  Tensor gx({batch, g4});
  Tensor gh({batch, g4});
  Tensor h_prev({batch, h});
  for (int64_t t = 0; t < seq; ++t) {
    CopyTimeStep(xv, t, &x_t);
    alt::MatMul(x_t, wx, &gx);
    alt::MatMul(h_prev, wh, &gh);
    const int64_t slot = record ? t : 0;
    float* act = acts.data() + slot * batch * g4;
    float* cell = cells.data() + slot * batch * h;
    float* tc = tanh_c.data() + slot * batch * h;
    // Without a backward, slot 0 holds c_{t-1} until it is overwritten.
    const float* cell_prev =
        t == 0 ? nullptr : cells.data() + (record ? t - 1 : 0) * batch * h;
    for (int64_t b = 0; b < batch; ++b) {
      float* a = act + b * g4;
      const float* ax = gx.data() + b * g4;
      const float* ah = gh.data() + b * g4;
      for (int64_t k = 0; k < g4; ++k) a[k] = (ax[k] + ah[k]) + bv[k];
      for (int64_t j = 0; j < h; ++j) {
        a[j] = SigmoidValue(a[j]);
        a[h + j] = SigmoidValue(a[h + j]);
        a[2 * h + j] = std::tanh(a[2 * h + j]);
        a[3 * h + j] = SigmoidValue(a[3 * h + j]);
      }
      for (int64_t j = 0; j < h; ++j) {
        const int64_t k = b * h + j;
        const float cp = cell_prev != nullptr ? cell_prev[k] : 0.0f;
        cell[k] = a[h + j] * cp + a[j] * a[2 * h + j];
        tc[k] = std::tanh(cell[k]);
        h_prev[k] = a[3 * h + j] * tc[k];
        out[(b * seq + t) * h + j] = h_prev[k];
      }
    }
  }
  const int64_t flops = batch * LstmLayerFlops(in, h, seq);
  auto xn = x.node();
  auto wxn = w_x.node();
  auto whn = w_h.node();
  auto bn = bias.node();
  return MakeOpNode(
      std::move(out), {xn, wxn, whn, bn},
      [xn, wxn, whn, bn, acts = std::move(acts), cells = std::move(cells),
       tanh_c = std::move(tanh_c)](Node* self) {
        LstmLayerBackward(self, xn.get(), wxn.get(), whn.get(), bn.get(),
                          acts, cells, tanh_c);
      },
      "lstm_layer", flops);
}

Variable BCEWithLogits(const Variable& logits, const Variable& targets) {
  CheckSameShape(logits, targets);
  const Tensor& z = logits.value();
  const Tensor& y = targets.value();
  const int64_t n = z.numel();
  ALT_CHECK_GT(n, 0);
  // loss_i = max(z,0) - z*y + log(1 + exp(-|z|)).
  double total = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const float zi = z[i];
    total += std::max(zi, 0.0f) - zi * y[i] +
             std::log1p(std::exp(-std::abs(zi)));
  }
  Tensor out = Tensor::Scalar(static_cast<float>(total / n));
  // max, mul, sub, abs, exp, log1p, add, final mean: ~8 FLOPs per element.
  const int64_t bce_flops = 8 * n;
  auto zn = logits.node();
  auto yn = targets.node();
  return MakeOpNode(
      std::move(out), {zn, yn},
      [zn, yn, n](Node* self) {
    const float g = self->grad[0] / static_cast<float>(n);
    if (zn->requires_grad) {
      zn->EnsureGrad();
      for (int64_t i = 0; i < n; ++i) {
        const float zi = zn->value[i];
        const float sig = zi >= 0.0f ? 1.0f / (1.0f + std::exp(-zi))
                                     : std::exp(zi) / (1.0f + std::exp(zi));
        zn->grad[i] += g * (sig - yn->value[i]);
      }
    }
    if (yn->requires_grad) {
      yn->EnsureGrad();
      for (int64_t i = 0; i < n; ++i) {
        yn->grad[i] += g * (-zn->value[i]);
      }
    }
      },
      "bce_with_logits", bce_flops);
}

}  // namespace ag
}  // namespace alt
