// Neural-network layers with forward/backward passes — the training
// substrate needed by the pre-processing stages (pruning retraining,
// Algorithm 1's UpdateDL) and by the CryptoNets utility baseline.
//
// Layout convention matches the circuit compiler: feature maps are
// channel-major, index = (ch * H + y) * W + x. Weight storage matches
// the evaluator-input traversal order (Dense: row-major [out][in] then
// bias; Conv: [oc][ic][ky][kx] then bias).
#pragma once

#include <memory>
#include <vector>

#include "nn/tensor.h"
#include "support/rng.h"

namespace deepsecure::nn {

enum class Act { kReLU, kTanh, kSigmoid, kSquare, kIdentity };

struct Shape {
  size_t h = 1, w = 1, c = 1;
  size_t flat() const { return h * w * c; }
};

class Layer {
 public:
  virtual ~Layer() = default;

  virtual VecF forward(const VecF& x) = 0;
  /// Backprop: returns dL/dx, accumulates parameter gradients.
  virtual VecF backward(const VecF& dy) = 0;
  /// SGD-with-momentum update; clears accumulated gradients.
  virtual void step(float /*lr*/, float /*momentum*/) {}

  virtual Shape out_shape(const Shape& in) const = 0;
  virtual size_t param_count() const { return 0; }
};

class DenseLayer final : public Layer {
 public:
  DenseLayer(size_t in, size_t out, Rng& rng);

  VecF forward(const VecF& x) override;
  VecF backward(const VecF& dy) override;
  void step(float lr, float momentum) override;
  Shape out_shape(const Shape&) const override { return Shape{1, 1, out_}; }
  size_t param_count() const override { return w_.size() + b_.size(); }

  size_t in_dim() const { return in_; }
  size_t out_dim() const { return out_; }
  /// Row-major [out][in].
  VecF& weights() { return w_; }
  const VecF& weights() const { return w_; }
  VecF& biases() { return b_; }
  const VecF& biases() const { return b_; }

  /// Public sparsity mask (same layout as weights); empty = dense.
  /// When set, masked weights are forced to zero on every step.
  std::vector<uint8_t> mask;
  void apply_mask();

 private:
  size_t in_, out_;
  VecF w_, b_;
  VecF dw_, db_, vw_, vb_;  // gradients and momentum buffers
  VecF x_;                  // cached input
};

class Conv2DLayer final : public Layer {
 public:
  Conv2DLayer(Shape in, size_t k, size_t stride, size_t out_ch, Rng& rng);

  VecF forward(const VecF& x) override;
  VecF backward(const VecF& dy) override;
  void step(float lr, float momentum) override;
  Shape out_shape(const Shape&) const override { return out_shape_; }
  size_t param_count() const override { return w_.size() + b_.size(); }

  Shape in_shape() const { return in_; }
  size_t kernel() const { return k_; }
  size_t stride() const { return stride_; }
  size_t out_channels() const { return out_shape_.c; }
  VecF& weights() { return w_; }
  const VecF& weights() const { return w_; }
  VecF& biases() { return b_; }
  const VecF& biases() const { return b_; }

 private:
  Shape in_, out_shape_;
  size_t k_, stride_;
  VecF w_, b_, dw_, db_, vw_, vb_, x_;
};

enum class Pool { kMax, kMean };

class PoolLayer final : public Layer {
 public:
  PoolLayer(Shape in, Pool kind, size_t k, size_t stride);

  VecF forward(const VecF& x) override;
  VecF backward(const VecF& dy) override;
  Shape out_shape(const Shape&) const override { return out_shape_; }

  Pool kind() const { return kind_; }
  size_t window() const { return k_; }
  size_t stride() const { return stride_; }

 private:
  Shape in_, out_shape_;
  Pool kind_;
  size_t k_, stride_;
  std::vector<size_t> argmax_;  // winner index per output (max pooling)
  size_t in_size_ = 0;
};

class ActivationLayer final : public Layer {
 public:
  explicit ActivationLayer(Act kind) : kind_(kind) {}

  VecF forward(const VecF& x) override;
  VecF backward(const VecF& dy) override;
  Shape out_shape(const Shape& in) const override { return in; }

  Act kind() const { return kind_; }

 private:
  Act kind_;
  VecF x_, y_;
};

}  // namespace deepsecure::nn
