// 2D convolution (NCHW, optionally grouped/depthwise).
//
// Like LinearOp, the op has an FP32 path over weight_ and a packed path
// (docs/KERNELS.md): with a PackedConvWeight attached, forward decodes the
// whole weight once via the dispatched decode kernel. Both paths then run
// the dispatched conv2d kernel, so the packed path is bit-identical to the
// FP32 path on the fake-quantized weight.
#pragma once

#include <memory>

#include "nn/op.h"
#include "nn/packed_gemm.h"

namespace fp8q {

class Conv2dOp final : public Op {
 public:
  /// `weight` is [out_ch, in_ch/groups, kh, kw]; `bias` is [out_ch] or empty.
  Conv2dOp(Tensor weight, Tensor bias, int stride = 1, int padding = 0, int groups = 1);

  /// Input [n, in_ch, h, w] -> [n, out_ch, h', w'].
  Tensor forward(std::span<const Tensor> inputs) override;

  [[nodiscard]] OpKind kind() const override { return OpKind::kConv2d; }
  [[nodiscard]] std::vector<Tensor*> weights() override;

  [[nodiscard]] std::int64_t out_channels() const { return weight_.size(0); }
  [[nodiscard]] std::int64_t in_channels() const { return weight_.size(1) * groups_; }
  [[nodiscard]] int stride() const { return stride_; }
  [[nodiscard]] int padding() const { return padding_; }
  [[nodiscard]] int groups() const { return groups_; }
  [[nodiscard]] Tensor& weight() { return weight_; }
  [[nodiscard]] Tensor& bias() { return bias_; }

  [[nodiscard]] OpPtr clone() const override { return std::make_unique<Conv2dOp>(*this); }

  /// Attaches packed 8-bit weight codes; subsequent forwards decode them
  /// instead of reading weight_. Shared and immutable
  /// (clones share it). Throws if its dims don't match the op's weight.
  void set_packed_weight(std::shared_ptr<const PackedConvWeight> packed);
  /// Detaches the packed weight; forward returns to the FP32 path.
  void clear_packed_weight() { packed_.reset(); }
  [[nodiscard]] bool has_packed_weight() const { return packed_ != nullptr; }

 private:
  Tensor weight_;  ///< [oc, ic/groups, kh, kw]
  Tensor bias_;    ///< [oc] or empty
  int stride_;
  int padding_;
  int groups_;
  std::shared_ptr<const PackedConvWeight> packed_;  ///< nullptr = FP32 path
};

}  // namespace fp8q
