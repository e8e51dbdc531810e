// Fully-connected layer: y = x W^T + b.
//
// Two forward paths (docs/KERNELS.md):
//   * FP32: the blocked row-kernel over the weight_ tensor -- always
//     available, and what runs for unquantized graphs.
//   * Packed: when a PackedWeightMatrix is attached (set_packed_weight,
//     done by QuantizedGraph::prepare for FP8 weights), forward streams
//     the 8-bit weight codes through packed_gemm_forward and never
//     touches weight_. Bit-identical to running the FP32 path on the
//     fake-quantized weight, at every ISA tier and thread count.
#pragma once

#include <memory>

#include "nn/op.h"
#include "nn/packed_gemm.h"

namespace fp8q {

class LinearOp final : public Op {
 public:
  /// `weight` is [out_features, in_features]; `bias` is [out_features] or
  /// empty for no bias.
  LinearOp(Tensor weight, Tensor bias);

  /// Input [..., in_features] -> output [..., out_features]. Dispatches to
  /// the packed kernel when a packed weight is attached (file comment).
  Tensor forward(std::span<const Tensor> inputs) override;

  [[nodiscard]] OpKind kind() const override { return OpKind::kLinear; }
  [[nodiscard]] std::vector<Tensor*> weights() override;
  [[nodiscard]] OpPtr clone() const override { return std::make_unique<LinearOp>(*this); }

  [[nodiscard]] std::int64_t in_features() const { return weight_.size(1); }
  [[nodiscard]] std::int64_t out_features() const { return weight_.size(0); }
  [[nodiscard]] Tensor& weight() { return weight_; }
  [[nodiscard]] Tensor& bias() { return bias_; }

  /// Attaches packed 8-bit weight codes; subsequent forwards compute on
  /// them directly. The operand is shared and immutable (clones share it).
  /// Throws if its dims don't match the op's weight.
  void set_packed_weight(std::shared_ptr<const PackedWeightMatrix> packed);
  /// Detaches the packed weight; forward returns to the FP32 path.
  void clear_packed_weight() { packed_.reset(); }
  [[nodiscard]] bool has_packed_weight() const { return packed_ != nullptr; }

 private:
  Tensor weight_;  ///< [out, in]
  Tensor bias_;    ///< [out] or empty
  std::shared_ptr<const PackedWeightMatrix> packed_;  ///< nullptr = FP32 path
};

}  // namespace fp8q
