#include "nn/conv.h"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/parallel.h"
#include "obs/counters.h"
#include "obs/histogram.h"
#include "obs/trace.h"

namespace fp8q {

Conv2dOp::Conv2dOp(Tensor weight, Tensor bias, int stride, int padding, int groups)
    : weight_(std::move(weight)),
      bias_(std::move(bias)),
      stride_(stride),
      padding_(padding),
      groups_(groups) {
  if (weight_.dim() != 4) {
    throw std::invalid_argument("Conv2dOp: weight must be [oc, ic/g, kh, kw]");
  }
  if (stride_ < 1 || padding_ < 0 || groups_ < 1) {
    throw std::invalid_argument("Conv2dOp: bad stride/padding/groups");
  }
  if (weight_.size(0) % groups_ != 0) {
    throw std::invalid_argument("Conv2dOp: out channels not divisible by groups");
  }
  if (!bias_.empty() && (bias_.dim() != 1 || bias_.size(0) != weight_.size(0))) {
    throw std::invalid_argument("Conv2dOp: bias must be [oc]");
  }
}

std::vector<Tensor*> Conv2dOp::weights() {
  std::vector<Tensor*> ws = {&weight_};
  if (!bias_.empty()) ws.push_back(&bias_);
  return ws;
}

void Conv2dOp::set_packed_weight(std::shared_ptr<const PackedConvWeight> packed) {
  if (packed && (packed->oc != weight_.size(0) ||
                 packed->block != weight_.size(1) * weight_.size(2) * weight_.size(3))) {
    throw std::invalid_argument("Conv2dOp: packed weight dims mismatch");
  }
  packed_ = std::move(packed);
}

Tensor Conv2dOp::forward(std::span<const Tensor> inputs) {
  if (inputs.size() != 1) throw std::invalid_argument("Conv2dOp: expects 1 input");
  const Tensor& x = inputs[0];
  if (x.dim() != 4) throw std::invalid_argument("Conv2dOp: input must be [n, c, h, w]");

  const std::int64_t n = x.size(0);
  const std::int64_t ic = x.size(1);
  const std::int64_t h = x.size(2);
  const std::int64_t w = x.size(3);
  const std::int64_t oc = weight_.size(0);
  const std::int64_t icg = weight_.size(1);
  const std::int64_t kh = weight_.size(2);
  const std::int64_t kw = weight_.size(3);
  if (ic != icg * groups_) throw std::invalid_argument("Conv2dOp: channel mismatch");

  const std::int64_t oh = (h + 2 * padding_ - kh) / stride_ + 1;
  const std::int64_t ow = (w + 2 * padding_ - kw) / stride_ + 1;
  if (oh < 1 || ow < 1) throw std::invalid_argument("Conv2dOp: output would be empty");

  Tensor y({n, oc, oh, ow});
  const Conv2dGeometry geo{n, ic, h, w, oc, kh, kw, oh, ow, stride_, padding_, groups_};

  // Packed path: decode the whole weight once per forward into FP32 and
  // run the same conv2d entry as the FP32 path. The decoded weight is
  // bitwise the fake-quantized weight, so both paths produce identical
  // bits.
  const PackedConvWeight* pw = packed_.get();
  kernel_counter_add(pw ? ObsKernelPath::kConvPacked : ObsKernelPath::kConvFp32, 1);
  TraceSpan span(pw ? "conv_packed" : "conv_fp32");
  const bool hists = pw && histograms_enabled();
  const std::uint64_t start_ns = hists ? obs_now_ns() : 0;

  const PackedKernelTable& kt = packed_kernels(isa_tier());
  const float* wd = weight_.data();
  std::vector<float> wdec;
  if (pw != nullptr) {
    wdec.resize(static_cast<std::size_t>(oc * pw->block));
    for (std::int64_t o = 0; o < oc; ++o) {
      kt.decode_mul(pw->codes.data() + o * pw->block,
                    pw->inv_scales[static_cast<std::size_t>(o)], wdec.data() + o * pw->block,
                    pw->block, pw->kind);
    }
    wd = wdec.data();
  }
  const float* xd = x.data();
  const float* bd = bias_.empty() ? nullptr : bias_.data();
  float* yd = y.data();

  // Parallel over the n*oc output planes: each plane writes a disjoint
  // oh*ow block of y with plane-local accumulators, so results match the
  // serial loop bit-for-bit. Grain targets ~kParallelGrainFlops
  // multiply-adds per chunk; the chained capped_cost keeps the five-factor
  // product from overflowing for huge shapes.
  const std::int64_t flops_per_plane = std::max<std::int64_t>(
      std::int64_t{1},
      capped_cost(capped_cost(capped_cost(capped_cost(oh, ow, kParallelGrainFlops), icg,
                                          kParallelGrainFlops),
                              kh, kParallelGrainFlops),
                  kw, kParallelGrainFlops));
  const std::int64_t grain =
      std::max<std::int64_t>(std::int64_t{1}, kParallelGrainFlops / flops_per_plane);
  parallel_for(0, n * oc, grain, [&](std::int64_t plane_lo, std::int64_t plane_hi) {
    kt.conv2d(geo, xd, wd, bd, yd, plane_lo, plane_hi);
  });
  if (hists) {
    hist_record_named("kernel:conv_packed", static_cast<double>(obs_now_ns() - start_ns));
  }
  return y;
}

}  // namespace fp8q
