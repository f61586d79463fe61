#include "probes.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "obs/counters.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {

namespace {

constexpr int kLayerPasses = 25;
constexpr int kGemmReps = 15;

std::uint64_t gemm_flops() {
  return dct::obs::Metrics::counter("kernels.gemm_flops").value();
}

void fill_uniform(dct::tensor::Tensor& t, dct::Rng& rng) {
  for (float& x : t.flat()) x = rng.next_float() * 2.0f - 1.0f;
}

}  // namespace

void probe_nn_layers(const dct::nn::SmallCnnConfig& model, std::int64_t batch,
                     std::uint64_t seed, Result& r) {
  using dct::tensor::Tensor;
  dct::Rng rng(seed);
  auto net = dct::nn::make_small_cnn(model, rng);
  Tensor input({batch, model.channels, model.image, model.image});
  fill_uniform(input, rng);
  std::vector<std::int32_t> labels(static_cast<std::size_t>(batch));
  for (auto& l : labels) {
    l = static_cast<std::int32_t>(
        rng.next_below(static_cast<std::uint64_t>(model.classes)));
  }

  const std::size_t n = net->size();
  std::vector<std::vector<double>> fwd(n), bwd(n);
  std::vector<double> loss_s;
  double gemm_layer_s = 0.0;
  std::uint64_t gemm_layer_flops = 0;
  for (int pass = 0; pass < kLayerPasses; ++pass) {
    std::vector<Tensor> acts;
    acts.reserve(n + 1);
    acts.push_back(input);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t f0 = gemm_flops();
      const auto t0 = Clock::now();
      acts.push_back(net->layer(i).forward(acts.back(), /*train=*/true));
      const double s = seconds_since(t0);
      fwd[i].push_back(s);
      if (gemm_flops() != f0) {
        gemm_layer_s += s;
        gemm_layer_flops += gemm_flops() - f0;
      }
    }
    Tensor grad(acts.back().shape());
    const auto t0 = Clock::now();
    dct::tensor::softmax_cross_entropy(acts.back(), labels, grad);
    loss_s.push_back(seconds_since(t0));
    for (std::size_t i = n; i-- > 0;) {
      const std::uint64_t f0 = gemm_flops();
      const auto t1 = Clock::now();
      grad = net->layer(i).backward(grad);
      const double s = seconds_since(t1);
      bwd[i].push_back(s);
      if (gemm_flops() != f0) {
        gemm_layer_s += s;
        gemm_layer_flops += gemm_flops() - f0;
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::string row =
        "nn." + std::to_string(i) + "_" + net->layer(i).name();
    r.layers[row + ".fwd_ms"] = dct::percentile(fwd[i], 50.0) * 1e3;
    r.layers[row + ".bwd_ms"] = dct::percentile(bwd[i], 50.0) * 1e3;
  }
  r.layers["nn.loss_ms"] = dct::percentile(loss_s, 50.0) * 1e3;
  r.layers["kernels.gemm_gflops"] =
      gemm_layer_s > 0.0
          ? static_cast<double>(gemm_layer_flops) / gemm_layer_s / 1e9
          : 0.0;
}

void probe_gemm_ceiling(Result& r) {
  using dct::tensor::Tensor;
  dct::Rng rng(7);
  // tensor::gemm is not cache-blocked, so its rate depends on the shape;
  // the ceiling is the best median over operands that fit in cache.
  const std::int64_t shapes[][3] = {{128, 128, 128}, {16, 72, 4096},
                                    {16, 512, 1024}};
  double best = 0.0;
  for (const auto& [m, k, n] : shapes) {
    Tensor a({m, k}), b({k, n}), c({m, n});
    fill_uniform(a, rng);
    fill_uniform(b, rng);
    const double flops = 2.0 * static_cast<double>(m * k * n);
    std::vector<double> rates;
    dct::tensor::gemm(a, false, b, false, c);  // warm the caches
    for (int i = 0; i < kGemmReps; ++i) {
      const auto t0 = Clock::now();
      dct::tensor::gemm(a, false, b, false, c);
      rates.push_back(flops / seconds_since(t0) / 1e9);
    }
    best = std::max(best, dct::percentile(rates, 50.0));
  }
  r.layers["kernels.gemm_ceiling_gflops"] = best;
}

}  // namespace perfbench
