// Standalone probes of single layers, run outside any training loop:
// the SmallCNN layers one by one, and the host's gemm ceiling.
#pragma once

#include <cstdint>

#include "common.hpp"
#include "nn/small_cnn.hpp"

namespace perfbench {

/// Times every layer of a make_small_cnn replica at one per-GPU batch
/// shape, forward and backward, and the loss. Adds the rows
/// nn.<i>_<kind>.{fwd,bwd}_ms and nn.loss_ms (medians over passes) and
/// kernels.gemm_gflops: gemm FLOPs of the conv and linear layers over
/// the time those layers took.
void probe_nn_layers(const dct::nn::SmallCnnConfig& model,
                     std::int64_t batch, std::uint64_t seed, Result& r);

/// Adds kernels.gemm_ceiling_gflops: the best median rate of tensor::gemm
/// over a few cache-resident shapes, on this host with the configured
/// kernel pool.
void probe_gemm_ceiling(Result& r);

}  // namespace perfbench
