// train-conv and train-allreduce: closed-loop DistributedTrainer steps.
//
// One run: set the trainer up kSetupReps times (each set-up is timed and
// trains the same warm-up steps, so the warm-up losses of every set-up
// must agree bit for bit), then time a fixed number of steps on the last
// one, in rounds of about kRoundS seconds; run.py reports medians over
// the rounds, so a burst of load from outside moves at most a few of
// them. The step count is sized from --seconds so a run lasts about that
// long on a 4-core host; fixing it keeps loss_final a function of the
// seed alone. A traced run adds half as many traced steps after the
// untraced ones and derives the per-layer rows from those.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "allreduce/algorithm.hpp"
#include "common.hpp"
#include "obs/trace.hpp"
#include "probes.hpp"
#include "simmpi/runtime.hpp"
#include "trace_rows.hpp"
#include "trainer/distributed_trainer.hpp"
#include "util/stats.hpp"

namespace perfbench {

namespace {

struct TrainSpec {
  const char* name;
  int ranks;
  int gpus;
  std::int64_t batch_per_gpu;
  std::int64_t image;
  int classes;
  std::int64_t dataset_images;
  std::size_t bucket_bytes;
  int shuffle_every;
  double lr;
  double nominal_step_s;  ///< sizes the step count from --seconds
  int warmup_steps;
  bool loss_must_drop;
};

// Why these two: see BENCHMARK.json. train-conv is convolution-bound
// (forward_backward dominates), train-allreduce is exchange-bound (a 4 MB
// gradient of an FC-heavy head over 3 ranks). Each leaves at least one
// core of a 4-core host free of compute threads: ranks step in lockstep,
// so with every core busy one core taken by another process slows every
// rank (by 16% on train-conv at 2x2 GPUs and 25-35% on train-allreduce at
// 4 ranks, measured against a pinned busy loop); with one core spare the
// same load costs train-allreduce nothing measurable.
const TrainSpec kSpecs[] = {
    {"train-conv", 2, 1, 8, 64, 10, 1024, 4u << 20, 8, 0.01, 0.041, 17,
     true},
    {"train-allreduce", 3, 1, 2, 16, 4000, 4096, 1u << 20, 0, 0.05, 0.0086,
     16, false},
};

constexpr int kSetupReps = 3;
constexpr double kRoundS = 1.0;
constexpr int kStandaloneReps = 20;
// Step p95 needs 10 samples beyond it.
constexpr std::int64_t kMinTimedSteps = 200;

const TrainSpec& spec_for(const std::string& name) {
  for (const auto& s : kSpecs) {
    if (name == s.name) return s;
  }
  throw std::invalid_argument("unknown training workload " + name);
}

dct::trainer::TrainerConfig make_config(const TrainSpec& s,
                                        std::uint64_t seed) {
  dct::trainer::TrainerConfig cfg;
  cfg.model.classes = s.classes;
  cfg.model.image = s.image;
  cfg.model.channels = 3;
  cfg.gpus_per_node = s.gpus;
  cfg.batch_per_gpu = s.batch_per_gpu;
  cfg.allreduce = "multicolor";
  cfg.comm.bucket_bytes = s.bucket_bytes;
  cfg.comm.overlap = true;
  cfg.dataset.seed = seed;
  cfg.dataset.images = s.dataset_images;
  cfg.dataset.classes = s.classes;
  cfg.dataset.image = dct::data::ImageDef{3, s.image, s.image};
  cfg.shuffle_every = s.shuffle_every;
  cfg.base_lr = s.lr;
  cfg.seed = seed;
  return cfg;
}

struct RankLog {
  std::vector<double> step_s;  ///< untraced timed steps
  std::vector<float> loss;     ///< every timed step, untraced then traced
  std::vector<float> params;
  std::vector<double> standalone_s;
  dct::dpt::DptStats dpt_before, dpt_after;
  double send_s = 0.0;
};

struct Shared {
  std::vector<RankLog> ranks;
  std::vector<double> setup_s;
  std::vector<std::vector<float>> warmup_loss;  ///< [set-up][step], rank 0
  std::vector<double> round_wall_s;             ///< untraced rounds
  double traced_wall_s = 0.0;
  std::map<std::string, double> counters_before, counters_after;
  std::vector<dct::obs::ReportEvent> events;
};

void rank_main(dct::simmpi::Communicator& comm, const TrainSpec& spec,
               const dct::trainer::TrainerConfig& cfg, std::int64_t rounds,
               std::int64_t per_round, std::int64_t traced, Shared& sh) {
  const int rank = comm.rank();
  RankLog& me = sh.ranks[static_cast<std::size_t>(rank)];
  std::unique_ptr<dct::trainer::DistributedTrainer> tr;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    tr.reset();
    comm.barrier();
    const auto t0 = Clock::now();
    tr = std::make_unique<dct::trainer::DistributedTrainer>(comm, cfg);
    comm.barrier();
    if (rank == 0) sh.setup_s.push_back(seconds_since(t0));
    for (int k = 0; k < spec.warmup_steps; ++k) {
      const float loss = tr->step().loss;
      if (rank == 0) {
        sh.warmup_loss[static_cast<std::size_t>(rep)].push_back(loss);
      }
    }
  }

  for (std::int64_t k = 0; k < rounds; ++k) {
    comm.barrier();
    const auto t0 = Clock::now();
    for (std::int64_t i = 0; i < per_round; ++i) {
      const auto m = tr->step();
      me.step_s.push_back(m.step_seconds);
      me.loss.push_back(m.loss);
    }
    comm.barrier();
    if (rank == 0) sh.round_wall_s.push_back(seconds_since(t0));
  }

  if (traced > 0) {
    if (rank == 0) {
      dct::obs::Tracer::reset();
      sh.counters_before = counter_values();
      dct::obs::Tracer::set_enabled(true);
    }
    me.dpt_before = tr->table().stats();
    const int global = comm.global_rank(rank);
    const double send0 = comm.transport().send_seconds(global);
    comm.barrier();
    const auto t0 = Clock::now();
    for (std::int64_t i = 0; i < traced; ++i) {
      me.loss.push_back(tr->step().loss);
    }
    comm.barrier();
    if (rank == 0) {
      sh.traced_wall_s = seconds_since(t0);
      dct::obs::Tracer::set_enabled(false);
      sh.counters_after = counter_values();
      sh.events = dct::obs::tracer_events();
    }
    me.dpt_after = tr->table().stats();
    me.send_s = comm.transport().send_seconds(global) - send0;
  }
  me.params = tr->snapshot_params();
  tr.reset();

  if (traced > 0) {
    // The workload's algorithm on its whole gradient, with no compute
    // running beside it.
    const auto algo = dct::allreduce::make_algorithm(cfg.allreduce);
    std::vector<float> payload(me.params.size());
    for (int rep = 0; rep < kStandaloneReps; ++rep) {
      std::fill(payload.begin(), payload.end(), 1.0f);
      comm.barrier();
      const auto s0 = Clock::now();
      algo->run(comm, payload);
      me.standalone_s.push_back(seconds_since(s0));
    }
  }
}

void add_layer_rows(const TrainSpec& spec,
                    const dct::trainer::TrainerConfig& cfg,
                    std::int64_t traced, const Shared& sh, std::uint64_t seed,
                    Result& r) {
  const double ops = static_cast<double>(traced);
  const double ranks = spec.ranks;
  const auto times = span_tree_times(sh.events);
  add_span_info(times, ops, ranks, r);
  const auto put_label = [&](const std::string& row, const std::string& label) {
    const double ms = label_ms(times, label, ops, ranks);
    if (ms >= 0.0) r.layers[row] = ms;
  };
  put_label("data.sample_ms", "phase/sample");
  put_label("dpt.forward_backward_ms", "phase/forward_backward");
  put_label("comm.exposed_ms", "phase/allreduce");
  put_label("trainer.sgd_ms", "phase/sgd");
  put_label("data.shuffle_ms", "phase/shuffle");
  put_label("comm.bucket_reduce_ms", "comm_overlap/bucket_reduce");
  put_label("allreduce.run_ms", "allreduce/multicolor");
  put_label("allreduce.reduce_ms", "multicolor/reduce");
  put_label("allreduce.broadcast_ms", "multicolor/broadcast");
  put_label("simmpi.alltoallv_ms", "simmpi/alltoallv");
  put_label("data.shuffle.pack_ms", "data/shuffle.pack");
  put_label("data.shuffle.exchange_ms", "data/shuffle.exchange");
  put_label("data.shuffle.unpack_ms", "data/shuffle.unpack");
  if (r.layers.count("comm.bucket_reduce_ms") > 0 &&
      r.layers.count("comm.exposed_ms") > 0) {
    r.layers["comm.hidden_ratio"] =
        1.0 - r.layers["comm.exposed_ms"] / r.layers["comm.bucket_reduce_ms"];
  }

  // Phase rows must account for the step: the report's coverage check.
  const auto breakdown = dct::obs::phase_breakdown(sh.events);
  double coverage = breakdown.ranks.empty() ? 0.0 : 1.0;
  for (const auto& rk : breakdown.ranks) {
    coverage = std::min(coverage, rk.coverage());
  }
  r.layers["trainer.phase_coverage"] = coverage;
  r.check(coverage >= 0.95, "traced phase rows cover " +
                                std::to_string(coverage * 100.0) +
                                "% of step time, below 95%");

  const auto per_rank_step = [&](const std::string& counter) {
    return delta(sh.counters_before, sh.counters_after, counter) / ranks / ops;
  };
  r.layers["comm.buckets"] = per_rank_step("comm.buckets_reduced");
  r.layers["comm.wire_bytes"] = per_rank_step("comm.wire_bytes");
  r.layers["simmpi.messages"] = per_rank_step("simmpi.messages_sent");
  r.layers["simmpi.bytes"] = per_rank_step("simmpi.bytes_sent");
  r.layers["kernels.gemm_flops"] = per_rank_step("kernels.gemm_flops");
  r.layers["kernels.reduce_bytes"] = per_rank_step("kernels.reduce_bytes");
  const double hits =
      delta(sh.counters_before, sh.counters_after, "kernels.scratch_hits");
  const double misses =
      delta(sh.counters_before, sh.counters_after, "kernels.scratch_misses");
  if (hits + misses > 0.0) {
    r.layers["kernels.scratch_hit_ratio"] = hits / (hits + misses);
  }
  if (spec.shuffle_every > 0) {
    r.layers["data.shuffle_bytes"] = per_rank_step("dimd.shuffle_bytes_sent");
  }

  double sync = 0, callbacks = 0, h2d = 0, send = 0;
  std::vector<double> standalone(kStandaloneReps, 0.0);
  for (const auto& rk : sh.ranks) {
    sync += static_cast<double>(rk.dpt_after.sync_points -
                                rk.dpt_before.sync_points);
    callbacks += static_cast<double>(rk.dpt_after.serialized_callbacks -
                                     rk.dpt_before.serialized_callbacks);
    h2d += static_cast<double>(rk.dpt_after.h2d_bytes -
                               rk.dpt_before.h2d_bytes);
    send += rk.send_s;
    for (std::size_t i = 0; i < standalone.size(); ++i) {
      standalone[i] = std::max(standalone[i], rk.standalone_s[i]);
    }
  }
  r.layers["dpt.sync_points"] = sync / ranks / ops;
  r.layers["dpt.serialized_callbacks"] = callbacks / ranks / ops;
  r.layers["dpt.h2d_bytes"] = h2d / ranks / ops;
  r.layers["simmpi.send_ms"] = send * 1e3 / ranks / ops;
  r.layers["allreduce.standalone_ms"] = dct::percentile(standalone, 50.0) * 1e3;

  probe_nn_layers(cfg.model, spec.batch_per_gpu, seed, r);
  probe_gemm_ceiling(r);
}

}  // namespace

Result run_train(const Options& opt) {
  const TrainSpec& spec = spec_for(opt.workload);
  const auto cfg = make_config(spec, opt.seed);
  const std::int64_t rounds =
      std::max<std::int64_t>(1, std::llround(opt.seconds / kRoundS));
  const std::int64_t per_round = std::max<std::int64_t>(
      (kMinTimedSteps + rounds - 1) / rounds,
      std::llround(opt.seconds / spec.nominal_step_s / rounds));
  const std::int64_t untraced = rounds * per_round;
  const std::int64_t traced = opt.trace ? untraced / 2 : 0;
  const std::int64_t total = untraced + traced;

  Shared sh;
  sh.ranks.resize(static_cast<std::size_t>(spec.ranks));
  sh.warmup_loss.resize(kSetupReps);
  dct::simmpi::Runtime::execute(spec.ranks, [&](dct::simmpi::Communicator& c) {
    rank_main(c, spec, cfg, rounds, per_round, traced, sh);
  });

  Result r;
  r.workload = spec.name;
  const double global_batch =
      static_cast<double>(spec.batch_per_gpu * spec.gpus * spec.ranks);
  // A step's latency is its slowest rank's.
  for (std::int64_t k = 0; k < rounds; ++k) {
    Round& round = r.rounds.emplace_back();
    for (std::int64_t i = k * per_round; i < (k + 1) * per_round; ++i) {
      double worst = 0.0;
      for (const auto& rk : sh.ranks) {
        worst = std::max(worst, rk.step_s[static_cast<std::size_t>(i)]);
      }
      round.op_ms.push_back(worst * 1e3);
    }
    round.items = global_batch * static_cast<double>(per_round);
    round.wall_s = sh.round_wall_s[static_cast<std::size_t>(k)];
  }
  r.setup_s = sh.setup_s;
  if (traced > 0) {
    r.traced_items_per_s = global_batch * static_cast<double>(traced) /
                           sh.traced_wall_s;
  }

  // Correctness: each timed step is one operation; it fails when any
  // rank's loss is not finite.
  for (std::int64_t i = 0; i < total; ++i) {
    bool finite = true;
    for (const auto& rk : sh.ranks) {
      finite = finite && std::isfinite(rk.loss[static_cast<std::size_t>(i)]);
    }
    r.check(finite, "non-finite loss at timed step " + std::to_string(i));
  }
  const auto& p0 = sh.ranks[0].params;
  for (std::size_t k = 1; k < sh.ranks.size(); ++k) {
    const auto& pk = sh.ranks[k].params;
    r.check(pk.size() == p0.size() &&
                std::memcmp(pk.data(), p0.data(),
                            p0.size() * sizeof(float)) == 0,
            "rank " + std::to_string(k) + " parameters differ from rank 0");
  }
  const auto& first = sh.warmup_loss[0];
  for (std::size_t rep = 1; rep < sh.warmup_loss.size(); ++rep) {
    const auto& w = sh.warmup_loss[rep];
    r.check(w.size() == first.size() &&
                std::memcmp(w.data(), first.data(),
                            first.size() * sizeof(float)) == 0,
            "set-up " + std::to_string(rep) +
                " trained different warm-up losses from the same seed");
  }
  const double loss_first = first.front();
  const double loss_final = sh.ranks[0].loss.back();
  if (spec.loss_must_drop) {
    r.check(loss_final < loss_first,
            "loss_final " + std::to_string(loss_final) +
                " is not below the first step's loss " +
                std::to_string(loss_first));
  }

  r.info["loss_first"] = loss_first;
  r.info["loss_final"] = loss_final;
  r.info["steps"] = static_cast<double>(spec.warmup_steps + total);
  r.info["global_batch"] = global_batch;
  r.info["params"] = static_cast<double>(p0.size());
  r.info["ranks"] = spec.ranks;
  r.info["gpus_per_rank"] = spec.gpus;
  r.labels["allreduce"] = cfg.allreduce;
  r.labels["shape"] = std::to_string(spec.batch_per_gpu) + "x3x" +
                      std::to_string(spec.image) + "x" +
                      std::to_string(spec.image) + " per GPU, " +
                      std::to_string(spec.classes) + " classes";

  if (traced > 0) add_layer_rows(spec, cfg, traced, sh, opt.seed, r);
  return r;
}

}  // namespace perfbench
