// dimd-shuffle: repeated Algorithm-2 shuffles of a DIMD store.
//
// Three ranks hold 16,384 synthetic 32x32 images between them, leaving a
// core of a 4-core host free: the shuffle's collectives run in lockstep,
// so with four ranks one core taken by another process slowed every
// shuffle by a third. A run is kWorlds independent simmpi worlds, each:
// set the store up (construction + load_partition, timed), shuffle
// kWarmupShuffles times, then time a number of shuffles sized from
// --seconds, in kRoundsPerWorld rounds. run.py reports medians over all
// rounds. A traced run is one world that adds half as many traced
// shuffles. Every shuffle is checked: the group's record checksum and
// count must not change. The checks are collective and run between
// shuffles, outside the timing.
//
// Each shuffle allocates its multi-megabyte pack and receive buffers
// afresh. Under glibc's dynamic mmap threshold whether those come from
// the heap or from new mappings depends on the process's allocation
// history, so the same shuffle settles at about 11 ms in some processes
// and about 30 ms in others (4 ranks). The workload pins the threshold at
// glibc's static default (128 KiB): every such buffer is mapped and
// faulted in on every shuffle, the same cost in every run, and a change
// that reuses the buffers shows in full.
#include <algorithm>
#include <cmath>

#include <malloc.h>

#include "common.hpp"
#include "data/dimd.hpp"
#include "obs/trace.hpp"
#include "simmpi/runtime.hpp"
#include "trace_rows.hpp"
#include "util/stats.hpp"

namespace perfbench {

namespace {

constexpr int kRanks = 3;
constexpr std::int64_t kImages = 16384;
constexpr std::int64_t kImageSize = 32;
constexpr int kWorlds = 4;
constexpr int kRoundsPerWorld = 4;
constexpr double kNominalShuffleS = 0.075;  // with its checks
constexpr int kMmapThreshold = 128 * 1024;   // glibc's static default
// A world's shuffles slow from about 30 ms to about 40-45 ms over its first
// 50 or so on a 4-core host. The untimed ones skip the steepest part; the
// rest of the climb falls in every world's rounds alike.
constexpr std::int64_t kWarmupShuffles = 15;
constexpr std::int64_t kMinShufflesPerWorld = 20;

struct RankLog {
  std::vector<double> shuffle_s;  ///< untraced, then traced shuffles
  double load_s = 0.0;
  double bytes = 0.0;             ///< sent in untraced shuffles
  double send_s = 0.0;            ///< Transport::send_seconds, traced
  std::vector<char> intact;       ///< per shuffle: checksum+count kept
  bool loaded_all = false;        ///< group_count() == dataset size
};

struct Shared {
  std::vector<RankLog> ranks = std::vector<RankLog>(kRanks);
  double setup_s = 0.0;
  std::map<std::string, double> counters_before, counters_after;
  std::vector<dct::obs::ReportEvent> events;
};

void rank_main(dct::simmpi::Communicator& comm, const dct::data::DatasetDef& ds,
               std::uint64_t seed, std::int64_t untraced, std::int64_t traced,
               Shared& sh) {
  const int rank = comm.rank();
  RankLog& me = sh.ranks[static_cast<std::size_t>(rank)];
  const dct::data::SyntheticImageGenerator gen(ds);
  comm.barrier();
  const auto t0 = Clock::now();
  dct::data::DimdStore store(comm, dct::data::DimdConfig{});
  const auto l0 = Clock::now();
  store.load_partition(gen);
  me.load_s = seconds_since(l0);
  comm.barrier();
  if (rank == 0) sh.setup_s = seconds_since(t0);
  const std::uint64_t checksum = store.group_checksum();
  const std::uint64_t count = store.group_count();
  me.loaded_all = count == static_cast<std::uint64_t>(ds.images);

  dct::Rng rng(seed * 104729 + static_cast<std::uint64_t>(rank) + 1);
  const auto shuffle_checked = [&](bool record_bytes) {
    comm.barrier();
    const auto s0 = Clock::now();
    std::uint64_t sent = 0;
    {
      dct::obs::SpanScope span("dimd.shuffle_call", "bench");
      sent = store.shuffle(rng);
    }
    me.shuffle_s.push_back(seconds_since(s0));
    if (record_bytes) me.bytes += static_cast<double>(sent);
    const bool same_checksum = store.group_checksum() == checksum;
    me.intact.push_back(same_checksum && store.group_count() == count);
  };
  for (std::int64_t i = 0; i < kWarmupShuffles; ++i) shuffle_checked(false);
  me.shuffle_s.clear();
  for (std::int64_t i = 0; i < untraced; ++i) shuffle_checked(true);

  if (traced > 0) {
    comm.barrier();
    if (rank == 0) {
      dct::obs::Tracer::reset();
      sh.counters_before = counter_values();
      dct::obs::Tracer::set_enabled(true);
    }
    const int global = comm.global_rank(rank);
    const double send0 = comm.transport().send_seconds(global);
    comm.barrier();
    for (std::int64_t i = 0; i < traced; ++i) shuffle_checked(false);
    comm.barrier();
    if (rank == 0) {
      dct::obs::Tracer::set_enabled(false);
      sh.counters_after = counter_values();
      sh.events = dct::obs::tracer_events();
    }
    me.send_s = comm.transport().send_seconds(global) - send0;
  }
}

// A shuffle's latency is its slowest rank's.
std::vector<double> slowest_rank_s(const Shared& sh) {
  std::vector<double> out(sh.ranks[0].shuffle_s.size(), 0.0);
  for (const auto& rk : sh.ranks) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = std::max(out[i], rk.shuffle_s[i]);
    }
  }
  return out;
}

void add_layer_rows(const Shared& sh, std::int64_t traced, Result& r) {
  const double ops = static_cast<double>(traced);
  const auto times = span_tree_times(sh.events);
  add_span_info(times, ops, kRanks, r);
  for (const auto& [row, label] :
       std::vector<std::pair<std::string, std::string>>{
           {"data.shuffle.pack_ms", "data/shuffle.pack"},
           {"data.shuffle.exchange_ms", "data/shuffle.exchange"},
           {"data.shuffle.unpack_ms", "data/shuffle.unpack"},
           {"simmpi.alltoallv_ms", "simmpi/alltoallv"}}) {
    const double ms = label_ms(times, label, ops, kRanks);
    if (ms >= 0.0) r.layers[row] = ms;
  }
  const auto per_rank_op = [&](const std::string& counter) {
    return delta(sh.counters_before, sh.counters_after, counter) / kRanks /
           ops;
  };
  r.layers["data.shuffle_bytes"] = per_rank_op("dimd.shuffle_bytes_sent");
  r.layers["simmpi.messages"] = per_rank_op("simmpi.messages_sent");
  r.layers["simmpi.bytes"] = per_rank_op("simmpi.bytes_sent");
  double send_s = 0.0;
  std::vector<double> load_s;
  for (const auto& rk : sh.ranks) {
    send_s += rk.send_s;
    load_s.push_back(rk.load_s);
  }
  r.layers["simmpi.send_ms"] = send_s * 1e3 / kRanks / ops;
  r.layers["data.load_s"] = dct::percentile(load_s, 50.0);
}

}  // namespace

Result run_shuffle(const Options& opt) {
  dct::data::DatasetDef ds;
  ds.seed = opt.seed;
  ds.images = kImages;
  ds.classes = 1000;
  ds.image = dct::data::ImageDef{3, kImageSize, kImageSize};
  mallopt(M_MMAP_THRESHOLD, kMmapThreshold);
  const int worlds = opt.trace ? 1 : kWorlds;
  const std::int64_t per_round = std::max<std::int64_t>(
      kMinShufflesPerWorld / kRoundsPerWorld,
      std::llround(opt.seconds / kNominalShuffleS / worlds /
                   kRoundsPerWorld));
  const std::int64_t untraced = per_round * kRoundsPerWorld;
  const std::int64_t traced = opt.trace ? untraced / 2 : 0;

  Result r;
  r.workload = opt.workload;
  double bytes = 0.0;
  for (int k = 0; k < worlds; ++k) {
    Shared sh;
    dct::simmpi::Runtime::execute(kRanks, [&](dct::simmpi::Communicator& c) {
      rank_main(c, ds, opt.seed, untraced, traced, sh);
    });
    r.setup_s.push_back(sh.setup_s);
    const std::vector<double> op_s = slowest_rank_s(sh);
    double traced_s = 0.0;
    for (std::size_t i = 0; i < op_s.size(); ++i) {
      const auto n = static_cast<std::int64_t>(i);
      if (n >= untraced) {
        traced_s += op_s[i];
        continue;
      }
      if (n % per_round == 0) {
        r.rounds.emplace_back().items =
            static_cast<double>(kImages) * static_cast<double>(per_round);
      }
      r.rounds.back().op_ms.push_back(op_s[i] * 1e3);
      r.rounds.back().wall_s += op_s[i];  // inside shuffles, not the checks
    }
    for (const auto& rk : sh.ranks) bytes += rk.bytes;

    // Each shuffle is one operation. The invariants are group-wide
    // collectives, so every rank sees the same verdict; rank 0's is used.
    const RankLog& r0 = sh.ranks[0];
    r.check(r0.loaded_all, "load_partition did not load every image");
    for (std::size_t i = 0; i < r0.intact.size(); ++i) {
      r.check(r0.intact[i] != 0,
              "shuffle " + std::to_string(i) +
                  " changed the group's record checksum or count");
    }
    if (traced > 0) {
      r.traced_items_per_s =
          static_cast<double>(kImages) * static_cast<double>(traced) /
          traced_s;
      add_layer_rows(sh, traced, r);
    }
  }

  double shuffle_s = 0.0;
  for (const auto& rd : r.rounds) shuffle_s += rd.wall_s;
  r.info["bytes_per_shuffle"] =
      bytes / static_cast<double>(untraced * worlds);
  r.info["shuffle_gb_per_s"] = bytes / shuffle_s / 1e9;
  r.info["ranks"] = kRanks;
  r.info["images"] = static_cast<double>(kImages);
  r.labels["shape"] = "3x32x32 images, about 5461 per rank";
  r.labels["malloc"] = "M_MMAP_THRESHOLD pinned at 128 KiB";
  return r;
}

}  // namespace perfbench
