// plan-sweep: the `dctrain plan --topology` pricing path, single thread.
//
// A sweep prices 9 algorithms x 5 payloads x 4 topologies x {16,32,64}
// nodes with netsim::allreduce_time_s: 540 cells. The seed sets the order
// the cells are priced in. Set-up builds the sweep's 12 fabrics. A traced
// run adds half as many sweeps that price each cell through the calls that
// allreduce_time_s is made of (make_fabric, allreduce_schedule,
// simulate), so each can be timed on its own.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <tuple>

#include "common.hpp"
#include "netsim/cluster.hpp"
#include "obs/trace.hpp"
#include "trace_rows.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

const std::vector<std::string> kAlgos = {
    "naive",        "recursive_halving", "halving_doubling",
    "hierarchical", "torus",             "ring",
    "multiring",    "bucket_ring",       "multicolor"};
const std::vector<std::uint64_t> kPayloads = {
    std::uint64_t{256} << 10, std::uint64_t{1} << 20, std::uint64_t{4} << 20,
    std::uint64_t{16} << 20, std::uint64_t{93} << 20};
const std::vector<int> kNodes = {16, 32, 64};
constexpr double kNominalSweepS = 1.9;
constexpr std::int64_t kMinSweeps = 2;  // for the cross-sweep check
// Building the 12 fabrics takes a few microseconds, within reach of one
// interrupt or allocator slow path, so each set-up sample is the fastest
// of many builds.
constexpr int kSetupRepsPerSweep = 5;
constexpr int kFabricBuildsPerRep = 200;

struct Cell {
  std::string topology;
  int nodes;
  std::size_t algo;
  std::size_t payload;
};

dct::netsim::ClusterConfig cluster_for(const Cell& c) {
  dct::netsim::ClusterConfig cfg;
  cfg.topology = c.topology;
  cfg.nodes = c.nodes;
  return cfg;
}

// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

// Moves the calling thread to one CPU; a refusal leaves it where it is.
void run_on(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

struct TracedTotals {
  std::vector<double> simulate_s = std::vector<double>(kAlgos.size(), 0.0);
  std::vector<double> cells = std::vector<double>(kAlgos.size(), 0.0);
  double schedule_ops = 0.0;
  double flows = 0.0;
};

// allreduce_time_s, one public call at a time.
double price_traced(const Cell& c, TracedTotals& tt) {
  const auto cfg = cluster_for(c);
  const std::string& algo = kAlgos[c.algo];
  const std::uint64_t payload = kPayloads[c.payload];
  dct::obs::SpanScope cell_span("cell", "bench");
  std::unique_ptr<dct::netsim::Topology> net;
  {
    dct::obs::SpanScope s("make_fabric", "netsim");
    net = dct::netsim::make_fabric(cfg);
  }
  dct::netsim::AllreduceParams p;
  p.payload_bytes = payload;
  p.ranks = cfg.nodes;
  p.reduce_bw_Bps = cfg.reduce_bw_Bps;
  p.pipeline_bytes = std::max<std::uint64_t>(
      64 * 1024, std::min<std::uint64_t>(1 << 20, payload));
  dct::netsim::CommSchedule schedule;
  {
    dct::obs::SpanScope s("schedule", "netsim");
    schedule = dct::netsim::allreduce_schedule(algo, p);
  }
  const auto t0 = Clock::now();
  dct::netsim::SimResult res;
  {
    dct::obs::SpanScope s("simulate", "netsim");
    res = dct::netsim::simulate(*net, schedule,
                                dct::netsim::sim_options_for(algo));
  }
  tt.simulate_s[c.algo] += seconds_since(t0);
  tt.cells[c.algo] += 1.0;
  tt.schedule_ops += static_cast<double>(schedule.size());
  tt.flows += static_cast<double>(res.flows);
  return res.makespan_s;
}

}  // namespace

Result run_plan(const Options& opt) {
  std::vector<Cell> cells;
  for (const auto& topo : dct::netsim::topology_kinds()) {
    for (const int nodes : kNodes) {
      for (std::size_t a = 0; a < kAlgos.size(); ++a) {
        for (std::size_t p = 0; p < kPayloads.size(); ++p) {
          cells.push_back({topo, nodes, a, p});
        }
      }
    }
  }
  dct::Rng rng(opt.seed);
  for (std::size_t i = cells.size(); i > 1; --i) {
    std::swap(cells[i - 1], cells[rng.next_below(i)]);
  }
  const std::int64_t untraced = std::max<std::int64_t>(
      opt.trace ? 1 : kMinSweeps, std::llround(opt.seconds / kNominalSweepS));
  const std::int64_t traced =
      opt.trace ? std::max<std::int64_t>(1, untraced / 2) : 0;
  const std::int64_t sweeps = untraced + traced;

  Result r;
  r.workload = opt.workload;
  // Set-up samples are spread over the run, a few before every sweep, so
  // their median reflects the run rather than its first milliseconds.
  const auto time_setups = [&r] {
    for (int rep = 0; rep < kSetupRepsPerSweep; ++rep) {
      double fastest = 0.0;
      for (int b = 0; b < kFabricBuildsPerRep; ++b) {
        const auto t0 = Clock::now();
        std::vector<std::unique_ptr<dct::netsim::Topology>> fabrics;
        for (const auto& topo : dct::netsim::topology_kinds()) {
          for (const int nodes : kNodes) {
            fabrics.push_back(
                dct::netsim::make_fabric(cluster_for({topo, nodes, 0, 0})));
          }
        }
        const double s = seconds_since(t0);
        fastest = b == 0 ? s : std::min(fastest, s);
      }
      r.setup_s.push_back(fastest);
    }
  };

  // times[s][i]: sweep s's price of cells[i].
  std::vector<std::vector<double>> times(
      static_cast<std::size_t>(sweeps), std::vector<double>(cells.size()));
  // A sweep is the latency unit and a round of its own: one
  // `plan --topology` table's worth of cells. Single cells range from
  // microseconds to tens of milliseconds.
  //
  // The sweep is one thread, and on a shared host one CPU can be slower
  // than the others for a whole run; each sweep therefore runs on the
  // next allowed CPU, so the median sweep does not depend on where the
  // scheduler happened to put the thread.
  const std::vector<int> cpus = allowed_cpus();
  for (std::int64_t s = 0; s < untraced; ++s) {
    if (!cpus.empty()) {
      run_on(cpus[static_cast<std::size_t>(s) % cpus.size()]);
    }
    time_setups();
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < cells.size(); ++i) {
      times[static_cast<std::size_t>(s)][i] = dct::netsim::allreduce_time_s(
          cluster_for(cells[i]), kAlgos[cells[i].algo],
          kPayloads[cells[i].payload]);
    }
    Round& round = r.rounds.emplace_back();
    round.wall_s = seconds_since(t0);
    round.op_ms.push_back(round.wall_s * 1e3);
    round.items = static_cast<double>(cells.size());
  }

  TracedTotals tt;
  std::vector<dct::obs::ReportEvent> events;
  if (traced > 0) {
    dct::obs::Tracer::reset();
    dct::obs::Tracer::set_enabled(true);
    const auto t0 = Clock::now();
    for (std::int64_t s = untraced; s < sweeps; ++s) {
      for (std::size_t i = 0; i < cells.size(); ++i) {
        times[static_cast<std::size_t>(s)][i] = price_traced(cells[i], tt);
      }
    }
    r.traced_items_per_s = static_cast<double>(traced) *
                           static_cast<double>(cells.size()) /
                           seconds_since(t0);
    dct::obs::Tracer::set_enabled(false);
    events = dct::obs::tracer_events();
  }

  // Checks. Each priced cell is one operation: positive, finite, and
  // equal to the first sweep's price of the same cell.
  for (std::int64_t s = 0; s < sweeps; ++s) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const double t = times[static_cast<std::size_t>(s)][i];
      r.check(std::isfinite(t) && t > 0.0 && t == times[0][i],
              "cell " + cells[i].topology + "/" +
                  std::to_string(cells[i].nodes) + "/" +
                  kAlgos[cells[i].algo] + "/" +
                  std::to_string(kPayloads[cells[i].payload]) +
                  " priced " + std::to_string(t) + " s");
    }
  }
  // Price never falls as the payload grows, per (topology, nodes, algo).
  std::map<std::tuple<std::string, int, std::size_t>, std::vector<double>>
      curve;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    auto& v = curve[{cells[i].topology, cells[i].nodes, cells[i].algo}];
    v.resize(kPayloads.size());
    v[cells[i].payload] = times[0][i];
  }
  for (const auto& [key, v] : curve) {
    r.check(std::is_sorted(v.begin(), v.end()),
            "price decreases with payload for " + std::get<0>(key) + "/" +
                std::to_string(std::get<1>(key)) + "/" +
                kAlgos[std::get<2>(key)]);
  }

  r.info["cells_per_sweep"] = static_cast<double>(cells.size());
  r.info["sweeps"] = static_cast<double>(sweeps);
  r.labels["grid"] =
      "9 algorithms x 5 payloads x 4 topologies x {16,32,64} nodes";

  if (traced > 0) {
    const double ops =
        static_cast<double>(traced) * static_cast<double>(cells.size());
    const auto times_by_label = span_tree_times(events);
    add_span_info(times_by_label, ops, 1.0, r);
    r.layers["netsim.make_fabric_ms"] =
        label_ms(times_by_label, "netsim/make_fabric", ops, 1.0);
    r.layers["netsim.schedule_ms"] =
        label_ms(times_by_label, "netsim/schedule", ops, 1.0);
    r.layers["netsim.simulate_ms"] =
        label_ms(times_by_label, "netsim/simulate", ops, 1.0);
    for (std::size_t a = 0; a < kAlgos.size(); ++a) {
      r.layers["netsim.simulate_ms." + kAlgos[a]] =
          tt.simulate_s[a] * 1e3 / tt.cells[a];
    }
    r.layers["netsim.schedule_ops"] = tt.schedule_ops / ops;
    r.layers["netsim.flows"] = tt.flows / ops;
  }
  return r;
}

}  // namespace perfbench
