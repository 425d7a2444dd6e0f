#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <iomanip>

#include "des/engine.hpp"
#include "des/random.hpp"
#include "stats/sampler.hpp"

namespace perfbench {

namespace des = paradyn::des;
namespace stats = paradyn::stats;

namespace {

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Keeps the isolated loops' results observable so they are not folded away.
volatile double g_sink = 0.0;

}  // namespace

void SpanLog::write_json(std::ostream& os, const std::string& provenance_json) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  os << "{\"provenance\":" << provenance_json << ",\"spans\":[";
  os << std::setprecision(9);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"start_s\":" << s.start - origin_
       << ",\"end_s\":" << s.end - origin_ << ",\"parent\":" << s.parent << ",\"run\":" << s.run
       << '}';
  }
  os << "\n]}\n";
}

double ShardTiming::outside_s(double run_start, double run_end) const {
  if (windows == 0) return run_end - run_start;
  return (first_start - run_start) + gaps_s + (run_end - last_end);
}

des::ShardSet::Executor timed_executor(des::ShardSet::Executor inner, ShardTiming& timing,
                                       SpanLog& log, const int& parent, int run) {
  return [inner = std::move(inner), &timing, &log, &parent, run](
             std::size_t count, const std::function<void(std::size_t)>& body) {
    // Each body writes only its own slot; the executor's join orders those
    // writes before the reads below.
    std::vector<double> begin(count, 0.0);
    std::vector<double> end(count, 0.0);
    const std::function<void(std::size_t)> timed = [&](std::size_t s) {
      begin[s] = now_s();
      body(s);
      end[s] = now_s();
    };
    const double t0 = now_s();
    if (inner) {
      inner(count, timed);
    } else {
      for (std::size_t s = 0; s < count; ++s) timed(s);
    }
    const double t1 = now_s();

    if (timing.first_start < 0.0) {
      timing.first_start = t0;
    } else {
      timing.gaps_s += t0 - timing.last_end;
    }
    timing.last_end = t1;
    ++timing.windows;
    timing.exec_s += t1 - t0;
    if (timing.busy_s.size() < count) timing.busy_s.resize(count, 0.0);
    double slowest = 0.0;
    double total = 0.0;
    const int window = log.add("shard.window", t0, t1, parent, run);
    for (std::size_t s = 0; s < count; ++s) {
      const double d = end[s] - begin[s];
      timing.busy_s[s] += d;
      slowest = std::max(slowest, d);
      total += d;
      log.add("shard.body", begin[s], end[s], window, run);
    }
    timing.fanout_join_s += (t1 - t0) - slowest;
    if (count > 0) timing.straggler_s += slowest - total / static_cast<double>(count);
  };
}

double des_hold_ns(std::size_t depth, std::uint64_t seed) {
  // Mean hold offset is irrelevant to the queue's cost per operation as
  // long as it is the same for every event; 1 ms resembles the model's
  // service times.
  constexpr double kMeanUs = 1'000.0;
  constexpr std::uint64_t kEvents = 1'000'000;
  depth = std::max<std::size_t>(depth, 1);

  struct State {
    des::Engine engine;
    des::Pcg32 rng;
    std::uint64_t left = 0;
  };
  struct Hold {
    State* st;
    void operator()() const {
      if (--st->left == 0) {
        st->engine.stop();
        return;
      }
      st->engine.schedule_after(-kMeanUs * std::log(st->rng.next_open_double()), Hold{st});
    }
  };

  std::vector<double> samples;
  for (int round = 0; round < 3; ++round) {
    State st;
    st.rng = des::Pcg32(seed, 0x401d + static_cast<std::uint64_t>(round));
    st.left = kEvents;
    for (std::size_t i = 0; i < depth; ++i) {
      st.engine.schedule_at(-kMeanUs * std::log(st.rng.next_open_double()), Hold{&st});
    }
    const double t0 = now_s();
    const std::uint64_t executed = st.engine.run();
    const double t1 = now_s();
    g_sink = g_sink + st.engine.now();
    samples.push_back((t1 - t0) * 1e9 / static_cast<double>(executed));
  }
  return median_of(samples);
}

std::map<std::string, double> stats_draw_ns(const paradyn::rocc::SystemConfig& config,
                                            std::uint64_t seed) {
  const stats::DistributionPtr all[] = {
      config.app.cpu_burst,
      config.app.net_burst,
      config.app.io_block_duration,
      config.pd.collect_cpu,
      config.pd.forward_cpu,
      config.pd.net_occupancy,
      config.pd.merge_cpu,
      config.background.pvmd_cpu_length,
      config.background.pvmd_net_length,
      config.background.pvmd_interarrival,
      config.background.other_cpu_length,
      config.background.other_net_length,
      config.background.other_cpu_interarrival,
      config.background.other_net_interarrival,
      config.main_cpu,
  };
  std::map<std::string, std::vector<stats::FrozenSampler>> families;
  for (const auto& dist : all) {
    if (dist) families[dist->name()].push_back(stats::FrozenSampler::compile(dist));
  }

  constexpr std::size_t kDraws = 1u << 21;
  std::map<std::string, double> ns;
  for (const auto& [family, samplers] : families) {
    std::vector<double> samples;
    for (int round = 0; round < 3; ++round) {
      des::Pcg32 rng(seed, 0x57a7 + static_cast<std::uint64_t>(round));
      double sum = 0.0;
      const double t0 = now_s();
      for (std::size_t i = 0; i < kDraws; ++i) sum += samplers[i % samplers.size()](rng);
      const double t1 = now_s();
      g_sink = g_sink + sum;
      samples.push_back((t1 - t0) * 1e9 / static_cast<double>(kDraws));
    }
    ns[family] = median_of(samples);
  }
  return ns;
}

}  // namespace perfbench
