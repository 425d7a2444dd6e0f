#include "obs/profile.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <istream>
#include <iterator>
#include <ostream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "obs/trace.hpp"
#include "util/json_writer.hpp"

namespace paradyn::obs {

namespace {

/// strcmp(s.c_str(), lit) == 0 for a string that may hold a NUL: the JSON
/// path compares names the way the native path compares C strings.
bool c_equal(std::string_view s, std::string_view lit) noexcept {
  return s.size() >= lit.size() && s.compare(0, lit.size(), lit) == 0 &&
         (s.size() == lit.size() || s[lit.size()] == '\0');
}

/// Async ids are written as "0x..." hex strings; accept anything
/// std::strtoull(id, nullptr, 0) accepts.
std::uint64_t parse_chain_id(std::string_view id) {
  if (id.size() > 2 && id.size() <= 18 && id[0] == '0' && (id[1] == 'x' || id[1] == 'X')) {
    std::uint64_t v = 0;
    std::size_t i = 2;
    for (; i < id.size(); ++i) {
      const char c = id[i];
      unsigned d = 0;
      if (c >= '0' && c <= '9') d = static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') d = static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') d = static_cast<unsigned>(c - 'A' + 10);
      else break;
      v = v << 4 | d;
    }
    if (i == id.size()) return v;
  }
  return std::strtoull(std::string(id).c_str(), nullptr, 0);
}

/// Bound on the W3 window vector, so a malformed timestamp cannot make it
/// grow without limit: ~4M windows, 4.8 simulated days at 100 ms.
constexpr std::size_t kMaxWindows = std::size_t{1} << 22;

/// Busy intervals closer than this merge (absorbs the 1ns JSON rounding).
constexpr double kCoalesceGapUs = 0.002;
/// Open-chain map cap: chains beyond this are counted unmatched instead of
/// growing memory without bound on truncated traces.
constexpr std::size_t kMaxOpenChains = std::size_t{1} << 20;
/// Per-resource merged-interval cap; exceeding it doubles the coalescing
/// gap and re-merges, keeping memory bounded on any input.
constexpr std::size_t kMaxIntervalsPerResource = std::size_t{1} << 16;

// W3 hypothesis thresholds.  A hop holds Excessive* when its share of all
// hop time in the window exceeds kHopShareThreshold and its mean per-chain
// wait exceeds kHopWaitMinUs (which filters noise in near-idle windows);
// ExcessiveCPU holds when a CPU track's busy fraction tops kCpuBusyThreshold.
constexpr double kHopShareThreshold = 0.4;
constexpr double kHopWaitMinUs = 500.0;
constexpr double kCpuBusyThreshold = 0.9;

/// Lifecycle progress marks, in causal order.
enum Mark : int { kEnq = 0, kDeq, kCollect, kFwd, kNet };

/// Which lifecycle progress mark an arg name denotes, or -1.
int mark_code(std::string_view name) noexcept {
  if (c_equal(name, "enq")) return kEnq;
  if (c_equal(name, "deq")) return kDeq;
  if (c_equal(name, "collect")) return kCollect;
  if (c_equal(name, "fwd")) return kFwd;
  if (c_equal(name, "net")) return kNet;
  return -1;
}
int mark_code(const char* name) noexcept {
  return name == nullptr ? -1 : mark_code(std::string_view(name));
}

bool is_lifecycle(const char* cat, const char* name) noexcept {
  return cat != nullptr && name != nullptr && std::strcmp(cat, "sample") == 0 &&
         std::strcmp(name, "lifecycle") == 0;
}

}  // namespace

void merge_busy_interval(std::vector<BusyInterval>& v, double s, double e, double gap) {
  if (e < s) std::swap(s, e);
  if (v.empty() || s >= v.back().start) {
    // At or past the last start: merge into the last interval or append.
    if (!v.empty() && v.back().end + gap >= s) {
      v.back().end = std::max(e, v.back().end);
    } else {
      v.push_back({s, e});
    }
    return;
  }
  // The first interval starting after s.
  auto it = std::upper_bound(v.begin(), v.end(), s,
                             [](double x, const BusyInterval& b) { return x < b.start; });
  // Absorb a predecessor that reaches (within gap of) s.
  if (it != v.begin() && std::prev(it)->end + gap >= s) {
    const auto prev = std::prev(it);
    s = prev->start;
    e = std::max(e, prev->end);
    it = v.erase(prev);
  }
  // Absorb successors starting before (within gap of) e.
  auto last = it;
  for (; last != v.end() && last->start <= e + gap; ++last) e = std::max(e, last->end);
  it = v.erase(it, last);
  v.insert(it, {s, e});
}

std::string ProfileReport::track_label(std::int64_t pid, std::int32_t track) const {
  if (const auto it = labels.find({pid, track}); it != labels.end()) return it->second;
  char buf[48];
  std::snprintf(buf, sizeof(buf), "p%lld.t%d", static_cast<long long>(pid), track);
  return buf;
}

Profiler::Profiler(ProfileOptions options)
    : options_(options), top_paths_(options.top_paths) {
  if (!(options_.window_us > 0.0) || !std::isfinite(options_.window_us)) {
    throw std::invalid_argument(
        "Profiler: the W3 window (--window-ms) must be positive and finite");
  }
}

void Profiler::set_track_label(std::int64_t pid, std::int32_t track, std::string label) {
  labels_[{pid, track}] = std::move(label);
}

void Profiler::set_totals(std::uint64_t recorded, std::uint64_t dropped) {
  recorded_ = recorded;
  dropped_ = dropped;
}

void Profiler::touch_ts(double ts) {
  if (!have_ts_ || ts < ts_min_us_) ts_min_us_ = ts;
  if (!have_ts_ || ts > ts_max_us_) ts_max_us_ = ts;
  have_ts_ = true;
}

template <class T>
T& Profiler::WindowSeries<T>::operator[](std::size_t idx) {
  if (idx < dense_.size()) return dense_[idx];
  // A trace's clock advances window by window, so its windows join the
  // dense run, as do those of a ring that kept only a late stretch of a
  // long run (up to 1.8 simulated hours at 100 ms windows).  A window
  // further out, a lone far timestamp, costs one map entry.
  constexpr std::size_t kDenseReach = std::size_t{1} << 16;
  if (idx - dense_.size() >= kDenseReach) return far_[idx];
  dense_.resize(idx + 1);
  while (!far_.empty() && far_.begin()->first <= idx) {
    dense_[far_.begin()->first] = std::move(far_.begin()->second);
    far_.erase(far_.begin());
  }
  return dense_[idx];
}

template <class T>
std::size_t Profiler::WindowSeries<T>::end() const noexcept {
  return far_.empty() ? dense_.size() : far_.rbegin()->first + 1;
}

template <class T>
template <class Fn>
void Profiler::WindowSeries<T>::for_each(Fn&& fn) const {
  for (std::size_t i = 0; i < dense_.size(); ++i) fn(i, dense_[i]);
  for (const auto& [i, value] : far_) fn(i, value);
}

Profiler::Window& Profiler::window_at(double ts) {
  double idx_f = ts / options_.window_us;
  if (!(idx_f >= 0.0)) idx_f = 0.0;  // negative / NaN timestamps -> window 0
  // Absurd timestamps from malformed traces land in the last window.
  const std::size_t idx =
      idx_f < static_cast<double>(kMaxWindows) ? static_cast<std::size_t>(idx_f) : kMaxWindows - 1;
  return windows_[idx];
}

Profiler::ResourceAccum& Profiler::resource(std::int64_t pid, std::int32_t track) {
  const auto [index, added] =
      resource_index_.emplace(static_cast<std::uint64_t>(pid), static_cast<std::uint32_t>(track),
                              static_cast<std::uint32_t>(resources_.size()));
  if (added) {
    ResourceAccum& res = resources_.emplace_back();
    res.pid = pid;
    res.track = track;
    res.coalesce_gap_us = kCoalesceGapUs;
  }
  return resources_[*index];
}

void Profiler::observe_span(std::int64_t pid, std::int32_t track, bool cpu, double ts,
                            double dur) {
  if (dur < 0.0 || !std::isfinite(dur)) dur = 0.0;
  ResourceAccum& res = resource(pid, track);
  ++res.spans;
  merge_busy_interval(res.intervals, ts, ts + dur, res.coalesce_gap_us);
  // Bounded memory on any input: if the timeline fragments past the cap,
  // double the coalescing gap and re-merge.
  while (res.intervals.size() > kMaxIntervalsPerResource) {
    res.coalesce_gap_us = std::max(res.coalesce_gap_us * 2.0, 1.0);
    std::vector<BusyInterval> rebuilt;
    for (const auto& [s, e] : res.intervals) {
      merge_busy_interval(rebuilt, s, e, res.coalesce_gap_us);
    }
    res.intervals = std::move(rebuilt);
  }

  // ExcessiveCPU's when-axis: CPU busy time distributed over the windows
  // the span overlaps, up to the window cap (the hypothesis pass never
  // looks past it).
  if (cpu && dur > 0.0) {
    const double w = options_.window_us;
    double s = std::max(ts, 0.0);
    const double e = std::max(ts + dur, s);
    while (s < e && s / w < static_cast<double>(kMaxWindows)) {
      const auto idx = static_cast<std::size_t>(s / w);
      const double win_end = (static_cast<double>(idx) + 1.0) * w;
      const double chunk = std::min(e, win_end) - s;
      res.cpu_busy[idx] += chunk;
      if (win_end <= s) break;  // paranoia against FP non-progress
      s = win_end;
    }
  }
}

void Profiler::chain_begin(std::int64_t pid, std::uint64_t id, std::int32_t track, double ts) {
  if (open_chains_.size() >= kMaxOpenChains) {
    ++chains_unmatched_;  // cannot track more; count it rather than grow
    return;
  }
  ChainTimes t;
  t.gen_ts = ts;
  t.origin_track = track;
  t.have_begin = true;
  if (!open_chains_.emplace(static_cast<std::uint64_t>(pid), id, t).second) {
    ++chains_unmatched_;  // duplicate begin: keep the first
  }
}

void Profiler::chain_mark(std::int64_t pid, std::uint64_t id, int mark, double ts, double arg) {
  if (mark < 0) return;
  // Window enq/deq tallies feed StarvedDaemon even when the chain's begin
  // was dropped by the ring.
  if (mark == kEnq) ++window_at(ts).enq;
  if (mark == kDeq) ++window_at(ts).deq;
  ChainTimes* open = open_chains_.find(static_cast<std::uint64_t>(pid), id);
  if (open == nullptr) return;  // begin lost; chain will count unmatched
  ChainTimes& t = *open;
  switch (mark) {
    case kEnq:
      if (t.enq_ts < 0.0) t.enq_ts = ts;
      break;
    case kDeq:
      if (t.deq_ts < 0.0) t.deq_ts = ts;
      break;
    case kCollect:
      if (t.collect_ts < 0.0) {
        t.collect_ts = ts;
        t.collect_svc_us = arg;
      }
      break;
    case kFwd:
      // First forward: later tree hops keep the earliest daemon-exit time.
      if (t.fwd_ts < 0.0 || ts < t.fwd_ts) t.fwd_ts = ts;
      break;
    case kNet:
      // Last network clear; occupancies accumulate across tree hops.
      if (ts > t.net_ts) t.net_ts = ts;
      t.net_svc_us += arg;
      break;
    default:
      break;
  }
}

void Profiler::chain_end(std::int64_t pid, std::uint64_t id, double ts) {
  const ChainTimes* open = open_chains_.find(static_cast<std::uint64_t>(pid), id);
  if (open == nullptr) {
    ++chains_unmatched_;  // end without begin
    return;
  }
  const ChainRecord rec = reduce_chain(pid, id, *open, ts);
  open_chains_.erase(static_cast<std::uint64_t>(pid), id);
  ++chains_complete_;
  if (rec.out_of_order) ++chains_out_of_order_;

  double bound = rec.start_ts_us;
  for (int h = 0; h < kHopCount; ++h) {
    hops_[h].count += 1;
    hops_[h].queue_total_us += rec.hop_queue_us[h];
    hops_[h].service_total_us += rec.hop_service_us[h];
    hops_[h].queue_us.observe(rec.hop_queue_us[h]);
    hops_[h].service_us.observe(rec.hop_service_us[h]);
    // Attribute each hop to the window where the hop *completed*, so a
    // bottleneck's when-axis lands where its latency was paid off.
    bound += rec.hop_us[h];
    Window& win = window_at(bound);
    win.hop_queue_us[h] += rec.hop_queue_us[h];
    win.hop_service_us[h] += rec.hop_service_us[h];
    win.hop_count[h] += 1;
  }
  ++window_at(rec.end_ts_us).chains;
  top_paths_.offer(rec);
  folded_.add(rec);
}

void Profiler::feed(const EventView& ev) {
  const auto tid = static_cast<std::int32_t>(ev.tid);
  if (ev.ph == "M") {
    if (ev.name == "thread_name") {
      for (const StrArg& a : ev.str_args) {
        if (a.key == "name") labels_[{ev.pid, tid}] = std::string(a.value);
      }
    }
    return;
  }
  ++events_;
  touch_ts(ev.ts);
  if (ev.ph == "X") {
    touch_ts(ev.ts + ev.dur);
    observe_span(ev.pid, tid, c_equal(ev.cat, "cpu"), ev.ts, ev.dur);
    return;
  }
  if (ev.ph == "i") {
    if (ev.cat == "pipe" && c_equal(ev.name, "full")) ++window_at(ev.ts).pipe_full;
    return;
  }
  if (ev.ph == "b" || ev.ph == "n" || ev.ph == "e") {
    if (!c_equal(ev.cat, "sample") || !c_equal(ev.name, "lifecycle")) return;
    const std::uint64_t id = parse_chain_id(ev.id);
    if (ev.ph == "b") {
      chain_begin(ev.pid, id, tid, ev.ts);
    } else if (ev.ph == "e") {
      chain_end(ev.pid, id, ev.ts);
    } else {
      for (const NumArg& a : ev.num_args) chain_mark(ev.pid, id, mark_code(a.key), ev.ts, a.value);
    }
  }
}

void Profiler::feed(const TraceEvent& ev, std::int32_t pid) {
  ++events_;
  touch_ts(ev.ts_us);
  switch (ev.phase) {
    case Phase::Complete:
      touch_ts(ev.ts_us + ev.dur_us);
      observe_span(pid, ev.track, ev.category != nullptr && std::strcmp(ev.category, "cpu") == 0,
                   ev.ts_us, ev.dur_us);
      break;
    case Phase::Instant:
      if (ev.category != nullptr && std::strcmp(ev.category, "pipe") == 0 && ev.name != nullptr &&
          std::strcmp(ev.name, "full") == 0) {
        ++window_at(ev.ts_us).pipe_full;
      }
      break;
    case Phase::Counter:
      break;
    case Phase::AsyncBegin:
      if (is_lifecycle(ev.category, ev.name)) chain_begin(pid, ev.id, ev.track, ev.ts_us);
      break;
    case Phase::AsyncInstant:
      if (is_lifecycle(ev.category, ev.name)) {
        chain_mark(pid, ev.id, mark_code(ev.arg0_name), ev.ts_us, ev.arg0);
      }
      break;
    case Phase::AsyncEnd:
      if (is_lifecycle(ev.category, ev.name)) chain_end(pid, ev.id, ev.ts_us);
      break;
  }
}

ProfileReport Profiler::finalize() {
  ProfileReport report;
  report.events = events_;
  report.recorded = recorded_;
  report.dropped = dropped_;
  report.chains_complete = chains_complete_;
  report.chains_unmatched = chains_unmatched_ + open_chains_.size();  // begins never closed
  report.chains_out_of_order = chains_out_of_order_;
  report.ts_min_us = have_ts_ ? ts_min_us_ : 0.0;
  report.ts_max_us = have_ts_ ? ts_max_us_ : 0.0;
  report.window_us = options_.window_us;
  report.labels = labels_;
  for (int h = 0; h < kHopCount; ++h) report.hops[h] = hops_[h];

  report.dominant_hop = -1;
  double dominant_total = -1.0;
  if (chains_complete_ > 0) {
    for (int h = 0; h < kHopCount; ++h) {
      const double total = hops_[h].queue_total_us + hops_[h].service_total_us;
      if (total > dominant_total) {
        dominant_total = total;
        report.dominant_hop = h;
      }
    }
  }

  // Resources in (pid, track) order, as reports and ties expect.
  std::vector<const ResourceAccum*> by_key;
  by_key.reserve(resources_.size());
  for (const ResourceAccum& r : resources_) by_key.push_back(&r);
  std::sort(by_key.begin(), by_key.end(), [](const ResourceAccum* a, const ResourceAccum* b) {
    return std::pair{a->pid, a->track} < std::pair{b->pid, b->track};
  });

  const double span_us = report.ts_max_us - report.ts_min_us;
  for (const ResourceAccum* accum : by_key) {
    ResourceStats rs;
    rs.pid = accum->pid;
    rs.track = accum->track;
    rs.label = report.track_label(accum->pid, accum->track);
    rs.spans = accum->spans;
    rs.intervals = accum->intervals.size();
    for (const auto& [s, e] : accum->intervals) {
      const double len = e - s;
      rs.busy_us += len;
      rs.max_interval_us = std::max(rs.max_interval_us, len);
    }
    rs.util_fraction = span_us > 0.0 ? rs.busy_us / span_us : 0.0;
    report.resources.push_back(std::move(rs));
  }

  report.top_chains = top_paths_.sorted_desc();
  report.folded = folded_.lines();

  // ---- W3 hypothesis pass over the fixed windows ----
  const double w_us = options_.window_us;
  const std::size_t n_windows = windows_.end();

  // visit(held) calls held(w, metric) for each window w where the
  // hypothesis holds, in increasing window order; every other window, with
  // data or without, does not hold it and ends the first held run.
  const auto evaluate = [&](std::string name, std::string target, int hop, const auto& visit) {
    HypothesisFinding f;
    f.name = std::move(name);
    f.target = std::move(target);
    f.hop = hop;
    std::size_t first_run_end = 0;  // one past the last window of the first held run
    visit([&](std::size_t w, double v) {
      ++f.windows_held;
      f.peak = std::max(f.peak, v);
      if (!f.held) {
        f.held = true;
        f.first_held_start_us = static_cast<double>(w) * w_us;
        first_run_end = w + 1;
      } else if (w == first_run_end) {
        first_run_end = w + 1;
      }
    });
    if (f.held) f.first_held_end_us = static_cast<double>(first_run_end) * w_us;
    report.hypotheses.push_back(std::move(f));
  };

  // Excessive<hop>: the hop's queueing dominates the window's lifecycle
  // time AND its mean per-chain wait clears the noise floor.  When
  // `require_block` is set the window must additionally contain at least
  // one producer-blocked instant (the rocc tracer's pipe/"full" event):
  // in a work-conserving pipeline a capacity clamp conserves total wait,
  // so actual blocking — not wait share, which is large in any
  // daemon-response-dominated config — is the discriminating signature of
  // pipe backpressure.
  const auto hop_excessive = [this](int hop, bool require_block) {
    return [this, hop, require_block](const auto& held) {
      windows_.for_each([&](std::size_t w, const Window& win) {
        if (require_block && win.pipe_full == 0) return;
        double total = 0.0;
        for (int h = 0; h < kHopCount; ++h) {
          total += win.hop_queue_us[h] + win.hop_service_us[h];
        }
        if (total <= 0.0 || win.hop_count[hop] == 0) return;
        const double share = win.hop_queue_us[hop] / total;
        const double mean = win.hop_queue_us[hop] / static_cast<double>(win.hop_count[hop]);
        if (!require_block && share <= kHopShareThreshold) return;
        if (mean > kHopWaitMinUs) held(w, share);
      });
    };
  };

  // ExcessiveCPU holds in a window where some CPU track's busy fraction
  // tops the threshold; its metric is the highest such fraction.  Every
  // window with CPU data counts, up to the cap observe_span applies.
  WindowSeries<double> cpu_peak;
  for (const ResourceAccum* accum : by_key) {
    accum->cpu_busy.for_each([&](std::size_t w, double busy) {
      const double frac = busy / options_.window_us;
      if (frac > kCpuBusyThreshold) cpu_peak[w] = std::max(cpu_peak[w], frac);
    });
  }
  evaluate("ExcessiveCPU", "", -1, [&](const auto& held) {
    cpu_peak.for_each([&](std::size_t w, double peak) {
      if (peak > kCpuBusyThreshold) held(w, peak);
    });
  });
  // The where-axis for ExcessiveCPU: the CPU track with the highest busy
  // fraction in any held window (deterministic: key order, strict greater).
  {
    HypothesisFinding& cpu = report.hypotheses.back();
    if (cpu.held) {
      double best = -1.0;
      for (const ResourceAccum* accum : by_key) {
        accum->cpu_busy.for_each([&](std::size_t, double busy) {
          const double frac = busy / options_.window_us;
          if (frac > kCpuBusyThreshold && frac > best) {
            best = frac;
            cpu.target = report.track_label(accum->pid, accum->track);
          }
        });
      }
    } else {
      cpu.target = "cpu";
    }
  }

  evaluate("ExcessivePipeBackpressure", "pipe hop", static_cast<int>(Hop::Pipe),
           hop_excessive(static_cast<int>(Hop::Pipe), /*require_block=*/true));
  evaluate("ExcessiveNetworkDelay", "network hop", static_cast<int>(Hop::Network),
           hop_excessive(static_cast<int>(Hop::Network), /*require_block=*/false));
  // StarvedDaemon: samples kept entering the pipes but no daemon drained
  // anything for a whole window — the stall signature.  The final window
  // holding data is excluded: the trace simply ends there with chains
  // mid-flight, which is not a stall.
  evaluate("StarvedDaemon", "daemons", /*hop=*/-1, [&](const auto& held) {
    windows_.for_each([&](std::size_t w, const Window& win) {
      if (w + 1 < n_windows && win.enq > 0 && win.deq == 0) {
        held(w, static_cast<double>(win.enq));
      }
    });
  });

  return report;
}

ProfileReport profile_trace_stream(std::istream& is, ProfileOptions options) {
  Profiler profiler(options);
  const TraceStreamInfo info =
      stream_chrome_trace(is, [&](const EventView& ev) { profiler.feed(ev); });
  profiler.set_totals(info.recorded, info.dropped);
  return profiler.finalize();
}

ProfileReport profile_recorder(const TraceRecorder& recorder, ProfileOptions options) {
  Profiler profiler(options);
  for (const auto& [key, label] : recorder.track_labels()) {
    profiler.set_track_label(key.first, key.second, label);
  }
  recorder.for_each_event(
      [&](const TraceEvent& ev, std::int32_t pid) { profiler.feed(ev, pid); });
  profiler.set_totals(recorder.recorded(), recorder.dropped());
  return profiler.finalize();
}

namespace {

double hop_total_us(const ProfileReport& r) {
  double total = 0.0;
  for (int h = 0; h < kHopCount; ++h) {
    total += r.hops[h].queue_total_us + r.hops[h].service_total_us;
  }
  return total;
}

void print_hypotheses(std::ostream& os, const ProfileReport& report) {
  os << "hypotheses (W3 why/where/when):\n";
  char line[256];
  for (const auto& f : report.hypotheses) {
    if (f.held) {
      std::snprintf(line, sizeof(line),
                    "  %-26s HELD  [%0.1f ms .. %0.1f ms)  peak %.3f  target %s  (%llu "
                    "window(s))\n",
                    f.name.c_str(), f.first_held_start_us / 1e3, f.first_held_end_us / 1e3,
                    f.peak, f.target.c_str(), static_cast<unsigned long long>(f.windows_held));
    } else {
      std::snprintf(line, sizeof(line), "  %-26s not held\n", f.name.c_str());
    }
    os << line;
  }
}

}  // namespace

void print_profile_report(std::ostream& os, const ProfileReport& report, bool hypotheses_only) {
  if (hypotheses_only) {
    print_hypotheses(os, report);
    return;
  }
  char line[320];
  std::snprintf(line, sizeof(line),
                "profile: %llu events, %llu chains complete, %llu unmatched, %llu out-of-order "
                "(recorder saw %llu, dropped %llu)\n",
                static_cast<unsigned long long>(report.events),
                static_cast<unsigned long long>(report.chains_complete),
                static_cast<unsigned long long>(report.chains_unmatched),
                static_cast<unsigned long long>(report.chains_out_of_order),
                static_cast<unsigned long long>(report.recorded),
                static_cast<unsigned long long>(report.dropped));
  os << line;
  std::snprintf(line, sizeof(line), "span: %.3f ms .. %.3f ms  (window %.1f ms)\n\n",
                report.ts_min_us / 1e3, report.ts_max_us / 1e3, report.window_us / 1e3);
  os << line;

  const double total_us = hop_total_us(report);
  os << "hop decomposition (queueing vs service per delivered chain):\n";
  std::snprintf(line, sizeof(line), "  %-8s %10s %12s %12s %12s %12s %12s %7s\n", "hop",
                "chains", "q_mean_us", "q_p50_us", "q_p99_us", "svc_mean_us", "total_ms",
                "share");
  os << line;
  for (int h = 0; h < kHopCount; ++h) {
    const HopStats& hs = report.hops[h];
    const double n = hs.count > 0 ? static_cast<double>(hs.count) : 1.0;
    const double hop_total = hs.queue_total_us + hs.service_total_us;
    std::snprintf(line, sizeof(line), "  %-8s %10llu %12.2f %12.2f %12.2f %12.2f %12.3f %6.1f%%\n",
                  hop_name(h), static_cast<unsigned long long>(hs.count),
                  hs.queue_total_us / n, hs.queue_us.percentile(0.50),
                  hs.queue_us.percentile(0.99), hs.service_total_us / n, hop_total / 1e3,
                  total_us > 0.0 ? 100.0 * hop_total / total_us : 0.0);
    os << line;
  }
  if (report.dominant_hop >= 0) {
    const HopStats& dh = report.hops[report.dominant_hop];
    const double dh_total = dh.queue_total_us + dh.service_total_us;
    std::snprintf(line, sizeof(line), "dominant hop: %s (%.1f%% of lifecycle time)\n\n",
                  hop_name(report.dominant_hop),
                  total_us > 0.0 ? 100.0 * dh_total / total_us : 0.0);
    os << line;
  } else {
    os << "dominant hop: none (no complete chains)\n\n";
  }

  if (!report.resources.empty()) {
    os << "resources (busy-interval merged):\n";
    std::snprintf(line, sizeof(line), "  %-22s %10s %12s %7s %10s %14s\n", "resource", "spans",
                  "busy_ms", "util", "intervals", "max_intvl_us");
    os << line;
    for (const auto& rs : report.resources) {
      std::snprintf(line, sizeof(line), "  %-22s %10llu %12.3f %6.1f%% %10llu %14.2f\n",
                    rs.label.c_str(), static_cast<unsigned long long>(rs.spans),
                    rs.busy_us / 1e3, 100.0 * rs.util_fraction,
                    static_cast<unsigned long long>(rs.intervals), rs.max_interval_us);
      os << line;
    }
    os << '\n';
  }

  if (!report.top_chains.empty()) {
    os << "top " << report.top_chains.size() << " critical paths (slowest chains):\n";
    int rank = 1;
    for (const auto& c : report.top_chains) {
      std::snprintf(line, sizeof(line),
                    "  #%-2d id 0x%llx %-14s start %10.3f ms  latency %10.1f us  dominant %s\n",
                    rank++, static_cast<unsigned long long>(c.id),
                    report.track_label(c.pid, c.origin_track).c_str(), c.start_ts_us / 1e3,
                    c.latency_us, hop_name(c.dominant_hop));
      os << line;
      os << "      ";
      for (int h = 0; h < kHopCount; ++h) {
        std::snprintf(line, sizeof(line), "%s%s %.1f", h > 0 ? " | " : "", hop_name(h),
                      c.hop_us[h]);
        os << line;
      }
      os << '\n';
    }
    os << '\n';
  }

  print_hypotheses(os, report);
}

void write_profile_json(std::ostream& os, const ProfileReport& report) {
  namespace json = util::json;
  json::Obj root(os, 0);
  root.key("schema") << "\"roccprof-v1\"";
  json::number(root.key("events"), static_cast<double>(report.events));
  json::number(root.key("recorded"), static_cast<double>(report.recorded));
  json::number(root.key("dropped"), static_cast<double>(report.dropped));
  json::number(root.key("chains_complete"), static_cast<double>(report.chains_complete));
  json::number(root.key("chains_unmatched"), static_cast<double>(report.chains_unmatched));
  json::number(root.key("chains_out_of_order"),
               static_cast<double>(report.chains_out_of_order));
  json::number(root.key("ts_min_us"), report.ts_min_us);
  json::number(root.key("ts_max_us"), report.ts_max_us);
  json::number(root.key("window_us"), report.window_us);
  write_hop_json(root.key("dominant_hop"), report.dominant_hop);

  root.key("hops") << "[";
  for (int h = 0; h < kHopCount; ++h) {
    os << (h > 0 ? "," : "") << "\n    ";
    const HopStats& hs = report.hops[h];
    const double n = hs.count > 0 ? static_cast<double>(hs.count) : 1.0;
    json::Obj hop(os, 4);
    hop.key("hop");
    json::quoted(os, hop_name(h));
    json::number(hop.key("chains"), static_cast<double>(hs.count));
    json::number(hop.key("queue_total_us"), hs.queue_total_us);
    json::number(hop.key("queue_mean_us"), hs.queue_total_us / n);
    json::number(hop.key("queue_p50_us"), hs.queue_us.percentile(0.50));
    json::number(hop.key("queue_p99_us"), hs.queue_us.percentile(0.99));
    json::number(hop.key("service_total_us"), hs.service_total_us);
    json::number(hop.key("service_mean_us"), hs.service_total_us / n);
    hop.close();
  }
  os << "\n  ]";

  root.key("resources") << "[";
  for (std::size_t i = 0; i < report.resources.size(); ++i) {
    os << (i > 0 ? "," : "") << "\n    ";
    const ResourceStats& rs = report.resources[i];
    json::Obj res(os, 4);
    res.key("resource");
    json::quoted(os, rs.label);
    json::number(res.key("pid"), static_cast<double>(rs.pid));
    json::number(res.key("track"), static_cast<double>(rs.track));
    json::number(res.key("spans"), static_cast<double>(rs.spans));
    json::number(res.key("busy_us"), rs.busy_us);
    json::number(res.key("util"), rs.util_fraction);
    json::number(res.key("intervals"), static_cast<double>(rs.intervals));
    json::number(res.key("max_interval_us"), rs.max_interval_us);
    res.close();
  }
  os << "\n  ]";

  root.key("top_paths") << "[";
  for (std::size_t i = 0; i < report.top_chains.size(); ++i) {
    os << (i > 0 ? "," : "") << "\n    ";
    const ChainRecord& c = report.top_chains[i];
    json::Obj chain(os, 4);
    json::number(chain.key("id"), static_cast<double>(c.id));
    json::number(chain.key("pid"), static_cast<double>(c.pid));
    chain.key("origin");
    json::quoted(os, report.track_label(c.pid, c.origin_track));
    json::number(chain.key("start_us"), c.start_ts_us);
    json::number(chain.key("latency_us"), c.latency_us);
    write_hop_json(chain.key("dominant_hop"), c.dominant_hop);
    chain.key("hops") << "{";
    for (int h = 0; h < kHopCount; ++h) {
      os << (h > 0 ? ", " : "");
      json::quoted(os, hop_name(h));
      os << ": ";
      json::number(os, c.hop_us[h]);
    }
    os << "}";
    chain.close();
  }
  os << "\n  ]";

  write_hypotheses_json(root.key("hypotheses"), report);

  root.close();
  os << '\n';
}

void write_hypotheses_json(std::ostream& os, const ProfileReport& report) {
  namespace json = util::json;
  os << "[";
  for (std::size_t i = 0; i < report.hypotheses.size(); ++i) {
    os << (i > 0 ? "," : "") << "\n    ";
    const HypothesisFinding& f = report.hypotheses[i];
    json::Obj hyp(os, 4);
    hyp.key("hypothesis");
    json::quoted(os, f.name);
    hyp.key("target");
    json::quoted(os, f.target);
    write_hop_json(hyp.key("hop"), f.hop);
    hyp.key("held") << (f.held ? "true" : "false");
    if (f.held) {
      json::number(hyp.key("first_held_start_us"), f.first_held_start_us);
      json::number(hyp.key("first_held_end_us"), f.first_held_end_us);
      json::number(hyp.key("peak"), f.peak);
      json::number(hyp.key("windows_held"), static_cast<double>(f.windows_held));
    }
    hyp.close();
  }
  os << "\n  ]";
}

void write_hop_json(std::ostream& os, int hop) {
  if (hop >= 0) {
    util::json::quoted(os, hop_name(hop));
  } else {
    os << "null";
  }
}

void write_profile_csv(std::ostream& os, const ProfileReport& report) {
  namespace json = util::json;
  os << "hop,chains,queue_total_us,queue_mean_us,queue_p50_us,queue_p99_us,"
        "service_total_us,service_mean_us,share\n";
  const double total_us = hop_total_us(report);
  for (int h = 0; h < kHopCount; ++h) {
    const HopStats& hs = report.hops[h];
    const double n = hs.count > 0 ? static_cast<double>(hs.count) : 1.0;
    const double hop_total = hs.queue_total_us + hs.service_total_us;
    os << hop_name(h) << ',' << hs.count << ',';
    json::number(os, hs.queue_total_us);
    os << ',';
    json::number(os, hs.queue_total_us / n);
    os << ',';
    json::number(os, hs.queue_us.percentile(0.50));
    os << ',';
    json::number(os, hs.queue_us.percentile(0.99));
    os << ',';
    json::number(os, hs.service_total_us);
    os << ',';
    json::number(os, hs.service_total_us / n);
    os << ',';
    json::number(os, total_us > 0.0 ? hop_total / total_us : 0.0);
    os << '\n';
  }
}

void write_profile_folded(std::ostream& os, const ProfileReport& report) {
  for (const auto& line : report.folded) {
    os << report.track_label(line.pid, line.track) << ';' << hop_name(line.hop) << ' '
       << static_cast<long long>(std::llround(line.us)) << '\n';
  }
}

}  // namespace paradyn::obs
