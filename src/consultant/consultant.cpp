#include "consultant/consultant.hpp"

#include <algorithm>
#include <cmath>

namespace paradyn::consultant {

const char* to_string(Hypothesis h) noexcept {
  switch (h) {
    case Hypothesis::CpuBound:
      return "CPUBound";
    case Hypothesis::CommunicationBound:
      return "CommunicationBound";
    case Hypothesis::SyncWaiting:
      return "SyncWaiting";
  }
  return "?";
}

std::string Focus::describe() const {
  if (whole_program) return "whole program";
  if (process < 0) return "node " + std::to_string(node);
  return "node " + std::to_string(node) + " / process " + std::to_string(process);
}

PerformanceConsultant::PerformanceConsultant(ConsultantConfig config)
    : config_(std::move(config)) {}

void PerformanceConsultant::Window::push(double cpu_frac, double comm_frac,
                                         std::size_t capacity) {
  if (cpu.size() < capacity) {
    cpu.push_back(cpu_frac);
    comm.push_back(comm_frac);
  } else {
    cpu[next] = cpu_frac;
    comm[next] = comm_frac;
    next = (next + 1) % capacity;
  }
  filled = cpu.size();
}

double PerformanceConsultant::Window::mean_cpu() const {
  if (cpu.empty()) return 0.0;
  double acc = 0.0;
  for (const double v : cpu) acc += v;
  return acc / static_cast<double>(cpu.size());
}

double PerformanceConsultant::Window::mean_comm() const {
  if (comm.empty()) return 0.0;
  double acc = 0.0;
  for (const double v : comm) acc += v;
  return acc / static_cast<double>(comm.size());
}

std::vector<Finding> PerformanceConsultant::search_and_record() {
  auto findings = search();
  for (const auto& f : findings) {
    Episode* existing = nullptr;
    for (auto& e : history_) {
      if (e.hypothesis == f.hypothesis && e.focus.whole_program == f.focus.whole_program &&
          e.focus.node == f.focus.node && e.focus.process == f.focus.process) {
        existing = &e;
        break;
      }
    }
    if (existing == nullptr) {
      Episode e;
      e.hypothesis = f.hypothesis;
      e.focus = f.focus;
      e.first_confirmed_us = now_us_;
      e.last_confirmed_us = now_us_;
      e.confirmations = 1;
      history_.push_back(e);
    } else {
      existing->last_confirmed_us = now_us_;
      ++existing->confirmations;
    }
  }
  return findings;
}

void PerformanceConsultant::observe(const rocc::Sample& sample) {
  now_us_ = std::max(now_us_, sample.generated_at);
  // Clamp against scheduling jitter: a burst completing right after a tick
  // can report a fraction slightly above 1.
  const double cpu = std::clamp(sample.cpu_fraction, 0.0, 1.0);
  const double comm = std::clamp(sample.comm_fraction, 0.0, 1.0);
  per_node_[sample.node].push(cpu, comm, config_.window);
  per_process_[{sample.node, sample.app_index}].push(cpu, comm, config_.window);
  global_.push(cpu, comm, config_.window * std::max<std::size_t>(per_node_.size(), 1));
  ++observed_;
}

double PerformanceConsultant::metric_of(const Window& w, Hypothesis h) const {
  switch (h) {
    case Hypothesis::CpuBound:
      return w.mean_cpu();
    case Hypothesis::CommunicationBound:
      return w.mean_comm();
    case Hypothesis::SyncWaiting:
      return std::max(0.0, 1.0 - w.mean_cpu() - w.mean_comm());
  }
  return 0.0;
}

double PerformanceConsultant::threshold_of(Hypothesis h) const {
  switch (h) {
    case Hypothesis::CpuBound:
      return config_.cpu_bound_threshold;
    case Hypothesis::CommunicationBound:
      return config_.comm_bound_threshold;
    case Hypothesis::SyncWaiting:
      return config_.sync_waiting_threshold;
  }
  return 1.0;
}

double PerformanceConsultant::node_mean(Hypothesis h, std::int32_t node) const {
  const auto it = per_node_.find(node);
  if (it == per_node_.end()) return 0.0;
  return metric_of(it->second, h);
}

std::vector<std::int32_t> PerformanceConsultant::known_nodes() const {
  std::vector<std::int32_t> nodes;
  nodes.reserve(per_node_.size());
  for (const auto& [node, window] : per_node_) nodes.push_back(node);
  return nodes;
}

std::vector<Finding> PerformanceConsultant::search() const {
  std::vector<Finding> findings;
  if (global_.filled < config_.min_samples) return findings;

  for (const Hypothesis h : {Hypothesis::CpuBound, Hypothesis::CommunicationBound,
                             Hypothesis::SyncWaiting}) {
    const double global = metric_of(global_, h);
    const double threshold = threshold_of(h);
    const bool global_true = global >= threshold;
    if (global_true) {
      Finding f;
      f.hypothesis = h;
      f.focus = Focus{true, -1};
      f.observed = global;
      f.threshold = threshold;
      f.samples = global_.filled;
      findings.push_back(f);
    }

    // "Where" refinement: per-node foci that exceed the threshold and
    // stand out from the global mean.  Run even when the global test is
    // false — a single hot node can hide in the whole-program average
    // (exactly why W3 refines along the resource hierarchy).
    std::vector<Finding> refined;
    for (const auto& [node, window] : per_node_) {
      if (window.filled < config_.min_samples) continue;
      const double value = metric_of(window, h);
      if (value >= threshold && value >= global + config_.refinement_margin) {
        Finding f;
        f.hypothesis = h;
        f.focus = Focus{false, node, -1};
        f.observed = value;
        f.threshold = threshold;
        f.samples = window.filled;
        refined.push_back(f);

        // Second refinement level: processes on the flagged node that
        // stand out from their node's mean (only meaningful when the node
        // hosts more than one instrumented process).
        std::size_t processes_on_node = 0;
        for (const auto& [key, pw] : per_process_) {
          if (key.first == node) ++processes_on_node;
        }
        if (processes_on_node > 1) {
          for (const auto& [key, pw] : per_process_) {
            if (key.first != node || pw.filled < config_.min_samples) continue;
            const double pv = metric_of(pw, h);
            if (pv >= threshold && pv >= value + config_.refinement_margin) {
              Finding pf;
              pf.hypothesis = h;
              pf.focus = Focus{false, node, key.second};
              pf.observed = pv;
              pf.threshold = threshold;
              pf.samples = pw.filled;
              refined.push_back(pf);
            }
          }
        }
      }
    }
    std::sort(refined.begin(), refined.end(),
              [](const Finding& a, const Finding& b) { return a.observed > b.observed; });
    findings.insert(findings.end(), refined.begin(), refined.end());
  }
  return findings;
}

}  // namespace paradyn::consultant
