#include "rocc/background.hpp"

#include <stdexcept>

namespace paradyn::rocc {

OpenArrivalStream::OpenArrivalStream(des::Engine& engine, stats::DistributionPtr interarrival,
                                     stats::DistributionPtr length, ProcessClass pclass,
                                     CpuResource* cpu, NetworkResource* network,
                                     des::RngStream rng, std::int32_t node)
    : engine_(engine), pclass_(pclass), cpu_(cpu), network_(network), rng_(rng), node_(node) {
  if ((cpu_ == nullptr) == (network_ == nullptr)) {
    throw std::invalid_argument("OpenArrivalStream: exactly one target resource required");
  }
  if (!interarrival || !length) {
    throw std::invalid_argument("OpenArrivalStream: distributions required");
  }
  interarrival_ = stats::FrozenSampler::compile(interarrival);
  length_ = stats::FrozenSampler::compile(length);
}

void OpenArrivalStream::start() {
  engine_.schedule_after(interarrival_(rng_), [this] { on_arrival(); });
}

void OpenArrivalStream::on_arrival() {
  const double len = length_(rng_);
  if (cpu_ != nullptr) {
    cpu_->submit(CpuRequest{len, pclass_, nullptr});
  } else {
    network_->submit(NetRequest{len, pclass_, node_, nullptr});
  }
  engine_.schedule_after(interarrival_(rng_), [this] { on_arrival(); });
}

}  // namespace paradyn::rocc
