#include "serve/traffic.hpp"

#include <cmath>

#include "common/check.hpp"

namespace swatop::serve {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  // Run the seed through splitmix64 so nearby seeds (1, 2, 3...) land in
  // unrelated parts of the xorshift sequence; never allow the all-zero
  // state.
  std::uint64_t s = seed;
  s_ = splitmix64(s);
  if (s_ == 0) s_ = 0x9e3779b97f4a7c15ull;
}

std::uint64_t Rng::next_u64() {
  std::uint64_t x = s_;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  s_ = x;
  return x * 0x2545f4914f6cdd1dull;
}

double Rng::next_double() {
  // Top 53 bits -> [0, 1); exact and platform-independent.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::next_exponential(double rate) {
  SWATOP_CHECK(rate > 0.0) << "exponential rate " << rate;
  // -log(1 - u): u < 1 always, so the log argument is never 0.
  return -std::log(1.0 - next_double()) / rate;
}

std::size_t Rng::next_weighted(const std::vector<double>& weights) {
  SWATOP_CHECK(!weights.empty()) << "weighted draw from an empty vector";
  double total = 0.0;
  for (double w : weights) {
    SWATOP_CHECK(w >= 0.0) << "negative weight " << w;
    total += w;
  }
  SWATOP_CHECK(total > 0.0) << "weighted draw with all-zero weights";
  double u = next_double() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    u -= weights[i];
    if (u < 0.0) return i;
  }
  return weights.size() - 1;  // u landed exactly on the total
}

const char* arrival_pattern_name(ArrivalPattern p) {
  switch (p) {
    case ArrivalPattern::Poisson: return "poisson";
    case ArrivalPattern::Bursty: return "bursty";
  }
  return "?";
}

std::vector<Request> generate_trace(const TrafficConfig& cfg) {
  SWATOP_CHECK(!cfg.mix.empty()) << "traffic mix is empty";
  SWATOP_CHECK(cfg.rate_rps > 0.0) << "rate " << cfg.rate_rps << " rps";
  SWATOP_CHECK(cfg.duration_s > 0.0) << "duration " << cfg.duration_s;
  SWATOP_CHECK(!cfg.sizes.empty() &&
               cfg.sizes.size() == cfg.size_weights.size())
      << "sizes/size_weights mismatch: " << cfg.sizes.size() << " vs "
      << cfg.size_weights.size();
  for (std::int64_t s : cfg.sizes)
    SWATOP_CHECK(s >= 1) << "request batch size " << s;
  if (cfg.pattern == ArrivalPattern::Bursty) {
    SWATOP_CHECK(cfg.burst_factor >= 1.0)
        << "burst factor " << cfg.burst_factor;
    SWATOP_CHECK(cfg.burst_fraction >= 0.0 && cfg.burst_fraction <= 1.0)
        << "burst fraction " << cfg.burst_fraction;
    SWATOP_CHECK(cfg.burst_period_s > 0.0)
        << "burst period " << cfg.burst_period_s;
  }

  std::vector<double> mix_weights;
  mix_weights.reserve(cfg.mix.size());
  for (const NetMix& m : cfg.mix) mix_weights.push_back(m.weight);

  Rng rng(cfg.seed);
  std::vector<Request> trace;
  // The expected arrival count plus four standard deviations of a Poisson
  // count, so a long trace is built without regrowing (and copying) its
  // storage.
  double mean_rate = cfg.rate_rps;
  if (cfg.pattern == ArrivalPattern::Bursty)
    mean_rate *= 1.0 + (cfg.burst_factor - 1.0) * cfg.burst_fraction;
  const double expected = mean_rate * cfg.duration_s;
  trace.reserve(static_cast<std::size_t>(expected + 4.0 * std::sqrt(expected)) +
                16);
  const double horizon_us = cfg.duration_s * 1e6;
  double t_us = 0.0;
  while (true) {
    // Instantaneous rate at the current time (requests per microsecond).
    double rate_rps = cfg.rate_rps;
    if (cfg.pattern == ArrivalPattern::Bursty) {
      const double period_us = cfg.burst_period_s * 1e6;
      const double phase = std::fmod(t_us, period_us) / period_us;
      if (phase < cfg.burst_fraction) rate_rps *= cfg.burst_factor;
    }
    // Thinning would be exact for the inhomogeneous process; stepping the
    // rate at the draw point is a deliberate simplification -- the traces
    // stay bursty, deterministic and cheap, which is all the serving
    // simulator needs.
    t_us += rng.next_exponential(rate_rps / 1e6);
    if (t_us >= horizon_us) break;

    const NetMix& m = cfg.mix[rng.next_weighted(mix_weights)];
    const std::size_t si = rng.next_weighted(cfg.size_weights);
    Request r;
    r.id = static_cast<std::int64_t>(trace.size());
    r.net = m.net;
    r.images = cfg.sizes[si];
    r.arrival_us = t_us;
    r.slo_us = m.slo_ms * 1e3;
    trace.push_back(std::move(r));
  }
  return trace;
}

}  // namespace swatop::serve
