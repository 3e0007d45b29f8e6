// The unit of work of the serving front-end: one inference request for a
// named network at a requested image count, stamped with its simulated
// arrival time and the latency SLO its client expects.
//
// Serving time is *simulated* microseconds: chip execution times come from
// the cycle simulator (cycles / clock), arrival times from the synthetic
// traffic generators (serve/traffic.hpp). Nothing on the serving path reads
// a wall clock, which is what makes a whole serving run byte-identical for
// a fixed seed (see DESIGN §6, determinism contract).
#pragma once

#include <cstdint>
#include <string>

namespace swatop::serve {

struct Request {
  std::int64_t id = 0;
  std::string net;           ///< graph::build_net name ("vgg16", ...)
  std::int64_t images = 1;   ///< requested batch size
  double arrival_us = 0.0;   ///< simulated arrival time
  double slo_us = 0.0;       ///< latency SLO; deadline = arrival + slo

  double deadline_us() const { return arrival_us + slo_us; }
};

/// What happened to a request. Every offered request ends in exactly one of
/// these states -- the server never drops work silently.
enum class Outcome : std::uint8_t {
  Completed,  ///< all images served; latency = finish - arrival
  Rejected,   ///< admission control refused it on arrival (SLO infeasible)
  Shed,       ///< dropped later, when its deadline became unreachable
};

const char* outcome_name(Outcome o);

/// Per-request ledger entry the server keeps for reporting: what happened
/// to one request of the trace it served (the request itself stays in the
/// caller's trace). While the request is in flight the server keeps its
/// running state here: `finish_us` is the latest finish among its
/// dispatched parts and `wasted_us` their chip-time share.
struct RequestRecord {
  double finish_us = 0.0;  ///< completion (or shed/reject) time
  /// Chip-microseconds spent on parts of a request that was later shed
  /// (split requests only); reported as wasted work, never hidden.
  double wasted_us = 0.0;
  Outcome outcome = Outcome::Completed;

  /// Latency of a completed request.
  double latency_us(const Request& r) const { return finish_us - r.arrival_us; }
};

inline const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::Completed: return "completed";
    case Outcome::Rejected: return "rejected";
    case Outcome::Shed: return "shed";
  }
  return "?";
}

}  // namespace swatop::serve
