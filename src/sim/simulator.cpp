#include "sim/simulator.h"

#include <cassert>

namespace marea::sim {

void Simulator::cancel(TimerId id) {
  if (id != kInvalidTimer) wheel_.cancel(id);
}

bool Simulator::pop_one(TimePoint limit) {
  if (!wheel_.prime(limit)) return false;
  const TimePoint t = wheel_.top_time();
  assert(t >= now_);
  now_ = t;
  wheel_.run_top();
  return true;
}

bool Simulator::step() { return pop_one(TimePoint{kDurationInfinite.ns}); }

void Simulator::run_until(TimePoint t) {
  while (pop_one(t)) {
  }
  if (now_ < t) now_ = t;
}

void Simulator::run(uint64_t safety_cap) {
  uint64_t n = 0;
  while (n < safety_cap && pop_one(TimePoint{kDurationInfinite.ns})) ++n;
}

}  // namespace marea::sim
