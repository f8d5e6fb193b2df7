// Process-wide heap accounting for the JSON benches (bench_hotpath,
// bench_live, bench_gateway). alloc_count.cpp replaces the global
// operator new/delete, so every heap allocation the process makes — on
// any thread, including std::function captures and container rehashes —
// lands in these counters: the honest denominator for "allocs per
// sample". Link alloc_count.cpp into the executable itself.
#pragma once

#include <cstdint>

namespace marea::bench {

uint64_t heap_allocs();  // operator new calls so far
uint64_t heap_bytes();   // bytes requested by those calls

}  // namespace marea::bench
