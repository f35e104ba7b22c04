// Software prefetch that the optimizer keeps.
//
// GCC models __builtin_prefetch as writing no memory, so a function whose
// only effect is prefetching is "looping pure" to it, and at -O2 it
// deletes every call whose result goes unused. An asm volatile statement
// is never deleted. scripts/ci.sh checks the built objects for the
// instructions.
#pragma once

namespace colibri::dataplane {

// Into every cache level: lines the next stage reads (the gateway's table
// entries).
inline void prefetch_t0(const void* p) {
#if defined(__x86_64__)
  asm volatile("prefetcht0 %0" : : "m"(*static_cast<const char*>(p)));
#else
  __builtin_prefetch(p, 0, 3);
#endif
}

// Into the outer cache levels only: many scattered words of which the
// next stage reads some (the dupsup filter probes).
inline void prefetch_t2(const void* p) {
#if defined(__x86_64__)
  asm volatile("prefetcht2 %0" : : "m"(*static_cast<const char*>(p)));
#else
  __builtin_prefetch(p, 0, 1);
#endif
}

}  // namespace colibri::dataplane
