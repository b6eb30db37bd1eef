#pragma once

// Per-ISA clones for the dense integer loops of the fan-out and scan
// kernels. A function marked with one of these macros is compiled
// once per ISA and the best clone for the running CPU is picked at
// load time. The loops are integer-only (plus exactly-rounded double
// operations in the scan kernel), so every clone is bit-identical to
// the others and to the scalar path on any CPU.
//
// V6H_LANE_CLONES: the fixed 16-lane loops of the APD fan-out kernel
// (ipv6::Prefix::fanout_addresses, the Feistel inversions in netsim).
// Those loops carry no lane-dependent control flow, so they
// vectorize. With GCC, the x86-64-v4 (AVX-512) clone has a native
// 64-bit multiply for splitmix64 and the AVX2 clone synthesizes it
// from 32-bit lanes; Clang gets the AVX2 clone only.
//
// V6H_PROBE_KERNEL_CLONES: the scan kernel's tiled mask sweep
// (netsim/probe_kernel.cpp), an AVX2 clone and the baseline encoding.
//
// Both are empty under ThreadSanitizer: GCC dispatches a clone set
// through an IFUNC resolver, which the dynamic loader runs before the
// TSan runtime is initialised, and the instrumented resolver crashes
// the process at startup. A TSan build runs the baseline encoding.
// GCC announces TSan with __SANITIZE_THREAD__, Clang through
// __has_feature.

#if defined(__SANITIZE_THREAD__)
#define V6H_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define V6H_TSAN_BUILD 1
#endif
#endif

#if defined(V6H_TSAN_BUILD)
#define V6H_LANE_CLONES
#define V6H_PROBE_KERNEL_CLONES
#elif defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define V6H_LANE_CLONES \
  __attribute__((target_clones("arch=x86-64-v4", "avx2", "default")))
#define V6H_PROBE_KERNEL_CLONES \
  __attribute__((target_clones("avx2", "default")))
#elif defined(__x86_64__) && defined(__GNUC__)
#define V6H_LANE_CLONES __attribute__((target_clones("avx2", "default")))
#define V6H_PROBE_KERNEL_CLONES \
  __attribute__((target_clones("avx2", "default")))
#else
#define V6H_LANE_CLONES
#define V6H_PROBE_KERNEL_CLONES
#endif
