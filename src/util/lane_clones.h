#pragma once

// Per-ISA clones for the fixed 16-lane loops of the APD fan-out
// kernel (ipv6::Prefix::fanout_addresses, the Feistel inversions in
// netsim). Those loops carry no lane-dependent control flow, so they
// vectorize; a function marked V6H_LANE_CLONES is compiled once per
// ISA and the best clone for the running CPU is picked at load time.
// With GCC, the x86-64-v4 (AVX-512) clone has a native 64-bit
// multiply for splitmix64 and the AVX2 clone synthesizes it from
// 32-bit lanes; Clang gets the AVX2 clone the probe kernel also uses.
// The loops are integer-only, so every clone is bit-identical.

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define V6H_LANE_CLONES \
  __attribute__((target_clones("arch=x86-64-v4", "avx2", "default")))
#elif defined(__x86_64__) && defined(__GNUC__)
#define V6H_LANE_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define V6H_LANE_CLONES
#endif
