// Bucket choice for sharded tables keyed by block or page index.
#pragma once

#include <cstddef>
#include <cstdint>

namespace labstor {

// Multiplicative (Fibonacci) hashing: the top 32 bits of
// key * 2^64/phi, scaled to [0, buckets). `key % buckets` sends keys
// a multiple of `buckets` apart to one bucket, and with power-of-two
// device and log sizes the per-worker allocator pools and log slots
// start a multiple of 16 blocks apart.
// `buckets` must be in [1, 2^32].
inline size_t HashBucket(uint64_t key, size_t buckets) {
  const uint64_t high = (key * 0x9E3779B97F4A7C15ULL) >> 32;
  return static_cast<size_t>((high * buckets) >> 32);
}

}  // namespace labstor
