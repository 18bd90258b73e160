// Internal to src/crypto: the SHA-256 compression kernels behind `Sha256`.
//
// Two kernels compute the same function. The portable scalar one is the
// reference and the path for hosts without the x86 SHA extensions; the
// SHA-NI one is compiled only for x86 targets and chosen once per process by
// `dispatched_compress()` when the CPU reports the `sha` feature. Production
// code never picks a kernel itself: `Sha256` binds the dispatched one. The
// only other caller of the per-kernel entry points is the cross-check suite
// (tests/crypto_test.cpp), which runs both kernels side by side.
#pragma once

#include <cstddef>
#include <cstdint>

#include "crypto/sha256.hpp"

namespace srds::sha256_detail {

/// FIPS 180-4 initial chaining value H(0).
inline constexpr std::uint32_t kInitState[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                                0xa54ff53a, 0x510e527f, 0x9b05688c,
                                                0x1f83d9ab, 0x5be0cd19};

/// FIPS 180-4 reference kernel: compress `nblocks` consecutive 64-byte
/// blocks into the chaining value.
void compress_scalar(std::uint32_t state[8], const std::uint8_t* blocks, std::size_t nblocks);

/// SHA-NI kernel, or nullptr when this build or this CPU has no SHA-NI.
CompressFn shani_compress();

/// The kernel `Sha256` uses: SHA-NI when available, otherwise scalar.
CompressFn dispatched_compress();

/// A fresh context bound to `kernel` instead of the dispatched one
/// (defined in sha256.cpp; `Sha256` befriends it).
Sha256 sha256_with(CompressFn kernel);

}  // namespace srds::sha256_detail
