// SHA-256 (FIPS 180-4), implemented from scratch — this project has no
// external crypto dependencies. Serves as the collision-resistant hash (CRH)
// assumed by the SNARK-based SRDS construction, and as the base primitive for
// HMAC, the PRF/PRG, Merkle trees and Lamport signatures.
//
// The compression function runs on the x86 SHA extensions (SHA-NI) where the
// CPU has them and on a portable scalar kernel otherwise; both give the same
// bytes (crypto/sha256_detail.hpp, cross-checked in tests/crypto_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/bytes.hpp"
#include "crypto/digest.hpp"

namespace srds {

class Sha256;

namespace sha256_detail {
using CompressFn = void (*)(std::uint32_t state[8], const std::uint8_t* blocks,
                            std::size_t nblocks);
Sha256 sha256_with(CompressFn kernel);
}  // namespace sha256_detail

/// Incremental SHA-256 context.
class Sha256 {
 public:
  Sha256();

  /// Resume from the chaining value reached after `prefix_len` bytes, which
  /// must be a whole number of 64-byte blocks (HMAC's ipad/opad midstates).
  Sha256(const std::uint32_t (&midstate)[8], std::uint64_t prefix_len);

  Sha256& update(BytesView data);
  Sha256& update(const char* s);  // convenience for domain-separation tags

  /// Finalize and return the digest. The context must not be reused after.
  Digest finish();

 private:
  friend Sha256 sha256_detail::sha256_with(sha256_detail::CompressFn kernel);
  explicit Sha256(sha256_detail::CompressFn kernel);

  sha256_detail::CompressFn compress_;
  std::uint32_t h_[8];
  std::uint8_t buf_[64];
  std::size_t buf_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// One-shot SHA-256.
Digest sha256(BytesView data);

/// Domain-separated hash: SHA-256(tag-length || tag || data).
Digest sha256_tagged(const char* tag, BytesView data);

/// Hash of the concatenation of two digests (Merkle interior node style).
Digest sha256_pair(const Digest& a, const Digest& b);

}  // namespace srds
