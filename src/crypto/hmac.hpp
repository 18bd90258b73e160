// HMAC-SHA256 (RFC 2104). Backbone of the PRF/PRG and of the simulated
// SNARK oracle's authentication tags.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "crypto/digest.hpp"

namespace srds {

/// HMAC-SHA256(key, data).
Digest hmac_sha256(BytesView key, BytesView data);

/// A fixed HMAC-SHA256 key, kept as its two precomputed midstates: the
/// SHA-256 chaining values after the ipad and opad blocks (64 bytes in all;
/// the key bytes are not retained). `mac(m)` equals `hmac_sha256(key, m)`
/// and skips the two key-block compressions every one-shot call repeats.
class HmacKey {
 public:
  explicit HmacKey(BytesView key);

  Digest mac(BytesView data) const;

 private:
  std::uint32_t inner_[8];
  std::uint32_t outer_[8];
};

}  // namespace srds
