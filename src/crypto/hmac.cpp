#include "crypto/hmac.hpp"

#include <cstring>

#include "crypto/sha256.hpp"
#include "crypto/sha256_detail.hpp"
#include "obs/prof.hpp"

namespace srds {

namespace {

void midstates(BytesView key, std::uint32_t (&inner)[8], std::uint32_t (&outer)[8]) {
  std::uint8_t k[64] = {0};
  if (key.size() > 64) {
    Digest kd = Sha256().update(key).finish();
    std::memcpy(k, kd.v.data(), 32);
  } else if (!key.empty()) {
    std::memcpy(k, key.data(), key.size());
  }

  std::uint8_t ipad[64], opad[64];
  for (int i = 0; i < 64; ++i) {
    ipad[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
  }

  const sha256_detail::CompressFn compress = sha256_detail::dispatched_compress();
  std::memcpy(inner, sha256_detail::kInitState, sizeof inner);
  std::memcpy(outer, sha256_detail::kInitState, sizeof outer);
  compress(inner, ipad, 1);
  compress(outer, opad, 1);
}

Digest mac_from(const std::uint32_t (&inner)[8], const std::uint32_t (&outer)[8],
                BytesView data) {
  Digest inner_d = Sha256(inner, 64).update(data).finish();
  return Sha256(outer, 64).update(inner_d.view()).finish();
}

}  // namespace

Digest hmac_sha256(BytesView key, BytesView data) {
  PROF_SCOPE(obs::ProfSiteId::kCryptoSha256);
  std::uint32_t inner[8], outer[8];
  midstates(key, inner, outer);
  return mac_from(inner, outer, data);
}

HmacKey::HmacKey(BytesView key) {
  PROF_SCOPE(obs::ProfSiteId::kCryptoSha256);
  midstates(key, inner_, outer_);
}

// srds-lint: hotpath(HmacKey::mac) — every simulated signature and multisig
// share; two midstate resumes on the stack, no allocation.
Digest HmacKey::mac(BytesView data) const {
  PROF_SCOPE(obs::ProfSiteId::kCryptoSha256);
  return mac_from(inner_, outer_, data);
}

}  // namespace srds
