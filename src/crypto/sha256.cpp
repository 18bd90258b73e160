#include "crypto/sha256.hpp"

#include <bit>
#include <cstring>

#include "crypto/sha256_detail.hpp"
#include "obs/prof.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define SRDS_SHA256_X86 1
#endif

namespace srds {

namespace sha256_detail {

namespace {

alignas(16) constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

// Whole-word big-endian stores: byte-at-a-time stores defeat store-to-load
// forwarding when the kernel reads the block back with 16-byte loads.
inline void store_be32(std::uint8_t* p, std::uint32_t v) {
  if constexpr (std::endian::native == std::endian::little) v = __builtin_bswap32(v);
  std::memcpy(p, &v, sizeof v);
}

inline void store_be64(std::uint8_t* p, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) v = __builtin_bswap64(v);
  std::memcpy(p, &v, sizeof v);
}

#ifdef SRDS_SHA256_X86

// srds-lint: hotpath(compress_shani) — every SHA-256 block on SHA-NI hosts;
// registers only, no allocation.
//
// Four rounds per step: SHA256RNDS2 runs two rounds on the (ABEF, CDGH)
// register pair, so each step issues it twice on the message words plus
// round constants. SHA256MSG1/MSG2 extend the schedule four words at a time,
// kept in a ring of four registers.
__attribute__((target("sha,sse4.1"))) void compress_shani(std::uint32_t state[8],
                                                          const std::uint8_t* blocks,
                                                          std::size_t nblocks) {
  // Byte-swap each 32-bit word: the message is big-endian.
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  // state[] is A..H; the instructions want ABEF and CDGH (high lane first).
  __m128i tmp = _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state)),
                                  0xB1);  // CDAB
  __m128i cdgh =
      _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);

  for (; nblocks > 0; --nblocks, blocks += 64) {
    const __m128i abef_save = abef;
    const __m128i cdgh_save = cdgh;
    __m128i w[4];
    for (std::size_t i = 0; i < 4; ++i) {
      w[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)), bswap);
    }
#pragma GCC unroll 16
    for (std::size_t g = 0; g < 16; ++g) {
      __m128i msg =
          _mm_add_epi32(w[g & 3], _mm_load_si128(reinterpret_cast<const __m128i*>(kK + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(msg, 0x0E));
      if (g >= 3 && g <= 14) {  // words 4(g+1) .. 4(g+1)+3
        __m128i& next = w[(g + 1) & 3];
        next = _mm_add_epi32(next, _mm_alignr_epi8(w[g & 3], w[(g - 1) & 3], 4));
        next = _mm_sha256msg2_epu32(next, w[g & 3]);
      }
      if (g >= 1 && g <= 12) w[(g - 1) & 3] = _mm_sha256msg1_epu32(w[(g - 1) & 3], w[g & 3]);
    }
    abef = _mm_add_epi32(abef, abef_save);
    cdgh = _mm_add_epi32(cdgh, cdgh_save);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);    // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);   // DCHG
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(tmp, cdgh, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(cdgh, tmp, 8));
}

#endif  // SRDS_SHA256_X86

CompressFn pick_compress() {
  CompressFn shani = shani_compress();
  return shani != nullptr ? shani : &compress_scalar;
}

}  // namespace

// srds-lint: hotpath(compress_scalar) — every SHA-256 block on hosts without
// SHA-NI; stack only, no allocation.
void compress_scalar(std::uint32_t state[8], const std::uint8_t* blocks, std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, blocks += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(blocks[4 * i]) << 24) |
             (static_cast<std::uint32_t>(blocks[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(blocks[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      std::uint32_t ch = (e & f) ^ (~e & g);
      std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

CompressFn shani_compress() {
#ifdef SRDS_SHA256_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1")) return &compress_shani;
#endif
  return nullptr;
}

CompressFn dispatched_compress() {
  static const CompressFn kernel = pick_compress();
  return kernel;
}

Sha256 sha256_with(CompressFn kernel) { return Sha256(kernel); }

}  // namespace sha256_detail

Sha256::Sha256() : Sha256(sha256_detail::dispatched_compress()) {}

Sha256::Sha256(sha256_detail::CompressFn kernel) : compress_(kernel) {
  std::memcpy(h_, sha256_detail::kInitState, sizeof h_);
}

Sha256::Sha256(const std::uint32_t (&midstate)[8], std::uint64_t prefix_len)
    : compress_(sha256_detail::dispatched_compress()), total_len_(prefix_len) {
  std::memcpy(h_, midstate, sizeof h_);
}

Sha256& Sha256::update(BytesView data) {
  total_len_ += data.size();
  std::size_t off = 0;
  if (buf_len_ > 0) {
    std::size_t need = 64 - buf_len_;
    std::size_t take = data.size() < need ? data.size() : need;
    std::memcpy(buf_ + buf_len_, data.data(), take);
    buf_len_ += take;
    off += take;
    if (buf_len_ == 64) {
      compress_(h_, buf_, 1);
      buf_len_ = 0;
    }
  }
  if (std::size_t full = (data.size() - off) / 64; full > 0) {
    compress_(h_, data.data() + off, full);
    off += 64 * full;
  }
  if (off < data.size()) {
    std::memcpy(buf_, data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
  return *this;
}

Sha256& Sha256::update(const char* s) {
  return update(BytesView{reinterpret_cast<const std::uint8_t*>(s), std::strlen(s)});
}

Digest Sha256::finish() {
  const std::uint64_t bit_len = total_len_ * 8;
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > 56) {  // no room for the length field: spill to a second block
    std::memset(buf_ + buf_len_, 0, 64 - buf_len_);
    compress_(h_, buf_, 1);
    buf_len_ = 0;
  }
  std::memset(buf_ + buf_len_, 0, 56 - buf_len_);
  sha256_detail::store_be64(buf_ + 56, bit_len);
  compress_(h_, buf_, 1);

  Digest d;
  for (std::size_t i = 0; i < 8; ++i) sha256_detail::store_be32(d.v.data() + 4 * i, h_[i]);
  return d;
}

Digest sha256(BytesView data) {
  PROF_SCOPE(obs::ProfSiteId::kCryptoSha256);
  return Sha256().update(data).finish();
}

Digest sha256_tagged(const char* tag, BytesView data) {
  PROF_SCOPE(obs::ProfSiteId::kCryptoSha256);
  Sha256 ctx;
  std::uint8_t tag_len = static_cast<std::uint8_t>(std::strlen(tag));
  ctx.update(BytesView{&tag_len, 1});
  ctx.update(tag);
  ctx.update(data);
  return ctx.finish();
}

Digest sha256_pair(const Digest& a, const Digest& b) {
  PROF_SCOPE(obs::ProfSiteId::kCryptoSha256);
  Sha256 ctx;
  ctx.update(a.view());
  ctx.update(b.view());
  return ctx.finish();
}

}  // namespace srds
