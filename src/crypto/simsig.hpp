// Registry-based many-time signature stand-in ("SimSig").
//
// Committee sub-protocols (Dolev-Strong broadcast, coin tossing) need
// ordinary many-time signatures. A hash-based many-time scheme (e.g., full
// XMSS) would add large code and signature weight without changing any
// measured quantity, so — consistent with DESIGN.md substitutions — committee
// authentication uses a symmetric stand-in: party i's signature on m is
// HMAC(k_i, m) (32 bytes, the size of a short Schnorr/EdDSA signature), and
// verification goes through a `SimSigRegistry` holding all keys, playing the
// role of public keys. Soundness against our adversaries holds because the
// adversary interface exposes `sign` only for corrupted parties.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/digest.hpp"
#include "crypto/hmac.hpp"

namespace srds {

/// A 32-byte signature tag.
using SimSig = Digest;

class SimSigRegistry {
 public:
  SimSigRegistry(std::size_t n, std::uint64_t seed);

  std::size_t n() const { return n_; }

  SimSig sign(std::size_t signer, BytesView message) const;
  bool verify(std::size_t signer, BytesView message, const SimSig& sig) const;

 private:
  std::size_t n_;
  std::vector<HmacKey> keys_;
};

/// Shared handle: committee protocols take this so one registry serves a
/// whole simulation.
using SimSigRegistryPtr = std::shared_ptr<const SimSigRegistry>;

}  // namespace srds
