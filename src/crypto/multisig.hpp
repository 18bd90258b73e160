// Simulated multi-signature scheme (stand-in for BLS-style multisigs).
//
// This module exists to implement the *baseline* protocol of Boyle,
// Goldwasser, Tessaro (TCC'13, "BGT'13") and to make the paper's §1.2
// observation measurable: a multi-signature itself is short, but *verifying*
// it requires the set of contributing signers, whose description is Θ(n)
// bits — the exact reason BGT'13-style boosting is stuck at Θ(n) per-party
// communication, and the gap SRDS closes.
//
// SUBSTITUTION NOTE (DESIGN.md S1-adjacent): no pairing library is available
// offline, so signatures here are symmetric-crypto stand-ins: party i's
// signature on m is HMAC(k_i, m) truncated to 48 bytes (the size of a BLS12-381
// G1 point), and the aggregate is the XOR of the constituent tags. A
// `MultisigRegistry` plays the role of the public parameters: it can verify an
// aggregate given the claimed signer set, just as a real verifier would pair
// against the aggregated public keys. The communication-relevant facts — a
// constant-size aggregate plus an n-bit signer bitmap — match the real scheme
// exactly.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/digest.hpp"
#include "crypto/hmac.hpp"

namespace srds {

/// Fixed-size aggregate tag (48 bytes, mimicking a G1 point).
struct MultisigTag {
  std::array<std::uint8_t, 48> v{};

  bool operator==(const MultisigTag&) const = default;
  void xor_in(const MultisigTag& other) {
    for (std::size_t i = 0; i < v.size(); ++i) v[i] ^= other.v[i];
  }
};

/// A multi-signature as it travels on the wire: constant-size tag plus the
/// Θ(n)-bit signer bitmap that verification requires.
struct Multisig {
  MultisigTag tag;
  std::vector<bool> signers;  // n bits

  /// Wire size in bytes: 48 + ceil(n/8) + 4. This is what the network
  /// simulator charges when a BGT'13-style protocol ships a multisig.
  std::size_t wire_size() const { return 48 + (signers.size() + 7) / 8 + 4; }

  Bytes serialize() const;
  static bool deserialize(BytesView data, Multisig& out);

  std::size_t signer_count() const;
};

/// Key registry standing in for the scheme's public parameters.
class MultisigRegistry {
 public:
  /// Create keys for `n` parties from a master seed.
  MultisigRegistry(std::size_t n, std::uint64_t seed);

  std::size_t n() const { return n_; }

  /// Party `i` signs `m` (the registry hands out per-party signing).
  MultisigTag sign(std::size_t i, BytesView m) const;

  /// Aggregate single-signer signatures into a multisig.
  static Multisig aggregate(std::size_t n, const std::vector<std::size_t>& signers,
                            const std::vector<MultisigTag>& tags);

  /// Combine two multisigs with disjoint signer sets; returns false on overlap.
  static bool merge(Multisig& into, const Multisig& other);

  /// Verify: recompute the expected XOR-aggregate over the claimed signer set.
  bool verify(BytesView m, const Multisig& sig) const;

 private:
  /// Party `i`'s tag on `m`, given `m2 = sha256_tagged("ms-2", m)`.
  MultisigTag tag(std::size_t i, BytesView m, const Digest& m2) const;

  std::size_t n_;
  std::vector<HmacKey> keys_;
};

}  // namespace srds
