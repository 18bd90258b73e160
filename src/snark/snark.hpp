// Simulated SNARK / proof-carrying-data (PCD) system.
//
// The paper's bare-PKI SRDS construction (Theorem 2.8) relies on SNARKs with
// linear extraction, recursively composed into a PCD system over the
// O(log n / log log n)-depth communication tree (via Bitansky et al., STOC'13).
// No proving backend exists offline, so — per DESIGN.md substitution S1 — we
// implement a *designated-oracle* simulation that preserves every property
// the distributed protocol and the experiments observe:
//
//   * succinctness  — proofs are a fixed 64 bytes regardless of witness size
//                     or recursion depth (this is what the communication
//                     measurements depend on);
//   * completeness  — Prove() succeeds exactly when the compliance predicate
//                     accepts the (statement, witness, prior-proof) triple;
//   * soundness     — proofs are HMAC tags under a trapdoor key held inside
//                     `SnarkOracle`. Parties and adversaries only receive
//                     `ProverHandle` / `VerifierHandle` capabilities, so no
//                     protocol participant can mint a tag for a statement
//                     whose predicate it did not satisfy;
//   * recursion     — Prove() takes prior proofs and verifies them before
//                     issuing a new tag, mirroring PCD compliance.
//
// The trapdoor key corresponds to the SNARK's structured reference string
// generation; the oracle object is the analogue of "the CRS was honestly
// sampled". An adversary breaking our simulation would need to forge HMAC,
// which is outside the simulated adversary's interface — mirroring how a real
// SNARK adversary would need to break the knowledge assumption.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/digest.hpp"
#include "crypto/hmac.hpp"

namespace srds {

/// A succinct proof: constant 64 bytes.
struct SnarkProof {
  std::array<std::uint8_t, 64> v{};

  bool operator==(const SnarkProof&) const = default;

  Bytes to_bytes() const { return Bytes(v.begin(), v.end()); }
  static SnarkProof from(BytesView b);
  static constexpr std::size_t kSize = 64;
};

/// One edge of a PCD transcript: a statement proven earlier plus its proof.
struct PriorMessage {
  Bytes statement;
  SnarkProof proof;
};

/// Compliance predicate C(statement, witness, priors): does `statement`
/// follow from local witness data and the previously-proven statements?
using CompliancePredicate =
    std::function<bool(BytesView statement, BytesView witness,
                       const std::vector<PriorMessage>& priors)>;

class SnarkOracle;

/// Capability to verify proofs for one predicate. Freely copyable; safe to
/// hand to adversaries.
class VerifierHandle {
 public:
  bool verify(BytesView statement, const SnarkProof& proof) const;

 private:
  friend class SnarkOracle;
  friend class ProverHandle;
  VerifierHandle(std::shared_ptr<const HmacKey> key, std::uint64_t predicate_id)
      : key_(std::move(key)), predicate_id_(predicate_id) {}

  std::shared_ptr<const HmacKey> key_;
  std::uint64_t predicate_id_;
};

/// Capability to produce proofs for one predicate. Prove() enforces the
/// predicate — a holder cannot obtain a proof for a false statement.
class ProverHandle {
 public:
  /// Returns a proof iff the predicate accepts; std::nullopt otherwise.
  std::optional<SnarkProof> prove(BytesView statement, BytesView witness,
                                  const std::vector<PriorMessage>& priors) const;

  VerifierHandle verifier() const { return VerifierHandle(key_, predicate_id_); }

 private:
  friend class SnarkOracle;
  ProverHandle(std::shared_ptr<const HmacKey> key, std::uint64_t predicate_id,
               CompliancePredicate predicate)
      : key_(std::move(key)), predicate_id_(predicate_id), predicate_(std::move(predicate)) {}

  std::shared_ptr<const HmacKey> key_;
  std::uint64_t predicate_id_;
  CompliancePredicate predicate_;
};

/// The trusted setup. Constructed once per experiment from a seed (the CRS);
/// registers compliance predicates and hands out capabilities.
class SnarkOracle {
 public:
  explicit SnarkOracle(std::uint64_t crs_seed);

  /// Register a compliance predicate; returns the prover capability.
  ProverHandle register_predicate(CompliancePredicate predicate);

 private:
  std::shared_ptr<const HmacKey> key_;
  std::uint64_t next_predicate_id_ = 1;
};

}  // namespace srds
