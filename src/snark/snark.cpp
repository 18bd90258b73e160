#include "snark/snark.hpp"

#include <cstring>

#include "common/rng.hpp"
#include "common/serial.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"

namespace srds {

namespace {

SnarkProof make_tag(const HmacKey& key, std::uint64_t predicate_id, BytesView statement) {
  Writer w;
  w.u64(predicate_id);
  w.bytes(statement);
  Digest a = key.mac(w.data());
  Writer w2;
  w2.u64(predicate_id ^ 0x736e61726b32ULL);
  w2.bytes(statement);
  Digest b = key.mac(w2.data());
  SnarkProof p;
  std::memcpy(p.v.data(), a.v.data(), 32);
  std::memcpy(p.v.data() + 32, b.v.data(), 32);
  return p;
}

}  // namespace

SnarkProof SnarkProof::from(BytesView b) {
  SnarkProof p;
  std::size_t n = b.size() < kSize ? b.size() : kSize;
  std::memcpy(p.v.data(), b.data(), n);
  return p;
}

bool VerifierHandle::verify(BytesView statement, const SnarkProof& proof) const {
  return make_tag(*key_, predicate_id_, statement) == proof;
}

std::optional<SnarkProof> ProverHandle::prove(BytesView statement, BytesView witness,
                                              const std::vector<PriorMessage>& priors) const {
  // PCD compliance: all incoming edges must carry valid proofs.
  VerifierHandle v(key_, predicate_id_);
  for (const auto& prior : priors) {
    if (!v.verify(prior.statement, prior.proof)) return std::nullopt;
  }
  if (!predicate_(statement, witness, priors)) return std::nullopt;
  return make_tag(*key_, predicate_id_, statement);
}

SnarkOracle::SnarkOracle(std::uint64_t crs_seed) {
  Rng rng(crs_seed ^ 0x736e61726b6f7261ULL);
  key_ = std::make_shared<const HmacKey>(rng.bytes(32));
}

ProverHandle SnarkOracle::register_predicate(CompliancePredicate predicate) {
  return ProverHandle(key_, next_predicate_id_++, std::move(predicate));
}

}  // namespace srds
