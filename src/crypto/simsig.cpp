#include "crypto/simsig.hpp"

#include <stdexcept>

#include "common/rng.hpp"

namespace srds {

SimSigRegistry::SimSigRegistry(std::size_t n, std::uint64_t seed) : n_(n) {
  Rng rng(seed ^ 0x73696d736967ULL);
  keys_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) keys_.emplace_back(rng.bytes(32));
}

SimSig SimSigRegistry::sign(std::size_t signer, BytesView message) const {
  if (signer >= n_) throw std::out_of_range("SimSigRegistry::sign: bad signer");
  return keys_[signer].mac(message);
}

bool SimSigRegistry::verify(std::size_t signer, BytesView message, const SimSig& sig) const {
  if (signer >= n_) return false;
  return keys_[signer].mac(message) == sig;
}

}  // namespace srds
