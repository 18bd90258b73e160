#include "crypto/multisig.hpp"

#include <cstring>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/serial.hpp"
#include "crypto/sha256.hpp"

namespace srds {

namespace {
MultisigTag tag_from_digests(const Digest& a, const Digest& b) {
  MultisigTag t;
  std::memcpy(t.v.data(), a.v.data(), 32);
  std::memcpy(t.v.data() + 32, b.v.data(), 16);
  return t;
}
}  // namespace

Bytes Multisig::serialize() const {
  Writer w;
  w.raw(BytesView{tag.v.data(), tag.v.size()});
  w.u32(static_cast<std::uint32_t>(signers.size()));
  Bytes bitmap((signers.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < signers.size(); ++i) {
    if (signers[i]) bitmap[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
  }
  w.raw(bitmap);
  return std::move(w).take();
}

bool Multisig::deserialize(BytesView data, Multisig& out) {
  Reader r(data);
  Bytes tag_raw = r.raw(48);
  if (!r.ok()) return false;
  std::memcpy(out.tag.v.data(), tag_raw.data(), 48);
  std::uint32_t n = r.u32();
  if (n > (1u << 26)) return false;
  Bytes bitmap = r.raw((n + 7) / 8);
  if (!r.ok() || !r.done()) return false;
  out.signers.assign(n, false);
  for (std::uint32_t i = 0; i < n; ++i) {
    out.signers[i] = (bitmap[i / 8] >> (i % 8)) & 1;
  }
  return true;
}

std::size_t Multisig::signer_count() const {
  std::size_t c = 0;
  for (bool b : signers) c += b ? 1 : 0;
  return c;
}

MultisigRegistry::MultisigRegistry(std::size_t n, std::uint64_t seed) : n_(n) {
  Rng rng(seed ^ 0x6d756c7469736967ULL);
  keys_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) keys_.emplace_back(rng.bytes(32));
}

MultisigTag MultisigRegistry::tag(std::size_t i, BytesView m, const Digest& m2) const {
  return tag_from_digests(keys_[i].mac(m), keys_[i].mac(m2.view()));
}

MultisigTag MultisigRegistry::sign(std::size_t i, BytesView m) const {
  if (i >= n_) throw std::out_of_range("MultisigRegistry::sign: bad party index");
  return tag(i, m, sha256_tagged("ms-2", m));
}

Multisig MultisigRegistry::aggregate(std::size_t n, const std::vector<std::size_t>& signers,
                                     const std::vector<MultisigTag>& tags) {
  if (signers.size() != tags.size()) {
    throw std::invalid_argument("MultisigRegistry::aggregate: size mismatch");
  }
  Multisig out;
  out.signers.assign(n, false);
  for (std::size_t k = 0; k < signers.size(); ++k) {
    if (signers[k] >= n) throw std::out_of_range("aggregate: signer index");
    if (out.signers[signers[k]]) {
      throw std::invalid_argument("aggregate: duplicate signer");
    }
    out.signers[signers[k]] = true;
    out.tag.xor_in(tags[k]);
  }
  return out;
}

bool MultisigRegistry::merge(Multisig& into, const Multisig& other) {
  if (into.signers.size() != other.signers.size()) return false;
  for (std::size_t i = 0; i < into.signers.size(); ++i) {
    if (into.signers[i] && other.signers[i]) return false;  // overlap
  }
  for (std::size_t i = 0; i < into.signers.size(); ++i) {
    if (other.signers[i]) into.signers[i] = true;
  }
  into.tag.xor_in(other.tag);
  return true;
}

// srds-lint: hotpath(MultisigRegistry::verify) — the BGT'13 baseline's
// Θ(n)-signer check on every received multisig; the "ms-2" message hash is
// shared by all signers, so each signer costs two midstate MACs.
bool MultisigRegistry::verify(BytesView m, const Multisig& sig) const {
  if (sig.signers.size() != n_) return false;
  const Digest m2 = sha256_tagged("ms-2", m);
  MultisigTag expect;
  for (std::size_t i = 0; i < n_; ++i) {
    if (sig.signers[i]) expect.xor_in(tag(i, m, m2));
  }
  return expect == sig.tag;
}

}  // namespace srds
