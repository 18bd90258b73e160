// Unit and property tests for src/crypto.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <ostream>
#include <set>
#include <string>
#include <thread>

#include "common/hex.hpp"
#include "common/rng.hpp"
#include "crypto/commit.hpp"
#include "crypto/hmac.hpp"
#include "crypto/lamport.hpp"
#include "crypto/merkle.hpp"
#include "crypto/multisig.hpp"
#include "crypto/prf.hpp"
#include "crypto/prg.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_detail.hpp"
#include "crypto/simsig.hpp"
#include "crypto/wots.hpp"

namespace srds {
namespace {

// --- SHA-256: FIPS 180-4 / RFC 6234 test vectors ---

TEST(Sha256, EmptyInput) {
  EXPECT_EQ(to_hex(sha256(Bytes{}).view()),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(sha256(to_bytes("abc")).view()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(to_hex(sha256(to_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")).view()),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Sha256 ctx;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(to_hex(ctx.finish().view()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    Bytes data = rng.bytes(1 + rng.below(300));
    Sha256 ctx;
    std::size_t cut = rng.below(data.size());
    ctx.update(BytesView{data.data(), cut});
    ctx.update(BytesView{data.data() + cut, data.size() - cut});
    EXPECT_EQ(ctx.finish(), sha256(data));
  }
}

TEST(Sha256, TaggedDomainSeparation) {
  Bytes m = to_bytes("msg");
  EXPECT_NE(sha256_tagged("a", m), sha256_tagged("b", m));
  EXPECT_NE(sha256_tagged("a", m), sha256(m));
}

// --- HMAC: RFC 4231 test vectors ---

TEST(Hmac, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  EXPECT_EQ(to_hex(hmac_sha256(key, to_bytes("Hi There")).view()),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(to_hex(hmac_sha256(to_bytes("Jefe"), to_bytes("what do ya want for nothing?")).view()),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231LongKey) {
  Bytes key(131, 0xaa);
  EXPECT_EQ(to_hex(hmac_sha256(key, to_bytes("Test Using Larger Than Block-Size Key - Hash Key First")).view()),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// --- SHA-256 compression kernels: scalar reference vs SHA-NI ---
//
// `Sha256` binds the dispatched kernel; these tests drive both kernels
// explicitly through crypto/sha256_detail.hpp. The SHA-NI half skips with a
// message (never passes silently) on a CPU or build without SHA-NI.

struct KernelCase {
  const char* name;
  sha256_detail::CompressFn (*get)();
};

// Print the kernel by name, so test ids never carry pointer bytes.
void PrintTo(const KernelCase& c, std::ostream* os) { *os << c.name; }

sha256_detail::CompressFn scalar_kernel() { return &sha256_detail::compress_scalar; }

class Sha256Kernel : public ::testing::TestWithParam<KernelCase> {
 protected:
  void SetUp() override {
    kernel_ = GetParam().get();
    if (kernel_ == nullptr) GTEST_SKIP() << "CPU or build lacks SHA-NI; SHA-NI kernel untested";
  }

  /// Digest through the kernel-bound context, fed in random-sized pieces.
  Digest digest(BytesView data, Rng& rng) const {
    Sha256 ctx = sha256_detail::sha256_with(kernel_);
    std::size_t off = 0;
    while (off < data.size()) {
      std::size_t take = 1 + rng.below(data.size() - off);
      ctx.update(data.subspan(off, take));
      off += take;
    }
    return ctx.finish();
  }

  Digest digest(BytesView data) const {
    return sha256_detail::sha256_with(kernel_).update(data).finish();
  }

  /// Textbook HMAC (RFC 2104) over kernel-bound contexts.
  Digest hmac(BytesView key, BytesView data) const {
    std::uint8_t k[64] = {0};
    if (key.size() > 64) {
      Digest kd = digest(key);
      std::memcpy(k, kd.v.data(), 32);
    } else if (!key.empty()) {
      std::memcpy(k, key.data(), key.size());
    }
    std::uint8_t ipad[64], opad[64];
    for (int i = 0; i < 64; ++i) {
      ipad[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
      opad[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
    }
    Digest inner = sha256_detail::sha256_with(kernel_).update(ipad).update(data).finish();
    return sha256_detail::sha256_with(kernel_).update(opad).update(inner.view()).finish();
  }

  sha256_detail::CompressFn kernel_ = nullptr;
};

/// FIPS 180-4 padding written out longhand, compressed by the scalar kernel:
/// the oracle for `Sha256::finish`'s one-memset padding.
Digest reference_digest(BytesView data) {
  Bytes padded(data.begin(), data.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(data.size()) * 8;
  for (int i = 7; i >= 0; --i) padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  std::uint32_t state[8];
  std::memcpy(state, sha256_detail::kInitState, sizeof state);
  sha256_detail::compress_scalar(state, padded.data(), padded.size() / 64);
  Digest d;
  for (int i = 0; i < 8; ++i) {
    for (int b = 0; b < 4; ++b) d.v[4 * i + b] = static_cast<std::uint8_t>(state[i] >> (24 - 8 * b));
  }
  return d;
}

TEST_P(Sha256Kernel, MatchesScalarOnRandomBlocksAndChainingValues) {
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    std::uint32_t a[8], b[8];
    for (auto& w : a) w = static_cast<std::uint32_t>(rng.next());
    std::memcpy(b, a, sizeof a);
    const std::size_t nblocks = 1 + rng.below(4);
    Bytes blocks = rng.bytes(64 * nblocks);
    sha256_detail::compress_scalar(a, blocks.data(), nblocks);
    kernel_(b, blocks.data(), nblocks);
    for (int i = 0; i < 8; ++i) ASSERT_EQ(a[i], b[i]) << "trial " << trial << " word " << i;
  }
}

TEST_P(Sha256Kernel, EveryLengthTo300MatchesReferencePadding) {
  Rng rng(12);
  for (std::size_t len = 0; len <= 300; ++len) {
    Bytes data = rng.bytes(len);
    const Digest want = reference_digest(data);
    EXPECT_EQ(digest(data), want) << "length " << len << " one-shot";
    EXPECT_EQ(digest(data, rng), want) << "length " << len << " random splits";
  }
  // The padding boundaries: one block exactly filled by the length field
  // (55), a spill to a second block (56, 63, 119, 120), block-aligned (64).
  for (std::size_t len : {55u, 56u, 63u, 64u, 119u, 120u}) {
    Bytes data(len, 0x61);
    EXPECT_EQ(digest(data, rng), reference_digest(data)) << "length " << len;
    EXPECT_EQ(digest(data), sha256(data)) << "length " << len << " vs dispatched";
  }
}

TEST_P(Sha256Kernel, Fips180Vectors) {
  EXPECT_EQ(to_hex(digest(Bytes{}).view()),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(to_hex(digest(to_bytes("abc")).view()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(to_hex(digest(to_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")).view()),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(to_hex(digest(to_bytes("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                                   "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"))
                       .view()),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
  Sha256 ctx = sha256_detail::sha256_with(kernel_);
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(to_hex(ctx.finish().view()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(Sha256Kernel, Rfc4231Vectors) {
  EXPECT_EQ(to_hex(hmac(Bytes(20, 0x0b), to_bytes("Hi There")).view()),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  EXPECT_EQ(to_hex(hmac(to_bytes("Jefe"), to_bytes("what do ya want for nothing?")).view()),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  EXPECT_EQ(to_hex(hmac(Bytes(20, 0xaa), Bytes(50, 0xdd)).view()),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
  EXPECT_EQ(to_hex(hmac(Bytes(131, 0xaa),
                        to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"))
                       .view()),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

INSTANTIATE_TEST_SUITE_P(Kernels, Sha256Kernel,
                         ::testing::Values(KernelCase{"Scalar", &scalar_kernel},
                                           KernelCase{"ShaNi", &sha256_detail::shani_compress}),
                         [](const ::testing::TestParamInfo<KernelCase>& info) {
                           return std::string(info.param.name);
                         });

TEST(Sha256Dispatch, PrefersShaNiWhenAvailable) {
  sha256_detail::CompressFn shani = sha256_detail::shani_compress();
  EXPECT_EQ(sha256_detail::dispatched_compress(),
            shani != nullptr ? shani : &sha256_detail::compress_scalar);
}

// --- HmacKey: precomputed ipad/opad midstates ---

TEST(HmacKey, MatchesOneShotHmacAcrossKeyLengths) {
  static_assert(sizeof(HmacKey) == 64, "HmacKey holds only two 8-word midstates");
  Rng rng(13);
  for (std::size_t key_len : {0u, 1u, 32u, 63u, 64u, 65u, 100u, 131u}) {
    Bytes key = rng.bytes(key_len);
    HmacKey hk(key);
    for (std::size_t len : {0u, 1u, 32u, 55u, 56u, 64u, 119u, 200u}) {
      Bytes data = rng.bytes(len);
      EXPECT_EQ(hk.mac(data), hmac_sha256(key, data)) << "key " << key_len << " data " << len;
    }
  }
}

TEST(HmacKey, Rfc4231Vectors) {
  EXPECT_EQ(to_hex(HmacKey(Bytes(20, 0x0b)).mac(to_bytes("Hi There")).view()),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  EXPECT_EQ(to_hex(HmacKey(Bytes(131, 0xaa))
                       .mac(to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"))
                       .view()),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// --- PRG ---

TEST(Prg, DeterministicAndSeedSeparated) {
  Bytes seed1(32, 1), seed2(32, 2);
  EXPECT_EQ(Prg(seed1).next(64), Prg(seed1).next(64));
  EXPECT_NE(Prg(seed1).next(64), Prg(seed2).next(64));
}

TEST(Prg, RandomAccessMatchesStream) {
  Bytes seed(32, 7);
  Prg stream(seed);
  Bytes first64 = stream.next(64);
  Prg ra(seed);
  Bytes b0 = ra.block(0).to_bytes();
  Bytes b1 = ra.block(1).to_bytes();
  Bytes joined = concat(b0, b1);
  EXPECT_EQ(first64, joined);
}

TEST(Prg, OddSizedReads) {
  Bytes seed(32, 9);
  Prg a(seed), b(seed);
  Bytes x = a.next(7);
  Bytes y = a.next(10);
  Bytes z = concat(x, y);
  EXPECT_EQ(z, b.next(17));
}

// --- PRF subset (paper Fig. 3 step 7) ---

TEST(PrfSubset, DeterministicSortedUnique) {
  Bytes seed = Rng(1).bytes(32);
  auto s1 = prf_subset(seed, 5, 100, 10);
  auto s2 = prf_subset(seed, 5, 100, 10);
  EXPECT_EQ(s1, s2);
  ASSERT_EQ(s1.size(), 10u);
  EXPECT_TRUE(std::is_sorted(s1.begin(), s1.end()));
  for (auto v : s1) EXPECT_LT(v, 100u);
}

TEST(PrfSubset, DifferentIndexDifferentSubset) {
  Bytes seed = Rng(2).bytes(32);
  EXPECT_NE(prf_subset(seed, 1, 1000, 8), prf_subset(seed, 2, 1000, 8));
}

TEST(PrfSubset, MembershipConsistent) {
  Bytes seed = Rng(3).bytes(32);
  auto s = prf_subset(seed, 9, 64, 6);
  for (std::size_t j = 0; j < 64; ++j) {
    bool in = std::binary_search(s.begin(), s.end(), j);
    EXPECT_EQ(prf_subset_contains(seed, 9, 64, 6, j), in);
  }
}

TEST(PrfSubset, FullSet) {
  Bytes seed = Rng(4).bytes(32);
  auto s = prf_subset(seed, 0, 5, 5);
  EXPECT_EQ(s, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

// --- Merkle ---

class MerkleSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MerkleSizes, AllPathsVerify) {
  std::size_t n = GetParam();
  std::vector<Digest> leaves;
  Rng rng(100 + n);
  for (std::size_t i = 0; i < n; ++i) leaves.push_back(Digest::from(rng.bytes(32)));
  MerkleTree tree(leaves);
  for (std::size_t i = 0; i < n; ++i) {
    auto p = tree.path(i);
    EXPECT_TRUE(MerkleTree::verify(tree.root(), leaves[i], p, n)) << "leaf " << i;
  }
}

TEST_P(MerkleSizes, WrongLeafRejected) {
  std::size_t n = GetParam();
  std::vector<Digest> leaves;
  Rng rng(200 + n);
  for (std::size_t i = 0; i < n; ++i) leaves.push_back(Digest::from(rng.bytes(32)));
  MerkleTree tree(leaves);
  Digest bogus = Digest::from(rng.bytes(32));
  auto p = tree.path(0);
  EXPECT_FALSE(MerkleTree::verify(tree.root(), bogus, p, n));
}

INSTANTIATE_TEST_SUITE_P(LeafCounts, MerkleSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 16, 33, 100));

TEST(Merkle, WrongIndexRejected) {
  std::vector<Digest> leaves;
  Rng rng(5);
  for (int i = 0; i < 8; ++i) leaves.push_back(Digest::from(rng.bytes(32)));
  MerkleTree tree(leaves);
  auto p = tree.path(3);
  p.leaf_index = 4;
  EXPECT_FALSE(MerkleTree::verify(tree.root(), leaves[3], p, 8));
}

TEST(Merkle, PathDepthMismatchRejected) {
  std::vector<Digest> leaves;
  Rng rng(6);
  for (int i = 0; i < 8; ++i) leaves.push_back(Digest::from(rng.bytes(32)));
  MerkleTree tree(leaves);
  auto p = tree.path(0);
  p.siblings.pop_back();
  EXPECT_FALSE(MerkleTree::verify(tree.root(), leaves[0], p, 8));
}

TEST(Merkle, PathSerializationRoundTrip) {
  std::vector<Digest> leaves;
  Rng rng(7);
  for (int i = 0; i < 12; ++i) leaves.push_back(Digest::from(rng.bytes(32)));
  MerkleTree tree(leaves);
  auto p = tree.path(5);
  Bytes ser = p.serialize();
  MerklePath q;
  ASSERT_TRUE(MerklePath::deserialize(ser, q));
  EXPECT_EQ(q.leaf_index, p.leaf_index);
  EXPECT_EQ(q.siblings, p.siblings);
  EXPECT_TRUE(MerkleTree::verify(tree.root(), leaves[5], q, 12));
}

TEST(Merkle, DeserializeRejectsGarbage) {
  MerklePath p;
  EXPECT_FALSE(MerklePath::deserialize(Bytes{1, 2, 3}, p));
}

TEST(Merkle, EmptyThrows) {
  EXPECT_THROW(MerkleTree(std::vector<Digest>{}), std::invalid_argument);
}

TEST(Merkle, RootDependsOnOrder) {
  Rng rng(8);
  Digest a = Digest::from(rng.bytes(32)), b = Digest::from(rng.bytes(32));
  EXPECT_NE(MerkleTree({a, b}).root(), MerkleTree({b, a}).root());
}

// --- Lamport OTS ---

TEST(Lamport, SignVerify) {
  auto kp = lamport_keygen(Rng(1).bytes(32));
  Bytes m = to_bytes("agree on y=1");
  auto sig = lamport_sign(kp, m);
  EXPECT_TRUE(lamport_verify(kp.verification_key, m, sig));
}

TEST(Lamport, WrongMessageRejected) {
  auto kp = lamport_keygen(Rng(2).bytes(32));
  auto sig = lamport_sign(kp, to_bytes("m1"));
  EXPECT_FALSE(lamport_verify(kp.verification_key, to_bytes("m2"), sig));
}

TEST(Lamport, WrongKeyRejected) {
  auto kp1 = lamport_keygen(Rng(3).bytes(32));
  auto kp2 = lamport_keygen(Rng(4).bytes(32));
  Bytes m = to_bytes("m");
  auto sig = lamport_sign(kp1, m);
  EXPECT_FALSE(lamport_verify(kp2.verification_key, m, sig));
}

TEST(Lamport, TamperedSignatureRejected) {
  auto kp = lamport_keygen(Rng(5).bytes(32));
  Bytes m = to_bytes("m");
  auto sig = lamport_sign(kp, m);
  sig.revealed[17].v[0] ^= 1;
  EXPECT_FALSE(lamport_verify(kp.verification_key, m, sig));
}

TEST(Lamport, SerializationRoundTrip) {
  auto kp = lamport_keygen(Rng(6).bytes(32));
  Bytes m = to_bytes("serialize me");
  auto sig = lamport_sign(kp, m);
  Bytes ser = sig.serialize();
  EXPECT_EQ(ser.size(), LamportSignature::kSerializedSize);
  LamportSignature back;
  ASSERT_TRUE(LamportSignature::deserialize(ser, back));
  EXPECT_TRUE(lamport_verify(kp.verification_key, m, back));
}

TEST(Lamport, ObliviousKeyLooksLikeRealKey) {
  // Same size/shape; no trivial distinguisher on the byte level.
  Rng rng(7);
  Digest ob = lamport_oblivious_keygen(rng);
  auto kp = lamport_keygen(rng.bytes(32));
  EXPECT_EQ(ob.v.size(), kp.verification_key.v.size());
  EXPECT_NE(ob, kp.verification_key);
}

TEST(Lamport, KeygenRequires32ByteSeed) {
  EXPECT_THROW(lamport_keygen(Bytes(16, 0)), std::invalid_argument);
}

// --- WOTS ---

TEST(Wots, SignVerify) {
  auto kp = wots_keygen(Rng(11).bytes(32));
  Bytes m = to_bytes("wots message");
  auto sig = wots_sign(kp, m);
  EXPECT_TRUE(wots_verify(kp.verification_key, m, sig));
}

TEST(Wots, WrongMessageRejected) {
  auto kp = wots_keygen(Rng(12).bytes(32));
  auto sig = wots_sign(kp, to_bytes("a"));
  EXPECT_FALSE(wots_verify(kp.verification_key, to_bytes("b"), sig));
}

TEST(Wots, WrongKeyRejected) {
  auto kp1 = wots_keygen(Rng(13).bytes(32));
  auto kp2 = wots_keygen(Rng(14).bytes(32));
  auto sig = wots_sign(kp1, to_bytes("m"));
  EXPECT_FALSE(wots_verify(kp2.verification_key, to_bytes("m"), sig));
}

TEST(Wots, TamperedChainRejected) {
  auto kp = wots_keygen(Rng(15).bytes(32));
  auto sig = wots_sign(kp, to_bytes("m"));
  sig.chain_values[30].v[5] ^= 0x40;
  EXPECT_FALSE(wots_verify(kp.verification_key, to_bytes("m"), sig));
}

TEST(Wots, SerializationRoundTrip) {
  auto kp = wots_keygen(Rng(16).bytes(32));
  Bytes m = to_bytes("x");
  auto sig = wots_sign(kp, m);
  Bytes ser = sig.serialize();
  EXPECT_EQ(ser.size(), WotsSignature::kSerializedSize);
  WotsSignature back;
  ASSERT_TRUE(WotsSignature::deserialize(ser, back));
  EXPECT_TRUE(wots_verify(kp.verification_key, m, back));
}

TEST(Wots, SignatureMuchSmallerThanLamport) {
  EXPECT_LT(WotsSignature::kSerializedSize * 7, LamportSignature::kSerializedSize);
}

class WotsFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WotsFuzz, RandomMessagesRoundTrip) {
  Rng rng(GetParam() * 1000 + 17);
  auto kp = wots_keygen(rng.bytes(32));
  Bytes m = rng.bytes(1 + rng.below(200));
  auto sig = wots_sign(kp, m);
  EXPECT_TRUE(wots_verify(kp.verification_key, m, sig));
  Bytes m2 = m;
  m2[rng.below(m2.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
  EXPECT_FALSE(wots_verify(kp.verification_key, m2, sig));
}

INSTANTIATE_TEST_SUITE_P(Seeds, WotsFuzz, ::testing::Range<std::uint64_t>(0, 12));

// --- Multisig (BGT'13 baseline stand-in) ---

TEST(Multisig, AggregateAndVerify) {
  MultisigRegistry reg(10, 42);
  Bytes m = to_bytes("block 7");
  std::vector<std::size_t> signers{1, 3, 4, 8};
  std::vector<MultisigTag> tags;
  for (auto i : signers) tags.push_back(reg.sign(i, m));
  Multisig ms = MultisigRegistry::aggregate(10, signers, tags);
  EXPECT_TRUE(reg.verify(m, ms));
  EXPECT_EQ(ms.signer_count(), 4u);
}

TEST(Multisig, WrongBitmapRejected) {
  MultisigRegistry reg(10, 42);
  Bytes m = to_bytes("m");
  Multisig ms = MultisigRegistry::aggregate(10, {1, 2}, {reg.sign(1, m), reg.sign(2, m)});
  ms.signers[5] = true;  // claim a signer who did not sign
  EXPECT_FALSE(reg.verify(m, ms));
}

TEST(Multisig, MergeDisjoint) {
  MultisigRegistry reg(8, 1);
  Bytes m = to_bytes("m");
  Multisig a = MultisigRegistry::aggregate(8, {0, 1}, {reg.sign(0, m), reg.sign(1, m)});
  Multisig b = MultisigRegistry::aggregate(8, {5}, {reg.sign(5, m)});
  ASSERT_TRUE(MultisigRegistry::merge(a, b));
  EXPECT_EQ(a.signer_count(), 3u);
  EXPECT_TRUE(reg.verify(m, a));
}

TEST(Multisig, MergeOverlapRejected) {
  MultisigRegistry reg(8, 1);
  Bytes m = to_bytes("m");
  Multisig a = MultisigRegistry::aggregate(8, {2}, {reg.sign(2, m)});
  Multisig b = MultisigRegistry::aggregate(8, {2}, {reg.sign(2, m)});
  EXPECT_FALSE(MultisigRegistry::merge(a, b));
}

TEST(Multisig, DuplicateSignerThrows) {
  MultisigRegistry reg(4, 1);
  Bytes m = to_bytes("m");
  EXPECT_THROW(
      MultisigRegistry::aggregate(4, {1, 1}, {reg.sign(1, m), reg.sign(1, m)}),
      std::invalid_argument);
}

TEST(Multisig, WireSizeGrowsLinearlyInN) {
  // The paper's §1.2 point: the signer set costs Θ(n) bits.
  Multisig small, big;
  small.signers.assign(64, false);
  big.signers.assign(4096, false);
  EXPECT_GT(big.wire_size(), small.wire_size() + 4096 / 8 - 64 / 8 - 1);
}

TEST(Multisig, SerializationRoundTrip) {
  MultisigRegistry reg(20, 9);
  Bytes m = to_bytes("ser");
  Multisig ms = MultisigRegistry::aggregate(20, {0, 7, 19},
                                            {reg.sign(0, m), reg.sign(7, m), reg.sign(19, m)});
  Bytes ser = ms.serialize();
  EXPECT_EQ(ser.size(), ms.wire_size());
  Multisig back;
  ASSERT_TRUE(Multisig::deserialize(ser, back));
  EXPECT_EQ(back.signers, ms.signers);
  EXPECT_TRUE(reg.verify(m, back));
}

// The registry's tags are the published formula: HMAC(k_i, m) || the first
// 16 bytes of HMAC(k_i, sha256_tagged("ms-2", m)), with k_i drawn from the
// registry's seeded stream. Midstate keys and the per-message hoist in
// verify() must not change one byte of them.
TEST(Multisig, TagsMatchOneShotHmacFormula) {
  const std::uint64_t seed = 77;
  MultisigRegistry reg(6, seed);
  Rng keys(seed ^ 0x6d756c7469736967ULL);
  Bytes m = to_bytes("formula");
  for (std::size_t i = 0; i < 6; ++i) {
    Bytes k = keys.bytes(32);
    Digest a = hmac_sha256(k, m);
    Digest b = hmac_sha256(k, sha256_tagged("ms-2", m).view());
    MultisigTag want;
    std::memcpy(want.v.data(), a.v.data(), 32);
    std::memcpy(want.v.data() + 32, b.v.data(), 16);
    EXPECT_EQ(reg.sign(i, m), want) << "party " << i;
  }
}

// verify() hashes the message once per call; it must accept and reject
// exactly what the per-signer definition (XOR of every claimed signer's
// sign()) does.
TEST(Multisig, VerifyAgreesWithPerSignerDefinition) {
  const std::size_t n = 40;
  MultisigRegistry reg(n, 5);
  Rng rng(14);
  auto per_signer = [&](BytesView m, const Multisig& sig) {
    if (sig.signers.size() != n) return false;
    MultisigTag expect;
    for (std::size_t i = 0; i < n; ++i) {
      if (sig.signers[i]) expect.xor_in(reg.sign(i, m));
    }
    return expect == sig.tag;
  };
  for (int trial = 0; trial < 20; ++trial) {
    Bytes m = rng.bytes(1 + rng.below(100));
    std::vector<std::size_t> signers;
    std::vector<MultisigTag> tags;
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.below(2) == 0) continue;
      signers.push_back(i);
      tags.push_back(reg.sign(i, m));
    }
    Multisig ms = MultisigRegistry::aggregate(n, signers, tags);
    EXPECT_TRUE(reg.verify(m, ms));
    EXPECT_TRUE(per_signer(m, ms));

    Multisig bit = ms;  // a flipped signer bit
    const std::size_t flip = rng.below(n);
    bit.signers[flip] = !bit.signers[flip];
    EXPECT_FALSE(reg.verify(m, bit)) << "trial " << trial;
    EXPECT_FALSE(per_signer(m, bit));

    Multisig byte = ms;  // a flipped tag byte
    byte.tag.v[rng.below(byte.tag.v.size())] ^= 0x01;
    EXPECT_FALSE(reg.verify(m, byte)) << "trial " << trial;
    EXPECT_FALSE(per_signer(m, byte));

    Multisig wrong_n = ms;  // a bitmap for a different n
    wrong_n.signers.push_back(false);
    EXPECT_FALSE(reg.verify(m, wrong_n)) << "trial " << trial;
    EXPECT_FALSE(per_signer(m, wrong_n));

    Bytes other = m;  // the right signature on another message
    other[0] ^= 0x80;
    EXPECT_FALSE(reg.verify(other, ms)) << "trial " << trial;
  }
}

// Registries are shared read-only across parties; a sharded simulator
// verifies from several threads at once (this suite also runs under TSan).
TEST(Multisig, ConcurrentVerifyOnSharedRegistry) {
  const std::size_t n = 64;
  const MultisigRegistry reg(n, 21);
  Bytes m = to_bytes("shared");
  std::vector<std::size_t> signers;
  std::vector<MultisigTag> tags;
  for (std::size_t i = 0; i < n; i += 2) {
    signers.push_back(i);
    tags.push_back(reg.sign(i, m));
  }
  const Multisig ms = MultisigRegistry::aggregate(n, signers, tags);
  std::atomic<int> accepted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int k = 0; k < 20; ++k) accepted += reg.verify(m, ms) ? 1 : 0;
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(accepted.load(), 80);
}

// --- Commitments ---

TEST(Commit, OpenCorrectly) {
  Bytes r = Rng(1).bytes(32);
  Bytes m = to_bytes("coin share");
  auto c = commit(m, r);
  EXPECT_TRUE(commit_open(c, m, r));
}

TEST(Commit, WrongMessageOrRandomnessRejected) {
  Bytes r = Rng(2).bytes(32);
  Bytes r2 = Rng(3).bytes(32);
  Bytes m = to_bytes("m");
  auto c = commit(m, r);
  EXPECT_FALSE(commit_open(c, to_bytes("m'"), r));
  EXPECT_FALSE(commit_open(c, m, r2));
}

TEST(Commit, HidingShape) {
  // Commitments to the same message under different randomness differ.
  Bytes m = to_bytes("m");
  EXPECT_NE(commit(m, Rng(4).bytes(32)).value, commit(m, Rng(5).bytes(32)).value);
}

// --- SimSig ---

TEST(SimSig, SignVerify) {
  SimSigRegistry reg(5, 77);
  Bytes m = to_bytes("ds round 2");
  auto s = reg.sign(3, m);
  EXPECT_TRUE(reg.verify(3, m, s));
  EXPECT_FALSE(reg.verify(2, m, s));
  EXPECT_FALSE(reg.verify(3, to_bytes("other"), s));
}

TEST(SimSig, OutOfRange) {
  SimSigRegistry reg(5, 77);
  EXPECT_THROW(reg.sign(5, to_bytes("m")), std::out_of_range);
  EXPECT_FALSE(reg.verify(9, to_bytes("m"), SimSig{}));
}

}  // namespace
}  // namespace srds
