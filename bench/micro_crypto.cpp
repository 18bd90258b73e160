// Micro-benchmarks for the cryptographic substrate (google-benchmark):
// SHA-256 (both compression kernels and the dispatched one), HMAC (one-shot
// and midstate keys), the simulated multisig verify, Merkle trees, Lamport
// and WOTS one-time signatures, Shamir sharing. These put concrete per-operation costs under the
// protocol-level results.
#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "micro_main.hpp"
#include "consensus/shamir.hpp"
#include "crypto/hmac.hpp"
#include "crypto/lamport.hpp"
#include "crypto/merkle.hpp"
#include "crypto/multisig.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_detail.hpp"
#include "crypto/wots.hpp"

namespace {

using namespace srds;

void BM_Sha256(benchmark::State& state) {
  Rng rng(1);
  Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  const std::uint64_t a0 = bench::alloc_ops();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sha256(data));
  }
  bench::report_allocs(state, a0);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HmacSha256(benchmark::State& state) {
  Rng rng(2);
  Bytes key = rng.bytes(32);
  Bytes data = rng.bytes(256);
  const std::uint64_t a0 = bench::alloc_ops();
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmac_sha256(key, data));
  }
  bench::report_allocs(state, a0);
}
BENCHMARK(BM_HmacSha256);

void BM_MerkleBuild(benchmark::State& state) {
  Rng rng(3);
  std::vector<Digest> leaves;
  for (int i = 0; i < state.range(0); ++i) leaves.push_back(Digest::from(rng.bytes(32)));
  const std::uint64_t a0 = bench::alloc_ops();
  for (auto _ : state) {
    MerkleTree tree(leaves);
    benchmark::DoNotOptimize(tree.root());
  }
  bench::report_allocs(state, a0);
}
BENCHMARK(BM_MerkleBuild)->Arg(256)->Arg(4096);

void BM_MerklePathVerify(benchmark::State& state) {
  Rng rng(4);
  std::vector<Digest> leaves;
  for (int i = 0; i < state.range(0); ++i) leaves.push_back(Digest::from(rng.bytes(32)));
  MerkleTree tree(leaves);
  auto path = tree.path(static_cast<std::uint64_t>(state.range(0) / 2));
  Digest leaf = leaves[static_cast<std::size_t>(state.range(0) / 2)];
  const std::uint64_t a0 = bench::alloc_ops();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        MerkleTree::verify(tree.root(), leaf, path, static_cast<std::size_t>(state.range(0))));
  }
  bench::report_allocs(state, a0);
}
BENCHMARK(BM_MerklePathVerify)->Arg(4096);

void BM_LamportKeygen(benchmark::State& state) {
  Rng rng(5);
  Bytes seed = rng.bytes(32);
  const std::uint64_t a0 = bench::alloc_ops();
  for (auto _ : state) {
    benchmark::DoNotOptimize(lamport_keygen(seed));
  }
  bench::report_allocs(state, a0);
}
BENCHMARK(BM_LamportKeygen);

void BM_LamportSignVerify(benchmark::State& state) {
  auto kp = lamport_keygen(Rng(6).bytes(32));
  Bytes m = to_bytes("bench message");
  const std::uint64_t a0 = bench::alloc_ops();
  for (auto _ : state) {
    auto sig = lamport_sign(kp, m);
    benchmark::DoNotOptimize(lamport_verify(kp.verification_key, m, sig));
  }
  bench::report_allocs(state, a0);
}
BENCHMARK(BM_LamportSignVerify);

void BM_WotsKeygen(benchmark::State& state) {
  Rng rng(7);
  Bytes seed = rng.bytes(32);
  const std::uint64_t a0 = bench::alloc_ops();
  for (auto _ : state) {
    benchmark::DoNotOptimize(wots_keygen(seed));
  }
  bench::report_allocs(state, a0);
}
BENCHMARK(BM_WotsKeygen);

void BM_WotsSign(benchmark::State& state) {
  auto kp = wots_keygen(Rng(8).bytes(32));
  Bytes m = to_bytes("bench message");
  const std::uint64_t a0 = bench::alloc_ops();
  for (auto _ : state) {
    benchmark::DoNotOptimize(wots_sign(kp, m));
  }
  bench::report_allocs(state, a0);
}
BENCHMARK(BM_WotsSign);

void BM_WotsVerify(benchmark::State& state) {
  auto kp = wots_keygen(Rng(9).bytes(32));
  Bytes m = to_bytes("bench message");
  auto sig = wots_sign(kp, m);
  const std::uint64_t a0 = bench::alloc_ops();
  for (auto _ : state) {
    benchmark::DoNotOptimize(wots_verify(kp.verification_key, m, sig));
  }
  bench::report_allocs(state, a0);
}
BENCHMARK(BM_WotsVerify);

void BM_ShamirShare(benchmark::State& state) {
  Rng rng(10);
  std::size_t c = static_cast<std::size_t>(state.range(0));
  const std::uint64_t a0 = bench::alloc_ops();
  for (auto _ : state) {
    benchmark::DoNotOptimize(shamir_share(123456789, c / 3, c, rng));
  }
  bench::report_allocs(state, a0);
}
BENCHMARK(BM_ShamirShare)->Arg(16)->Arg(64);

void BM_ShamirReconstruct(benchmark::State& state) {
  Rng rng(11);
  std::size_t c = static_cast<std::size_t>(state.range(0));
  auto shares = shamir_share(987654321, c / 3, c, rng);
  const std::uint64_t a0 = bench::alloc_ops();
  for (auto _ : state) {
    benchmark::DoNotOptimize(shamir_reconstruct(shares, c / 3));
  }
  bench::report_allocs(state, a0);
}
BENCHMARK(BM_ShamirReconstruct)->Arg(16)->Arg(64);

// New rows go last: bench-diff matches rows by series index.

// One 64-byte block through a compression kernel: the scalar reference, and
// the kernel `Sha256` dispatches to on this CPU (SHA-NI where present).
void compress_loop(benchmark::State& state, sha256_detail::CompressFn kernel) {
  Rng rng(12);
  Bytes block = rng.bytes(64);
  std::uint32_t h[8];
  std::memcpy(h, sha256_detail::kInitState, sizeof h);
  const std::uint64_t a0 = bench::alloc_ops();
  for (auto _ : state) {
    kernel(h, block.data(), 1);
    benchmark::DoNotOptimize(h);
  }
  bench::report_allocs(state, a0);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}

void BM_Sha256CompressScalar(benchmark::State& state) {
  compress_loop(state, &sha256_detail::compress_scalar);
}
BENCHMARK(BM_Sha256CompressScalar);

void BM_Sha256CompressDispatched(benchmark::State& state) {
  compress_loop(state, sha256_detail::dispatched_compress());
}
BENCHMARK(BM_Sha256CompressDispatched);

// Same key and data as BM_HmacSha256, with the ipad/opad midstates kept.
void BM_HmacKeyMac(benchmark::State& state) {
  Rng rng(2);
  HmacKey key(rng.bytes(32));
  Bytes data = rng.bytes(256);
  const std::uint64_t a0 = bench::alloc_ops();
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.mac(data));
  }
  bench::report_allocs(state, a0);
}
BENCHMARK(BM_HmacKeyMac);

// The BGT'13 baseline's per-message check: a multisig from every one of n
// parties, verified against the registry.
void BM_MultisigVerify(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  MultisigRegistry reg(n, 13);
  Bytes m = Rng(14).bytes(32);
  std::vector<std::size_t> signers(n);
  std::vector<MultisigTag> tags(n);
  for (std::size_t i = 0; i < n; ++i) {
    signers[i] = i;
    tags[i] = reg.sign(i, m);
  }
  Multisig sig = MultisigRegistry::aggregate(n, signers, tags);
  const std::uint64_t a0 = bench::alloc_ops();
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.verify(m, sig));
  }
  bench::report_allocs(state, a0);
}
BENCHMARK(BM_MultisigVerify)->Arg(256);

}  // namespace

int main(int argc, char** argv) {
  return srds::bench::run_micro_suite(argc, argv, "micro_crypto");
}
