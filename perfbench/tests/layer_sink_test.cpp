// Tests for the benchmark's own measurement code: the step/deliver split,
// per-phase counts against NetworkStats, span recording and the percentile
// helpers. Build and run from a configured perfbench build tree:
//
//   cmake --build <build> --target perfbench_test && <build>/perfbench_test
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "layer_sink.hpp"
#include "net/simulator.hpp"
#include "stats.hpp"

namespace {

using perfbench::LayerSink;
using perfbench::now_ns;

void busy_wait_ms(double ms) {
  const std::int64_t until = now_ns() + static_cast<std::int64_t>(ms * 1e6);
  while (now_ns() < until) {
  }
}

// Sends one message of (10 + round) bytes to the next party each round for
// `rounds` rounds, after `step_ms` of local work; rounds listed in `quiet`
// send nothing.
class ScriptedParty final : public srds::Party {
 public:
  ScriptedParty(srds::PartyId id, std::size_t n, std::size_t rounds, double step_ms,
                std::vector<std::size_t> quiet = {})
      : id_(id), n_(n), rounds_(rounds), step_ms_(step_ms), quiet_(std::move(quiet)) {}

  std::vector<srds::Message> on_round(std::size_t round,
                                      const std::vector<srds::Message>&) override {
    busy_wait_ms(step_ms_);
    done_ = round + 1 >= rounds_;
    for (std::size_t q : quiet_) {
      if (q == round) return {};
    }
    srds::Bytes payload(10 + round, 0xab);
    return {srds::make_msg(id_, static_cast<srds::PartyId>((id_ + 1) % n_),
                           std::move(payload), srds::MsgKind::kUnknown)};
  }
  bool done() const override { return done_; }

 private:
  srds::PartyId id_;
  std::size_t n_;
  std::size_t rounds_;
  double step_ms_;
  std::vector<std::size_t> quiet_;
  bool done_ = false;
};

// An accounting sink that is slow per message, installed after LayerSink:
// its cost must land on the deliver side.
class SlowAccounting final : public srds::obs::TraceSink {
 public:
  explicit SlowAccounting(double ms) : ms_(ms) {}
  void on_send(std::size_t, const srds::Message&) override { busy_wait_ms(ms_); }

 private:
  double ms_;
};

std::unique_ptr<srds::Simulator> make_sim(std::size_t n, std::size_t rounds, double step_ms,
                                          std::vector<std::size_t> quiet = {}) {
  std::vector<std::unique_ptr<srds::Party>> parties;
  for (srds::PartyId i = 0; i < n; ++i) {
    parties.push_back(std::make_unique<ScriptedParty>(i, n, rounds, step_ms, quiet));
  }
  return std::make_unique<srds::Simulator>(std::move(parties), std::vector<bool>(n, false),
                                           nullptr);
}

TEST(LayerSink, StepAndDeliverLandOnTheirOwnSide) {
  constexpr std::size_t kParties = 2, kRounds = 3;
  constexpr double kStepMs = 10, kDeliverMs = 20;
  auto sim = make_sim(kParties, kRounds, kStepMs);
  LayerSink sink;
  SlowAccounting slow(kDeliverMs);
  sim->add_trace_sink(&sink);
  sim->add_trace_sink(&slow);
  sim->run(kRounds + 1);

  ASSERT_EQ(sink.phases().size(), 1u);
  const perfbench::PhaseLayer& ph = sink.phases()[0];
  EXPECT_EQ(ph.rounds, kRounds);
  const double step = kParties * kRounds * kStepMs * 1e-3;        // 60 ms of party work
  const double deliver = kParties * kRounds * kDeliverMs * 1e-3;  // 120 ms of accounting
  // A split at the wrong point would move at least half of one side into the
  // other; the slack above each lower bound is less than that and absorbs
  // scheduling noise.
  EXPECT_GE(ph.step_s, step);
  EXPECT_LT(ph.step_s, step + deliver / 2);
  EXPECT_GE(ph.deliver_s, deliver);
  EXPECT_LT(ph.deliver_s, deliver + step / 2);
}

TEST(LayerSink, RoundWithoutSendsIsAllStep) {
  auto sim = make_sim(2, 2, 3, /*quiet=*/{0, 1});
  LayerSink sink;
  sim->add_trace_sink(&sink);
  sim->run(3);
  ASSERT_EQ(sink.phases().size(), 1u);
  EXPECT_EQ(sink.phases()[0].deliver_s, 0.0);
  EXPECT_GE(sink.phases()[0].step_s, 2 * 2 * 3e-3);
  EXPECT_EQ(sink.msgs(), 0u);
}

TEST(LayerSink, PhaseCountsMatchNetworkStats) {
  constexpr std::size_t kParties = 5, kRounds = 6;
  auto sim = make_sim(kParties, kRounds, 0, /*quiet=*/{3});
  srds::FaultPlan plan;
  plan.seed = 7;
  plan.drop_prob = 0.3;
  plan.delay_prob = 0.3;
  plan.max_delay = 2;
  sim->set_fault_plan(plan);
  LayerSink sink;
  sink.on_phase(0, "a");
  sink.on_phase(2, "b");
  sim->add_trace_sink(&sink);
  sim->run(kRounds + 4);

  const srds::NetworkStats& stats = sim->stats();
  std::uint64_t msgs = 0;
  for (const srds::PartyStats& p : stats.party) msgs += p.msgs_sent;
  EXPECT_EQ(sink.msgs(), msgs);
  EXPECT_EQ(sink.bytes(), stats.total_bytes());

  // Rounds 0-1 are phase a: 5 messages of 10 and 11 bytes each round.
  const perfbench::PhaseLayer* a = sink.phase("a");
  const perfbench::PhaseLayer* b = sink.phase("b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->rounds, 2u);
  EXPECT_EQ(a->msgs, 2 * kParties);
  EXPECT_EQ(a->bytes, kParties * (10 + 11));
  EXPECT_EQ(a->msgs + b->msgs, msgs);

  using srds::obs::Delivery;
  EXPECT_EQ(sink.outcomes(Delivery::kDropped), stats.faults.dropped);
  EXPECT_EQ(sink.outcomes(Delivery::kDelayed), stats.faults.delayed);
  EXPECT_EQ(sink.outcomes(Delivery::kLate), stats.faults.late_delivered);
  EXPECT_GT(stats.faults.dropped + stats.faults.delayed, 0u);
}

TEST(LayerSink, SetupRoundsPreambleAndCollectCoverTheCall) {
  auto sim = make_sim(3, 4, 1);
  LayerSink sink;
  sim->add_trace_sink(&sink);
  const std::int64_t t0 = now_ns();
  sink.begin_call();
  busy_wait_ms(4);  // "setup" before the simulator starts
  sim->run(5);
  busy_wait_ms(4);  // "collect" after it ends
  sink.end_call();
  const double wall = static_cast<double>(now_ns() - t0) * 1e-9;

  EXPECT_GE(sink.setup_s(), 4e-3);
  EXPECT_GE(sink.collect_s(), 4e-3);
  const double attributed =
      sink.setup_s() + sink.rounds_s() + sink.preamble_s() + sink.collect_s();
  EXPECT_LE(attributed, wall);
  EXPECT_GT(attributed, 0.95 * wall);
}

TEST(SpanLog, RecordsParentsAndExportsChromeTrace) {
  auto sim = make_sim(2, 2, 0);
  perfbench::SpanLog spans(42);
  const std::uint64_t call = spans.open("call", 0, now_ns());
  LayerSink sink(&spans, call);
  sim->add_trace_sink(&sink);
  sink.begin_call();
  sim->run(3);
  sink.end_call();
  spans.close(call, now_ns());

  // call, setup, run, phase, 2 x (round, step, deliver), collect
  ASSERT_EQ(spans.spans().size(), 11u);
  std::size_t rounds = 0;
  for (const perfbench::Span& s : spans.spans()) {
    EXPECT_LE(s.start_ns, s.end_ns) << s.name;
    if (s.name == "step" || s.name == "deliver") {
      EXPECT_EQ(spans.spans()[s.parent - 1].name.rfind("round ", 0), 0u);
    }
    if (s.name.rfind("round ", 0) == 0) {
      ++rounds;
      EXPECT_EQ(spans.spans()[s.parent - 1].name, "all");  // the implicit phase
    }
  }
  EXPECT_EQ(rounds, 2u);

  const srds::obs::Json doc = spans.chrome_trace();
  const srds::obs::Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items().size(), spans.spans().size());
  for (const srds::obs::Json& e : events->items()) {
    EXPECT_EQ(e.find("ph")->as_string(), "X");
    EXPECT_EQ(e.find("args")->find("run")->as_uint(), 42u);
  }
}

TEST(Stats, TailPercentileKeepsTenSamplesBeyond) {
  EXPECT_EQ(perfbench::samples_beyond(40, 75), 10u);
  EXPECT_EQ(perfbench::samples_beyond(40, 90), 4u);
  EXPECT_EQ(perfbench::tail_percentile(40), 75.0);
  EXPECT_EQ(perfbench::tail_percentile(39), 50.0);
  EXPECT_EQ(perfbench::tail_percentile(20), 50.0);
  EXPECT_FALSE(perfbench::tail_percentile(19).has_value());
  EXPECT_EQ(perfbench::tail_percentile(100), 90.0);
  EXPECT_EQ(perfbench::tail_percentile(1000), 99.0);
  EXPECT_EQ(perfbench::tail_percentile(10000), 99.9);
}

TEST(Stats, NearestRankPercentile) {
  std::vector<double> v;
  for (int i = 40; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(perfbench::percentile(v, 75), 30.0);
  EXPECT_EQ(perfbench::percentile(v, 50), 20.0);
  EXPECT_EQ(perfbench::percentile(v, 100), 40.0);
  EXPECT_EQ(perfbench::percentile(v, 0), 1.0);
  EXPECT_EQ(perfbench::median({3.0}), 3.0);
  EXPECT_EQ(perfbench::percentile({}, 50), 0.0);
}

}  // namespace
