// Outside-in layer timing for the benchmark's traced runs.
//
// LayerSink is an obs::TraceSink the benchmark installs through
// BaRunConfig::trace / ServiceConfig::trace. It adds nothing inside the
// library: every number comes from the simulator's existing callbacks.
//
//   setup     measured-call start (begin_call) → on_run_begin
//   step      on_round_begin → the round's first on_send: the honest
//             parties' on_round (and the adversary, which runs just before
//             the first send is handed to the network)
//   deliver   first on_send → on_round_end: Simulator::deliver plus every
//             installed accounting sink (NetworkStats, Ledger)
//   preamble  on_run_begin / on_round_end → next on_round_begin, and the
//             last on_round_end → on_run_end: crash, churn and corruption
//             checks and late deliveries between rounds
//   collect   on_run_end → end_call: stats copies, audits, teardown
//
// A round with no network send is all step time. Rounds are attributed to
// the most recent phase mark (on_phase) at or before them; without any mark
// they all belong to one phase named "all".
//
// SpanLog keeps the spans of one traced run in memory (name, start, end,
// parent id, shared run id) and writes them out as a chrome trace when the
// run ends.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace perfbench {

/// Monotonic clock reading in nanoseconds.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint64_t id = 0;      // 1-based; 0 means "no span"
  std::uint64_t parent = 0;  // id of the span that caused this one
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  explicit SpanLog(std::uint64_t run_id) : run_id_(run_id) {}

  /// Open a span now-or-at-`start_ns`; close() stamps its end.
  std::uint64_t open(std::string name, std::uint64_t parent, std::int64_t start_ns);
  void close(std::uint64_t id, std::int64_t end_ns);
  /// Record a span whose interval is already known.
  std::uint64_t add(std::string name, std::uint64_t parent, std::int64_t start_ns,
                    std::int64_t end_ns);

  std::uint64_t run_id() const { return run_id_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// chrome://tracing "X" events, microseconds from the earliest span, with
  /// {id, parent, run} in each event's args.
  srds::obs::Json chrome_trace() const;

 private:
  std::uint64_t run_id_;
  std::vector<Span> spans_;
};

/// Per-phase layer totals of one run.
struct PhaseLayer {
  std::string name;
  std::size_t start_round = 0;
  std::size_t rounds = 0;
  double step_s = 0;
  double deliver_s = 0;
  std::uint64_t msgs = 0;   // network sends accepted (as NetworkStats counts them)
  std::uint64_t bytes = 0;  // their payload bytes
};

class LayerSink final : public srds::obs::TraceSink {
 public:
  /// `spans` (optional, non-owning) receives setup/run/phase/round/step/
  /// deliver/collect spans as children of `parent_span`.
  explicit LayerSink(SpanLog* spans = nullptr, std::uint64_t parent_span = 0)
      : spans_(spans), parent_span_(parent_span) {}

  /// Bracket the measured call (e.g. run_ba) so setup and collect can be
  /// attributed. Optional: without them setup_s/collect_s stay 0.
  void begin_call();
  void end_call();

  void on_run_begin(std::size_t n_parties) override;
  void on_round_begin(std::size_t round) override;
  void on_send(std::size_t round, const srds::Message& m) override;
  void on_delivery(std::size_t round, const srds::Message& m,
                   srds::obs::Delivery outcome) override;
  void on_round_end(std::size_t round) override;
  void on_run_end(std::size_t rounds) override;
  void on_phase(std::size_t start_round, const std::string& name) override;
  void on_span(const std::string& name, std::uint64_t wall_ns) override;

  const std::vector<PhaseLayer>& phases() const { return phases_; }
  /// The phase named `name`, or nullptr.
  const PhaseLayer* phase(const std::string& name) const;

  double setup_s() const { return setup_s_; }
  double preamble_s() const { return preamble_s_; }
  double collect_s() const { return collect_s_; }
  /// Σ step + Σ deliver over every phase.
  double rounds_s() const;
  std::uint64_t msgs() const;
  std::uint64_t bytes() const;
  std::uint64_t outcomes(srds::obs::Delivery d) const {
    return outcomes_[static_cast<std::size_t>(d)];
  }
  /// Total wall time reported through on_span under `name` (0 if none).
  double span_s(const std::string& name) const;

 private:
  PhaseLayer& current_phase(std::size_t round);
  void close_phase_span(std::int64_t t);

  SpanLog* spans_;
  std::uint64_t parent_span_;

  std::vector<PhaseLayer> phases_;
  std::size_t cur_phase_ = 0;
  std::array<std::uint64_t, 7> outcomes_{};
  std::map<std::string, double> named_spans_;

  std::int64_t call_begin_ = 0;
  std::int64_t run_end_ = 0;
  std::int64_t last_mark_ = 0;     // end of the previous round (or run begin)
  std::int64_t round_begin_ = 0;
  std::int64_t first_send_ = 0;    // 0 = no send yet this round
  double setup_s_ = 0;
  double preamble_s_ = 0;
  double collect_s_ = 0;

  std::uint64_t run_span_ = 0;
  std::uint64_t phase_span_ = 0;
  std::size_t phase_span_of_ = 0;  // index into phases_ of the open phase span
  std::uint64_t round_span_ = 0;
};

}  // namespace perfbench
