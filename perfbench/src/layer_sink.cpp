#include "layer_sink.hpp"

#include <algorithm>

namespace perfbench {

namespace {

double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

}  // namespace

std::uint64_t SpanLog::open(std::string name, std::uint64_t parent, std::int64_t start_ns) {
  return add(std::move(name), parent, start_ns, start_ns);
}

void SpanLog::close(std::uint64_t id, std::int64_t end_ns) {
  if (id != 0 && id <= spans_.size()) spans_[id - 1].end_ns = end_ns;
}

std::uint64_t SpanLog::add(std::string name, std::uint64_t parent, std::int64_t start_ns,
                           std::int64_t end_ns) {
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.name = std::move(name);
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

srds::obs::Json SpanLog::chrome_trace() const {
  using srds::obs::Json;
  std::int64_t origin = 0;
  for (const Span& s : spans_) {
    if (origin == 0 || s.start_ns < origin) origin = s.start_ns;
  }
  Json events = Json::array();
  for (const Span& s : spans_) {
    Json args = Json::object();
    args.set("id", s.id);
    args.set("parent", s.parent);
    args.set("run", run_id_);
    Json e = Json::object();
    e.set("name", s.name);
    e.set("ph", "X");
    e.set("ts", static_cast<double>(s.start_ns - origin) * 1e-3);
    e.set("dur", static_cast<double>(std::max<std::int64_t>(s.end_ns - s.start_ns, 0)) * 1e-3);
    e.set("pid", 1);
    e.set("tid", 1);
    e.set("args", std::move(args));
    events.push_back(std::move(e));
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  return doc;
}

void LayerSink::begin_call() { call_begin_ = now_ns(); }

void LayerSink::end_call() {
  const std::int64_t t = now_ns();
  if (run_end_ == 0) return;
  collect_s_ = seconds(t - run_end_);
  if (spans_) spans_->add("collect", parent_span_, run_end_, t);
}

void LayerSink::on_run_begin(std::size_t) {
  const std::int64_t t = now_ns();
  if (call_begin_ != 0) {
    setup_s_ = seconds(t - call_begin_);
    if (spans_) spans_->add("setup", parent_span_, call_begin_, t);
  }
  last_mark_ = t;
  cur_phase_ = 0;
  if (spans_) run_span_ = spans_->open("run", parent_span_, t);
}

PhaseLayer& LayerSink::current_phase(std::size_t round) {
  if (phases_.empty()) phases_.push_back(PhaseLayer{"all", 0});
  while (cur_phase_ + 1 < phases_.size() && phases_[cur_phase_ + 1].start_round <= round) {
    ++cur_phase_;
  }
  return phases_[cur_phase_];
}

void LayerSink::close_phase_span(std::int64_t t) {
  if (spans_ && phase_span_ != 0) spans_->close(phase_span_, t);
  phase_span_ = 0;
}

void LayerSink::on_round_begin(std::size_t round) {
  const std::int64_t t = now_ns();
  preamble_s_ += seconds(t - last_mark_);
  round_begin_ = t;
  first_send_ = 0;
  PhaseLayer& ph = current_phase(round);
  if (spans_) {
    if (phase_span_ == 0 || phase_span_of_ != cur_phase_) {
      close_phase_span(t);
      phase_span_ = spans_->open(ph.name, run_span_, t);
      phase_span_of_ = cur_phase_;
    }
    round_span_ = spans_->open("round " + std::to_string(round), phase_span_, t);
  }
}

void LayerSink::on_send(std::size_t, const srds::Message& m) {
  if (first_send_ == 0) first_send_ = now_ns();
  PhaseLayer& ph = phases_[cur_phase_];
  ph.msgs += 1;
  ph.bytes += m.payload.size();
}

void LayerSink::on_delivery(std::size_t, const srds::Message&, srds::obs::Delivery outcome) {
  outcomes_[static_cast<std::size_t>(outcome)] += 1;
}

void LayerSink::on_round_end(std::size_t) {
  const std::int64_t t = now_ns();
  const std::int64_t split = first_send_ != 0 ? first_send_ : t;
  PhaseLayer& ph = phases_[cur_phase_];
  ph.rounds += 1;
  ph.step_s += seconds(split - round_begin_);
  ph.deliver_s += seconds(t - split);
  if (spans_) {
    spans_->add("step", round_span_, round_begin_, split);
    if (first_send_ != 0) spans_->add("deliver", round_span_, split, t);
    spans_->close(round_span_, t);
  }
  last_mark_ = t;
}

void LayerSink::on_run_end(std::size_t) {
  const std::int64_t t = now_ns();
  preamble_s_ += seconds(t - last_mark_);
  run_end_ = t;
  close_phase_span(t);
  if (spans_) spans_->close(run_span_, t);
}

void LayerSink::on_phase(std::size_t start_round, const std::string& name) {
  PhaseLayer ph;
  ph.name = name;
  ph.start_round = start_round;
  auto at = std::upper_bound(
      phases_.begin(), phases_.end(), start_round,
      [](std::size_t r, const PhaseLayer& p) { return r < p.start_round; });
  phases_.insert(at, std::move(ph));
}

void LayerSink::on_span(const std::string& name, std::uint64_t wall_ns) {
  const std::int64_t t = now_ns();
  named_spans_[name] += static_cast<double>(wall_ns) * 1e-9;
  if (spans_) spans_->add(name, parent_span_, t - static_cast<std::int64_t>(wall_ns), t);
}

const PhaseLayer* LayerSink::phase(const std::string& name) const {
  for (const PhaseLayer& p : phases_) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

double LayerSink::rounds_s() const {
  double s = 0;
  for (const PhaseLayer& p : phases_) s += p.step_s + p.deliver_s;
  return s;
}

std::uint64_t LayerSink::msgs() const {
  std::uint64_t n = 0;
  for (const PhaseLayer& p : phases_) n += p.msgs;
  return n;
}

std::uint64_t LayerSink::bytes() const {
  std::uint64_t n = 0;
  for (const PhaseLayer& p : phases_) n += p.bytes;
  return n;
}

double LayerSink::span_s(const std::string& name) const {
  auto it = named_spans_.find(name);
  return it == named_spans_.end() ? 0.0 : it->second;
}

}  // namespace perfbench
