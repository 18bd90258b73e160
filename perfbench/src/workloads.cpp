#include "workloads.hpp"

#include <algorithm>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "ba/runner.hpp"
#include "common/rng.hpp"
#include "layer_sink.hpp"
#include "obs/ledger.hpp"
#include "obs/prof.hpp"
#include "stats.hpp"
#include "svc/service.hpp"
#include "svc/transport.hpp"

namespace perfbench {

namespace {

using srds::obs::Json;
using srds::obs::Ledger;
using srds::obs::LedgerField;

enum class Kind { kBa, kService };

struct Workload {
  Kind kind = Kind::kBa;
  /// BA only: typical wall time of one run_ba call on a 4-core x86 host
  /// (Release build); a leg makes floor(seconds / nominal_call_s) calls, at
  /// least one. A service leg always drives one loop of `ell` submissions.
  double nominal_call_s = 1;
  srds::BaRunConfig ba;
  /// BA gate: surviving honest parties that must decide (1 = all of them).
  double min_decided = 1.0;
  srds::svc::ServiceConfig svc;
  std::size_t ell = 0;  // service submissions
};

// Phase marks the harnesses register, and the module each phase's party
// step belongs to.
struct PhaseNames {
  const char* phase;
  const char* step_metric;
};
constexpr PhaseNames kPhases[] = {
    {"f_ba", "consensus.f_ba.step_s"},   {"f_ct", "consensus.f_ct.step_s"},
    {"f_ae-dissem", "tree.f_ae-dissem.step_s"}, {"boost", "ba.boost.step_s"},
    {"grace", "ba.grace.step_s"},        {"service", "svc.pipeline.step_s"},
};

// Existing prof sites read in traced legs: metric stem <- site name.
constexpr std::pair<const char*, const char*> kProfSites[] = {
    {"srds.sign", "srds/sign"},
    {"srds.aggregate1", "srds/aggregate1"},
    {"srds.aggregate2", "srds/aggregate2"},
    {"srds.verify", "srds/verify"},
    {"srds.deserialize", "srds/deserialize"},
    {"crypto.merkle_build", "crypto/merkle/build"},
    {"crypto.merkle_verify", "crypto/merkle/verify"},
    {"crypto.lamport_sign", "crypto/lamport/sign"},
    {"crypto.lamport_verify", "crypto/lamport/verify"},
    {"crypto.sha256", "crypto/sha256"},
};

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Seed of the protocol's own randomness (comm tree, committees, keys),
// fixed so that every benchmark seed runs the same structure: per-party
// maxima differ by 10-15% between trees at these sizes, which would
// otherwise swamp run-to-run differences.
constexpr std::uint64_t kStructureSeed = 2021;

// The benchmark seed picks the inputs: the BA input bit, the service's
// submitted bits and the chaos workload's fault plan.
Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.ba.seed = kStructureSeed;
  w.ba.input = (mix(seed) & 1) != 0;
  w.ba.beta = 0.2;
  w.ba.strict_budgets = true;
  if (name == "pi_ba_snark_n4096") {
    w.nominal_call_s = 13;
    w.ba.n = 4096;
    w.ba.protocol = srds::BoostProtocol::kPiBaSnark;
  } else if (name == "multisig_n256") {
    w.nominal_call_s = 2.1;
    w.ba.n = 256;
    w.ba.protocol = srds::BoostProtocol::kMultisig;
  } else if (name == "pi_ba_chaos_n2048") {
    w.nominal_call_s = 9;
    w.ba.n = 2048;
    w.ba.protocol = srds::BoostProtocol::kPiBaSnark;
    srds::FaultPlan plan;
    plan.seed = mix(seed ^ 0x6661756c74ULL);
    plan.drop_prob = 0.02;
    plan.delay_prob = 0.05;
    plan.max_delay = 2;
    w.ba.faults = plan;
    w.ba.campaign = srds::CampaignKind::kEclipse;
    w.ba.corruption_rate = 0.05;
    // Eclipsed and drop-isolated parties may stay undecided, and certificate
    // retransmits may push single parties past the fault-free boost budget
    // (the audit still runs and its findings are counted); safety may not
    // break.
    w.min_decided = 0.95;
    w.ba.strict_budgets = false;
  } else if (name == "service_n128") {
    w.kind = Kind::kService;
    w.svc.n = 128;
    w.svc.beta = 0.1;
    w.svc.seed = kStructureSeed;
    w.svc.strict_budgets = true;
    w.ell = 40;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

double secs(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

std::uint64_t msgs_sent(const srds::NetworkStats& stats) {
  std::uint64_t n = 0;
  for (const srds::PartyStats& p : stats.party) n += p.msgs_sent;
  return n;
}

// The number of calls is fixed by the options, never by how fast calls run,
// so every leg of one workload does the same work.
std::size_t calls_for(const Workload& w, const LegOptions& opt) {
  return std::max<std::size_t>(1, static_cast<std::size_t>(opt.seconds / w.nominal_call_s));
}

void set_metric(Json& into, const std::string& name, double value, const char* unit) {
  Json m = Json::object();
  m.set("value", value);
  m.set("unit", unit);
  into.set(name, std::move(m));
}

// Every per-layer metric, present (0 when the workload does not exercise
// the layer) so that each traced leg reports the same set.
Json zero_layers() {
  Json l = Json::object();
  for (const char* n : {"trace.attributed_fraction", "trace.remainder_fraction"}) {
    set_metric(l, n, 0, "ratio");
  }
  for (const char* n : {"tree.build_s", "srds.keygen_s", "ba.setup_other_s", "ba.collect_s",
                        "net.preamble_s", "svc.setup_s", "svc.daemon_step_s", "svc.poll_s",
                        "svc.admit_s", "svc.shutdown_s"}) {
    set_metric(l, n, 0, "s");
  }
  set_metric(l, "net.deliver_ns_per_msg", 0, "ns");
  for (const char* n : {"net.late", "net.dropped", "net.delayed", "net.partitioned",
                        "svc.rejected", "svc.stale_frames", "ba.undecided_parties"}) {
    set_metric(l, n, 0, "count");
  }
  set_metric(l, "svc.rounds_per_decision", 0, "rounds");
  set_metric(l, "ba.boost.max_bytes_per_party", 0, "bytes");
  for (const PhaseNames& p : kPhases) {
    const std::string net = std::string("net.") + p.phase;
    set_metric(l, p.step_metric, 0, "s");
    set_metric(l, net + ".deliver_s", 0, "s");
    set_metric(l, net + ".msgs", 0, "count");
    set_metric(l, net + ".bytes", 0, "bytes");
  }
  for (const auto& [stem, site] : kProfSites) {
    (void)site;
    set_metric(l, std::string(stem) + "_s", 0, "s");
    set_metric(l, std::string(stem) + "_calls", 0, "count");
  }
  return l;
}

// The end-to-end metrics of an untraced leg. `latencies` holds one sample
// per decision; `busy_s` is the wall time those decisions took together.
void fill_end_to_end(LegResult& out, double wall, double setup, double busy_s,
                     const std::vector<double>& latencies) {
  Json& m = out.metrics;
  set_metric(m, "wall_s", wall, "s");
  set_metric(m, "setup_s", setup, "s");
  set_metric(m, "peak_rss_mb", peak_rss_mb(), "MB");
  set_metric(m, "decisions_per_s", static_cast<double>(latencies.size()) / busy_s, "1/s");
  set_metric(m, "latency_p50_s", percentile(latencies, 50), "s");
  set_metric(m, "latency_p75_s", percentile(latencies, 75), "s");
  const Json* max_bytes = out.counts.find("max_bytes_per_party");
  const Json* rounds = out.counts.find("rounds");
  set_metric(m, "max_bytes_per_party", max_bytes ? max_bytes->as_double() : 0.0, "bytes");
  set_metric(m, "rounds", rounds ? rounds->as_double() : 0.0, "count");
}

void set_layer(Json& layers, const std::string& name, double value) {
  Json* m = layers.find(name);
  if (m == nullptr) throw std::logic_error("perfbench: undeclared layer metric " + name);
  m->set("value", value);
}

// Sink-measured per-phase numbers, plus the delivery outcome counters.
void fill_sink_layers(Json& layers, const LayerSink& sink) {
  double deliver = 0;
  for (const PhaseNames& p : kPhases) {
    const PhaseLayer* ph = sink.phase(p.phase);
    if (ph == nullptr) continue;
    const std::string net = std::string("net.") + p.phase;
    set_layer(layers, p.step_metric, ph->step_s);
    set_layer(layers, net + ".deliver_s", ph->deliver_s);
    set_layer(layers, net + ".msgs", static_cast<double>(ph->msgs));
    set_layer(layers, net + ".bytes", static_cast<double>(ph->bytes));
    deliver += ph->deliver_s;
  }
  if (sink.msgs() != 0) {
    set_layer(layers, "net.deliver_ns_per_msg",
              deliver * 1e9 / static_cast<double>(sink.msgs()));
  }
  using srds::obs::Delivery;
  set_layer(layers, "net.late", static_cast<double>(sink.outcomes(Delivery::kLate)));
  set_layer(layers, "net.dropped", static_cast<double>(sink.outcomes(Delivery::kDropped)));
  set_layer(layers, "net.delayed", static_cast<double>(sink.outcomes(Delivery::kDelayed)));
  set_layer(layers, "net.partitioned",
            static_cast<double>(sink.outcomes(Delivery::kPartitioned)));
}

void fill_prof_layers(Json& layers) {
  const Json snap = srds::obs::prof_to_json();
  const Json* sites = snap.find("sites");
  if (sites == nullptr) return;
  for (const auto& [stem, site] : kProfSites) {
    for (const Json& s : sites->items()) {
      const Json* name = s.find("name");
      if (name == nullptr || name->as_string() != site) continue;
      const Json* total = s.find("total_ns");
      const Json* count = s.find("count");
      set_layer(layers, std::string(stem) + "_s",
                total ? static_cast<double>(total->as_uint()) * 1e-9 : 0.0);
      set_layer(layers, std::string(stem) + "_calls",
                count ? static_cast<double>(count->as_uint()) : 0.0);
    }
  }
}

// Per-phase sent messages/bytes as the ledger tallies them.
Json ledger_phases(const Ledger& ledger) {
  Json phases = Json::object();
  for (std::size_t p = 0; p < ledger.phase_count(); ++p) {
    std::uint64_t msgs = 0, bytes = 0;
    for (srds::PartyId i = 0; i < ledger.n_parties(); ++i) {
      msgs += ledger.phase_total(p, i).msgs_sent;
      bytes += ledger.phase_total(p, i).bytes_sent;
    }
    Json ph = Json::object();
    ph.set("msgs", msgs);
    ph.set("bytes", bytes);
    phases.set(ledger.phase_name(p), std::move(ph));
  }
  return phases;
}

// Tracing must observe the run, not change it: the sink's own per-phase
// counts must equal the ledger's.
void check_sink_counts(const LayerSink& sink, const Ledger& ledger,
                       std::vector<std::string>& errors) {
  for (std::size_t p = 0; p < ledger.phase_count(); ++p) {
    const PhaseLayer* ph = sink.phase(ledger.phase_name(p));
    std::uint64_t msgs = 0, bytes = 0;
    for (srds::PartyId i = 0; i < ledger.n_parties(); ++i) {
      msgs += ledger.phase_total(p, i).msgs_sent;
      bytes += ledger.phase_total(p, i).bytes_sent;
    }
    if (ph == nullptr || ph->msgs != msgs || ph->bytes != bytes) {
      errors.push_back("trace sink and ledger disagree on phase " + ledger.phase_name(p));
    }
  }
}

void write_trace(const SpanLog& spans, const std::string& path,
                 std::vector<std::string>& errors) {
  if (path.empty()) return;
  std::ofstream out(path);
  out << spans.chrome_trace().dump(-1) << "\n";
  if (!out) errors.push_back("could not write trace " + path);
}

std::uint64_t run_id(const LegOptions& opt) {
  return mix(opt.seed ^ std::hash<std::string>{}(opt.workload)) >> 11;
}

// ---------------------------------------------------------------- run_ba --

struct BaCall {
  srds::BaRunResult result;
  std::unique_ptr<Ledger> ledger = std::make_unique<Ledger>();
  double wall_s = 0;
  std::string error;  // budget violation or other exception
};

BaCall call_run_ba(srds::BaRunConfig cfg, srds::obs::TraceSink* sink) {
  BaCall c;
  cfg.ledger = c.ledger.get();
  cfg.trace = sink;
  const std::int64_t t0 = now_ns();
  try {
    c.result = srds::run_ba(cfg);
  } catch (const srds::BudgetViolation& v) {
    c.error = std::string("strict budget audit failed: ") + v.what();
  } catch (const std::exception& e) {
    c.error = std::string("run_ba threw: ") + e.what();
  }
  c.wall_s = secs(now_ns() - t0);
  return c;
}

// Deterministic outputs of one run_ba call.
Json ba_counts(const BaCall& c) {
  const srds::BaRunResult& r = c.result;
  const Ledger& ledger = *c.ledger;
  Json j = Json::object();
  j.set("rounds", r.rounds);
  j.set("boost_rounds", r.boost_rounds);
  j.set("honest", r.honest);
  j.set("decided", r.decided);
  j.set("correct", r.correct);
  j.set("crashed", r.crashed);
  j.set("msgs_total", msgs_sent(r.stats));
  j.set("bytes_total", r.stats.total_bytes());
  j.set("max_bytes_per_party", ledger.stat(LedgerField::kBytesTotal).max);
  j.set("boost_max_bytes_per_party",
        ledger.stat(LedgerField::kBytesTotal, ledger.phase_index("boost")).max);
  j.set("dropped", r.stats.faults.dropped);
  j.set("delayed", r.stats.faults.delayed);
  j.set("late_delivered", r.stats.faults.late_delivered);
  j.set("partitioned", r.stats.faults.partitioned);
  j.set("adaptive_corruptions", r.adaptively_corrupted);
  std::size_t findings = 0;
  for (const srds::obs::BudgetEval& e : r.budget_evals) findings += !e.skipped && !e.ok;
  j.set("budget_findings", findings);
  j.set("phases", ledger_phases(ledger));
  return j;
}

// The correctness gate for one run_ba call.
std::vector<std::string> ba_gate(const Workload& w, const BaCall& c) {
  if (!c.error.empty()) return {c.error};
  std::vector<std::string> errors;
  const srds::BaRunResult& r = c.result;
  if (!r.agreement) errors.push_back("agreement broken: honest parties decided differently");
  if (r.correct != r.decided) {
    errors.push_back("validity broken: " + std::to_string(r.decided - r.correct) +
                     " honest parties decided against the common input");
  }
  if (r.surviving_decided_fraction() < w.min_decided) {
    errors.push_back("only " + std::to_string(r.decided) + " of " +
                     std::to_string(r.honest - r.crashed) + " surviving honest parties decided");
  }
  if (r.budget_evals.empty()) errors.push_back("budget audit did not run");
  if (c.ledger->stat(LedgerField::kBytesSent).total != r.stats.total_bytes() ||
      c.ledger->stat(LedgerField::kMsgsSent).total != msgs_sent(r.stats)) {
    errors.push_back("ledger and NetworkStats disagree on sent totals");
  }
  return errors;
}

// Thrown from on_run_begin to stop run_ba once its setup is done.
struct SetupReached {};

class SetupProbe final : public srds::obs::TraceSink {
 public:
  void on_run_begin(std::size_t) override { throw SetupReached{}; }
};

// Set-up is sampled in bursts spread over the leg — before each measured
// call and after the last — until kSetupSampleS of set-up time has been
// sampled in all, so a millisecond set-up gets hundreds of samples and the
// median covers the same stretch of host time as the measured calls.
constexpr double kSetupSampleS = 2.0;
constexpr std::size_t kMinProbesPerBurst = 2;

template <class Probe>
void setup_burst(std::vector<double>& setups, std::size_t bursts, Probe&& probe) {
  const double budget = kSetupSampleS / static_cast<double>(bursts);
  double sampled = 0;
  for (std::size_t i = 0; i < kMinProbesPerBurst || sampled < budget; ++i) {
    setups.push_back(probe());
    sampled += setups.back();
  }
}

double probe_ba_setup(const srds::BaRunConfig& base) {
  srds::BaRunConfig cfg = base;
  Ledger ledger;
  SetupProbe probe;
  cfg.ledger = &ledger;
  cfg.trace = &probe;
  const std::int64_t t0 = now_ns();
  try {
    srds::run_ba(cfg);
  } catch (const SetupReached&) {
    return secs(now_ns() - t0);
  }
  throw std::logic_error("perfbench: run_ba finished without starting its simulator");
}

void run_ba_untraced(const Workload& w, const LegOptions& opt, LegResult& out) {
  const std::size_t calls = calls_for(w, opt);
  std::vector<double> setups;
  const auto probe = [&w] { return probe_ba_setup(w.ba); };

  std::vector<double> walls;
  std::string first_counts;
  while (walls.size() < calls) {
    setup_burst(setups, calls + 1, probe);
    BaCall c = call_run_ba(w.ba, nullptr);
    walls.push_back(c.wall_s);
    out.attempted += 1;
    std::vector<std::string> errors = ba_gate(w, c);
    if (errors.empty()) {
      Json counts = ba_counts(c);
      const std::string dumped = counts.dump(-1);
      if (first_counts.empty()) {
        first_counts = dumped;
        out.counts = std::move(counts);
      } else if (dumped != first_counts) {
        errors.push_back("repeated run_ba with one config gave different counts");
      }
    }
    if (!errors.empty()) {
      out.failed += 1;
      out.errors.insert(out.errors.end(), errors.begin(), errors.end());
    }
  }
  setup_burst(setups, calls + 1, probe);

  double busy = 0;
  for (double t : walls) busy += t;
  out.call_wall_s = median(walls);
  fill_end_to_end(out, median(walls), median(setups), busy, walls);
}

void run_ba_traced(const Workload& w, const LegOptions& opt, LegResult& out) {
  SpanLog spans(run_id(opt));
  const std::int64_t t0 = now_ns();
  const std::uint64_t call = spans.open("run_ba " + opt.workload, 0, t0);
  LayerSink sink(&spans, call);
  srds::obs::prof_reset();
  srds::obs::prof_set_enabled(true);
  sink.begin_call();
  BaCall c = call_run_ba(w.ba, &sink);
  sink.end_call();
  srds::obs::prof_set_enabled(false);
  const std::int64_t t1 = now_ns();
  spans.close(call, t1);
  const double wall = secs(t1 - t0);

  out.attempted = 1;
  out.errors = ba_gate(w, c);
  if (out.errors.empty()) {
    out.counts = ba_counts(c);
    check_sink_counts(sink, *c.ledger, out.errors);
    if (sink.msgs() != msgs_sent(c.result.stats) ||
        sink.bytes() != c.result.stats.total_bytes()) {
      out.errors.push_back("trace sink and NetworkStats disagree on sent totals");
    }
  }
  if (!out.errors.empty()) out.failed = 1;
  out.call_wall_s = wall;
  write_trace(spans, opt.trace_out, out.errors);

  Json& l = out.layers = zero_layers();
  fill_sink_layers(l, sink);
  fill_prof_layers(l);
  const double tree = sink.span_s("tree-build");
  const double keygen = sink.span_s("srds-keygen");
  set_layer(l, "tree.build_s", tree);
  set_layer(l, "srds.keygen_s", keygen);
  set_layer(l, "ba.setup_other_s", sink.setup_s() - tree - keygen);
  set_layer(l, "ba.collect_s", sink.collect_s());
  set_layer(l, "net.preamble_s", sink.preamble_s());
  const srds::BaRunResult& r = c.result;
  set_layer(l, "ba.undecided_parties",
            static_cast<double>(r.honest - r.crashed - std::min(r.correct, r.honest - r.crashed)));
  if (const Json* b = out.counts.find("boost_max_bytes_per_party")) {
    set_layer(l, "ba.boost.max_bytes_per_party", b->as_double());
  }
  // Close to 1 whenever the sink saw the whole call; the remainder is the
  // part attributed only by difference between events.
  set_layer(l, "trace.attributed_fraction",
            (sink.setup_s() + sink.rounds_s() + sink.preamble_s() + sink.collect_s()) / wall);
  set_layer(l, "trace.remainder_fraction",
            (sink.setup_s() - tree - keygen + sink.preamble_s() + sink.collect_s()) / wall);
}

// --------------------------------------------------------------- service --

// One daemon with one loopback client session. Members are declared so
// that everything the daemon points at outlives it.
struct ServiceStack {
  Ledger ledger;
  srds::svc::LoopbackTransport transport;
  std::unique_ptr<srds::svc::BaServiceDaemon> daemon;
  std::unique_ptr<srds::svc::ServiceClient> client;
};

std::unique_ptr<ServiceStack> open_service(const Workload& w, srds::obs::TraceSink* sink) {
  auto s = std::make_unique<ServiceStack>();
  srds::svc::ServiceConfig cfg = w.svc;
  cfg.ledger = &s->ledger;
  cfg.trace = sink;
  s->daemon = std::make_unique<srds::svc::BaServiceDaemon>(std::move(cfg));
  s->daemon->add_listener(s->transport.listener());
  s->client = std::make_unique<srds::svc::ServiceClient>(s->transport.connect());
  s->client->open();
  for (int i = 0; i < 1000 && !s->client->opened(); ++i) {
    s->daemon->poll();
    s->client->poll();
  }
  if (!s->client->opened()) throw std::runtime_error("service session did not open");
  return s;
}

struct ServiceRun {
  std::vector<double> latencies;
  std::int64_t first_submit = 0;
  std::int64_t last_decision = 0;
  double poll_s = 0;
  double step_s = 0;
  double shutdown_s = 0;
  std::size_t received = 0;
};

// Closed loop: one session keeps its window full and submits its next bit
// only when a decision frees a slot. `between`, when set, runs after every
// kPauseEvery-th decision while requests are still due; the loop's clock
// stops while it runs, so its time is in no latency and not in the wall.
constexpr std::size_t kPauseEvery = 4;

ServiceRun drive_service(const Workload& w, std::uint64_t seed, ServiceStack& s,
                         SpanLog* spans, std::uint64_t parent,
                         const std::function<void()>& between,
                         std::vector<std::string>& errors) {
  ServiceRun run;
  srds::Rng bits(mix(seed ^ 0x62697473ULL));
  std::unordered_map<std::uint64_t, std::int64_t> submitted_at;
  std::size_t submitted = 0;
  std::int64_t paused = 0;
  std::size_t next_pause = kPauseEvery;
  const auto clock = [&paused] { return now_ns() - paused; };
  for (std::size_t iter = 0; iter < 10000000 && run.received < w.ell; ++iter) {
    const std::int64_t a = now_ns();
    while (submitted < w.ell && s.client->can_submit()) {
      const std::uint64_t seq = s.client->submit(bits.chance(0.5));
      if (seq == 0) {
        errors.push_back("client refused a submission inside its window");
        return run;
      }
      const std::int64_t t = clock();
      if (run.first_submit == 0) run.first_submit = t;
      submitted_at[seq] = t;
      ++submitted;
    }
    s.daemon->poll();
    const std::int64_t b = now_ns();
    s.daemon->step();
    const std::int64_t c = now_ns();
    s.client->poll();
    for (const auto& d : s.client->take_decisions()) {
      const std::int64_t t = clock();
      ++run.received;
      run.last_decision = t;
      run.latencies.push_back(secs(t - submitted_at[d.seq]));
      if (spans) spans->add("request " + std::to_string(d.seq), parent, submitted_at[d.seq], t);
      if (!d.decision.agreement || d.decision.value != d.bit) {
        errors.push_back("request " + std::to_string(d.seq) +
                         " was not answered with an agreed decision on its bit");
      }
    }
    const std::int64_t e = now_ns();
    run.poll_s += secs(b - a) + secs(e - c);
    run.step_s += secs(c - b);
    if (between && run.received >= next_pause && run.received < w.ell) {
      between();
      paused += now_ns() - e;
      next_pause = run.received + kPauseEvery;
    }
  }
  if (run.received != w.ell) {
    errors.push_back("only " + std::to_string(run.received) + " of " + std::to_string(w.ell) +
                     " requests were decided");
  }
  const std::int64_t t = now_ns();
  s.client->close();
  try {
    s.daemon->shutdown();  // drains and audits; throws under strict budgets
    if (s.daemon->audit().empty()) errors.push_back("service budget audit did not run");
  } catch (const srds::BudgetViolation& v) {
    errors.push_back(std::string("strict amortized budget audit failed: ") + v.what());
  }
  run.shutdown_s = secs(now_ns() - t);
  const srds::svc::ServiceStats& st = s.daemon->stats();
  if (st.delivered != w.ell || st.agreed != w.ell) {
    errors.push_back("daemon counted " + std::to_string(st.delivered) + " delivered of " +
                     std::to_string(w.ell));
  }
  return run;
}

Json service_counts(const ServiceStack& s) {
  const srds::svc::ServiceStats& st = s.daemon->stats();
  std::uint64_t span_rounds = 0;
  for (const srds::svc::DecisionRecord& d : s.daemon->decisions()) span_rounds += d.round_span;
  Json j = Json::object();
  j.set("rounds", st.rounds);
  j.set("decisions", st.decisions);
  j.set("delivered", st.delivered);
  j.set("rejected", st.rejected_backpressure);
  j.set("stale_frames", st.pipeline_stale);
  j.set("decision_round_spans", span_rounds);
  j.set("msgs_total", s.ledger.stat(LedgerField::kMsgsSent).total);
  j.set("bytes_total", s.ledger.stat(LedgerField::kBytesSent).total);
  j.set("max_bytes_per_party", s.ledger.stat(LedgerField::kBytesTotal).max);
  j.set("phases", ledger_phases(s.ledger));
  return j;
}

void run_service_untraced(const Workload& w, const LegOptions& opt, LegResult& out) {
  std::vector<double> setups;
  const auto probe = [&w] {
    const std::int64_t t0 = now_ns();
    const std::unique_ptr<ServiceStack> s = open_service(w, nullptr);
    return secs(now_ns() - t0);
  };
  // One burst before the loop, one at each pause in it, one after it.
  const std::size_t bursts = 2 + (w.ell - 1) / kPauseEvery;
  setup_burst(setups, bursts, probe);
  std::unique_ptr<ServiceStack> s = open_service(w, nullptr);
  ServiceRun run = drive_service(
      w, opt.seed, *s, nullptr, 0, [&] { setup_burst(setups, bursts, probe); }, out.errors);
  const std::optional<double> tail = tail_percentile(run.latencies.size());
  if (!tail || *tail < 75) {
    out.errors.push_back("latency_p75_s needs at least 10 of the samples beyond p75");
  }
  out.attempted = w.ell;
  out.failed = w.ell - std::min(w.ell, s->daemon->stats().delivered);
  if (out.errors.empty()) out.counts = service_counts(*s);
  if (!out.errors.empty() && out.failed == 0) out.failed = 1;
  s.reset();
  setup_burst(setups, bursts, probe);

  const double wall = secs(run.last_decision - run.first_submit);
  out.call_wall_s = wall;
  fill_end_to_end(out, wall, median(setups), wall, run.latencies);
}

void run_service_traced(const Workload& w, const LegOptions& opt, LegResult& out) {
  SpanLog spans(run_id(opt));
  const std::int64_t t0 = now_ns();
  const std::uint64_t call = spans.open("service " + opt.workload, 0, t0);
  LayerSink sink(&spans, call);
  srds::obs::prof_reset();
  srds::obs::prof_set_enabled(true);
  std::unique_ptr<ServiceStack> s = open_service(w, &sink);
  const std::int64_t opened = now_ns();
  spans.add("setup", call, t0, opened);
  ServiceRun run = drive_service(w, opt.seed, *s, &spans, call, nullptr, out.errors);
  srds::obs::prof_set_enabled(false);
  const std::int64_t t1 = now_ns();
  spans.close(call, t1);
  const double wall = secs(t1 - t0);

  out.attempted = w.ell;
  out.failed = w.ell - std::min(w.ell, s->daemon->stats().delivered);
  if (out.errors.empty()) {
    out.counts = service_counts(*s);
    check_sink_counts(sink, s->ledger, out.errors);
  }
  if (!out.errors.empty() && out.failed == 0) out.failed = 1;
  out.call_wall_s = secs(run.last_decision - run.first_submit);
  write_trace(spans, opt.trace_out, out.errors);

  Json& l = out.layers = zero_layers();
  fill_sink_layers(l, sink);
  fill_prof_layers(l);
  const double setup = secs(opened - t0);
  const srds::svc::ServiceStats& st = s->daemon->stats();
  set_layer(l, "svc.setup_s", setup);
  set_layer(l, "svc.daemon_step_s", run.step_s);
  set_layer(l, "svc.poll_s", run.poll_s);
  set_layer(l, "svc.admit_s", run.step_s - sink.rounds_s());
  set_layer(l, "svc.shutdown_s", run.shutdown_s);
  set_layer(l, "svc.rounds_per_decision",
            st.decisions ? static_cast<double>(st.rounds) / static_cast<double>(st.decisions)
                         : 0.0);
  set_layer(l, "svc.rejected", static_cast<double>(st.rejected_backpressure));
  set_layer(l, "svc.stale_frames", static_cast<double>(st.pipeline_stale));
  set_layer(l, "trace.attributed_fraction",
            (setup + run.step_s + run.poll_s + run.shutdown_s) / wall);
  set_layer(l, "trace.remainder_fraction", (run.step_s - sink.rounds_s()) / wall);
}

}  // namespace

const std::vector<WorkloadInfo>& workloads() {
  static const std::vector<WorkloadInfo> kAll = {
      {"pi_ba_snark_n4096", "run_ba pi_ba/snark-srds, n=4096, beta=0.2 fail-silent"},
      {"multisig_n256", "run_ba bgt13-multisig, n=256, beta=0.2 fail-silent"},
      {"pi_ba_chaos_n2048",
       "run_ba pi_ba/snark-srds, n=2048, beta=0.2, drop 2%, delay 5% up to 2 rounds, "
       "eclipse campaign at 5% adaptive corruption"},
      {"service_n128", "BaServiceDaemon n=128, beta=0.1, window 8, 40 closed-loop requests"},
  };
  return kAll;
}

LegResult run_leg(const LegOptions& opt) {
  const Workload w = make_workload(opt.workload, opt.seed);
  LegResult out;
  if (w.kind == Kind::kBa) {
    opt.traced ? run_ba_traced(w, opt, out) : run_ba_untraced(w, opt, out);
  } else {
    opt.traced ? run_service_traced(w, opt, out) : run_service_untraced(w, opt, out);
  }
  return out;
}

}  // namespace perfbench
