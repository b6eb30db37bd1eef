// Day-loop benchmark for the hitlist campaign.
//
//   perfbench --workload campaign|rescan|bootstrap --seed N --seconds S
//             --trace 0|1 [--out DIR] [--git-sha SHA]
//
// Workloads (the rationale lives in BENCHMARK.json and README.md); each
// pools several universes, seeded seed, seed+1, ...:
//   campaign   scale 0.3, 1 thread: per seed a cold run_day(150), then
//              the timed warm run_days 151..270.
//   rescan     scale 3.0, 2 threads: per seed a cold run_day(270), then
//              timed passes of ScanEngine::sync + scan_store (5
//              protocols, 2 retries) over the fixed store for days
//              271..470.
//   bootstrap  scale 3.0, 1 thread: per seed a fresh Universe and
//              Pipeline, then the timed cold run_day(270).
//
// --trace 0 measures the untraced production path (PipelineOptions::obs
// null) and prints the end-to-end metrics. --trace 1 alternates an
// untraced pass with a traced one that assembles every day from the
// layers' public calls, in run_day's order, under this file's spans,
// and prints the per-layer metrics. Every day is checked: invariants
// of the store, filter and frame; the same digest from the traced
// assembly as from run_day; and for rescan, the same digest on every
// pass over a universe and from a serial recompute. Results and the
// trace are written to --out before the verdict; the last stdout line
// is one JSON object {correct, attempted, failed, metrics}.

#include <malloc.h>
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apd/apd.h"
#include "engine/engine.h"
#include "hitlist/day_scratch.h"
#include "hitlist/pipeline.h"
#include "hitlist/target_store.h"
#include "net/protocol.h"
#include "netsim/network_sim.h"
#include "netsim/universe.h"
#include "obs/obs.h"
#include "scan/probe_schedule.h"
#include "scan/scan_engine.h"
#include "scan/scan_frame.h"
#include "sources/sources.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace v6h;

constexpr int kHorizon = 270;
constexpr int kCampaignColdDay = 150;  // warm days 151..270 are timed
constexpr int kRescanDays = 200;       // timed days 271..470 per pass
constexpr int kMinSetups = 5;          // setup_s is a median of these
constexpr unsigned kRescanRetries = 2;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;
  std::string git_sha = "unknown";
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "campaign|rescan|bootstrap --seed N --seconds S --trace 0|1 "
               "[--out DIR] [--git-sha SHA]\n",
               message);
  std::exit(2);
}

std::uint64_t parse_uint(const char* flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    std::fprintf(stderr, "perfbench: invalid value for %s: '%s'\n", flag, text);
    std::exit(2);
  }
  return value;
}

// Parsing only validates; no output file is touched until the run ends.
Options parse_options(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = parse_uint("--seed", value);
    } else if (flag == "--seconds") {
      const std::uint64_t s = parse_uint("--seconds", value);
      if (s == 0 || s > 3600) usage("--seconds must be in 1..3600");
      o.seconds = static_cast<double>(s);
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_uint("--trace", value);
      if (t > 1) usage("--trace must be 0 or 1");
      o.trace = t == 1;
    } else if (flag == "--out") {
      if (*value == '\0') usage("--out needs a non-empty path");
      o.out_dir = value;
    } else if (flag == "--git-sha") {
      o.git_sha = value;
    } else {
      usage(("unknown flag: " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (o.workload != "campaign" && o.workload != "rescan" &&
      o.workload != "bootstrap") {
    usage(("unknown workload: " + o.workload).c_str());
  }
  return o;
}

// ------------------------------------------------------------ timing

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double ms_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-6;
}

struct Samples {
  std::vector<double> values;

  void add(double v) { values.push_back(v); }
  std::size_t size() const { return values.size(); }
  // Linear interpolation between closest ranks.
  double quantile(double q) const {
    if (values.empty()) return 0.0;
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
  }
  double median() const { return quantile(0.5); }
};

// ------------------------------------------------------------ digest

class Fnv {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// The DayReport fields plus the frame's mask column and admitted rows.
std::uint64_t day_digest(int day, std::size_t new_addresses,
                         std::size_t aliased_prefixes,
                         const scan::ScanFrame& frame) {
  Fnv h;
  h.u64(static_cast<std::uint64_t>(day));
  h.u64(new_addresses);
  h.u64(aliased_prefixes);
  h.u64(frame.rows().size());
  h.u64(static_cast<std::uint64_t>(frame.day()));
  h.u64(frame.row_count());
  for (const auto p : net::kAllProtocols) h.u64(frame.responsive_count(p));
  h.u64(frame.responsive_any_count());
  h.bytes(frame.masks(), frame.row_count());
  h.bytes(frame.rows().data(), frame.rows().size() * sizeof(std::uint32_t));
  return h.value();
}

// Structural checks of one day's scan output against the store it
// scanned and the alias filter that chose the rows. Empty = pass.
std::string check_frame(const hitlist::TargetStore& store,
                        const hitlist::AliasFilter& filter,
                        const scan::ScanFrame& frame, int day,
                        bool check_filter) {
  if (frame.day() != day) return "frame day mismatch";
  if (frame.row_count() != store.size()) return "frame row space != store";
  const auto& expect = store.unaliased_rows();
  if (frame.rows() != expect) return "admitted rows != unaliased rows";
  std::uint64_t per[net::kProtocolCount] = {};
  std::uint64_t any = 0;
  const net::ProtocolMask* masks = frame.masks();
  for (std::size_t row = 0; row < frame.row_count(); ++row) {
    if ((masks[row] & ~net::kAllProtocolsMask) != 0) return "mask bits out of range";
  }
  for (const auto row : frame.rows()) {
    const net::ProtocolMask m = masks[row];
    if (store.aliased(row)) return "scanned row is flagged aliased";
    if (check_filter && filter.is_aliased(store.address(row))) {
      return "scanned row lies in detected aliased space";
    }
    any += m != 0;
    for (const auto p : net::kAllProtocols) per[net::index_of(p)] += (m & net::mask_of(p)) != 0;
  }
  for (const auto p : net::kAllProtocols) {
    if (per[net::index_of(p)] != frame.responsive_count(p)) return "responsive tally mismatch";
  }
  if (any != frame.responsive_any_count()) return "responsive-any tally mismatch";
  return {};
}

std::string check_report(const hitlist::Pipeline& pipeline,
                         const hitlist::Pipeline::DayReport& report, int day) {
  if (report.day != day) return "report day mismatch";
  if (report.frame != &pipeline.frame()) return "report does not borrow the frame";
  if (report.scanned_targets != report.frame->rows().size()) {
    return "scanned_targets != admitted rows";
  }
  if (report.aliased_prefixes != pipeline.filter().prefixes().size()) {
    return "aliased_prefixes != filter size";
  }
  const auto& delta = pipeline.last_delta();
  if (report.new_addresses != delta.new_addresses() ||
      delta.row_count != pipeline.store().size()) {
    return "new_addresses != store growth";
  }
  return check_frame(pipeline.store(), pipeline.filter(), *report.frame, day,
                     true);
}

// ------------------------------------------------------------ checks

struct Checker {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  // One checked operation (a computed day); `problem` empty = pass.
  void record(const char* what, int day, const std::string& problem) {
    ++attempted;
    if (problem.empty()) return;
    ++failed;
    if (failures.size() < 64) {
      failures.push_back(std::string(what) + " day " + std::to_string(day) +
                         ": " + problem);
    }
  }
};

std::string digest_problem(std::uint64_t got, std::uint64_t want,
                           const char* against) {
  if (got == want) return {};
  char buf[128];
  std::snprintf(buf, sizeof buf, "digest 0x%016" PRIx64 " != %s 0x%016" PRIx64,
                got, against, want);
  return buf;
}

// ----------------------------------------------------------- tracing

enum Layer : unsigned {
  kCollect,
  kInsert,
  kCount,
  kFanout,
  kRefilter,
  kSync,
  kProbe,
  kLayerCount,
};
constexpr const char* kLayerNames[kLayerCount] = {
    "sources.collect", "hitlist.insert", "apd.count", "apd.fanout",
    "hitlist.refilter", "scan.sync", "scan.probe"};

struct TracedDay {
  int day = 0;
  double day_ms = 0;
  double ms[kLayerCount] = {};
  std::uint64_t new_rows = 0;
  std::uint64_t candidates = 0;
  std::uint64_t apd_probes = 0;
  std::uint64_t flips = 0;
  std::uint64_t refilter_rows = 0;
  std::uint64_t sync_rows = 0;
  std::uint64_t scan_probes = 0;
  std::uint64_t first_attempts = 0;  // admitted rows x protocols
  std::uint64_t responses = 0;       // (row, protocol) pairs answered
  std::uint64_t pool_tasks = 0;
  std::uint64_t pool_steals = 0;
  std::uint64_t sweeps = 0;
  std::uint64_t chunks = 0;
};

// The benchmark's own spans: one "day" span per traced day with the
// layer spans as its children, kept in memory and written at exit.
// Engine counts come from an obs::Observability attached to the
// engine, merged at each day end through the registry's public API.
class Tracer {
 public:
  explicit Tracer(obs::Observability* obs) : obs_(obs) { events_.reserve(kCapacity); }

  void begin_day(int day) {
    current_ = TracedDay{};
    current_.day = day;
    day_id_ = next_id_++;
    day_start_ = now_ns();
  }

  template <typename Fn>
  void span(Layer layer, Fn&& fn) {
    const std::uint64_t start = now_ns();
    fn();
    const std::uint64_t end = now_ns();
    current_.ms[layer] += static_cast<double>(end - start) * 1e-6;
    push(layer, next_id_++, day_id_, start, end);
  }

  TracedDay& current() { return current_; }

  // Close the day span; `timed` days feed the per-layer statistics.
  void end_day(bool timed) {
    const std::uint64_t end = now_ns();
    current_.day_ms = static_cast<double>(end - day_start_) * 1e-6;
    push(kLayerCount, day_id_, 0, day_start_, end);
    if (obs_ != nullptr) {
      auto& registry = obs_->registry();
      const auto& core = obs_->core();
      registry.merge_day();
      current_.pool_tasks = registry.day(core.pool_tasks);
      current_.pool_steals = registry.day(core.pool_steals);
      current_.sweeps = registry.day(core.parallel_fors);
      current_.chunks = registry.day(core.chunks);
    }
    if (timed) days_.push_back(current_);
  }

  const std::vector<TracedDay>& days() const { return days_; }

  // Chrome trace-event JSON (ts/dur in microseconds); args carry the
  // span id, its parent (0 = root) and the simulated day.
  void write(std::FILE* f) const {
    std::fprintf(f, "{\"dropped\": %" PRIu64 ", \"traceEvents\": [", dropped_);
    for (std::size_t i = 0; i < events_.size(); ++i) {
      const Event& e = events_[i];
      std::fprintf(f,
                   "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %" PRIu64 ", \"parent\": %" PRIu64
                   ", \"day\": %d}}",
                   i == 0 ? "" : ",",
                   e.layer == kLayerCount ? "day" : kLayerNames[e.layer],
                   static_cast<double>(e.start) * 1e-3,
                   static_cast<double>(e.end - e.start) * 1e-3, e.id, e.parent,
                   e.day);
    }
    std::fprintf(f, "\n]}\n");
  }

 private:
  static constexpr std::size_t kCapacity = 1u << 17;

  struct Event {
    unsigned layer;
    int day;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t start;
    std::uint64_t end;
  };

  void push(unsigned layer, std::uint64_t id, std::uint64_t parent,
            std::uint64_t start, std::uint64_t end) {
    if (events_.size() == kCapacity) {
      ++dropped_;
      return;
    }
    events_.push_back(Event{layer, current_.day, id, parent, start, end});
  }

  obs::Observability* obs_;
  std::vector<Event> events_;
  std::vector<TracedDay> days_;
  TracedDay current_;
  std::uint64_t day_id_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t day_start_ = 0;
  std::uint64_t dropped_ = 0;
};

// One pipeline day assembled from the layers' public calls, in
// Pipeline::run_day's order, with the Pipeline constructor's reserve
// bounds, each call under a Tracer span. Its outputs must equal the
// untraced run_day's for the same universe and day sequence.
class TracedAssembly {
 public:
  TracedAssembly(const netsim::Universe& universe, netsim::NetworkSim& sim,
                 const hitlist::PipelineOptions& options, engine::Engine* engine)
      : sim_(&sim),
        engine_(engine),
        schedule_(options.schedule),
        sources_(universe, sim, engine),
        detector_(sim, options.apd, engine),
        counter_(universe.bgp(), options.apd.min_targets, engine),
        scan_engine_(sim, engine) {
    detector_.set_scan_engine(&scan_engine_);
    const std::size_t bound = sources_.max_unique_addresses();
    const std::size_t prefix_bound = bound * 4 + 64;
    const std::size_t aliased_budget =
        256 + universe.true_aliased_prefixes().size() * 64;
    store_.reserve(bound);
    counter_.reserve_for(bound);
    detector_.reserve_prefixes(prefix_bound);
    scan_engine_.reserve(bound);
    frame_.reserve(bound);
    filter_.reserve(aliased_budget, 2048 + aliased_budget * 24);
    scratch_.reserve(bound, prefix_bound);
  }

  // Returns the day digest; per-layer times and counts go to `tracer`.
  std::uint64_t run_day(int day, Tracer& tracer, bool timed) {
    tracer.begin_day(day);
    TracedDay& t = tracer.current();
    const std::size_t first_new = store_.size();
    std::size_t new_addresses = 0;
    for (const auto source : netsim::kAllSources) {
      const sources::CollectResult* result = nullptr;
      tracer.span(kCollect, [&] {
        result = source == netsim::SourceId::kScamper
                     ? &sources_.collect(source, day, store_.addresses())
                     : &sources_.collect(source, day);
      });
      tracer.span(kInsert, [&] {
        for (const auto& a : result->new_addresses) {
          if (store_.insert(a, day)) ++new_addresses;
        }
      });
    }
    const std::size_t new_rows = store_.size() - first_new;
    const ipv6::Address* new_addrs = store_.addresses().data() + first_new;
    tracer.span(kCount, [&] { counter_.add_addresses(new_addrs, new_rows); });
    apd::DayOutcome& outcome = scratch_.outcome;
    tracer.span(kFanout, [&] {
      detector_.run_day_on_prefixes(counter_.candidates(), day, nullptr,
                                    outcome);
    });
    tracer.span(kRefilter, [&] {
      for (const auto& prefix : outcome.became_clean) filter_.remove(prefix);
      for (const auto& prefix : outcome.became_aliased) filter_.insert(prefix);
      filter_.is_aliased_many(new_addrs, new_rows, &scratch_.aliased, engine_);
      for (std::size_t i = 0; i < scratch_.aliased.size(); ++i) {
        store_.set_aliased(first_new + i, scratch_.aliased[i] != 0);
      }
      scratch_.affected.clear();
      store_.rows_within_many(outcome.became_aliased, &scratch_.affected);
      store_.rows_within_many(outcome.became_clean, &scratch_.affected);
      for (const auto row : scratch_.affected) {
        store_.set_aliased(row, filter_.is_aliased(store_.address(row)));
      }
    });
    t.sync_rows = scan_engine_.table().rotating_rows() +
                  (store_.size() - scan_engine_.table().size());
    tracer.span(kSync, [&] { scan_engine_.sync(store_, day); });
    const std::uint64_t probes_before = sim_->probes_sent();
    tracer.span(kProbe, [&] {
      scan_engine_.scan_store(store_, day, schedule_, &frame_, nullptr);
    });
    t.scan_probes = sim_->probes_sent() - probes_before;
    t.new_rows = new_rows;
    t.candidates = counter_.candidates().size();
    t.apd_probes = outcome.probes;
    t.flips = outcome.became_aliased.size() + outcome.became_clean.size();
    t.refilter_rows = new_rows + scratch_.affected.size();
    t.first_attempts = frame_.rows().size() * schedule_.protocols.size();
    for (const auto p : net::kAllProtocols) t.responses += frame_.responsive_count(p);
    tracer.end_day(timed);
    return day_digest(day, new_addresses, filter_.prefixes().size(), frame_);
  }

  const hitlist::TargetStore& store() const { return store_; }
  const hitlist::AliasFilter& filter() const { return filter_; }
  const scan::ScanFrame& frame() const { return frame_; }

  // The detector keeps a pointer to scan_engine_.
  TracedAssembly(const TracedAssembly&) = delete;
  TracedAssembly& operator=(const TracedAssembly&) = delete;

 private:
  netsim::NetworkSim* sim_;
  engine::Engine* engine_;
  scan::ProbeSchedule schedule_;
  sources::SourceSimulator sources_;
  apd::AliasDetector detector_;
  apd::CandidateCounter counter_;
  scan::ScanEngine scan_engine_;
  hitlist::TargetStore store_;
  hitlist::AliasFilter filter_;
  scan::ScanFrame frame_;
  hitlist::DayScratch scratch_;
};

// --------------------------------------------------------- workloads

struct Workload {
  const char* name;
  double scale;
  unsigned threads;
};

constexpr Workload kWorkloads[] = {
    {"campaign", 0.3, 1},
    {"rescan", 3.0, 2},
    {"bootstrap", 3.0, 1},
};

// Everything one run measures and checks; filled by the workload and
// written out whether the run finishes or fails.
struct Run {
  Options options;
  Workload workload{};
  Checker check;
  Samples day_ms;       // untraced timed days
  Samples probe_rate;   // their probes per second, one per day
  Samples setup_s;      // workload start .. first timed operation
  Samples universe_ms;  // Universe construction
  Samples ctor_ms;      // Pipeline construction
  double timed_s = 0;   // total untraced timed-day time
  std::uint64_t rows = 0;  // hitlist rows ingested during those days
  // Peak RSS once the first set-up and its days have run: later
  // repetitions only add allocator fragmentation, not program state.
  double peak_rss_mb = 0;
  // Per-day digests of the reference pass (campaign, rescan) or the
  // cold day per campaign seed (bootstrap), printed for comparison
  // across commits.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> digests;
  std::unique_ptr<obs::Observability> obs;
  std::unique_ptr<Tracer> tracer;
  std::string error;

  void note_peak_rss() {
    if (peak_rss_mb > 0) return;
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
  }

  void add_timed(double ms, std::uint64_t day_probes, std::uint64_t day_rows) {
    day_ms.add(ms);
    probe_rate.add(static_cast<double>(day_probes) / (ms * 1e-3));
    timed_s += ms * 1e-3;
    rows += day_rows;
  }

  netsim::UniverseParams universe_params(std::uint64_t seed) const {
    netsim::UniverseParams params;
    params.scale = workload.scale;
    params.seed = seed;
    return params;
  }
};

// Check one untraced run_day and return its digest.
std::uint64_t check_day(Run& run, const hitlist::Pipeline& pipeline,
                        const hitlist::Pipeline::DayReport& report, int day) {
  run.check.record("run_day", day, check_report(pipeline, report, day));
  return day_digest(day, report.new_addresses, report.aliased_prefixes,
                    report.scan());
}

// Record a traced day: its structural checks, then its digest against
// the untraced run_day's.
void check_traced(Run& run, const TracedAssembly& assembly, int day,
                  std::uint64_t digest, std::uint64_t want) {
  std::string problem = check_frame(assembly.store(), assembly.filter(),
                                    assembly.frame(), day, true);
  if (problem.empty()) problem = digest_problem(digest, want, "run_day");
  run.check.record("traced", day, problem);
}

// Attach the engine-count registry for a traced pass (and drop the
// counts any earlier pass left behind).
struct EngineCounts {
  EngineCounts(engine::Engine& engine, obs::Observability& obs)
      : engine_(engine) {
    obs.registry().merge_day();
    engine_.set_observability(&obs);
  }
  ~EngineCounts() { engine_.set_observability(nullptr); }
  EngineCounts(const EngineCounts&) = delete;
  EngineCounts& operator=(const EngineCounts&) = delete;

 private:
  engine::Engine& engine_;
};

// Warm days of one campaign seed per repetition: seed, seed+1, ...,
// so each run's figures pool several universes.
void run_campaign(Run& run, std::uint64_t deadline) {
  engine::Engine engine(engine::EngineOptions{run.workload.threads});
  const hitlist::PipelineOptions options;
  for (int rep = 0; rep < kMinSetups || now_ns() < deadline; ++rep) {
    const std::uint64_t seed = run.options.seed + static_cast<std::uint64_t>(rep);
    const std::uint64_t setup_start = now_ns();
    const netsim::Universe universe(run.universe_params(seed), &engine);
    run.universe_ms.add(ms_since(setup_start));
    std::vector<std::uint64_t> digests;  // index: day - kCampaignColdDay
    {
      netsim::NetworkSim sim(universe);
      const std::uint64_t ctor_start = now_ns();
      hitlist::Pipeline pipeline(universe, sim, options, &engine);
      run.ctor_ms.add(ms_since(ctor_start));
      auto report = pipeline.run_day(kCampaignColdDay);
      run.setup_s.add(ms_since(setup_start) * 1e-3);
      digests.push_back(check_day(run, pipeline, report, kCampaignColdDay));
      for (int day = kCampaignColdDay + 1; day <= kHorizon; ++day) {
        const std::uint64_t probes_before = sim.probes_sent();
        const std::uint64_t start = now_ns();
        report = pipeline.run_day(day);
        run.add_timed(ms_since(start), sim.probes_sent() - probes_before,
                      report.new_addresses);
        digests.push_back(check_day(run, pipeline, report, day));
      }
    }
    run.note_peak_rss();
    if (rep < kMinSetups) {
      for (std::size_t i = 0; i < digests.size(); ++i) {
        run.digests.emplace_back(seed * 1000 + kCampaignColdDay + i, digests[i]);
      }
    }
    if (!run.options.trace) continue;
    netsim::NetworkSim sim(universe);
    const EngineCounts counts(engine, *run.obs);
    TracedAssembly assembly(universe, sim, options, &engine);
    for (int day = kCampaignColdDay; day <= kHorizon; ++day) {
      const std::uint64_t digest =
          assembly.run_day(day, *run.tracer, day > kCampaignColdDay);
      check_traced(run, assembly, day, digest,
                   digests[static_cast<std::size_t>(day - kCampaignColdDay)]);
    }
  }
}

// One rescan day on `scanner`: re-sync rotation epochs, then the
// multi-protocol sweep of every unaliased row into `frame`.
void rescan_day(scan::ScanEngine& scanner, const hitlist::TargetStore& store,
                int day, const scan::ProbeSchedule& schedule,
                scan::ScanFrame* frame) {
  scanner.sync(store, day);
  scanner.scan_store(store, day, schedule, frame);
}

// The traced twin of a rescan pass: the same calls under the
// benchmark's spans, each day checked against the untraced digests.
void traced_rescan_pass(Run& run, engine::Engine& engine,
                        netsim::NetworkSim& sim,
                        const hitlist::Pipeline& pipeline,
                        const scan::ProbeSchedule& schedule,
                        scan::ScanFrame& frame,
                        const std::vector<std::uint64_t>& reference) {
  const hitlist::TargetStore& store = pipeline.store();
  const std::size_t aliased = pipeline.filter().prefixes().size();
  scan::ScanEngine traced(sim, &engine);
  traced.reserve(store.size());
  traced.sync(store, kHorizon);
  const EngineCounts counts(engine, *run.obs);
  Tracer& tracer = *run.tracer;
  for (int day = kHorizon + 1; day <= kHorizon + kRescanDays; ++day) {
    tracer.begin_day(day);
    TracedDay& t = tracer.current();
    t.sync_rows = traced.table().rotating_rows() +
                  (store.size() - traced.table().size());
    tracer.span(kSync, [&] { traced.sync(store, day); });
    const std::uint64_t probes_before = sim.probes_sent();
    tracer.span(kProbe, [&] { traced.scan_store(store, day, schedule, &frame); });
    t.scan_probes = sim.probes_sent() - probes_before;
    t.first_attempts = frame.rows().size() * schedule.protocols.size();
    for (const auto p : net::kAllProtocols) t.responses += frame.responsive_count(p);
    tracer.end_day(true);
    std::string problem = check_frame(store, pipeline.filter(), frame, day, false);
    if (problem.empty()) {
      problem = digest_problem(
          day_digest(day, 0, aliased, frame),
          reference[static_cast<std::size_t>(day - kHorizon - 1)], "untraced");
    }
    run.check.record("traced", day, problem);
  }
}

// One rescan universe: set up, then timed passes until `round_end`.
void rescan_round(Run& run, engine::Engine& engine, std::uint64_t seed,
                  std::uint64_t round_end) {
  const hitlist::PipelineOptions options;
  scan::ProbeSchedule schedule;
  schedule.retries = kRescanRetries;

  const std::uint64_t setup_start = now_ns();
  const netsim::Universe universe(run.universe_params(seed), &engine);
  run.universe_ms.add(ms_since(setup_start));
  netsim::NetworkSim sim(universe);
  const std::uint64_t ctor_start = now_ns();
  hitlist::Pipeline pipeline(universe, sim, options, &engine);
  run.ctor_ms.add(ms_since(ctor_start));
  const auto report = pipeline.run_day(kHorizon);
  auto scanner = std::make_unique<scan::ScanEngine>(sim, &engine);
  scanner->reserve(pipeline.store().size());
  scanner->sync(pipeline.store(), kHorizon);
  run.setup_s.add(ms_since(setup_start) * 1e-3);
  run.note_peak_rss();
  check_day(run, pipeline, report, kHorizon);

  const hitlist::TargetStore& store = pipeline.store();
  const std::size_t aliased = pipeline.filter().prefixes().size();
  scan::ScanFrame frame;
  frame.reserve(store.size());
  std::vector<std::uint64_t> reference;  // index: day - kHorizon - 1
  for (int pass = 0; pass < 1 || now_ns() < round_end; ++pass) {
    if (scanner == nullptr) {
      scanner = std::make_unique<scan::ScanEngine>(sim, &engine);
      scanner->reserve(store.size());
      scanner->sync(store, kHorizon);
    }
    std::vector<std::uint64_t> digests;
    for (int day = kHorizon + 1; day <= kHorizon + kRescanDays; ++day) {
      const std::uint64_t probes_before = sim.probes_sent();
      const std::uint64_t start = now_ns();
      rescan_day(*scanner, store, day, schedule, &frame);
      run.add_timed(ms_since(start), sim.probes_sent() - probes_before, 0);
      std::string problem = check_frame(store, pipeline.filter(), frame, day, false);
      digests.push_back(day_digest(day, 0, aliased, frame));
      if (problem.empty() && !reference.empty()) {
        problem = digest_problem(digests.back(),
                                 reference[digests.size() - 1], "first pass");
      }
      run.check.record("rescan", day, problem);
    }
    scanner.reset();
    if (reference.empty()) {
      reference = digests;
      for (std::size_t i = 0; i < reference.size(); ++i) {
        run.digests.emplace_back(seed * 1000 + kHorizon + 1 + i, reference[i]);
      }
      // The first timed day again at one thread, from a table resolved
      // at that day in one go rather than synced forward from day 270.
      scan::ScanEngine serial(sim, nullptr);
      serial.reserve(store.size());
      scan::ScanFrame serial_frame;
      rescan_day(serial, store, kHorizon + 1, schedule, &serial_frame);
      run.check.record(
          "serial", kHorizon + 1,
          digest_problem(day_digest(kHorizon + 1, 0, aliased, serial_frame),
                         reference[0], "threaded"));
    }
    if (run.options.trace) {
      traced_rescan_pass(run, engine, sim, pipeline, schedule, frame, reference);
    }
  }
}

// kMinSetups universes (seed, seed+1, ...), each given an equal share
// of the run's time.
void run_rescan(Run& run, std::uint64_t start, std::uint64_t deadline) {
  engine::Engine engine(engine::EngineOptions{run.workload.threads});
  for (int round = 0; round < kMinSetups; ++round) {
    const std::uint64_t round_end =
        start + (deadline - start) * static_cast<std::uint64_t>(round + 1) /
                    kMinSetups;
    rescan_round(run, engine, run.options.seed + static_cast<std::uint64_t>(round),
                 round_end);
  }
}

void run_bootstrap(Run& run, std::uint64_t deadline) {
  engine::Engine engine(engine::EngineOptions{run.workload.threads});
  const hitlist::PipelineOptions options;
  for (std::uint64_t k = 0; k < kMinSetups || now_ns() < deadline; ++k) {
    const std::uint64_t seed = run.options.seed + k;
    const std::uint64_t setup_start = now_ns();
    const netsim::Universe universe(run.universe_params(seed), &engine);
    run.universe_ms.add(ms_since(setup_start));
    std::uint64_t digest = 0;
    {
      netsim::NetworkSim sim(universe);
      const std::uint64_t ctor_start = now_ns();
      hitlist::Pipeline pipeline(universe, sim, options, &engine);
      run.ctor_ms.add(ms_since(ctor_start));
      run.setup_s.add(ms_since(setup_start) * 1e-3);
      const std::uint64_t probes_before = sim.probes_sent();
      const std::uint64_t start = now_ns();
      const auto report = pipeline.run_day(kHorizon);
      run.add_timed(ms_since(start), sim.probes_sent() - probes_before,
                    report.new_addresses);
      digest = check_day(run, pipeline, report, kHorizon);
    }
    run.note_peak_rss();
    if (k < kMinSetups) run.digests.emplace_back(seed, digest);
    if (!run.options.trace) continue;
    netsim::NetworkSim sim(universe);
    const EngineCounts counts(engine, *run.obs);
    TracedAssembly assembly(universe, sim, options, &engine);
    check_traced(run, assembly, kHorizon,
                 assembly.run_day(kHorizon, *run.tracer, true), digest);
  }
}

// ----------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  const char* unit;
  std::size_t samples;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::vector<Metric> end_to_end_metrics(const Run& run) {
  const std::size_t n = run.day_ms.size();
  return {
      {"day_ms_p50", run.day_ms.median(), "ms", n},
      {"probes_per_s", run.probe_rate.median(), "1/s", n},
      {"setup_s", run.setup_s.median(), "s", run.setup_s.size()},
      {"peak_rss_mb", run.peak_rss_mb, "MB", 1},
  };
}

std::vector<Metric> per_layer_metrics(const Run& run) {
  const auto& days = run.tracer->days();
  const std::size_t n = days.size();
  Samples layer_ms[kLayerCount];
  Samples traced_day_ms;
  enum {
    kNewRows, kCandidates, kApdProbes, kFlips, kRefilterRows, kSyncRows,
    kScanProbes, kFirstAttempts, kResponses, kTasks, kSteals, kSweeps,
    kChunks, kFanoutNs, kProbeNs, kSumCount,
  };
  double sums[kSumCount] = {};
  for (const TracedDay& d : days) {
    for (unsigned l = 0; l < kLayerCount; ++l) layer_ms[l].add(d.ms[l]);
    traced_day_ms.add(d.day_ms);
    sums[kNewRows] += d.new_rows;
    sums[kCandidates] += d.candidates;
    sums[kApdProbes] += d.apd_probes;
    sums[kFlips] += d.flips;
    sums[kRefilterRows] += d.refilter_rows;
    sums[kSyncRows] += d.sync_rows;
    sums[kScanProbes] += d.scan_probes;
    sums[kFirstAttempts] += d.first_attempts;
    sums[kResponses] += d.responses;
    sums[kTasks] += d.pool_tasks;
    sums[kSteals] += d.pool_steals;
    sums[kSweeps] += d.sweeps;
    sums[kChunks] += d.chunks;
    sums[kFanoutNs] += d.ms[kFanout] * 1e6;
    sums[kProbeNs] += d.ms[kProbe] * 1e6;
  }
  const double dn = static_cast<double>(n);
  auto per_day = [&](int k) { return ratio(sums[k], dn); };
  const double untraced = run.day_ms.median();
  return {
      {"apd.fanout_ms", layer_ms[kFanout].median(), "ms", n},
      {"apd.ns_per_probe", ratio(sums[kFanoutNs], sums[kApdProbes]), "ns", n},
      {"apd.probes", per_day(kApdProbes), "count", n},
      {"apd.count_ms", layer_ms[kCount].median(), "ms", n},
      {"apd.candidates", per_day(kCandidates), "count", n},
      {"apd.flips", per_day(kFlips), "count", n},
      {"sources.collect_ms", layer_ms[kCollect].median(), "ms", n},
      {"sources.new_rows", per_day(kNewRows), "count", n},
      {"hitlist.insert_ms", layer_ms[kInsert].median(), "ms", n},
      {"hitlist.refilter_ms", layer_ms[kRefilter].median(), "ms", n},
      {"hitlist.refilter_rows", per_day(kRefilterRows), "count", n},
      {"hitlist.pipeline_ctor_ms", run.ctor_ms.median(), "ms",
       run.ctor_ms.size()},
      {"hitlist.rows_per_s", ratio(static_cast<double>(run.rows), run.timed_s),
       "1/s", run.day_ms.size()},
      {"day_ms_p90", run.day_ms.quantile(0.9), "ms", run.day_ms.size()},
      {"scan.sync_ms", layer_ms[kSync].median(), "ms", n},
      {"scan.sync_rows", per_day(kSyncRows), "count", n},
      {"scan.probe_ms", layer_ms[kProbe].median(), "ms", n},
      {"scan.probes", per_day(kScanProbes), "count", n},
      {"scan.ns_per_probe", ratio(sums[kProbeNs], sums[kScanProbes]), "ns", n},
      {"scan.retry_probes", ratio(sums[kScanProbes] - sums[kFirstAttempts], dn),
       "count", n},
      {"scan.response_ratio", ratio(sums[kResponses], sums[kScanProbes]),
       "ratio", n},
      {"engine.pool_tasks", per_day(kTasks), "count", n},
      {"engine.pool_steals", per_day(kSteals), "count", n},
      {"engine.sweeps", per_day(kSweeps), "count", n},
      {"engine.chunks", per_day(kChunks), "count", n},
      {"netsim.universe_ms", run.universe_ms.median(), "ms",
       run.universe_ms.size()},
      {"trace.overhead_pct",
       untraced > 0 ? (traced_day_ms.median() / untraced - 1.0) * 100.0 : 0.0,
       "%", n},
  };
}

// ------------------------------------------------------------ output

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    unsigned* r = regs + 4 * i;
    if (__get_cpuid(0x80000002u + i, &r[0], &r[1], &r[2], &r[3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  const std::string model(brand);
  const auto first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
#else
  return "unknown";
#endif
}

std::string isa() {
  std::string s;
#if defined(__x86_64__)
  s = "x86_64";
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) s += "+sse4.2";
  if (__builtin_cpu_supports("avx2")) s += "+avx2";
  if (__builtin_cpu_supports("avx512f")) s += "+avx512f";
#elif defined(__aarch64__)
  s = "aarch64";
#else
  s = "unknown";
#endif
  return s;
}

std::string host_json(const Run& run) {
  char buf[1024];
  std::snprintf(buf, sizeof buf,
                "{\"cpu\": \"%s\", \"nproc\": %u, \"isa\": \"%s\", "
                "\"compiler\": \"%s\", \"build_type\": \"%s\", "
                "\"workload\": \"%s\", \"threads\": %u, \"scale\": %.3g, "
                "\"seed\": %" PRIu64 ", \"seconds\": %.0f, \"trace\": %d, "
                "\"git_sha\": \"%s\"}",
                json_escape(cpu_model()).c_str(),
                std::thread::hardware_concurrency(), isa().c_str(),
                json_escape(__VERSION__).c_str(), PERFBENCH_BUILD_TYPE,
                run.workload.name, run.workload.threads, run.workload.scale,
                run.options.seed, run.options.seconds, run.options.trace ? 1 : 0,
                json_escape(run.options.git_sha).c_str());
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                  metrics[i].unit);
    out += buf;
  }
  return out + "}";
}

std::string combined_digest(const Run& run) {
  Fnv h;
  for (const auto& [key, digest] : run.digests) {
    h.u64(key);
    h.u64(digest);
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, h.value());
  return buf;
}

// The full record: host block, every metric with its sample count,
// the check outcome and the per-day digests.
void write_results(const Run& run, const std::vector<Metric>& e2e,
                   const std::vector<Metric>& layers) {
  if (run.options.out_dir.empty()) return;
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(run.options.out_dir, ec);
  const std::string stem = run.options.out_dir + "/" + run.workload.name +
                           "-seed" + std::to_string(run.options.seed) +
                           "-trace" + (run.options.trace ? "1" : "0");
  if (std::FILE* f = std::fopen((stem + ".json").c_str(), "w")) {
    std::fprintf(f, "{\"host\": %s,\n \"end_to_end\": %s,\n",
                 host_json(run).c_str(), metrics_json(e2e).c_str());
    if (!layers.empty()) {
      std::fprintf(f, " \"per_layer\": %s,\n", metrics_json(layers).c_str());
    }
    std::fprintf(f, " \"samples\": {");
    const std::vector<Metric>* groups[] = {&e2e, &layers};
    bool first = true;
    for (const auto* group : groups) {
      for (const Metric& m : *group) {
        std::fprintf(f, "%s\"%s\": %zu", first ? "" : ", ", m.name.c_str(),
                     m.samples);
        first = false;
      }
    }
    std::fprintf(f,
                 "},\n \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                 ", \"error\": \"%s\",\n \"failures\": [",
                 run.check.attempted, run.check.failed,
                 json_escape(run.error).c_str());
    for (std::size_t i = 0; i < run.check.failures.size(); ++i) {
      std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ",
                   json_escape(run.check.failures[i]).c_str());
    }
    std::fprintf(f, "],\n \"digest\": \"%s\",\n \"digests\": [",
                 combined_digest(run).c_str());
    for (std::size_t i = 0; i < run.digests.size(); ++i) {
      std::fprintf(f, "%s[%" PRIu64 ", \"0x%016" PRIx64 "\"]", i == 0 ? "" : ", ",
                   run.digests[i].first, run.digests[i].second);
    }
    const std::pair<const char*, const Samples*> series[] = {
        {"day_ms", &run.day_ms}, {"setup_s", &run.setup_s}};
    for (const auto& [name, samples] : series) {
      std::fprintf(f, "],\n \"%s\": [", name);
      for (std::size_t i = 0; i < samples->size(); ++i) {
        std::fprintf(f, "%s%.6g", i == 0 ? "" : ", ", samples->values[i]);
      }
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
  } else {
    std::fprintf(stderr, "perfbench: cannot write %s.json\n", stem.c_str());
  }
  if (run.tracer != nullptr) {
    if (std::FILE* f = std::fopen((stem + ".trace.json").c_str(), "w")) {
      run.tracer->write(f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s.trace.json\n",
                   stem.c_str());
    }
  }
}

void print_metrics(const char* group, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-10s %-26s %18.6f %-6s n=%zu\n", group, m.name.c_str(),
                m.value, m.unit, m.samples);
  }
}

}  // namespace

int main(int argc, char** argv) {
#ifdef M_MMAP_THRESHOLD
  // Pin glibc's mmap threshold at its initial 128 KiB. With the default
  // dynamic threshold, big buffers freed by one seed are recycled by
  // later seeds only after a few of them, so set-up and cold-day times
  // drift within a run. Pinned, every seed pays the fresh-process cost
  // that a single campaign pays.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
  Run run;
  run.options = parse_options(argc, argv);
  for (const Workload& w : kWorkloads) {
    if (run.options.workload == w.name) run.workload = w;
  }
  if (run.options.trace) {
    run.obs = std::make_unique<obs::Observability>(obs::ObsOptions{},
                                                   run.workload.threads);
    run.tracer = std::make_unique<Tracer>(run.obs.get());
  }
  std::printf("host %s\n", host_json(run).c_str());
  std::fflush(stdout);

  const std::uint64_t start = now_ns();
  const std::uint64_t deadline =
      start + static_cast<std::uint64_t>(run.options.seconds * 1e9);
  try {
    if (run.options.workload == "campaign") {
      run_campaign(run, deadline);
    } else if (run.options.workload == "rescan") {
      run_rescan(run, start, deadline);
    } else {
      run_bootstrap(run, deadline);
    }
  } catch (const std::exception& e) {
    run.error = e.what();
  }

  // Evidence first: results and trace go out before the verdict.
  const std::vector<Metric> e2e = end_to_end_metrics(run);
  const std::vector<Metric> layers =
      run.tracer != nullptr ? per_layer_metrics(run) : std::vector<Metric>{};
  write_results(run, e2e, layers);

  print_metrics("end2end", e2e);
  print_metrics("layer", layers);
  std::printf("digest %s %s (%zu days)\n", run.workload.name,
              combined_digest(run).c_str(), run.digests.size());
  const double failed_ratio =
      ratio(static_cast<double>(run.check.failed),
            static_cast<double>(run.check.attempted));
  std::printf("check attempted=%" PRIu64 " failed=%" PRIu64
              " failed_ratio=%.6f wall_s=%.3f\n",
              run.check.attempted, run.check.failed, failed_ratio,
              ms_since(start) * 1e-3);
  for (const auto& failure : run.check.failures) {
    std::printf("FAILED %s\n", failure.c_str());
  }
  if (!run.error.empty()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", run.workload.name,
                 run.error.c_str());
    return 1;
  }
  const bool correct = run.check.attempted > 0 && run.check.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              correct ? "true" : "false", run.check.attempted,
              run.check.failed,
              metrics_json(run.options.trace ? layers : e2e).c_str());
  return correct ? 0 : 1;
}
