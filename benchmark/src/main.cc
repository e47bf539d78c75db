/// \file main.cc
/// \brief fedbench: the repository benchmark's measuring program.
///
///   fedbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///            [--out <dir>]
///
/// Untraced (--trace 0): runs fixed-budget episodes of the workload until
/// `seconds` elapsed (at least two), checks they all end in bitwise-equal
/// θ, and reports the end-to-end metrics. Traced (--trace 1): runs one
/// untraced reference episode, then traced episodes until `seconds`
/// elapsed (at least one), checks the traced θ equals the reference θ
/// bitwise, replays the layers no seam reaches, and reports the per-layer
/// metrics (per episode), the round attribution and each layer's self
/// time. The last stdout line is a JSON object: correct, attempted,
/// failed, metrics. A failed check exits 1.

#include <sched.h>
#include <unistd.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "analysis.h"
#include "replay.h"
#include "stats.h"
#include "tensor/simd/simd.h"
#include "trace.h"
#include "workloads.h"

#ifndef FEDBENCH_BUILD_TYPE
#define FEDBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__clang__)
#define FEDBENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define FEDBENCH_COMPILER "gcc " __VERSION__
#else
#define FEDBENCH_COMPILER "unknown"
#endif

namespace fedbench {
namespace {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt->workload = value;
    } else if (key == "--seed") {
      opt->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      opt->trace = value == "1";
    } else if (key == "--out") {
      opt->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt->workload.empty() && opt->seconds > 0;
}

/// Peak resident set (VmHWM) in MiB.
double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

int UsableCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string HostContextJson() {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %d, \"simd\": \"%s\", \"build_type\": \"%s\", "
                "\"compiler\": \"%s\"}",
                UsableCpus(),
                fedadmm::simd::IsaName(fedadmm::simd::ActiveIsa()),
                FEDBENCH_BUILD_TYPE, JsonEscape(FEDBENCH_COMPILER).c_str());
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.9g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

/// Fields of the FrontendLedger documented as deterministic.
bool SameLedger(const fedadmm::serve::FrontendLedger& a,
                const fedadmm::serve::FrontendLedger& b) {
  return a.hello_count == b.hello_count && a.model_frames == b.model_frames &&
         a.model_payload_bytes == b.model_payload_bytes &&
         a.acks_accepted == b.acks_accepted &&
         a.acks_partial == b.acks_partial &&
         a.acks_rejected == b.acks_rejected &&
         a.ingested_payload_bytes == b.ingested_payload_bytes &&
         a.malformed_frames == b.malformed_frames &&
         a.protocol_errors == b.protocol_errors &&
         a.decode_errors == b.decode_errors;
}

/// Appends a failure to `failures` unless `ok`.
void Check(bool ok, const std::string& what,
           std::vector<std::string>* failures) {
  if (!ok) failures->push_back(what);
}

/// Checks one episode on its own and against the reference episode.
void CheckEpisode(const Episode& ep, const Episode& ref, const WorkloadInfo& w,
                  const std::string& label,
                  std::vector<std::string>* failures) {
  Check(ep.ok, label + " failed: " + ep.error, failures);
  if (!ep.ok) return;
  Check(ep.history.size() == w.rounds,
        label + " recorded " + std::to_string(ep.history.size()) + " of " +
            std::to_string(w.rounds) + " rounds",
        failures);
  Check(std::isfinite(ep.final_accuracy) && ep.final_accuracy > 0.0,
        label + " final accuracy is not a positive number", failures);
  bool finite = true;
  for (const float v : ep.theta) finite = finite && std::isfinite(v);
  Check(finite, label + " θ has non-finite entries", failures);
  Check(ep.theta == ref.theta,
        label + " θ differs bitwise from its seed's reference episode",
        failures);
  Check(ep.final_accuracy == ref.final_accuracy,
        label + " final accuracy differs from its seed's reference episode",
        failures);
  if (w.served) {
    Check(SameLedger(ep.ledger, ref.ledger),
          label + " deterministic ledger fields differ from its seed's "
                  "reference episode",
          failures);
    Check(ep.updates == ep.attempted,
          label + " resolved " + std::to_string(ep.updates) + " of " +
              std::to_string(ep.attempted) + " updates",
          failures);
    Check(ep.failed == 0, label + " saw error frames", failures);
    if (ep.twin_mismatch >= 0) {
      Check(ep.twin_mismatch == 0,
            label + " served θ differs from its in-process twin", failures);
    }
  }
}

/// Per-episode figures, reported as medians over the run's episodes (round
/// times pooled over its rounds) so a burst of outside load on the host
/// moves one episode, not the result. The `per_run` leading episodes each
/// ran a distinct seed; final accuracy is their mean.
std::vector<Metric> EndToEnd(const std::vector<Episode>& eps, int per_run) {
  std::vector<double> setup, updates, samples, rounds, rtt50, rtt90;
  for (const Episode& ep : eps) {
    setup.push_back(ep.setup_s);
    updates.push_back(static_cast<double>(ep.updates) / ep.timed_s);
    samples.push_back(static_cast<double>(ep.sgd_samples) / ep.timed_s);
    rounds.insert(rounds.end(), ep.round_s.begin(), ep.round_s.end());
    rtt50.push_back(Percentile(ep.update_rtt, 50.0));
    rtt90.push_back(Percentile(ep.update_rtt, 90.0));
  }
  double accuracy = 0.0;
  for (int k = 0; k < per_run; ++k) {
    accuracy += eps[static_cast<size_t>(k)].final_accuracy / per_run;
  }
  return {
      {"setup_s", Median(setup), "s"},
      {"updates_per_s", Median(updates), "1/s"},
      {"samples_per_s", Median(samples), "1/s"},
      {"round_s_p50", Median(rounds), "s"},
      {"update_rtt_s_p50", Median(rtt50), "s"},
      {"update_rtt_s_p90", Median(rtt90), "s"},
      {"final_accuracy", accuracy, "1"},
      {"peak_rss_mb", PeakRssMiB(), "MiB"},
  };
}

/// Sums span durations per name, over spans whose name is in `names`.
double SpanSeconds(const std::vector<Span>& spans,
                   std::initializer_list<const char*> names,
                   const char* layer = nullptr, int64_t* calls = nullptr,
                   std::vector<double>* each = nullptr) {
  double total = 0.0;
  for (const Span& s : spans) {
    bool match = false;
    for (const char* n : names) match = match || std::strcmp(s.name, n) == 0;
    if (!match || (layer != nullptr && std::strcmp(s.layer, layer) != 0)) {
      continue;
    }
    total += s.duration();
    if (calls != nullptr) ++*calls;
    if (each != nullptr) each->push_back(s.duration());
  }
  return total;
}

std::vector<double> Bounds(const Episode& ep) {
  std::vector<double> bounds = {ep.setup_end};
  bounds.insert(bounds.end(), ep.record_times.begin(), ep.record_times.end());
  return bounds;
}

/// `plain_timed` is the mean timed wall of the untraced episodes run
/// alongside the traced ones.
std::vector<Metric> PerLayer(const std::vector<Episode>& eps,
                             double plain_timed, const WorkloadInfo& w,
                             const Metrics& nn_replay,
                             double touch_p50) {
  const double n = static_cast<double>(eps.size());
  double select_s = 0, client_phase = 0, busy = 0, batch_s = 0, full_s = 0,
         eval_s = 0, server_s = 0, encode_s = 0, decode_s = 0, collect_s = 0,
         other_s = 0, round_wall = 0, timed = 0;
  int64_t select_calls = 0, batch_calls = 0, sgd_samples = 0, full_samples = 0,
          eval_calls = 0, server_calls = 0, encode_calls = 0,
          decode_calls = 0, raw_bytes = 0, wire_bytes = 0, encodes = 0,
          update_sends = 0, throttled = 0, polls = 0, empty_polls = 0;
  std::vector<double> client_each, admit, rtt, pull;
  for (const Episode& ep : eps) {
    const std::vector<Span>& sp = ep.spans;
    select_s += SpanSeconds(sp, {"Select"});
    busy += SpanSeconds(sp, {"ClientUpdate"}, nullptr, nullptr, &client_each);
    batch_s += SpanSeconds(sp, {"BatchLossGradient"}, "nn");
    full_s += SpanSeconds(sp, {"FullLossGradient"}, "nn");
    eval_s += SpanSeconds(sp, {"Evaluate"});
    server_s +=
        SpanSeconds(sp, {"ServerUpdate", "AggregateOne"}, nullptr, &server_calls);
    encode_s += SpanSeconds(sp, {"Encode"});
    decode_s += SpanSeconds(sp, {"Decode", "TryDecode"});
    collect_s += SpanSeconds(sp, {"CollectWave"});
    for (const RoundParts& r : AttributeRounds(sp, Bounds(ep))) {
      client_phase += r.parts[kClient];
      other_s += r.parts[kOther];
      round_wall += r.wall;
    }
    timed += ep.timed_s;
    select_calls += ep.select_calls;
    batch_calls += ep.nn_batch_calls;
    sgd_samples += ep.nn_batch_samples;
    full_samples += ep.nn_full_samples;
    eval_calls += ep.eval_calls;
    encode_calls += ep.encode_calls;
    decode_calls += ep.decode_calls;
    raw_bytes += ep.uplink_raw_bytes;
    wire_bytes += ep.uplink_wire_bytes;
    encodes += ep.uplink_encodes;
    update_sends += ep.update_sends;
    throttled += ep.throttled_acks;
    polls += ep.polls;
    empty_polls += ep.empty_polls;
    admit.insert(admit.end(), ep.admit_s.begin(), ep.admit_s.end());
    rtt.insert(rtt.end(), ep.update_rtt.begin(), ep.update_rtt.end());
    pull.insert(pull.end(), ep.pull_rtt.begin(), ep.pull_rtt.end());
  }
  const Episode& last = eps.back();
  const auto per_ep = [n](double v) { return v / n; };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double processed = static_cast<double>(sgd_samples + full_samples);

  std::vector<Metric> m = {
      {"fl.round_wall_s", per_ep(round_wall), "s"},
      {"fl.select_s", per_ep(select_s), "s"},
      {"fl.select_calls", per_ep(static_cast<double>(select_calls)), "count"},
      {"fl.select_s_per_call", ratio(select_s, static_cast<double>(select_calls)),
       "s"},
      {"fl.select_share", ratio(select_s, round_wall), "1"},
      {"fl.client_phase_s", per_ep(client_phase), "s"},
      {"fl.client_busy_s", per_ep(busy), "s"},
      {"fl.client_idle_frac",
       client_phase > 0 ? 1.0 - busy / (w.client_threads * client_phase) : 0.0,
       "1"},
      {"fl.client_update_s_p50", Median(client_each), "s"},
      {"nn.batch_grad_s", per_ep(batch_s), "s"},
      {"nn.batch_grad_calls", per_ep(static_cast<double>(batch_calls)), "count"},
      {"nn.sgd_samples", per_ep(static_cast<double>(sgd_samples)), "count"},
      {"nn.full_grad_s", per_ep(full_s), "s"},
      {"nn.full_grad_samples", per_ep(static_cast<double>(full_samples)),
       "count"},
      {"nn.full_grad_sample_frac",
       ratio(static_cast<double>(full_samples), processed), "1"},
  };
  for (const auto& [name, value] : nn_replay) {
    const bool rate = name.find("gflop") != std::string::npos;
    m.push_back({name, value, rate ? "GFLOP/s" : "s"});
  }
  const std::vector<Metric> rest = {
      {"fl.eval_s", per_ep(eval_s), "s"},
      {"fl.eval_calls", per_ep(static_cast<double>(eval_calls)), "count"},
      {"fl.eval_share", ratio(eval_s, round_wall), "1"},
      {"core.server_update_s", per_ep(server_s), "s"},
      {"core.server_update_calls", per_ep(static_cast<double>(server_calls)),
       "count"},
      {"comm.encode_s", per_ep(encode_s), "s"},
      {"comm.decode_s", per_ep(decode_s), "s"},
      {"comm.encode_calls", per_ep(static_cast<double>(encode_calls)), "count"},
      {"comm.decode_calls", per_ep(static_cast<double>(decode_calls)), "count"},
      {"comm.wire_bytes_per_update",
       ratio(static_cast<double>(wire_bytes), static_cast<double>(encodes)),
       "B"},
      {"comm.compression_ratio",
       ratio(static_cast<double>(raw_bytes), static_cast<double>(wire_bytes)),
       "1"},
      {"state.bytes_resident", static_cast<double>(last.state_bytes_resident),
       "B"},
      {"state.touched_clients", static_cast<double>(last.touched_clients),
       "count"},
      {"state.pool_hit_frac",
       ratio(static_cast<double>(last.pool_hits),
             static_cast<double>(last.pool_lookups)),
       "1"},
      {"state.pool_evictions", static_cast<double>(last.pool_evictions),
       "count"},
      {"state.pool_write_backs", static_cast<double>(last.pool_write_backs),
       "count"},
      {"state.touch_s_p50", touch_p50, "s"},
      {"sys.dropped_count", static_cast<double>(last.dropped), "count"},
      {"serve.rejected_count", static_cast<double>(last.ledger.acks_rejected),
       "count"},
      {"serve.admit_s_p50", Percentile(admit, 50.0), "s"},
      {"serve.admit_s_p99", Percentile(admit, 99.0), "s"},
      {"serve.update_rtt_s_p99", w.served ? Percentile(rtt, 99.0) : 0.0, "s"},
      {"serve.pull_rtt_s_p50", Percentile(pull, 50.0), "s"},
      {"serve.collect_wait_s", per_ep(collect_s), "s"},
      {"serve.throttled_frac",
       ratio(static_cast<double>(throttled), static_cast<double>(update_sends)),
       "1"},
      {"serve.poll_empty_frac",
       ratio(static_cast<double>(empty_polls), static_cast<double>(polls)), "1"},
      {"serve.bytes_in_per_payload_byte",
       ratio(static_cast<double>(last.ledger.bytes_in),
             static_cast<double>(last.ledger.ingested_payload_bytes)),
       "1"},
      {"serve.peak_sessions", static_cast<double>(last.ledger.peak_sessions),
       "count"},
      {"fl.engine_other_s", per_ep(other_s), "s"},
      {"trace.overhead_frac", ratio(per_ep(timed), plain_timed) - 1.0, "1"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

/// Prints the first traced episode's per-round attribution and every
/// traced episode's per-layer self time.
void PrintTraceReport(const std::vector<Episode>& eps) {
  const Episode& ep = eps.front();
  std::printf("\nround attribution (traced episode 1; parts sum to wall):\n");
  std::printf("  %5s %10s", "round", "wall_s");
  for (const char* name : PartNames()) std::printf(" %9s", name);
  std::printf(" %9s\n", "residual");
  int r = 0;
  double worst = 0.0;
  for (const RoundParts& parts : AttributeRounds(ep.spans, Bounds(ep))) {
    std::printf("  %5d %10.6f", r++, parts.wall);
    double sum = 0.0;
    for (const double p : parts.parts) {
      std::printf(" %9.6f", p);
      sum += p;
    }
    worst = std::max(worst, std::fabs(sum - parts.wall));
    std::printf(" %9.2e\n", sum - parts.wall);
  }
  std::printf("  max |sum(parts) - wall| = %.3e s\n", worst);

  std::map<std::string, double> self;
  for (const Episode& e : eps) {
    for (const auto& [layer, s] : LayerSelfTime(e.spans)) self[layer] += s;
  }
  std::printf("\nlayer self time (seconds per episode, summed over threads):\n");
  for (const auto& [layer, s] : self) {
    std::printf("  %-8s %12.6f\n", layer.c_str(), s / eps.size());
  }
}

/// Replaces the spill path of a `tiered:<pool>:<path>` spec.
std::string WithSpillPath(const std::string& spec, const std::string& path) {
  const size_t first = spec.find(':');
  const size_t second = spec.find(':', first + 1);
  return spec.substr(0, second + 1) + path;
}

/// What one invocation measured.
struct RunResult {
  std::vector<Episode> episodes;  // the episodes whose operations count
  std::vector<Metric> metrics;
  std::vector<std::string> failures;
};

/// Fixed-budget episodes until `seconds` elapsed (at least two, and at
/// least one per seed of the run); end-to-end metrics.
RunResult RunUntraced(const Options& opt, const WorkloadInfo& info,
                      const std::string& scratch) {
  RunResult run;
  std::vector<Episode>& eps = run.episodes;
  const int per_run = info.seeds_per_run;
  const double start = NowSeconds();
  size_t i = 0;
  do {
    const int k = static_cast<int>(i % per_run);
    eps.push_back(RunEpisode(opt.workload, EpisodeSeed(opt.seed, k, per_run),
                             false, scratch));
    if (!eps.back().ok) break;
    ++i;
  } while (i < static_cast<size_t>(std::max(2, per_run)) ||
           NowSeconds() - start < opt.seconds);
  // Episodes of the same seed must agree with that seed's first one.
  size_t rounds = 0;
  size_t rtt_samples = 0;
  for (size_t j = 0; j < eps.size(); ++j) {
    const Episode& ep = eps[j];
    CheckEpisode(ep, eps[j % per_run], info,
                 "episode " + std::to_string(j + 1), &run.failures);
    rounds += ep.round_s.size();
    rtt_samples += ep.update_rtt.size();
  }
  if (run.failures.empty()) run.metrics = EndToEnd(eps, per_run);
  std::printf("samples  %zu episodes over %d seeds, %zu rounds, %zu update "
              "round trips\n",
              eps.size(), per_run, rounds, rtt_samples);
  for (size_t j = 0; j < eps.size(); ++j) {
    const Episode& ep = eps[j];
    std::printf("  episode %zu: setup %.4f s, timed %.4f s, %lld updates, "
                "round p50 %.4f s, update rtt p50/p90 %.4f/%.4f s, "
                "accuracy %.4f\n",
                j + 1, ep.setup_s, ep.timed_s,
                static_cast<long long>(ep.updates), Median(ep.round_s),
                Percentile(ep.update_rtt, 50.0),
                Percentile(ep.update_rtt, 90.0), ep.final_accuracy);
  }
  return run;
}

/// An untraced reference episode, then traced and untraced episodes in
/// turn until `seconds` elapsed; per-layer metrics, the chrome trace and
/// the attribution report. Covers the run's first episode seed only.
RunResult RunTraced(const Options& opt, const WorkloadInfo& info,
                    const std::string& scratch, const std::string& tag) {
  RunResult run;
  std::vector<Episode>& eps = run.episodes;
  const uint64_t seed = EpisodeSeed(opt.seed, 0, info.seeds_per_run);
  const double start = NowSeconds();
  // The reference also warms the process up; alternating afterwards makes
  // the overhead compare episodes run under the same conditions.
  const Episode ref = RunEpisode(opt.workload, seed, false, scratch);
  Check(ref.ok, "reference episode failed: " + ref.error, &run.failures);
  std::vector<Episode> plain;
  while (ref.ok && (eps.empty() || NowSeconds() - start < opt.seconds)) {
    eps.push_back(RunEpisode(opt.workload, seed, true, scratch));
    if (!eps.back().ok) break;
    plain.push_back(RunEpisode(opt.workload, seed, false, scratch));
    if (!plain.back().ok) break;
  }
  for (size_t i = 0; i < eps.size(); ++i) {
    CheckEpisode(eps[i], ref, info, "traced episode " + std::to_string(i + 1),
                 &run.failures);
  }
  double plain_timed = 0.0;
  for (size_t i = 0; i < plain.size(); ++i) {
    CheckEpisode(plain[i], ref, info,
                 "untraced episode " + std::to_string(i + 2), &run.failures);
    plain_timed += plain[i].timed_s / plain.size();
  }
  if (!run.failures.empty()) return run;

  const std::string trace_path = opt.out_dir + "/trace-" + tag + ".json";
  if (!WriteChromeTrace(trace_path, eps.front().spans)) {
    run.failures.push_back("cannot write " + trace_path);
    return run;
  }
  std::printf("trace    %s (%zu spans)\n", trace_path.c_str(),
              eps.front().spans.size());
  PrintTraceReport(eps);
  const Episode& last = eps.back();
  const Metrics nn = ReplayCnnLayers(opt.seed, /*batch=*/10,
                                     last.nn_batch_calls > 0 ? 15 : 0);
  const double touch =
      last.store_spec.rfind("tiered:", 0) == 0
          ? ReplayStateTouches(
                WithSpillPath(last.store_spec,
                              scratch + "/replay-" +
                                  std::to_string(getpid()) + ".slab"),
                last.state_clients, last.state_dim, last.touches)
          : 0.0;
  run.metrics = PerLayer(eps, plain_timed, info, nn, touch);
  return run;
}

int Run(const Options& opt) {
  bool known = false;
  const WorkloadInfo info = DescribeWorkload(opt.workload, &known);
  if (!known) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  const std::string scratch = opt.out_dir + "/tmp";
  std::error_code ec;
  std::filesystem::create_directories(scratch, ec);
  const std::string tag = opt.workload + "-seed" + std::to_string(opt.seed);
  const std::string host = HostContextJson();
  std::printf("workload %s  seed %" PRIu64 "  trace %d  seconds %g\n",
              opt.workload.c_str(), opt.seed, opt.trace ? 1 : 0, opt.seconds);
  std::printf("sizes    %s; %d rounds per episode\n", info.sizes.c_str(),
              info.rounds);
  std::printf("host     %s\n", host.c_str());

  const RunResult run = opt.trace ? RunTraced(opt, info, scratch, tag)
                                  : RunUntraced(opt, info, scratch);
  int64_t attempted = 0;
  int64_t failed = 0;
  for (const Episode& ep : run.episodes) {
    attempted += ep.attempted;
    failed += ep.failed;
  }
  attempted = std::max<int64_t>(attempted, 1);
  const bool correct = run.failures.empty();
  if (!correct) failed = attempted;
  for (const std::string& f : run.failures) std::printf("FAIL %s\n", f.c_str());

  std::printf("\nmetrics (%s):\n",
              opt.trace ? "per layer, per episode" : "end to end");
  PrintMetrics(run.metrics);

  // The result set, with its seed, sizes and host context.
  const std::string metrics = MetricsJson(run.metrics);
  const std::string result_path = opt.out_dir + "/result-" + tag + "-trace" +
                                  (opt.trace ? "1" : "0") + ".json";
  if (std::FILE* f = std::fopen(result_path.c_str(), "w")) {
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"seed\": %" PRIu64
                 ", \"sizes\": \"%s\", \"rounds_per_episode\": %d, "
                 "\"seeds_per_run\": %d, \"episodes\": %zu, \"trace\": %d, "
                 "\"host\": %s, \"correct\": %s, \"metrics\": %s}\n",
                 opt.workload.c_str(), opt.seed, JsonEscape(info.sizes).c_str(),
                 info.rounds, info.seeds_per_run, run.episodes.size(),
                 opt.trace ? 1 : 0, host.c_str(), correct ? "true" : "false",
                 metrics.c_str());
    std::fclose(f);
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed, metrics.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace fedbench

int main(int argc, char** argv) {
  fedbench::Options opt;
  if (!fedbench::ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: fedbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out <dir>]\n");
    return 2;
  }
  return fedbench::Run(opt);
}
