/// \file workloads.h
/// \brief The benchmark's three workloads, each run as fixed-budget
/// episodes: build everything from the seed, then train a fixed number
/// of rounds. An episode is deterministic given its seed, so repeated
/// episodes must end in bitwise-equal θ.

#ifndef FEDBENCH_WORKLOADS_H_
#define FEDBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "fl/types.h"
#include "serve/frontend.h"
#include "trace.h"

namespace fedbench {

/// \brief Static shape of a workload (recorded next to its results).
struct WorkloadInfo {
  std::string name;
  std::string sizes;      // human-readable input sizes
  int rounds = 0;         // RoundRecords per episode
  int client_threads = 0; // threads running client work
  bool served = false;    // updates arrive over the serve frontend
  /// Independent episode seeds one untraced run covers. Above 1 where
  /// the seed moves a workload's figures more than its bounds allow, so a
  /// run reports the mean over several draws of its inputs.
  int seeds_per_run = 1;
};

/// Seed of the k-th of `per_run` episode seeds of a run (the run seed
/// itself when per_run is 1).
uint64_t EpisodeSeed(uint64_t run_seed, int k, int per_run);

/// The workload's shape; `ok` false for an unknown name.
WorkloadInfo DescribeWorkload(const std::string& name, bool* ok);

/// \brief Everything one episode measured.
struct Episode {
  bool ok = true;
  std::string error;

  double setup_s = 0.0;  // inputs + problem/model + store/frontend + Setup
  double timed_s = 0.0;  // Setup end → last round finalized
  double setup_end = 0.0;
  std::vector<double> record_times;  // observer callback timestamps
  std::vector<double> round_s;

  int64_t attempted = 0;  // client updates started (served: UPDATEs)
  int64_t failed = 0;     // updates that ended in an error
  int64_t updates = 0;    // aggregated (training) / resolved (serve)
  int64_t sgd_samples = 0;
  std::vector<double> update_rtt;

  double final_accuracy = 0.0;
  std::vector<float> theta;
  fedadmm::History history;

  // Served workloads.
  fedadmm::serve::FrontendLedger ledger;
  int64_t update_sends = 0;
  int64_t throttled_acks = 0;
  int64_t polls = 0;
  int64_t empty_polls = 0;
  std::vector<double> admit_s;
  std::vector<double> pull_rtt;
  int twin_mismatch = -1;  // traced: served θ vs in-process twin (0 = equal)

  // Traced episodes only.
  std::vector<Span> spans;
  int64_t nn_batch_calls = 0;
  int64_t nn_batch_samples = 0;
  int64_t nn_full_samples = 0;
  int64_t eval_calls = 0;
  int64_t select_calls = 0;
  int64_t encode_calls = 0;
  int64_t decode_calls = 0;
  int64_t uplink_raw_bytes = 0;
  int64_t uplink_wire_bytes = 0;
  int64_t uplink_encodes = 0;
  int64_t state_bytes_resident = 0;
  int64_t touched_clients = 0;
  int64_t pool_hits = 0;
  int64_t pool_lookups = 0;
  int64_t pool_evictions = 0;
  int64_t pool_write_backs = 0;
  std::string store_spec;
  int64_t state_dim = 0;
  int state_clients = 0;
  std::vector<std::pair<int, int>> touches;  // (wave, client)
  int64_t dropped = 0;
};

/// Runs one episode of `workload` from `seed`. Traced episodes decorate
/// every seam and record spans; untraced ones keep only the algorithm
/// decorator (Setup time, update turnaround) and, when served, the
/// transport decorator (client-observed UPDATE round trips).
/// `scratch_dir` holds files a store spills (removed by the store).
Episode RunEpisode(const std::string& workload, uint64_t seed, bool traced,
                   const std::string& scratch_dir);

}  // namespace fedbench

#endif  // FEDBENCH_WORKLOADS_H_
