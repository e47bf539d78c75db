/// \file seams.h
/// \brief Decorators on the library's public seams.
///
/// Each decorator forwards every call to the object it wraps and records
/// what the benchmark needs around the call: spans (only while the span
/// recorder is on) and the few counters and timestamps the end-to-end
/// metrics need (always). The library never sees anything but the
/// interfaces it already takes, so a decorated run must end in the same θ
/// as an undecorated one — the benchmark checks that bitwise.

#ifndef FEDBENCH_SEAMS_H_
#define FEDBENCH_SEAMS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "comm/codec.h"
#include "fl/algorithm.h"
#include "fl/ingest.h"
#include "fl/problem.h"
#include "fl/selection.h"
#include "serve/transport.h"
#include "trace.h"

namespace fedbench {

using fedadmm::ClientSelector;
using fedadmm::FederatedAlgorithm;
using fedadmm::FederatedProblem;
using fedadmm::LocalProblem;
using fedadmm::Rng;
using fedadmm::UpdateCodec;
using fedadmm::UpdateMessage;

/// \brief FederatedAlgorithm decorator: Setup time, client work, the
/// server step, and per-update turnaround (wave dispatch → aggregated).
///
/// `DetachReducePool` is not virtual, so the engine's detach at the end of
/// a run reaches this decorator and not the wrapped algorithm: after Run
/// the inner algorithm must not be asked for a reduction.
class TracedAlgorithm : public FederatedAlgorithm {
 public:
  explicit TracedAlgorithm(FederatedAlgorithm* inner) : inner_(inner) {}

  std::string name() const override { return inner_->name(); }
  void Setup(const fedadmm::AlgorithmContext& ctx,
             std::span<const float> theta0) override;
  UpdateMessage ClientUpdate(int client_id, int round,
                             std::span<const float> theta,
                             LocalProblem* problem, Rng rng) override;
  void ServerUpdate(const std::vector<UpdateMessage>& updates, int round,
                    std::vector<float>* theta) override;
  void AggregateOne(UpdateMessage msg, int round, int staleness,
                    std::vector<float>* theta) override;
  int64_t DownloadBytesPerClient() const override {
    return inner_->DownloadBytesPerClient();
  }
  int64_t StateBytesResident() const override {
    return inner_->StateBytesResident();
  }
  std::string DefaultStateStoreSpec() const override {
    return inner_->DefaultStateStoreSpec();
  }
  fedadmm::Status ValidateForEventMode() const override {
    return inner_->ValidateForEventMode();
  }
  fedadmm::ClientStateStore* mutable_state_store() override {
    return inner_->mutable_state_store();
  }
  std::string SerializeExtraState() const override {
    return inner_->SerializeExtraState();
  }
  fedadmm::Status RestoreExtraState(const std::string& blob) override {
    return inner_->RestoreExtraState(blob);
  }

  /// When Setup returned (steady-clock seconds).
  double setup_end() const { return setup_end_; }
  /// Minibatch-SGD samples: epochs run × local sample count, summed.
  int64_t sgd_samples() const { return sgd_samples_.load(); }
  int64_t updates_attempted() const { return attempted_.load(); }
  /// Updates that reached ServerUpdate / AggregateOne.
  int64_t updates_aggregated() const { return aggregated_; }
  /// Wall seconds from each aggregated update's dispatch (the first
  /// ClientUpdate of its wave) to the end of the server step that consumed
  /// it. Timing from the update's own start would instead measure where
  /// the executor happened to queue it behind other clients of the wave.
  const std::vector<double>& turnaround() const { return turnaround_; }
  /// (wave, client) of every ClientUpdate, in call order (traced runs).
  std::vector<std::pair<int, int>> touches() const;

 private:
  void NoteAggregated(int client_id, double now);

  FederatedAlgorithm* inner_;
  double setup_end_ = 0.0;
  std::atomic<int64_t> sgd_samples_{0};
  std::atomic<int64_t> attempted_{0};
  std::mutex wave_mutex_;  // guards wave_ and wave_start_
  int wave_ = -1;
  double wave_start_ = 0.0;
  // A client is in flight at most once, so its slot is written by one
  // worker and read by the engine after the wave joined.
  std::vector<double> dispatched_;
  int64_t aggregated_ = 0;
  std::vector<double> turnaround_;
  mutable std::mutex touches_mutex_;
  std::vector<std::pair<int, int>> touches_;
};

/// \brief Per-problem counters of the local-work seam.
struct LocalWorkStats {
  std::atomic<int64_t> batch_calls{0};
  std::atomic<int64_t> batch_samples{0};
  std::atomic<int64_t> full_samples{0};
  std::atomic<int64_t> eval_calls{0};
};

/// \brief FederatedProblem decorator: wraps every LocalProblem it hands
/// out and times Evaluate. `layer` labels the local-gradient spans ("nn"
/// for the CNN, "fl" for analytic problems).
class TracedProblem : public FederatedProblem {
 public:
  TracedProblem(FederatedProblem* inner, const char* layer)
      : inner_(inner), layer_(layer) {}

  int num_clients() const override { return inner_->num_clients(); }
  int64_t dim() const override { return inner_->dim(); }
  int num_workers() const override { return inner_->num_workers(); }
  std::unique_ptr<LocalProblem> MakeLocalProblem(int client,
                                                 int worker) override;
  fedadmm::EvalResult Evaluate(std::span<const float> theta,
                               int worker) override;
  std::vector<float> InitialParameters(Rng* rng) override {
    return inner_->InitialParameters(rng);
  }

  const LocalWorkStats& stats() const { return stats_; }
  const char* layer() const { return layer_; }

 private:
  FederatedProblem* inner_;
  const char* layer_;
  LocalWorkStats stats_;
};

/// \brief ClientSelector decorator: times and counts Select.
class TracedSelector : public ClientSelector {
 public:
  explicit TracedSelector(ClientSelector* inner) : inner_(inner) {}

  std::vector<int> Select(int round, Rng* rng) override;
  int num_clients() const override { return inner_->num_clients(); }
  std::string name() const override { return inner_->name(); }

  int64_t calls() const { return calls_; }

 private:
  ClientSelector* inner_;
  int64_t calls_ = 0;
};

/// \brief Codec counters, one set per decorated codec instance.
struct CodecStats {
  std::atomic<int64_t> encode_calls{0};
  std::atomic<int64_t> decode_calls{0};
  std::atomic<int64_t> raw_bytes{0};   // fp32 bytes handed to Encode
  std::atomic<int64_t> wire_bytes{0};  // payload bytes Encode produced
};

/// \brief UpdateCodec decorator: times Encode / Decode / TryDecode.
class TracedCodec : public UpdateCodec {
 public:
  explicit TracedCodec(UpdateCodec* inner) : inner_(inner) {}

  std::string name() const override { return inner_->name(); }
  fedadmm::Payload Encode(int64_t stream, const std::vector<float>& v,
                          Rng* rng) override;
  std::vector<float> Decode(const fedadmm::Payload& payload) const override;
  fedadmm::Result<std::vector<float>> TryDecode(
      const uint8_t* data, size_t len, int64_t expected_dim) const override;
  int64_t WireBytes(int64_t dim) const override {
    return inner_->WireBytes(dim);
  }
  bool deterministic() const override { return inner_->deterministic(); }
  bool stateful() const override { return inner_->stateful(); }

  const CodecStats& stats() const { return stats_; }

 private:
  UpdateCodec* inner_;
  mutable CodecStats stats_;
};

/// \brief IngestSource decorator: times the engine's CollectWave wait.
class TracedIngest : public fedadmm::IngestSource {
 public:
  explicit TracedIngest(fedadmm::IngestSource* inner) : inner_(inner) {}

  fedadmm::Status StartServing(int num_clients, int64_t dim) override {
    return inner_->StartServing(num_clients, dim);
  }
  fedadmm::Status BeginRound(int round, const std::vector<int>& cohort,
                             const fedadmm::DownlinkPlan& downlink,
                             const std::vector<float>& theta) override {
    return inner_->BeginRound(round, cohort, downlink, theta);
  }
  fedadmm::Result<std::vector<UpdateMessage>> CollectWave(int round) override;

 private:
  fedadmm::IngestSource* inner_;
};

/// \brief What one client session observed over the wire.
struct ChannelStats {
  int client = -1;
  int64_t update_sends = 0;   // UPDATE frames sent, resends included
  int64_t throttled_acks = 0;
  int64_t terminal_acks = 0;
  int64_t error_frames = 0;
  int64_t polls = 0;
  int64_t empty_polls = 0;
  double pending_update = -1.0;  // first Send of the unresolved UPDATE
  double pending_pull = -1.0;
  std::vector<double> update_rtt;  // first Send → terminal ACK
  std::vector<double> pull_rtt;    // PULL Send → MODEL
  std::vector<double> admit;       // time inside Send of an UPDATE
};

/// \brief Transport decorator: every ClientChannel it hands out records
/// into a ChannelStats slot the transport owns, so the figures outlive the
/// channels the load generator destroys.
class TracedTransport : public fedadmm::serve::Transport {
 public:
  explicit TracedTransport(fedadmm::serve::Transport* inner)
      : inner_(inner) {}

  fedadmm::Status Start(fedadmm::serve::FrameSink* sink) override {
    return inner_->Start(sink);
  }
  fedadmm::Result<std::unique_ptr<fedadmm::serve::ClientChannel>> Connect()
      override;
  void Stop() override { inner_->Stop(); }
  const std::string& name() const override { return inner_->name(); }

  /// Call only after every channel stopped being used.
  const std::deque<ChannelStats>& channels() const { return channels_; }

 private:
  fedadmm::serve::Transport* inner_;
  std::mutex mutex_;  // guards channels_ growth
  std::deque<ChannelStats> channels_;
};

}  // namespace fedbench

#endif  // FEDBENCH_SEAMS_H_
