#include "seams.h"

#include "serve/frame.h"

namespace fedbench {

namespace serve = fedadmm::serve;

namespace {

/// Id shared by the spans of one client update (training and served).
int64_t UpdateKey(int64_t round, int64_t client) {
  return round * 1000000 + client;
}

}  // namespace

void TracedAlgorithm::Setup(const fedadmm::AlgorithmContext& ctx,
                            std::span<const float> theta0) {
  SpanRecorder::Scope scope;
  SpanRecorder::Global().Open(&scope, "Setup", "core", -1);
  dispatched_.assign(static_cast<size_t>(ctx.num_clients), 0.0);
  inner_->Setup(ctx, theta0);
  setup_end_ = NowSeconds();
}

UpdateMessage TracedAlgorithm::ClientUpdate(int client_id, int round,
                                            std::span<const float> theta,
                                            LocalProblem* problem, Rng rng) {
  SpanRecorder& recorder = SpanRecorder::Global();
  if (recorder.enabled()) {
    std::lock_guard<std::mutex> lock(touches_mutex_);
    touches_.emplace_back(round, client_id);
  }
  SpanRecorder::Scope scope;
  recorder.Open(&scope, "ClientUpdate", "fl", UpdateKey(round, client_id));
  {
    // Waves never overlap, so a new wave id marks a new dispatch.
    std::lock_guard<std::mutex> lock(wave_mutex_);
    if (round != wave_) {
      wave_ = round;
      wave_start_ = NowSeconds();
    }
    dispatched_[static_cast<size_t>(client_id)] = wave_start_;
  }
  attempted_.fetch_add(1, std::memory_order_relaxed);
  UpdateMessage msg =
      inner_->ClientUpdate(client_id, round, theta, problem, std::move(rng));
  sgd_samples_.fetch_add(
      static_cast<int64_t>(msg.epochs_run) * problem->num_samples(),
      std::memory_order_relaxed);
  return msg;
}

void TracedAlgorithm::NoteAggregated(int client_id, double now) {
  ++aggregated_;
  turnaround_.push_back(now - dispatched_[static_cast<size_t>(client_id)]);
}

void TracedAlgorithm::ServerUpdate(const std::vector<UpdateMessage>& updates,
                                   int round, std::vector<float>* theta) {
  {
    SpanRecorder::Scope scope;
    SpanRecorder::Global().Open(&scope, "ServerUpdate", "core", round);
    inner_->ServerUpdate(updates, round, theta);
  }
  const double now = NowSeconds();
  for (const UpdateMessage& msg : updates) NoteAggregated(msg.client_id, now);
}

void TracedAlgorithm::AggregateOne(UpdateMessage msg, int round,
                                   int staleness, std::vector<float>* theta) {
  const int client = msg.client_id;
  {
    SpanRecorder::Scope scope;
    SpanRecorder::Global().Open(&scope, "AggregateOne", "core", round);
    inner_->AggregateOne(std::move(msg), round, staleness, theta);
  }
  NoteAggregated(client, NowSeconds());
}

std::vector<std::pair<int, int>> TracedAlgorithm::touches() const {
  std::lock_guard<std::mutex> lock(touches_mutex_);
  return touches_;
}

namespace {

/// LocalProblem decorator: batch and full-gradient spans plus counts.
class TracedLocalProblem : public LocalProblem {
 public:
  TracedLocalProblem(std::unique_ptr<LocalProblem> inner, const char* layer,
                     LocalWorkStats* stats)
      : inner_(std::move(inner)), layer_(layer), stats_(stats) {}

  int64_t dim() const override { return inner_->dim(); }
  int num_samples() const override { return inner_->num_samples(); }

  double BatchLossGradient(std::span<const float> w,
                           const std::vector<int>& batch,
                           std::span<float> grad) override {
    SpanRecorder::Scope scope;
    SpanRecorder::Global().Open(&scope, "BatchLossGradient", layer_, -1);
    stats_->batch_calls.fetch_add(1, std::memory_order_relaxed);
    stats_->batch_samples.fetch_add(static_cast<int64_t>(batch.size()),
                                    std::memory_order_relaxed);
    return inner_->BatchLossGradient(w, batch, grad);
  }

  std::vector<std::vector<int>> EpochBatches(int batch_size,
                                             Rng* rng) override {
    return inner_->EpochBatches(batch_size, rng);
  }

  double FullLossGradient(std::span<const float> w,
                          std::span<float> grad) override {
    SpanRecorder::Scope scope;
    SpanRecorder::Global().Open(&scope, "FullLossGradient", layer_, -1);
    stats_->full_samples.fetch_add(inner_->num_samples(),
                                   std::memory_order_relaxed);
    return inner_->FullLossGradient(w, grad);
  }

 private:
  std::unique_ptr<LocalProblem> inner_;
  const char* layer_;
  LocalWorkStats* stats_;
};

}  // namespace

std::unique_ptr<LocalProblem> TracedProblem::MakeLocalProblem(int client,
                                                              int worker) {
  return std::make_unique<TracedLocalProblem>(
      inner_->MakeLocalProblem(client, worker), layer_, &stats_);
}

fedadmm::EvalResult TracedProblem::Evaluate(std::span<const float> theta,
                                            int worker) {
  SpanRecorder::Scope scope;
  SpanRecorder::Global().Open(&scope, "Evaluate", "fl", -1);
  stats_.eval_calls.fetch_add(1, std::memory_order_relaxed);
  return inner_->Evaluate(theta, worker);
}

std::vector<int> TracedSelector::Select(int round, Rng* rng) {
  SpanRecorder::Scope scope;
  SpanRecorder::Global().Open(&scope, "Select", "fl", round);
  ++calls_;
  return inner_->Select(round, rng);
}

fedadmm::Payload TracedCodec::Encode(int64_t stream,
                                     const std::vector<float>& v, Rng* rng) {
  SpanRecorder::Scope scope;
  SpanRecorder::Global().Open(&scope, "Encode", "comm", stream);
  fedadmm::Payload payload = inner_->Encode(stream, v, rng);
  stats_.encode_calls.fetch_add(1, std::memory_order_relaxed);
  stats_.raw_bytes.fetch_add(
      static_cast<int64_t>(v.size() * sizeof(float)),
      std::memory_order_relaxed);
  stats_.wire_bytes.fetch_add(payload.WireBytes(), std::memory_order_relaxed);
  return payload;
}

std::vector<float> TracedCodec::Decode(const fedadmm::Payload& payload) const {
  SpanRecorder::Scope scope;
  SpanRecorder::Global().Open(&scope, "Decode", "comm", -1);
  stats_.decode_calls.fetch_add(1, std::memory_order_relaxed);
  return inner_->Decode(payload);
}

fedadmm::Result<std::vector<float>> TracedCodec::TryDecode(
    const uint8_t* data, size_t len, int64_t expected_dim) const {
  SpanRecorder::Scope scope;
  SpanRecorder::Global().Open(&scope, "TryDecode", "comm", -1);
  stats_.decode_calls.fetch_add(1, std::memory_order_relaxed);
  return inner_->TryDecode(data, len, expected_dim);
}

fedadmm::Result<std::vector<UpdateMessage>> TracedIngest::CollectWave(
    int round) {
  SpanRecorder::Scope scope;
  SpanRecorder::Global().Open(&scope, "CollectWave", "serve", round);
  return inner_->CollectWave(round);
}

namespace {

/// ClientChannel decorator. A channel is one session, driven by one
/// thread at a time, so its ChannelStats slot needs no lock.
class TracedChannel : public serve::ClientChannel {
 public:
  TracedChannel(std::unique_ptr<serve::ClientChannel> inner,
                ChannelStats* stats)
      : inner_(std::move(inner)), stats_(stats) {}

  fedadmm::Status Send(const std::vector<uint8_t>& frame) override {
    serve::FrameHeader header;
    if (!serve::ParseFrameHeader(frame.data(), frame.size(), &header).ok()) {
      return inner_->Send(frame);
    }
    const double now = NowSeconds();
    switch (header.type) {
      case serve::FrameType::kHello: {
        uint32_t client = 0;
        if (serve::ParseHelloBody(frame.data() + serve::kFrameHeaderBytes,
                                  header.body_len, &client)
                .ok()) {
          stats_->client = static_cast<int>(client);
        }
        return inner_->Send(frame);
      }
      case serve::FrameType::kPull:
        stats_->pending_pull = now;
        return inner_->Send(frame);
      case serve::FrameType::kUpdate: {
        ++stats_->update_sends;
        if (stats_->pending_update < 0.0) stats_->pending_update = now;
        serve::UpdateBody body;
        const int64_t round =
            serve::ParseUpdateBody(frame.data() + serve::kFrameHeaderBytes,
                                   header.body_len, &body)
                    .ok()
                ? body.header.round
                : -1;
        fedadmm::Status status;
        {
          SpanRecorder::Scope scope;
          SpanRecorder::Global().Open(&scope, "Send(UPDATE)", "serve",
                                      UpdateKey(round, stats_->client));
          status = inner_->Send(frame);
        }
        if (SpanRecorder::Global().enabled()) {
          stats_->admit.push_back(NowSeconds() - now);
        }
        return status;
      }
      default:
        return inner_->Send(frame);
    }
  }

  fedadmm::Result<bool> TryReceiveFrame(std::vector<uint8_t>* frame) override {
    fedadmm::Result<bool> got = inner_->TryReceiveFrame(frame);
    ++stats_->polls;
    if (!got.ok() || !got.ValueOrDie()) {
      ++stats_->empty_polls;
      return got;
    }
    serve::FrameHeader header;
    if (!serve::ParseFrameHeader(frame->data(), frame->size(), &header).ok()) {
      return got;
    }
    const double now = NowSeconds();
    const uint8_t* body = frame->data() + serve::kFrameHeaderBytes;
    if (header.type == serve::FrameType::kModel && stats_->pending_pull >= 0) {
      stats_->pull_rtt.push_back(now - stats_->pending_pull);
      stats_->pending_pull = -1.0;
    } else if (header.type == serve::FrameType::kAck) {
      serve::AckBody ack;
      if (serve::ParseAckBody(body, header.body_len, &ack).ok()) {
        if (ack.status == serve::AckStatus::kThrottled) {
          ++stats_->throttled_acks;
        } else if (stats_->pending_update >= 0) {
          ++stats_->terminal_acks;
          stats_->update_rtt.push_back(now - stats_->pending_update);
          stats_->pending_update = -1.0;
        }
      }
    } else if (header.type == serve::FrameType::kError) {
      ++stats_->error_frames;
    }
    return got;
  }

  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<serve::ClientChannel> inner_;
  ChannelStats* stats_;
};

}  // namespace

fedadmm::Result<std::unique_ptr<serve::ClientChannel>>
TracedTransport::Connect() {
  auto channel = inner_->Connect();
  if (!channel.ok()) return channel.status();
  ChannelStats* stats = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    channels_.emplace_back();
    stats = &channels_.back();
  }
  std::unique_ptr<serve::ClientChannel> wrapped =
      std::make_unique<TracedChannel>(std::move(channel).ValueOrDie(), stats);
  return wrapped;
}

}  // namespace fedbench
