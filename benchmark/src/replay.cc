#include "replay.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <numeric>

#include "data/synthetic.h"
#include "nn/losses.h"
#include "nn/model_zoo.h"
#include "state/client_state_store.h"
#include "stats.h"
#include "trace.h"

namespace fedbench {

using namespace fedadmm;  // NOLINT(build/namespaces)

namespace {

/// "Conv2d(1->32, ...)" → "conv2d".
std::string LayerType(const Layer& layer) {
  std::string name = layer.name();
  name = name.substr(0, name.find('('));
  for (char& c : name) c = static_cast<char>(std::tolower(c));
  return name;
}

/// Forward multiply-adds ×2 per sample for conv (weight [OC,IC,K,K] applied
/// at every output position) and linear (weight [out,in]) layers.
double ForwardFlopsPerSample(Layer* layer, const Tensor& output) {
  for (Parameter* p : layer->Parameters()) {
    const Shape& w = p->value.shape();
    if (w.ndim() == 4) {
      return 2.0 * static_cast<double>(w.numel()) *
             static_cast<double>(output.shape().dim(2) * output.shape().dim(3));
    }
    if (w.ndim() == 2) return 2.0 * static_cast<double>(w.numel());
  }
  return 0.0;
}

}  // namespace

Metrics ReplayCnnLayers(uint64_t seed, int batch, int reps) {
  // Per type: per-rep seconds (summed over that type's layers) and FLOPs.
  std::map<std::string, std::vector<double>> fwd;
  std::map<std::string, std::vector<double>> bwd;
  std::map<std::string, double> flops;
  std::vector<double> loss_s;
  std::vector<double> batch_s;
  if (reps > 0) {
    auto model = BuildModel(PaperCnn1Config());
    Rng rng(seed);
    model->Initialize(&rng);
    SyntheticSpec spec = SyntheticMnistSpec(/*train_per_class=*/batch,
                                            /*test_per_class=*/1);
    spec.seed = seed;
    const DataSplit split = GenerateSynthetic(spec);
    std::vector<int> indices(static_cast<size_t>(batch));
    std::iota(indices.begin(), indices.end(), 0);
    Sequential* net = model->net();
    const int n = net->size();
    SoftmaxCrossEntropyLoss loss;
    for (int rep = 0; rep < reps; ++rep) {
      model->ZeroGrad();
      std::map<std::string, double> f;
      std::map<std::string, double> b;
      double t = NowSeconds();
      Tensor x = split.train.MakeBatch(indices);
      const std::vector<int> labels = split.train.MakeLabelBatch(indices);
      batch_s.push_back(NowSeconds() - t);
      for (int i = 0; i < n; ++i) {
        Layer* layer = net->layer(i);
        t = NowSeconds();
        x = layer->Forward(x);
        f[LayerType(*layer)] += NowSeconds() - t;
        if (rep == 0) {
          flops[LayerType(*layer)] += ForwardFlopsPerSample(layer, x);
        }
      }
      t = NowSeconds();
      loss.Forward(x, labels);
      Tensor g = loss.Backward();
      loss_s.push_back(NowSeconds() - t);
      for (int i = n - 1; i >= 0; --i) {
        Layer* layer = net->layer(i);
        t = NowSeconds();
        g = layer->Backward(g);
        b[LayerType(*layer)] += NowSeconds() - t;
      }
      for (const auto& [type, s] : f) fwd[type].push_back(s);
      for (const auto& [type, s] : b) bwd[type].push_back(s);
    }
  }

  Metrics out;
  const double per = 1.0 / batch;
  for (const char* type : {"conv2d", "maxpool2d", "linear", "relu", "flatten"}) {
    const double f = Median(fwd[type]) * per;
    const double b = Median(bwd[type]) * per;
    out.emplace_back(std::string("nn.") + type + ".fwd_s_per_sample", f);
    out.emplace_back(std::string("nn.") + type + ".bwd_s_per_sample", b);
  }
  out.emplace_back("nn.loss_s_per_sample", Median(loss_s) * per);
  out.emplace_back("data.make_batch_s_per_sample", Median(batch_s) * per);
  for (const char* type : {"conv2d", "linear"}) {
    // Backward computes the input and the weight gradient: 2× forward.
    const double seconds =
        (Median(fwd[type]) + Median(bwd[type])) * per;
    out.emplace_back(std::string("nn.") + type + ".gflop_per_s",
                     seconds > 0 ? 3.0 * flops[type] / seconds / 1e9 : 0.0);
  }
  return out;
}

double ReplayStateTouches(const std::string& spec, int clients, int64_t dim,
                          std::vector<std::pair<int, int>> touches) {
  auto made = MakeClientStateStore(spec);
  if (!made.ok() || touches.empty()) return 0.0;
  std::unique_ptr<ClientStateStore> store = std::move(made).ValueOrDie();
  std::vector<StateSlotSpec> slots(2);
  slots[0].dim = dim;
  slots[0].init.assign(static_cast<size_t>(dim), 0.5f);
  slots[1].dim = dim;
  store->Configure(clients, std::move(slots));
  // Within a wave the executor's order is a schedule artefact; replay it
  // in client order so the replay itself is deterministic.
  std::sort(touches.begin(), touches.end());
  std::vector<double> seconds;
  seconds.reserve(touches.size());
  for (const auto& [wave, client] : touches) {
    (void)wave;
    // A client update reads both slots and writes both back.
    const double t = NowSeconds();
    store->MutableView(client, 0)[0] += store->View(client, 1)[0];
    store->MutableView(client, 1)[0] -= 1.0f;
    store->Release(client);
    seconds.push_back(NowSeconds() - t);
  }
  return Median(seconds);
}

}  // namespace fedbench
