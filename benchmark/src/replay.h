/// \file replay.h
/// \brief Per-layer replays through public `nn`, `data` and `state`
/// calls, for layers whose work happens behind a seam the benchmark
/// cannot decorate (layers inside a Model, slabs inside a store).

#ifndef FEDBENCH_REPLAY_H_
#define FEDBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace fedbench {

using Metrics = std::vector<std::pair<std::string, double>>;

/// Replays one CNN1 minibatch of `batch` samples through
/// `Model::net()->layer(i)` Forward/Backward `reps` times and returns, per
/// layer type (conv2d, maxpool2d, linear, relu, flatten), the median
/// seconds per sample of forward and backward, plus the loss, batch
/// assembly and conv/linear GFLOP/s (FLOPs counted from shapes).
/// `reps` = 0 returns the same names with zero values.
Metrics ReplayCnnLayers(uint64_t seed, int batch, int reps);

/// Replays the recorded (wave, client) touches, wave by wave, through
/// View / MutableView / Release on a fresh store built from `spec` with
/// two slots of `dim` floats over `clients` clients. Returns the median
/// seconds of one client touch.
double ReplayStateTouches(const std::string& spec, int clients, int64_t dim,
                          std::vector<std::pair<int, int>> touches);

}  // namespace fedbench

#endif  // FEDBENCH_REPLAY_H_
