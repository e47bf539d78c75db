/// \file analysis.h
/// \brief Turns a traced episode's spans into per-layer numbers.
///
/// Two views of the same spans:
///   * Round attribution: each round's wall (between observer callbacks)
///     is cut into elementary intervals, and each interval goes to the
///     highest-priority part active in it — eval, server step, codec,
///     selection, client work, ingest wait — or to `other`. The parts of
///     every round therefore sum to its wall by construction.
///   * Layer self time: each span's duration minus the part its child
///     spans (same thread) cover, summed per layer across threads.

#ifndef FEDBENCH_ANALYSIS_H_
#define FEDBENCH_ANALYSIS_H_

#include <array>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace fedbench {

enum Part { kEval, kServer, kCodec, kSelect, kClient, kCollect, kOther,
            kNumParts };

/// Display names of the parts, in priority order.
const std::array<const char*, kNumParts>& PartNames();

/// \brief One round's wall and its attribution.
struct RoundParts {
  double wall = 0.0;
  std::array<double, kNumParts> parts{};
};

/// Attributes every round window [bounds[i], bounds[i+1]).
std::vector<RoundParts> AttributeRounds(const std::vector<Span>& spans,
                                        const std::vector<double>& bounds);

/// Self time per layer, summed over threads.
std::map<std::string, double> LayerSelfTime(const std::vector<Span>& spans);

}  // namespace fedbench

#endif  // FEDBENCH_ANALYSIS_H_
