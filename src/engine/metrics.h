#ifndef TDC_ENGINE_METRICS_H
#define TDC_ENGINE_METRICS_H

// The metrics instruments were born here and moved down into tdc::obs so
// the codec core and the CLI can record through the same types without
// linking the engine. This header keeps every historical tdc::engine
// spelling (Counter, Histogram, ScopedTimer, MetricsRegistry) working.
#include "obs/metrics.h"

namespace tdc::engine {

using Counter = obs::Counter;
using Histogram = obs::Histogram;
using ScopedTimer = obs::ScopedTimer;
using MetricsRegistry = obs::MetricsRegistry;

}  // namespace tdc::engine

#endif  // TDC_ENGINE_METRICS_H
