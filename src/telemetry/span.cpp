#include "telemetry/span.hpp"

#include <algorithm>

namespace spinscope::telemetry {

Span::Span(MetricsRegistry* registry, HistogramId id)
    : registry_{registry},
      id_{id},
      start_{registry != nullptr ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point{}} {}

double Span::finish() {
    if (finished_ || registry_ == nullptr) return 0.0;
    finished_ = true;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    const double ms = std::chrono::duration<double, std::milli>(elapsed).count();
    registry_->histogram(id_).record(ms);
    return ms;
}

void record_sim_time(MetricsRegistry& registry, HistogramId id, util::Duration d) {
    registry.histogram(id).record(std::max(0.0, d.as_ms()));
}

}  // namespace spinscope::telemetry
