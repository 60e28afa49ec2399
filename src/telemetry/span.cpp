#include "telemetry/span.hpp"

#include <algorithm>

namespace spinscope::telemetry {

Span::Span(MetricsRegistry& registry, std::string_view name)
    : registry_{&registry}, name_{name}, start_{std::chrono::steady_clock::now()} {}

double Span::finish() {
    if (finished_) return 0.0;
    finished_ = true;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    const double ms = std::chrono::duration<double, std::milli>(elapsed).count();
    registry_->histogram(name_, wall_ms_spec()).record(ms);
    return ms;
}

void record_sim_time(MetricsRegistry& registry, std::string_view name, util::Duration d) {
    registry.histogram(name, sim_ms_spec()).record(std::max(0.0, d.as_ms()));
}

}  // namespace spinscope::telemetry
