#include "testing/crash_scheduler.h"

#include "common/error.h"

namespace cnvm::torture {

const char*
eventKindName(EventKind k)
{
    switch (k) {
      case EventKind::store: return "store";
      case EventKind::clwb: return "clwb";
      case EventKind::sfence: return "sfence";
    }
    return "?";
}

CrashScheduler::CrashScheduler(nvm::Pool& pool) : pool_(pool)
{
    pool_.cache().setLineObserver(this);
}

CrashScheduler::~CrashScheduler()
{
    pool_.cache().setLineObserver(nullptr);
}

void
CrashScheduler::onEvent(EventKind k, uint64_t line)
{
    total_++;
    if (traceEnabled_)
        trace_.push_back({k, line});
    if (countdown_ != 0 && --countdown_ == 0) {
        // The store observer runs before the store mutates memory and
        // before the line is tracked, so throwing here models a power
        // loss *instead of* the event. clwb/sfence observers run after
        // the state transition: the crash lands just after the event
        // takes effect, which is the other edge of the same window.
        throw nvm::CrashInjected{};
    }
}

std::string
CrashScheduler::describeTrace() const
{
    std::string out;
    uint64_t idx = 1;
    for (const TraceEvent& e : trace_) {
        out += strprintf("%6llu: %-6s",
                         static_cast<unsigned long long>(idx++),
                         eventKindName(e.kind));
        if (e.kind != EventKind::sfence) {
            out += strprintf(" line %llu",
                             static_cast<unsigned long long>(e.line));
        }
        out += "\n";
    }
    return out;
}

}  // namespace cnvm::torture
