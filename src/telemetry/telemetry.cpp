#include "telemetry/telemetry.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace noc {

const char *
toString(TelemetryEventClass cls)
{
    switch (cls) {
      case TelemetryEventClass::BufferWrite:    return "bw";
      case TelemetryEventClass::VaGrant:        return "va";
      case TelemetryEventClass::SaGrant:        return "sa";
      case TelemetryEventClass::SwitchTraverse: return "st";
      case TelemetryEventClass::LinkTraverse:   return "lt";
      case TelemetryEventClass::PcCreate:       return "pc-create";
      case TelemetryEventClass::PcReuseSa:      return "pc-reuse-sa";
      case TelemetryEventClass::PcReuseBuffer:  return "pc-reuse-buffer";
      case TelemetryEventClass::PcTerminate:    return "pc-terminate";
      case TelemetryEventClass::PcSpeculate:    return "pc-speculate";
      case TelemetryEventClass::PcSpecHit:      return "pc-spec-hit";
      case TelemetryEventClass::PcSpecMiss:     return "pc-spec-miss";
      case TelemetryEventClass::CreditStall:    return "credit-stall";
      case TelemetryEventClass::ExpressBypass:  return "express-bypass";
    }
    return "unknown";
}

namespace {

std::uint32_t
maskForName(const std::string &name)
{
    if (name == "all")
        return kAllTelemetryClasses;
    if (name == "pipeline") {
        return telemetryClassBit(TelemetryEventClass::BufferWrite) |
               telemetryClassBit(TelemetryEventClass::VaGrant) |
               telemetryClassBit(TelemetryEventClass::SaGrant) |
               telemetryClassBit(TelemetryEventClass::SwitchTraverse) |
               telemetryClassBit(TelemetryEventClass::LinkTraverse);
    }
    if (name == "pc") {
        return telemetryClassBit(TelemetryEventClass::PcCreate) |
               telemetryClassBit(TelemetryEventClass::PcReuseSa) |
               telemetryClassBit(TelemetryEventClass::PcReuseBuffer) |
               telemetryClassBit(TelemetryEventClass::PcTerminate) |
               telemetryClassBit(TelemetryEventClass::PcSpeculate) |
               telemetryClassBit(TelemetryEventClass::PcSpecHit) |
               telemetryClassBit(TelemetryEventClass::PcSpecMiss);
    }
    if (name == "credit")
        return telemetryClassBit(TelemetryEventClass::CreditStall);
    if (name == "link")
        return telemetryClassBit(TelemetryEventClass::LinkTraverse);
    for (int c = 0; c < kNumTelemetryClasses; ++c) {
        const auto cls = static_cast<TelemetryEventClass>(c);
        if (name == toString(cls))
            return telemetryClassBit(cls);
    }
    NOC_FATAL("unknown telemetry class: '" + name + "'");
}

} // namespace

std::uint32_t
telemetryMaskFromSpec(const std::string &spec)
{
    std::uint32_t mask = 0;
    std::size_t start = 0;
    while (start <= spec.size()) {
        const std::size_t comma = spec.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? spec.size() : comma;
        if (end > start)
            mask |= maskForName(spec.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    if (mask == 0)
        NOC_FATAL("empty telemetry class spec: '" + spec + "'");
    return mask;
}

void
TelemetrySink::record(TelemetryEventClass cls, Cycle now, RouterId router,
                      PortId port, VcId vc, std::uint8_t arg)
{
    if (!accepts(cls, now))
        return;
    ++counters_.perClass[static_cast<std::size_t>(cls)];
    ++counters_.recorded;
    push(TelemetryEvent{now, router, static_cast<std::int16_t>(port),
                        static_cast<std::int8_t>(vc), cls, arg});
}

RingBufferCollector::RingBufferCollector(const TelemetryConfig &cfg)
    : TelemetrySink(cfg)
{
    NOC_ASSERT(cfg_.capacity > 0, "telemetry ring needs capacity");
}

void
RingBufferCollector::push(const TelemetryEvent &ev)
{
    if (ring_.size() < cfg_.capacity) {
        ring_.push_back(ev);
        return;
    }
    ++counters_.dropped;   // overwriting the oldest event
    ring_[head_] = ev;
    if (++head_ == ring_.size())
        head_ = 0;
}

std::vector<TelemetryEvent>
RingBufferCollector::events() const
{
    // The oldest event sits at head_ (slot 0 until the ring wraps).
    std::vector<TelemetryEvent> out(ring_.begin() + head_, ring_.end());
    out.insert(out.end(), ring_.begin(), ring_.begin() + head_);
    return out;
}

} // namespace noc
