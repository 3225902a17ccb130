#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sim/sweep.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/heatmap.hpp"
#include "telemetry/telemetry.hpp"
#include "traffic/synthetic.hpp"

namespace noc {
namespace {

SimConfig
smallConfig(Scheme scheme)
{
    SimConfig cfg;
    cfg.topology = TopologyKind::Mesh;
    cfg.meshWidth = 4;
    cfg.meshHeight = 4;
    cfg.concentration = 1;
    cfg.routing = RoutingKind::XY;
    cfg.vaPolicy = VaPolicy::Static;
    cfg.scheme = scheme;
    return cfg;
}

std::unique_ptr<TrafficSource>
smallTraffic(const SimConfig &cfg)
{
    return std::make_unique<SyntheticTraffic>(
        SyntheticPattern::UniformRandom, cfg.numNodes(), 0.10, 5,
        /*seed=*/4242);
}

SimWindows
smallWindows()
{
    SimWindows w;
    w.warmup = 200;
    w.measure = 800;
    w.drainLimit = 8000;
    return w;
}

// ---------------------------------------------------------------------
// A minimal JSON reader, enough to verify the Chrome trace export is
// well-formed by actually parsing it back (not by regex): objects,
// arrays, strings with escapes, numbers, true/false/null.
// ---------------------------------------------------------------------

struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object } kind =
        Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> items;
    std::map<std::string, JsonValue> fields;

    const JsonValue *field(const std::string &key) const
    {
        const auto it = fields.find(key);
        return it == fields.end() ? nullptr : &it->second;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    bool parse(JsonValue &out)
    {
        const bool ok = value(out);
        skipWs();
        return ok && pos_ == text_.size();
    }

  private:
    void skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool consume(char c)
    {
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool literal(const char *word)
    {
        const std::size_t n = std::string(word).size();
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool string(std::string &out)
    {
        if (!consume('"'))
            return false;
        out.clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos_ >= text_.size())
                    return false;
                const char esc = text_[pos_++];
                switch (esc) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'u': {
                    if (pos_ + 4 > text_.size())
                        return false;
                    pos_ += 4;   // validated but not decoded
                    out += '?';
                    break;
                  }
                  default: return false;
                }
            } else {
                out += c;
            }
        }
        return false;   // unterminated
    }

    bool value(JsonValue &out)
    {
        skipWs();
        if (pos_ >= text_.size())
            return false;
        const char c = text_[pos_];
        if (c == '{') {
            ++pos_;
            out.kind = JsonValue::Kind::Object;
            skipWs();
            if (consume('}'))
                return true;
            for (;;) {
                std::string key;
                if (!string(key))
                    return false;
                if (!consume(':'))
                    return false;
                JsonValue child;
                if (!value(child))
                    return false;
                out.fields.emplace(std::move(key), std::move(child));
                if (consume(','))
                    continue;
                return consume('}');
            }
        }
        if (c == '[') {
            ++pos_;
            out.kind = JsonValue::Kind::Array;
            skipWs();
            if (consume(']'))
                return true;
            for (;;) {
                JsonValue child;
                if (!value(child))
                    return false;
                out.items.push_back(std::move(child));
                if (consume(','))
                    continue;
                return consume(']');
            }
        }
        if (c == '"') {
            out.kind = JsonValue::Kind::String;
            return string(out.str);
        }
        if (c == 't') {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return literal("true");
        }
        if (c == 'f') {
            out.kind = JsonValue::Kind::Bool;
            return literal("false");
        }
        if (c == 'n')
            return literal("null");
        out.kind = JsonValue::Kind::Number;
        const char *start = text_.c_str() + pos_;
        char *end = nullptr;
        out.number = std::strtod(start, &end);
        if (end == start)
            return false;
        pos_ += static_cast<std::size_t>(end - start);
        return true;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------

TEST(Telemetry, SamplingWindowGatesEvents)
{
    TelemetryConfig tcfg;
    tcfg.enabled = true;
    tcfg.startCycle = 300;
    tcfg.endCycle = 600;
    RingBufferCollector collector(tcfg);

    const SimConfig cfg = smallConfig(Scheme::PseudoSB);
    runSimulation(cfg, smallTraffic(cfg), smallWindows(), &collector);
    ASSERT_GT(collector.counters().recorded, 0u);
    EXPECT_EQ(collector.counters().dropped, 0u);
    const std::vector<TelemetryEvent> events = collector.events();
    EXPECT_EQ(events.size(), collector.counters().recorded);
    for (const TelemetryEvent &ev : events) {
        EXPECT_GE(ev.cycle, 300u);
        EXPECT_LE(ev.cycle, 600u);
    }
}

TEST(Telemetry, ClassMaskGatesEvents)
{
    TelemetryConfig tcfg;
    tcfg.enabled = true;
    tcfg.classMask = telemetryMaskFromSpec("pc");
    RingBufferCollector collector(tcfg);

    const SimConfig cfg = smallConfig(Scheme::PseudoSB);
    runSimulation(cfg, smallTraffic(cfg), smallWindows(), &collector);
    ASSERT_GT(collector.counters().recorded, 0u);
    EXPECT_EQ(collector.counters().count(TelemetryEventClass::BufferWrite),
              0u);
    EXPECT_EQ(collector.counters().count(TelemetryEventClass::LinkTraverse),
              0u);
    for (const TelemetryEvent &ev : collector.events()) {
        EXPECT_NE(ev.cls, TelemetryEventClass::BufferWrite);
        EXPECT_NE(ev.cls, TelemetryEventClass::SwitchTraverse);
    }
}

// The acceptance check of the tentpole: pseudo-circuit reuse events
// must reconcile *exactly* with the aggregate bypass statistics. With
// warmup=0 the RouterStats delta in SimResult covers every cycle of
// the run, so the telemetry tallies and the counters must agree.
TEST(Telemetry, EventCountsReconcileWithAggregateStats)
{
    TelemetryConfig tcfg;
    tcfg.enabled = true;
    RingBufferCollector collector(tcfg);

    SimWindows w = smallWindows();
    w.warmup = 0;

    const SimConfig cfg = smallConfig(Scheme::PseudoSB);
    const SimResult r = runSimulation(cfg, smallTraffic(cfg), w, &collector);
    ASSERT_TRUE(r.drained);

    const TelemetryCounters &t = collector.counters();
    ASSERT_GT(t.recorded, 0u);
    EXPECT_GT(r.routerTotals.saBypasses, 0u);

    EXPECT_EQ(t.count(TelemetryEventClass::PcReuseSa),
              r.routerTotals.saBypasses);
    EXPECT_EQ(t.count(TelemetryEventClass::PcReuseBuffer),
              r.routerTotals.bufferBypasses);
    EXPECT_EQ(t.count(TelemetryEventClass::BufferWrite),
              r.routerTotals.bufferWrites);
    EXPECT_EQ(t.count(TelemetryEventClass::SwitchTraverse),
              r.routerTotals.xbarTraversals);
    EXPECT_EQ(t.count(TelemetryEventClass::VaGrant),
              r.routerTotals.vaGrants);
    EXPECT_EQ(t.count(TelemetryEventClass::SaGrant),
              r.routerTotals.saGrants);
    EXPECT_EQ(t.count(TelemetryEventClass::PcCreate), r.pcTotals.created);
    EXPECT_EQ(t.count(TelemetryEventClass::PcTerminate),
              r.pcTotals.terminatedConflict + r.pcTotals.terminatedCredit);
    EXPECT_EQ(t.count(TelemetryEventClass::PcSpeculate),
              r.pcTotals.speculated);
    // Every speculative revival resolves exactly once.
    EXPECT_EQ(t.count(TelemetryEventClass::PcSpecHit) +
                  t.count(TelemetryEventClass::PcSpecMiss),
              r.pcTotals.speculated);
}

TEST(Telemetry, RingOverwritesOldestButCountsStayExact)
{
    TelemetryConfig tcfg;
    tcfg.enabled = true;
    tcfg.capacity = 64;
    RingBufferCollector collector(tcfg);

    const SimConfig cfg = smallConfig(Scheme::PseudoSB);
    runSimulation(cfg, smallTraffic(cfg), smallWindows(), &collector);

    const TelemetryCounters &t = collector.counters();
    ASSERT_GT(t.recorded, 64u);
    EXPECT_EQ(collector.size(), 64u);
    EXPECT_EQ(t.dropped, t.recorded - 64u);
    std::uint64_t per_class_total = 0;
    for (int c = 0; c < kNumTelemetryClasses; ++c)
        per_class_total += t.perClass[static_cast<std::size_t>(c)];
    EXPECT_EQ(per_class_total, t.recorded);

    // The survivors are the newest 64 events of the same run, in order:
    // the last 64 an uncapped collector records, element for element.
    TelemetryConfig all = tcfg;
    all.capacity = std::size_t{1} << 20;
    RingBufferCollector uncapped(all);
    runSimulation(cfg, smallTraffic(cfg), smallWindows(), &uncapped);
    ASSERT_EQ(uncapped.counters().dropped, 0u);
    const std::vector<TelemetryEvent> full = uncapped.events();
    ASSERT_EQ(full.size(), t.recorded);
    const std::vector<TelemetryEvent> events = collector.events();
    ASSERT_EQ(events.size(), 64u);
    EXPECT_TRUE(std::equal(events.begin(), events.end(), full.end() - 64));
}

TEST(Telemetry, ChromeTraceParsesBackAndTimestampsAreMonotonic)
{
    TelemetryConfig tcfg;
    tcfg.enabled = true;
    RingBufferCollector collector(tcfg);

    const SimConfig cfg = smallConfig(Scheme::PseudoSB);
    runSimulation(cfg, smallTraffic(cfg), smallWindows(), &collector);
    ASSERT_GT(collector.size(), 0u);

    TelemetryTrace trace;
    trace.label = "unit";
    trace.events = collector.events();
    trace.counters = collector.counters();

    std::ostringstream os;
    writeChromeTrace(os, trace);
    const std::string text = os.str();

    JsonValue root;
    ASSERT_TRUE(JsonParser(text).parse(root)) << text.substr(0, 400);
    ASSERT_EQ(root.kind, JsonValue::Kind::Object);
    const JsonValue *events = root.field("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->kind, JsonValue::Kind::Array);
    ASSERT_GT(events->items.size(), trace.events.size());   // + metadata

    std::map<std::pair<double, double>, double> last_ts;
    std::size_t instants = 0;
    for (const JsonValue &ev : events->items) {
        ASSERT_EQ(ev.kind, JsonValue::Kind::Object);
        const JsonValue *ph = ev.field("ph");
        ASSERT_NE(ph, nullptr);
        ASSERT_NE(ev.field("pid"), nullptr);
        ASSERT_NE(ev.field("name"), nullptr);
        if (ph->str != "i")
            continue;
        ++instants;
        const JsonValue *ts = ev.field("ts");
        const JsonValue *tid = ev.field("tid");
        ASSERT_NE(ts, nullptr);
        ASSERT_NE(tid, nullptr);
        const auto track = std::make_pair(ev.field("pid")->number,
                                          tid->number);
        const auto it = last_ts.find(track);
        if (it != last_ts.end()) {
            EXPECT_GE(ts->number, it->second) << "track pid="
                << track.first << " tid=" << track.second;
        }
        last_ts[track] = ts->number;
    }
    EXPECT_EQ(instants, trace.events.size());
}

TEST(Telemetry, HeatmapRollsUpPerRouter)
{
    TelemetryConfig tcfg;
    tcfg.enabled = true;
    RingBufferCollector collector(tcfg);

    const SimConfig cfg = smallConfig(Scheme::PseudoSB);
    const SimResult r = runSimulation(cfg, smallTraffic(cfg), smallWindows(),
                                      &collector);
    const auto rows = computeHeatmap(collector.events(), r.cyclesRun);
    ASSERT_FALSE(rows.empty());
    std::uint64_t reuses = 0;
    for (const RouterHeat &row : rows) {
        EXPECT_NE(row.router, kInvalidRouter);
        reuses += row.pcReuses;
    }
    // Ring did not wrap, so the rollup covers every recorded event.
    ASSERT_EQ(collector.counters().dropped, 0u);
    EXPECT_EQ(reuses,
              collector.counters().count(TelemetryEventClass::PcReuseSa) +
                  collector.counters().count(
                      TelemetryEventClass::PcReuseBuffer));

    std::ostringstream csv;
    writeHeatmapCsv(csv, rows);
    EXPECT_NE(csv.str().find("router"), std::string::npos);
    EXPECT_NE(csv.str().find('\n'), std::string::npos);
}

std::vector<SweepJob>
telemetrySweep()
{
    std::vector<SweepJob> jobs;
    const Scheme schemes[] = {Scheme::Baseline, Scheme::Pseudo,
                              Scheme::PseudoSB};
    const double loads[] = {0.05, 0.10};
    for (const Scheme scheme : schemes) {
        for (const double load : loads) {
            SweepJob job;
            job.label = std::string(toString(scheme)) + "@" +
                        std::to_string(load);
            job.cfg = smallConfig(scheme);
            job.windows = smallWindows();
            job.telemetry.enabled = true;
            job.makeSource = [load](const SimConfig &c) {
                return std::make_unique<SyntheticTraffic>(
                    SyntheticPattern::UniformRandom, c.numNodes(), load, 5,
                    /*seed=*/991 + static_cast<std::uint64_t>(load * 100));
            };
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

// The merge-determinism acceptance check: a parallel sweep's merged
// trace must equal the serial sweep's, event for event.
TEST(Telemetry, ParallelSweepTraceEqualsSerial)
{
    const std::vector<SweepOutcome> serial = runSweep(telemetrySweep(), 1);
    const std::vector<SweepOutcome> parallel = runSweep(telemetrySweep(), 4);

    const std::vector<TelemetryTrace> a = collectTelemetry(serial);
    const std::vector<TelemetryTrace> b = collectTelemetry(parallel);
    ASSERT_EQ(a.size(), serial.size());   // every job carried a trace
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].label, b[i].label);
        EXPECT_EQ(a[i].counters.recorded, b[i].counters.recorded);
        ASSERT_EQ(a[i].events.size(), b[i].events.size()) << a[i].label;
        EXPECT_TRUE(a[i].events == b[i].events) << a[i].label;
    }
}

} // namespace
} // namespace noc
