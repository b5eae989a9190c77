#include "system/campaign.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <ostream>
#include <thread>
#include <type_traits>

#include "prof/profiler.hh"
#include "sim/host.hh"
#include "sim/logging.hh"
#include "workload/app_profile.hh"

namespace pageforge
{

std::vector<CampaignCell>
CampaignSpec::cells() const
{
    std::vector<std::string> app_names = apps;
    if (app_names.empty())
        for (const AppProfile &app : tailbenchApps())
            app_names.push_back(app.name);

    std::vector<DedupMode> mode_list = modes;
    if (mode_list.empty())
        mode_list = {DedupMode::None, DedupMode::Ksm,
                     DedupMode::PageForge};

    unsigned seeds = std::max(1u, numSeeds);

    std::vector<CampaignCell> matrix;
    matrix.reserve(app_names.size() * mode_list.size() * seeds);
    for (const std::string &app : app_names)
        for (DedupMode mode : mode_list)
            for (unsigned s = 0; s < seeds; ++s)
                matrix.push_back({app, mode, experiment.seed + s});
    return matrix;
}

std::size_t
CampaignReport::failures() const
{
    return static_cast<std::size_t>(
        std::count_if(cells.begin(), cells.end(),
                      [](const CellOutcome &c) { return !c.ok; }));
}

const CellOutcome *
CampaignReport::find(const std::string &app, DedupMode mode,
                     std::uint64_t seed) const
{
    for (const CellOutcome &outcome : cells)
        if (outcome.cell.app == app && outcome.cell.mode == mode &&
            outcome.cell.seed == seed)
            return &outcome;
    return nullptr;
}

const ExperimentResult &
CampaignReport::at(const std::string &app, DedupMode mode,
                   std::size_t seed_index) const
{
    std::size_t matched = 0;
    for (const CellOutcome &outcome : cells) {
        if (outcome.cell.app != app || outcome.cell.mode != mode)
            continue;
        if (matched++ != seed_index)
            continue;
        if (!outcome.ok)
            fatal("campaign cell %s/%s (seed %llu) failed: %s",
                  app.c_str(), dedupModeName(mode),
                  static_cast<unsigned long long>(outcome.cell.seed),
                  outcome.error.c_str());
        return outcome.result;
    }
    fatal("campaign has no cell %s/%s (seed index %zu)", app.c_str(),
          dedupModeName(mode), seed_index);
}

CampaignReport
runCampaign(const CampaignSpec &spec)
{
    std::vector<CampaignCell> matrix = spec.cells();

    // Reject unknown applications before any worker starts (and warm
    // the profile table's one-time initialization on this thread).
    if (!spec.runner)
        for (const CampaignCell &cell : matrix)
            (void)appByName(cell.app);

    CellRunner runner = spec.runner;
    if (!runner) {
        ExperimentConfig base_cfg = spec.experiment;
        SystemConfig sys = spec.sysTemplate;
        runner = [base_cfg, sys](const CampaignCell &cell) {
            ExperimentConfig cfg = base_cfg;
            cfg.seed = cell.seed;
            // A TraceSink is single-simulation state; parallel cells
            // must not share one. Campaigns keep metrics sampling
            // (per-cell, shared-nothing) and drop event tracing.
            cfg.traceSink = nullptr;
            return runExperiment(appByName(cell.app), cell.mode, cfg,
                                 sys);
        };
    }

    CampaignReport report;
    report.cells.resize(matrix.size());

    unsigned jobs = spec.jobs;
    if (jobs == 0)
        jobs = std::max(1u, std::thread::hardware_concurrency());
    jobs = static_cast<unsigned>(std::min<std::size_t>(
        jobs, std::max<std::size_t>(matrix.size(), 1)));
    report.jobs = jobs;
    report.numMcs = spec.sysTemplate.numMcs;

    auto start = std::chrono::steady_clock::now();

    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex progress_mutex;

    auto work = [&]() {
        // Arm thread-local invariant capture: a panicAt() fired by a
        // component (merge oracle, frame audit, ...) surfaces as a
        // typed exception with the faulting component and tick, and
        // fails only this cell instead of aborting the campaign.
        setInvariantCapture(true);
        for (;;) {
            std::size_t idx = next.fetch_add(1);
            if (idx >= matrix.size())
                return;
            CellOutcome &outcome = report.cells[idx];
            outcome.cell = matrix[idx];
            try {
                outcome.result = runner(matrix[idx]);
                outcome.ok = true;
            } catch (const InvariantViolation &e) {
                outcome.error = e.what();
                outcome.failComponent = e.component;
                outcome.failTick = e.tick;
            } catch (const std::exception &e) {
                outcome.error = e.what();
            } catch (...) {
                outcome.error = "unknown exception";
            }
            outcome.peakRssKb = hostPeakRssKb();
            std::size_t so_far = done.fetch_add(1) + 1;
            if (spec.progress) {
                std::lock_guard<std::mutex> lock(progress_mutex);
                spec.progress(outcome, so_far, matrix.size());
            }
        }
    };

    if (jobs <= 1) {
        work();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(jobs);
        for (unsigned j = 0; j < jobs; ++j)
            pool.emplace_back(work);
        for (std::thread &worker : pool)
            worker.join();
    }

    report.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return report;
}

namespace
{

// ---- JSON helpers (minimal, stable field order) ----

void
jsonString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"':
            os << "\\\"";
            break;
          case '\\':
            os << "\\\\";
            break;
          case '\n':
            os << "\\n";
            break;
          case '\t':
            os << "\\t";
            break;
          case '\r':
            os << "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

void
jsonDouble(std::ostream &os, double v)
{
    // max_digits10 so a JSON round trip preserves the exact value.
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << buf;
}

/** Schema visitor writing the present fields as JSON object members. */
struct JsonFields
{
    std::ostream &os;
    bool first = true; //!< nothing written yet in the current object

    /** When set, write only these top-level leaves (by address). */
    std::vector<const void *> only = {};

    template <class T>
    void
    field(const char *key, const char *, const T &value,
          FieldClass = FieldClass::Exact)
    {
        if (!key || (only.size() && std::find(only.begin(), only.end(),
                                              &value) == only.end()))
            return;
        name(key);
        if constexpr (std::is_same_v<T, double>)
            jsonDouble(os, value);
        else if constexpr (std::is_same_v<T, std::string>)
            jsonString(os, value);
        else if constexpr (std::is_same_v<T, MetricsSeries>)
            value.writeJson(os);
        else if constexpr (std::is_arithmetic_v<T>)
            os << value;
    }

    template <class F>
    void
    section(const char *key, bool present, F &&body)
    {
        if (!present || only.size())
            return;
        if (!key)
            return body();
        name(key);
        object(body);
    }

    template <class T>
    void
    list(const char *key, const char *, const std::vector<T> &items,
         FieldClass = FieldClass::Exact)
    {
        if (only.size())
            return;
        name(key);
        os << '[';
        for (std::size_t i = 0; i < items.size(); ++i) {
            os << (i ? "," : "");
            if constexpr (std::is_arithmetic_v<T>)
                os << items[i];
            else
                object([&] { describe(items[i], *this); });
        }
        os << ']';
    }

    template <class F>
    void
    object(F &&body)
    {
        os << '{';
        first = true;
        body();
        os << '}';
        first = false;
    }

    void
    name(const char *key)
    {
        os << (first ? "\"" : ",\"") << key << "\":";
        first = false;
    }
};

/** Schema visitor flattening a result into ResultField leaves. */
struct Flattener
{
    std::vector<ResultField> &out;
    bool all;           //!< also sections that are not present
    std::string prefix; //!< path of the enclosing group, with its dot

    template <class T>
    void
    field(const char *key, const char *unit, const T &value,
          FieldClass cls = FieldClass::Exact)
    {
        ResultField &leaf = out.emplace_back();
        leaf.path = key ? prefix + key : "";
        leaf.unit = unit;
        leaf.cls = cls;
        if constexpr (std::is_same_v<T, double> ||
                      std::is_same_v<T, std::string>)
            leaf.value = value;
        else if constexpr (std::is_same_v<T, MetricsSeries>)
            leaf.value = std::to_string(value.ticks.size()) + " samples";
        else
            leaf.value = static_cast<std::uint64_t>(value);
    }

    template <class F>
    void
    section(const char *key, bool present, F &&body)
    {
        if (present || all)
            nested(key ? prefix + key + "." : prefix, body);
    }

    template <class T>
    void
    list(const char *key, const char *unit, const std::vector<T> &items,
         FieldClass cls = FieldClass::Exact)
    {
        field(nullptr, "", items.size(), cls);
        for (std::size_t i = 0; i < items.size(); ++i) {
            std::string at = std::string(key) + '[' + std::to_string(i) + ']';
            if constexpr (std::is_arithmetic_v<T>)
                field(at.c_str(), unit, items[i], cls);
            else
                nested(prefix + at + ".",
                       [&] { describe(items[i], *this); });
        }
    }

    template <class F>
    void
    nested(std::string path, F &&body)
    {
        std::swap(prefix, path);
        body();
        std::swap(prefix, path);
    }
};

/** The members every cell record of a report starts with. */
void
writeCellHead(std::ostream &os, const CellOutcome &outcome)
{
    os << "{\"app\":";
    jsonString(os, outcome.cell.app);
    os << ",\"mode\":";
    jsonString(os, dedupModeName(outcome.cell.mode));
    os << ",\"seed\":" << outcome.cell.seed;
    os << ",\"ok\":" << (outcome.ok ? "true" : "false");
}

} // namespace

bool
ResultField::sameValue(const ResultField &other) const
{
    const double *x = std::get_if<double>(&value);
    const double *y = std::get_if<double>(&other.value);
    if (x && y)
        return std::bit_cast<std::uint64_t>(*x) ==
            std::bit_cast<std::uint64_t>(*y);
    return value == other.value;
}

std::string
ResultField::text() const
{
    if (const double *d = std::get_if<double>(&value)) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.6g", *d);
        return buf;
    }
    if (const std::uint64_t *n = std::get_if<std::uint64_t>(&value))
        return std::to_string(*n);
    return std::get<std::string>(value);
}

std::vector<ResultField>
resultFields(const ExperimentResult &r, bool all)
{
    std::vector<ResultField> fields;
    Flattener flat{fields, all, ""};
    describe(r, flat);
    return fields;
}

bool
identicalResults(const ExperimentResult &a, const ExperimentResult &b)
{
    auto compared = [](const ExperimentResult &r) {
        std::vector<ResultField> fields = resultFields(r, true);
        std::erase_if(fields, [](const ResultField &f) {
            return !comparedClass(f.cls);
        });
        return fields;
    };
    std::vector<ResultField> fa = compared(a);
    std::vector<ResultField> fb = compared(b);
    return std::equal(fa.begin(), fa.end(), fb.begin(), fb.end(),
                      [](const ResultField &x, const ResultField &y) {
                          return x.sameValue(y);
                      });
}

void
writeCampaignJson(const CampaignReport &report, std::ostream &os)
{
    os << "{\"schema\":\"pageforge-campaign-v2\"";
    os << ",\"jobs\":" << report.jobs;
    os << ",\"wall_seconds\":";
    jsonDouble(os, report.wallSeconds);
    os << ",\"failures\":" << report.failures();
    os << ",\"cells\":[";
    for (std::size_t i = 0; i < report.cells.size(); ++i) {
        const CellOutcome &outcome = report.cells[i];
        if (i)
            os << ",";
        writeCellHead(os, outcome);
        if (outcome.ok) {
            os << ",\"result\":";
            JsonFields json{os};
            json.object([&] { describe(outcome.result, json); });
        } else {
            os << ",\"error\":";
            jsonString(os, outcome.error);
            // Invariant violations carry the faulting component and
            // the simulated tick it detected the problem at.
            if (!outcome.failComponent.empty()) {
                os << ",\"fail_component\":";
                jsonString(os, outcome.failComponent);
                os << ",\"fail_tick\":" << outcome.failTick;
            }
        }
        os << "}";
    }
    os << "]";
    // Host-time self-profile of the whole campaign process; only on
    // profiling runs so default output stays byte-identical.
    if (prof::enabled()) {
        os << ",\"profile\":";
        prof::writeJson(os);
    }
    os << "}\n";
}

void
writePerfReport(const CampaignReport &report, std::ostream &os,
                double baseline_seconds)
{
    std::uint64_t total_events = 0;
    std::uint64_t total_pages = 0;
    std::uint64_t peak_rss = 0;
    for (const CellOutcome &outcome : report.cells) {
        if (outcome.ok) {
            total_events += outcome.result.simEvents;
            total_pages += outcome.result.pagesScanned;
        }
        peak_rss = std::max(peak_rss, outcome.peakRssKb);
    }

    // v2 added num_mcs so a gate can compare the 1-MC and multi-MC
    // entries of the same matrix separately (v1 lacks it, implying the
    // classic 1-MC machine).
    os << "{\"schema\":\"pageforge-simspeed-v2\"";
    os << ",\"jobs\":" << report.jobs;
    os << ",\"num_mcs\":" << report.numMcs;
    os << ",\"wall_seconds\":";
    jsonDouble(os, report.wallSeconds);
    if (baseline_seconds > 0.0) {
        os << ",\"baseline_wall_seconds\":";
        jsonDouble(os, baseline_seconds);
        os << ",\"speedup\":";
        jsonDouble(os, baseline_seconds / report.wallSeconds);
    }
    os << ",\"total_sim_events\":" << total_events;
    os << ",\"total_pages_scanned\":" << total_pages;
    if (report.wallSeconds > 0.0) {
        os << ",\"events_per_sec\":";
        jsonDouble(os, static_cast<double>(total_events) /
                           report.wallSeconds);
        os << ",\"pages_scanned_per_sec\":";
        jsonDouble(os, static_cast<double>(total_pages) /
                           report.wallSeconds);
    }
    os << ",\"peak_rss_kb\":" << peak_rss;
    os << ",\"failures\":" << report.failures();
    os << ",\"cells\":[";
    for (std::size_t i = 0; i < report.cells.size(); ++i) {
        const CellOutcome &outcome = report.cells[i];
        if (i)
            os << ",";
        writeCellHead(os, outcome);
        if (outcome.ok) {
            const ExperimentResult &r = outcome.result;
            os << ",\"host_ms\":";
            jsonDouble(os, r.hostSeconds * 1e3);
            JsonFields json{os, false, {&r.simEvents, &r.pagesScanned}};
            describe(r, json);
            if (r.hostSeconds > 0.0) {
                os << ",\"events_per_sec\":";
                jsonDouble(os, static_cast<double>(r.simEvents) /
                               r.hostSeconds);
                os << ",\"pages_scanned_per_sec\":";
                jsonDouble(os, static_cast<double>(r.pagesScanned) /
                               r.hostSeconds);
            }
        } else {
            os << ",\"error\":";
            jsonString(os, outcome.error);
        }
        os << ",\"peak_rss_kb\":" << outcome.peakRssKb;
        os << "}";
    }
    os << "]}\n";
}

} // namespace pageforge
