#include "host_profile.hh"

#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <tuple>
#include <unordered_map>

namespace amsc::bench
{

double
nowSeconds()
{
    using Clock = std::chrono::steady_clock;
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration<double>(Clock::now() - epoch).count();
}

namespace
{

/** Small per-thread track number, assigned on first use. */
unsigned
threadTrack()
{
    static std::atomic<unsigned> next{0};
    thread_local const unsigned track = next.fetch_add(1);
    return track;
}

} // namespace

std::uint32_t
SpanRecorder::begin(const char *name, std::uint32_t parent,
                    std::int64_t point)
{
    if (!enabled_)
        return 0;
    Span s;
    s.name = name;
    s.parent = parent;
    s.point = point;
    s.track = threadTrack();
    s.t0 = nowSeconds();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(s);
    return static_cast<std::uint32_t>(spans_.size());
}

void
SpanRecorder::end(std::uint32_t id)
{
    if (id == 0)
        return;
    const double t = nowSeconds();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id - 1].t1 = t;
}

std::size_t
SpanRecorder::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

bool
SpanRecorder::write(const std::string &path) const
{
    struct Event
    {
        unsigned track;
        double ts;
        int kind;     ///< 0 = E, 1 = B: close before open at one ts
        double order; ///< nesting tie-break within (ts, kind)
        std::size_t span;
    };
    std::vector<Event> events;
    unsigned tracks = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            if (s.t1 < 0)
                continue;
            tracks = std::max(tracks, s.track + 1);
            // Equal timestamps: the inner span closes first (larger
            // t0) and the outer span opens first (larger t1).
            events.push_back({s.track, s.t1, 0, -s.t0, i});
            events.push_back({s.track, s.t0, 1, -s.t1, i});
        }
    }
    std::sort(events.begin(), events.end(),
              [](const Event &a, const Event &b) {
                  return std::tie(a.track, a.ts, a.kind, a.order) <
                      std::tie(b.track, b.ts, b.kind, b.order);
              });

    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    bool first = true;
    const auto sep = [&]() {
        if (!first)
            out << ",\n";
        first = false;
    };
    for (unsigned t = 0; t < tracks; ++t) {
        sep();
        out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
            << "\"tid\":" << t << ",\"args\":{\"name\":\""
            << (t == 0 ? "main" : "thread " + std::to_string(t))
            << "\"}}";
    }
    char ts[32];
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Event &e : events) {
        const Span &s = spans_[e.span];
        std::snprintf(ts, sizeof ts, "%.3f", e.ts * 1e6);
        sep();
        out << "{\"name\":\"" << s.name << "\",\"ph\":\""
            << (e.kind == 1 ? "B" : "E") << "\",\"pid\":1,\"tid\":"
            << e.track << ",\"ts\":" << ts;
        if (e.kind == 1) {
            out << ",\"args\":{\"id\":" << e.span + 1
                << ",\"parent\":" << s.parent
                << ",\"point\":" << s.point << "}";
        }
        out << "}";
    }
    out << "\n]}\n";
    out.close();
    return !out.fail();
}

// ---- SIGPROF sampler ---------------------------------------------------

namespace sampler
{

namespace
{

constexpr std::size_t kMaxSamples = std::size_t{1} << 20;
std::unique_ptr<std::uintptr_t[]> g_buffer;
std::atomic<std::size_t> g_count{0};
thread_local bool t_active = false;

void
onProf(int, siginfo_t *, void *context)
{
    if (!t_active)
        return;
    const auto *uc = static_cast<const ucontext_t *>(context);
#if defined(__x86_64__)
    const auto pc =
        static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
    const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
    (void)uc;
    return;
#endif
    const std::size_t i = g_count.fetch_add(1, std::memory_order_relaxed);
    if (i < kMaxSamples)
        g_buffer[i] = pc;
}

} // namespace

void
start(unsigned interval_us)
{
    if (!g_buffer) {
        g_buffer = std::make_unique<std::uintptr_t[]>(kMaxSamples);
        // The handler stays installed for the process lifetime: a
        // SIGPROF still pending after stop() must not meet SIG_DFL,
        // which terminates the process.
        struct sigaction sa = {};
        sa.sa_sigaction = onProf;
        sa.sa_flags = SA_SIGINFO | SA_RESTART;
        sigemptyset(&sa.sa_mask);
        sigaction(SIGPROF, &sa, nullptr);
    }
    itimerval tv = {};
    tv.it_interval.tv_usec = static_cast<suseconds_t>(interval_us);
    tv.it_value = tv.it_interval;
    setitimer(ITIMER_PROF, &tv, nullptr);
}

void
stop()
{
    const itimerval off = {};
    setitimer(ITIMER_PROF, &off, nullptr);
}

void
setThreadActive(bool active)
{
    t_active = active;
}

std::vector<std::uintptr_t>
take()
{
    const std::size_t n =
        std::min(g_count.exchange(0), g_buffer ? kMaxSamples : 0);
    return std::vector<std::uintptr_t>(g_buffer.get(),
                                       g_buffer.get() + n);
}

} // namespace sampler

// ---- attribution -------------------------------------------------------

const std::vector<std::string> &
hostLayers()
{
    static const std::vector<std::string> layers = {
        "noc", "gpu",    "cache", "llc", "mem",  "sim",
        "workloads", "obs", "common", "ext", "other"};
    return layers;
}

namespace
{

struct LoadedObject
{
    std::uintptr_t base = 0;
    std::vector<std::pair<std::uintptr_t, std::uintptr_t>> segments;
};

int
collectObject(dl_phdr_info *info, std::size_t, void *data)
{
    auto *objects = static_cast<std::vector<LoadedObject> *>(data);
    LoadedObject o;
    o.base = info->dlpi_addr;
    for (int i = 0; i < info->dlpi_phnum; ++i) {
        const auto &ph = info->dlpi_phdr[i];
        if (ph.p_type == PT_LOAD)
            o.segments.emplace_back(o.base + ph.p_vaddr,
                                    o.base + ph.p_vaddr + ph.p_memsz);
    }
    objects->push_back(std::move(o));
    return 0;
}

/** "/x/src/noc/router.cc:12 (discriminator 3)" -> "noc". */
std::string
layerOfLocation(const std::string &location)
{
    if (location.rfind("??", 0) == 0)
        return "ext";
    const std::string path = location.substr(0, location.rfind(':'));
    const std::size_t src = path.rfind("/src/");
    if (src != std::string::npos) {
        const std::size_t from = src + 5;
        const std::string module =
            path.substr(from, path.find('/', from) - from);
        const auto &layers = hostLayers();
        if (std::find(layers.begin(), layers.end(), module) !=
            layers.end())
            return module;
        return "other";
    }
    if (path.rfind("/usr/", 0) == 0)
        return "ext";
    return "other";
}

std::string
shellQuote(const std::string &s)
{
    std::string q = "'";
    for (const char c : s)
        q += c == '\'' ? std::string("'\\''") : std::string(1, c);
    return q + "'";
}

} // namespace

bool
attributeSamples(const std::vector<std::uintptr_t> &pcs,
                 const std::string &work_dir, LayerSamples &out,
                 std::string &error)
{
    for (const std::string &layer : hostLayers())
        out[layer] = 0;

    // The first object dl_iterate_phdr reports is the executable,
    // which holds the statically linked simulator.
    std::vector<LoadedObject> objects;
    dl_iterate_phdr(collectObject, &objects);
    const auto inObject = [](const LoadedObject &o, std::uintptr_t pc) {
        return std::any_of(o.segments.begin(), o.segments.end(),
                           [pc](const auto &seg) {
                               return pc >= seg.first && pc < seg.second;
                           });
    };
    std::unordered_map<std::uintptr_t, std::uint64_t> exe_offsets;
    for (const std::uintptr_t pc : pcs) {
        if (!objects.empty() && inObject(objects[0], pc))
            ++exe_offsets[pc - objects[0].base];
        else
            ++out["ext"];
    }
    if (exe_offsets.empty())
        return true;

    char exe[4096];
    const ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    if (len <= 0) {
        error = "cannot resolve /proc/self/exe";
        return false;
    }
    exe[len] = '\0';

    const std::string list = work_dir + "/host_pcs.txt";
    {
        std::ofstream f(list);
        for (const auto &[offset, count] : exe_offsets)
            f << "0x" << std::hex << offset << "\n";
        if (!f) {
            error = "cannot write " + list;
            return false;
        }
    }
    const std::string cmd = "addr2line -a -i -e " + shellQuote(exe) +
        " < " + shellQuote(list);
    FILE *pipe = popen(cmd.c_str(), "r");
    if (!pipe) {
        error = "cannot run addr2line";
        return false;
    }
    // Per address: "0x<addr>" then one location per inline level,
    // innermost first; the last one is the non-inlined function.
    std::unordered_map<std::uintptr_t, std::string> outermost;
    std::uintptr_t current = 0;
    bool have_current = false;
    char line[8192];
    while (std::fgets(line, sizeof line, pipe)) {
        std::string s(line);
        while (!s.empty() && (s.back() == '\n' || s.back() == '\r'))
            s.pop_back();
        if (s.rfind("0x", 0) == 0) {
            current = std::stoull(s, nullptr, 16);
            have_current = true;
        } else if (have_current) {
            outermost[current] = s;
        }
    }
    const int status = pclose(pipe);
    std::remove(list.c_str());
    if (status != 0 || outermost.empty()) {
        error = "addr2line failed (status " + std::to_string(status) + ")";
        return false;
    }
    for (const auto &[offset, count] : exe_offsets) {
        const auto it = outermost.find(offset);
        out[it == outermost.end() ? "ext" : layerOfLocation(it->second)] +=
            count;
    }
    return true;
}

} // namespace amsc::bench
